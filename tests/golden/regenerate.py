"""Regenerate the digests of ``outputs.sha256``, the golden outputs of the deterministic commands.

Each line of ``outputs.sha256`` is "<sha256>  <argv>".  For a CLI argv the digest is the sha256 of
the JSON list [exit code, stdout, stderr, out.csv] of ``gausspair.cli.main(argv)``, run in process
in a fresh directory that holds ``FILES`` (out.csv is null where the command writes no file).  For
"reproduce_figures.py --steps 201 <name>" it is the digest of the CSV <name> that the script writes.
Lines starting with "#" are comments.  To add a line, write any placeholder digest before its argv.

Run from the repository root; it prints each line whose digest changed:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import shlex
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "outputs.sha256"
FIGURES = "reproduce_figures.py --steps 201 "
# the kernel files the convert refusals read; missing.json is absent on purpose
FILES = {
    "no_matrix.json": {"modes": 1, "kind": "C"},
    "not_a_state.json": {"modes": 1, "kind": "C", "matrix": [[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]},
    "three_modes.json": {"modes": 3, "kind": "C", "matrix": [[1.0, 0.0]] * 36},
    "no_modes.json": {"modes": 0, "kind": "C", "matrix": []},
    # refused where the kernel is built, so with one exit code for every --to: a W of no operator
    # (lam = -2, 2/3), a P whose C is inside the P band (lam - 1/2 = 1e-15) and an all-NaN W
    "no_operator_w.json": {"modes": 1, "kind": "W", "matrix": [[0.5, 0.0], [1.0, 0.0], [1.0, 0.0], [0.5, 0.0]]},
    "p_band.json": {"modes": 2, "kind": "P", "matrix": [[1e15 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]},
    "nan_w.json": {"modes": 1, "kind": "W", "matrix": [[math.nan, math.nan]] * 4},
}


def _digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def _run_cli(argv: list[str]) -> str:
    from gausspair import cli

    out_file = pathlib.Path("out.csv")
    out_file.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse and the moment-flag checks exit with the usage code
            code = exc.code
    return _digest(code, out.getvalue(), err.getvalue(), out_file.read_text() if out_file.exists() else None)


def _run_figures() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location("reproduce_figures", HERE.parents[1] / "scripts" / "reproduce_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv, sys.argv = sys.argv, ["reproduce_figures.py", "--steps", "201", "--out-dir", "figures"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            script.main()
    finally:
        sys.argv = argv
    return {path.name: _digest(path.read_text()) for path in pathlib.Path("figures").iterdir()}


def read(path: pathlib.Path = GOLDEN) -> list[tuple[str, str]]:
    """The (digest, argv) pairs of the golden file, in order."""
    lines = path.read_text().splitlines()
    return [tuple(line.split("  ", 1)) for line in lines if line and not line.startswith("#")]


def digests(argvs: list[str]) -> list[str]:
    """The digest of each argv line, all run in one fresh temporary directory."""
    cwd, figures, out = os.getcwd(), None, []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, obj in FILES.items():
                pathlib.Path(name).write_text(json.dumps(obj))
            for argv in argvs:
                if argv.startswith(FIGURES):
                    figures = figures or _run_figures()
                    out.append(figures[argv[len(FIGURES):]])
                else:
                    out.append(_run_cli(shlex.split(argv)))
        finally:
            os.chdir(cwd)
    return out


def main() -> None:
    pairs = read()
    new = digests([argv for _, argv in pairs])
    for (old, argv), digest in zip(pairs, new):
        if digest != old:
            print(f"changed: {argv}")
    fresh = iter(new)
    lines = [line if not line or line.startswith("#") else f"{next(fresh)}  {line.split('  ', 1)[1]}"
             for line in GOLDEN.read_text().splitlines()]
    GOLDEN.write_text("".join(line + "\n" for line in lines))


if __name__ == "__main__":
    main()
