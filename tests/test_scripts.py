"""The two scripts under scripts/, run end to end as subprocesses."""

import dataclasses
import importlib.util
import os
import pathlib
import subprocess
import sys

from gausspair import twomode

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_oracle_spotcheck_agrees():
    done = run_script("oracle_spotcheck.py")
    assert done.returncode == 0, done.stderr
    assert "all verdicts agree" in done.stdout


def test_oracle_spotcheck_fails_on_a_decisive_disagreement(monkeypatch, capsys):
    # the same script in process, with every positive two-mode separability verdict flipped
    spec = importlib.util.spec_from_file_location("oracle_spotcheck", ROOT / "scripts" / "oracle_spotcheck.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    real = twomode.classify2

    def flipped(k):
        v = real(k)
        return dataclasses.replace(v, ppt_separable=None if v.ppt_separable is None else not v.ppt_separable)

    monkeypatch.setattr(twomode, "classify2", flipped)
    monkeypatch.setattr(sys, "argv", ["oracle_spotcheck.py", "--count", "0"])
    assert script.main() == 1
    assert "mixed EPR entangled" in next(line for line in capsys.readouterr().out.splitlines() if "DISAGREE" in line)


def test_reproduce_figures_writes_six_csvs(tmp_path):
    done = run_script("reproduce_figures.py", "--steps", "21", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    scans = ["mixed_epr", "anti_epr_half", "anti_epr_unit", "squeezed_epr_half", "squeezed_epr_unit"]
    want = {f"{name}.csv": ("mc,n,positive,pure,separable,p_representable", 21 * 21) for name in scans}
    want["epr_wavefunction.csv"] = ("q1,q2,density", 121 * 121)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want)
    for name, (header, rows) in want.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header, name
        assert len(lines) == rows + 1, name
