"""The two scripts under scripts/, run end to end as subprocesses."""

import os
import pathlib
import subprocess
import sys

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
