"""The README's library tour, run as written."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    tour = {}
    exec(compile(blocks[0], "README.md", "exec"), tour)
    c = tour["c"]  # the tour's oracle check: entanglement confirmed, both routes agree
    assert c["oracle"]["min_ppt_eig"] < 0 and c["agree"] is True and c["indeterminate"] is True
