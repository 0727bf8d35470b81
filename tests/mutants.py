"""Mutation census: each listed mutant of a verdict, band, admission or oracle rule must fail a named test.

Each row of ``MUTANTS`` breaks one rule by replacing one exact text in a file of ``src/gausspair``, and
names the tests that pin the rule.  For each row the runner copies ``src/`` to a temporary directory,
checks that the old text occurs there exactly once, applies the change and runs only the named tests,
importing the package from the copy.  A mutant is killed when a named test fails or the run outlasts
``TIMEOUT`` (a mutant that makes a loop endless), and survives when all of them pass.  The named tests
are first run on the unchanged copy, where every one must pass within the same timeout.

Run from anywhere, with numpy, pytest and hypothesis installed: ``python3 tests/mutants.py``.  It prints
one line per row and exits 1 if any mutant survives.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMEOUT = 30  # seconds for one row's tests; the slowest row takes about 3.5 s unmutated on a 2-core machine

# (file in src/gausspair, exact old text, new text, the rule it breaks, the test ids that kill it)
MUTANTS = [
    (
        "fock.py",
        "LOSS_THRESHOLD = 1e-4",
        "LOSS_THRESHOLD = 1e-2",
        "the oracle refuses a truncation loss past 1e-4",
        ["tests/test_fock.py::TestFromKernel::test_loss_threshold"],
    ),
    (
        "fock.py",
        "DEAD_BAND = 1e-5",
        "DEAD_BAND = 1e-2",
        "an oracle eigenvalue farther than 1e-5 from zero decides",
        ["tests/test_fock.py::TestAgreement::test_dead_band"],
    ),
    (
        "fock.py",
        "keep = np.flatnonzero(inside := (last >= 0) & (last < d))",
        "keep = np.flatnonzero(inside := (last >= 0) & (last <= d))",
        "the charge sector holds the amplitudes whose last index k_l lies in [0, d)",
        ["tests/test_fock.py::TestChargeSector::test_the_sector_build_is_the_full_recurrence_bit_for_bit"],
    ),
    (
        "fock.py",
        "keep = np.flatnonzero(inside := (last >= 0) & (last < d))",
        "keep = np.flatnonzero(inside := (last < d))",
        "the charge sector's indices are those with c.k = 0 and every index in [0, d)",
        ["tests/test_fock.py::TestChargeSector::test_the_sector_is_every_index_that_conserves_the_charge"],
    ),
    (
        "fock.py",
        "if c[j] == c[i]:  # a self-coupling (j = i) or an odd cycle",
        "if c[j] == c[i] and j != i:  # a self-coupling (j = i) or an odd cycle",
        "a B whose last variable's component couples a variable to itself conserves no charge",
        ["tests/test_fock.py::TestChargeSector::test_a_self_coupling_in_the_last_variables_component_leaves_no_charge"],
    ),
    (
        "fock.py",
        "b[np.abs(b) <= band(np.abs(b).max(), 1)] = 0.0",
        "b[np.abs(b) <= 0.0] = 0.0",
        "entries of B within band(max|B|, 1) are the conversion's round-off and are cut to zero",
        ["tests/test_fock.py::TestBlocks::test_conversion_round_off_keeps_the_blocks"],
    ),
    (
        # the first blocks found for a (size, nonzero count) are handed to every later matrix with that key
        "fock.py",
        "bins = _pattern_blocks(len(m), np.packbits(m != 0).tobytes())[1]",
        "bins = _pattern_blocks.__dict__.setdefault((len(m), np.count_nonzero(m)), "
        "_pattern_blocks(len(m), np.packbits(m != 0).tobytes()))[1]",
        "the blocks of a matrix are memoized on its exact nonzero pattern, not on its size and nonzero count",
        ["tests/test_fock.py::TestSpectrum::test_blocks_match_the_full_eigenproblem",
         "tests/test_fock.py::TestAgreement::test_compare_reads_both_spectra"],
    ),
    (
        "fock.py",
        "for a in (lab, *bins):",
        "for a in ():",
        "the memoized labels and bins, shared by every matrix with their pattern, are read-only",
        ["tests/test_fock.py::TestPatternMemo::test_the_cached_labels_and_bins_are_read_only"],
    ),
    (
        "fock.py",
        "@functools.lru_cache(maxsize=32)",
        "@functools.lru_cache(maxsize=None)",
        "the memo of block patterns holds at most 32 patterns",
        ["tests/test_fock.py::TestPatternMemo::test_the_memo_is_bounded"],
    ),
    (
        # the search never ends: every pattern has a nonzero between indices of one label
        "fock.py",
        "while (pattern & (lab[:, None] != lab)).any():",
        "while (pattern & (lab[:, None] == lab)).any():",
        "the label search stops once no nonzero entry lies between indices of two labels",
        ["tests/test_fock.py::TestSpectrum::test_vacuum"],
    ),
    (
        "fock.py",
        "fill[hi] + sizes[lo - 1] <= sizes[0]:",
        "fill[hi] + sizes[lo - 1] < sizes[0]:",
        "a bin is filled up to the size of the largest block, inclusive",
        ["tests/test_fock.py::TestBlocks::test_an_epr_operator_is_one_batched_solve"],
    ),
    (
        # the next-largest block left is rotated to slot lo - 1, behind the smaller ones, and taken from there
        "fock.py",
        "        while lo - 1 > hi and fill[hi] + sizes[lo - 1] <= sizes[0]:\n            lo -= 1\n",
        "        while lo - 1 > hi and fill[hi] + sizes[hi + 1] <= sizes[0]:\n"
        "            sizes[hi + 1 : lo] = sizes[hi + 2 : lo] + sizes[hi + 1 : hi + 2]\n"
        "            blocks[hi + 1 : lo] = np.roll(blocks[hi + 1 : lo], -1)\n"
        "            fill[hi + 1 : lo] = sizes[hi + 1 : lo]\n"
        "            lo -= 1\n",
        "a bin fills with the smallest blocks left, not the next-largest",
        ["tests/test_fock.py::TestBlocks::test_an_epr_operator_is_one_batched_solve"],
    ),
    (
        "kernels.py",
        "if not all(abs(y) <= linalg.MAX_SCALE for y in lam):",
        "if not all(abs(y) <= __import__('sys').float_info.max / 4 for y in lam):",
        "a kernel's C eigenvalues lie in the verdict range linalg.MAX_SCALE",
        ["tests/test_kernels.py::test_every_kernel_that_exists_gets_finite_verdicts"],
    ),
]


def _passes(src: pathlib.Path, tests: list[str]) -> bool:
    """Whether every test in ``tests`` passes within ``TIMEOUT`` with the package imported from ``src``."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
    try:
        run = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def _copy(src: pathlib.Path) -> None:
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))


def main() -> int:
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        _copy(src)
        named = sorted({test for *_, tests in MUTANTS for test in tests})
        if not _passes(src, named):
            print("the named tests do not all pass on the unchanged source")
            return 1
        for file, old, new, rule, tests in MUTANTS:
            _copy(src)
            path = src / "gausspair" / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{file}: {old!r} occurs {text.count(old)} times, not once")
                return 1
            path.write_text(text.replace(old, new))
            killed = not _passes(src, tests)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {file}: {old} -> {new} ({rule})")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
