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
        "root = np.sqrt(np.where((last >= 0) & (last < d), last, 0))",
        "root = np.sqrt(np.where((last >= 0) & (last <= d), last, 0))",
        "the charge sector's sqrt(k_l) is zero where the last index k_l leaves [0, d)",
        ["tests/test_fock.py::TestChargeSector::test_the_sector_root_is_the_last_index_inside_the_box[charge0]"],
    ),
    (
        # sqrt of a negative k_l: a RuntimeWarning, which the suite turns into an error
        "fock.py",
        "root = np.sqrt(np.where((last >= 0) & (last < d), last, 0))",
        "root = np.sqrt(np.where((last < d), last, 0))",
        "the charge sector's sqrt(k_l) is zero where k_l is negative",
        ["tests/test_fock.py::TestChargeSector::test_the_sector_root_is_the_last_index_inside_the_box[charge0]"],
    ),
    (
        "fock.py",
        "charged &= side[j] != side[i]  # false at a self-coupling (j = i) or an odd cycle",
        "charged &= side[j] != side[i] or j == i  # false at a self-coupling (j = i) or an odd cycle",
        "a component of B's graph that couples a variable to itself keeps a parity, not a charge",
        ["tests/test_fock.py::TestChargeSector::test_a_self_coupling_leaves_a_parity"],
    ),
    (
        "fock.py",
        "if coupled[i][j] or j == swap[i]:",
        "if coupled[i][j]:",
        "the laws come from B's graph with each pair alpha_i*, beta_i joined",
        ["tests/test_fock.py::TestChargeSector::test_the_laws_are_closed_under_the_swap_of_alpha_and_beta"],
    ),
    (
        "fock.py",
        "b[np.abs(b) <= band(np.abs(b).max(), 1)] = 0.0",
        "b[np.abs(b) <= 0.0] = 0.0",
        "entries of B within band(max|B|, 1) are the conversion's round-off and are cut to zero",
        ["tests/test_fock.py::TestBlocks::test_conversion_round_off_keeps_the_blocks"],
    ),
    (
        # the partial transpose's classes read with G's roles: n1 - n2 classes where the entries keep n1 + n2
        "fock.py",
        "values = np.array([np.take(c, roles[:modes]) for c, _ in laws]) @ digits",
        "values = np.array([np.take(c, range(modes)) for c, _ in laws]) @ digits",
        "an index's class is its value of each law's share of a row, alpha1* and beta1 swapping roles on the partial "
        "transpose",
        ["tests/test_fock.py::TestPatternReference::"
         "test_the_classes_are_the_pattern_components_and_the_spectra_agree_bit_for_bit[mixed_epr-16]",
         "tests/test_fock.py::TestPartialTranspose::test_entangled_point_negative"],
    ),
    (
        # every index then shares a parity's value: a kernel with one parity law is solved as one block
        "fock.py",
        "values[[not charged for _, charged in laws]] %= 2",
        "values[[not charged for _, charged in laws]] = 0",
        "a non-bipartite component's parity is part of each index's class",
        ["tests/test_fock.py::TestPatternReference::"
         "test_the_classes_are_the_pattern_components_and_the_spectra_agree_bit_for_bit[k_star-16]"],
    ),
    (
        "fock.py",
        "np.where(lab[r] == lab[c], row[r] + col[c], len(f.amplitudes) - 1)",
        "np.where(True, row[r] + col[c], len(f.amplitudes) - 1)",
        "an entry between two classes is read from the stored zero, not from the held tensor",
        ["tests/test_fock.py::TestBlocks::test_entries_between_two_blocks_of_a_bin_are_read_from_the_stored_zero",
         "tests/test_fock.py::TestChargeSector::test_the_sector_build_is_the_full_recurrence_bit_for_bit[mixed_epr-16]"],
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
        "fock.py",
        "if cutoff < 4 or",
        "if cutoff < 1 or",
        "the oracle takes cutoffs from 4",
        ["tests/test_fock.py::TestFromKernel::test_cutoff_guard"],
    ),
    (
        "kernels.py",
        "if not all(abs(y) <= linalg.MAX_SCALE for y in lam):",
        "if not all(abs(y) <= __import__('sys').float_info.max / 4 for y in lam):",
        "a kernel's C eigenvalues lie in the verdict range linalg.MAX_SCALE",
        ["tests/test_kernels.py::test_every_kernel_that_exists_gets_finite_verdicts"],
    ),
    (
        "kernels.py",
        "vc = k._vc[[1, 0, 2, 3]]",
        "vc = k._vc[[0, 1, 2, 3]]",
        "the partial transpose maps C's eigenvectors V_C to Pi V_C, Pi swapping z1 and z1*",
        ["tests/test_twomode.py::TestPartialTranspose::test_moment_relabeling",
         "tests/test_states.py::TestAntiEpr::test_transpose_swaps_couplings"],
    ),
    (
        "kernels.py",
        "k._dets and (*k._dets[:2], -k._dets[2])",
        "k._dets and (*k._dets[:2], k._dets[2])",
        "the partial transpose carries C's (dA, dB, -dX): Pi swaps X's rows",
        ["tests/test_twomode.py::TestPartialTranspose::test_maps_the_carried_pair[C]",
         "tests/test_known_defects.py::test_ppt_split_at_the_anti_epr_separability_boundary"],
    ),
    (
        # the map of W, Q and P before it was one map: Pi K Pi of the kernel's own matrix, C's rule turned by a pi phase
        "kernels.py",
        "vc = k._vc[[1, 0, 2, 3]]",
        'vc = k._vc[[1, 0, 2, 3]] if k._kind == "C" else (e := _E_SIGN[4]) * e[[1, 0, 2, 3]] * k._vc[[1, 0, 2, 3]]',
        "the partial transpose is one map for every kind: it commutes with convert",
        ["tests/test_twomode.py::TestPartialTranspose::test_maps_the_carried_pair[W]",
         "tests/test_fock.py::TestPartialTranspose::test_the_kernel_map_is_the_fock_map_up_to_a_local_phase[k_star-Q-16]"],
    ),
    (
        "kernels.py",
        "if k.kind != kind or modes not in (None, k.modes):",
        "if k.kind != kind:",
        "require refuses a kernel argument of the wrong mode count",
        ["tests/test_kernels.py::test_block_dets_are_only_a_two_mode_cs[family]",
         "tests/test_kernels.py::TestOneKernelCheck::test_require_refuses_every_kernel_a_function_does_not_take[kernels.partial_transpose]"],
    ),
    (
        "kernels.py",
        "1.0 / linalg.nonsingular([abs(y + s) for y in lam]) <= linalg.MAX_SCALE:",
        '1.0 / linalg.nonsingular([abs(y + s) for y in lam]) <= float("inf"):',
        "a conversion's eigenvalues 1/(lam + s) lie in the verdict range linalg.MAX_SCALE",
        ["tests/test_kernels.py::test_convert_refuses_at_the_call_before_forming_a_matrix[overflow]"],
    ),
    (
        "kernels.py",
        'if kind == "P" and not p_representable:',
        'if False and not p_representable:',
        "a P kernel's C is P-representable",
        ["tests/test_kernels.py::test_p_conversion_refused_for_pure_state"],
    ),
    (
        "linalg.py",
        "K = 16  #",
        "K = 4  #",
        "the verdict band is 16 eps scale^degree",
        ["tests/test_linalg.py::TestSymMatrix::test_hermiticity_band_is_relative[1.0-1e-15-True]"],
    ),
    (
        "linalg.py",
        "> band(np.abs(h).max(), 1):",
        "> 0.0:",
        "a matrix is Hermitian where its anti-Hermitian part is within band(max|M|, 1)",
        ["tests/test_kernels.py::test_construction_decides_every_conversion",
         "tests/test_kernels.py::TestNormalForm::test_every_route_makes_a_matrix_in_normal_form",
         "tests/test_known_defects.py::test_wq_file_round_trip_near_a_singular_c",
         "tests/test_linalg.py::TestSymMatrix::test_hermiticity_band_is_relative[1.0-1e-15-True]",
         "tests/test_linalg.py::TestSymMatrix::test_hermiticity_band_is_relative[1000000.0-1e-09-True]"],
    ),
    (
        "linalg.py",
        "return low >= -tol, low - 0.5 > tol",
        "return low >= 0.0, low - 0.5 > tol",
        "C exists where its smallest eigenvalue is at least -band(tr C, 1)",
        ["tests/test_onemode.py::TestExistenceFollowsTheKernelRule::test_moments_are_admitted_where_build_c_is[0.0--0.5]"],
    ),
    (
        "linalg.py",
        "if not low > tol:",
        "if not low >= tol:",
        "a smallest |eigenvalue| at band(sum, 1) is singular",
        ["tests/test_linalg.py::TestNonsingular::test_a_smallest_eigenvalue_on_the_band_is_singular"],
    ),
    (
        "linalg.py",
        "    return 0.5 * (m + m.take(_T_GATHER[len(m)]))",
        "    return m",
        "a formed matrix is T-symmetric bit for bit: hermitian_part ends in the average with T m^T T",
        ["tests/test_cli.py::TestConvert::test_output_is_the_formed_matrix_bitwise[W]",
         "tests/test_kernels.py::TestNormalForm::test_every_route_makes_a_matrix_in_normal_form"],
    ),
    (
        "linalg.py",
        "    h = 0.5 * (h + h.take(_T_GATHER[len(h)]))",
        "    h = 0.5 * (h + h)",
        "a matrix from outside is T-symmetric bit for bit once a kernel holds it: normal_form averages it with T m^T T",
        ["tests/test_kernels.py::TestNormalForm::test_every_route_makes_a_matrix_in_normal_form",
         "tests/test_linalg.py::TestSymMatrix::test_normal_form_is_exact"],
    ),
    (
        # X read where B lies: dX = dB
        "linalg.py",
        "for r, c in ((0, 0), (2, 2), (0, 2))])",
        "for r, c in ((0, 0), (2, 2), (2, 2))])",
        "C's off-diagonal block X, whose determinant dX every two-mode verdict reads, is at rows 0-1, columns 2-3",
        ["tests/test_kernels.py::test_carried_block_determinants_are_those_of_the_formed_matrix[mixed_epr]",
         "tests/test_twomode.py::TestClassify2::test_two_vacua",
         "tests/test_cli.py::TestScan::test_closed_form_invariants_equal_the_block_determinants[figure-mixed_epr-0.0]",
         "tests/test_twomode.py::TestLocalUnitaries::test_seeded"],
    ),
    (
        "onemode.py",
        "band = linalg.band(2.0 * p.n + 1.0, 2)",
        "band = linalg.band(2.0 * p.n + 1.0, 1)",
        "the one-mode margins take band(2n + 1, 2)",
        ["tests/test_scale.py::TestOneModeAcrossScale::test_pure_state_is_positive_and_pure"],
    ),
    (
        "onemode.py",
        "if not linalg.c_rules(lo, lo + hi)[0]:",
        "if not lo >= 0.0:",
        "one-mode moments exist by c_rules on the eigenvalues build_C carries, band and all",
        ["tests/test_linalg.py::TestOneHomePerRule::test_each_caller_goes_through_the_rules[one-mode-moments]",
         "tests/test_onemode.py::TestExistenceFollowsTheKernelRule::test_moments_are_admitted_where_build_c_is[0.0--0.5]",
         "tests/test_onemode.py::TestExistenceFollowsTheKernelRule::test_moments_are_admitted_where_build_c_is[0.7--0.5]",
         "tests/test_onemode.py::TestExistenceFollowsTheKernelRule::test_moments_from_c_takes_every_accepted_kernel[0.0--0.5]",
         "tests/test_onemode.py::TestExistenceFollowsTheKernelRule::test_moments_from_c_takes_every_accepted_kernel[0.7--0.5]"],
    ),
    (
        "twomode.py",
        "floor = 0.25 * self.positive",
        "floor = 0.0 * self.positive",
        "on a positive state both symplectic eigenvalues are held at 1/2 or above",
        ["tests/test_twomode.py::TestClassify2::test_large_n_pure_epr_returns"],
    ),
    (
        "twomode.py",
        "(d_ab + dx2 - 0.5 <= linalg.band(top, 2))",
        "(d_ab + dx2 - 0.5 <= linalg.band(top, 1))",
        "the purity margin Delta - 1/2 takes band(|C|, 2)",
        ["tests/test_scale.py::TestPureTwoModeAcrossScale::test_positive_pure_and_entangled[smoothed_epr]"],
    ),
    (
        "twomode.py",
        "positive & (slack >= -dx2), p_rep",
        "positive & (slack >= dx2), p_rep",
        "PPT separability is the positivity margin with -2dX: slack >= -2dX",
        ["tests/test_twomode.py::TestClassify2::test_entangled_mixed_point"],
    ),
    (
        "twomode.py",
        "positive = exists & (excess >= -tol) & (slack >= dx2)",
        "positive = exists & (slack >= dx2)",
        "a positive C has det C >= 1/16 within the band",
        ["tests/test_twomode.py::TestPositivity::test_det_route_answers_a_singular_c[0.3]"],
    ),
    (
        "twomode.py",
        "positive = exists & (excess >= -tol) & (slack >= dx2)",
        "positive = exists & (excess >= -tol)",
        "a positive C has 1/4 + 4D - (dA + dB + 2dX) >= 0 within the band",
        ["tests/test_twomode.py::TestPositivity::test_det_route_answers_wherever_classify2_does"],
    ),
    (
        "twomode.py",
        "if min(x) * max(x) < 0.25 - linalg.band(max(x), 2):",
        "if False:",
        "the determinant route refuses a C with lam_min lam_max < 1/4 before its margins",
        ["tests/test_twomode.py::TestPositivity::test_det_route_answers_a_singular_c[0.3]"],
    ),
    (
        "twomode.py",
        "margin >= -v.band for margin",
        "margin >= 0.0 for margin",
        "the determinant route's margins hold within the engine's band",
        ["tests/test_twomode.py::TestPositivity::test_det_route_on_pure_smoothed_epr[1.0]"],
    ),
    (
        "twomode.py",
        "<= linalg.band(sum(k.eigenvalues), 2))",
        "<= linalg.band(sum(k.eigenvalues), 1))",
        "the pure-state marginal test det A = 1/4 takes band(tr C, 2)",
        ["tests/test_twomode.py::TestMarginalSeparability::test_closed_form_kernels_form_no_matrix[1000.0]"],
    ),
    (
        "cli.py",
        "+ 0.5 + (1.0 + abs(self.ratio)) * mc_top",
        "+ 0.5 + mc_top",
        "a scan's eigenvalue bound is max|n| + 1/2 + (1 + |ratio|) max|mc|",
        ["tests/test_cli.py::TestScan::test_overflowing_moments_are_refused"],
    ),
    (
        "kernels.py",
        "return source",
        "pass",
        "a W, Q or P converted from a C converts back to that C, not to a C built again from the carried pair",
        ["tests/test_kernels.py::test_every_chain_ending_in_c_returns_its_source[build_C2-0.7]",
         "tests/test_kernels.py::test_one_eigensolve_per_chain"],
    ),
    (
        "kernels.py",
        "vc, None, k._dets and (*k._dets[:2], -k._dets[2]))",
        "vc, None, k._dets and (*k._dets[:2], -k._dets[2]), k._source)",
        "the partial transpose refers to no source C, as Pi C Pi is not k's C",
        ["tests/test_kernels.py::test_partial_transpose_drops_the_carried_c[K*]"],
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
