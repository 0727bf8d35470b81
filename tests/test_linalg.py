import functools
import sys

import numpy as np
import pytest
from hypothesis import given

from conftest import assert_close, one_mode_moments, two_mode_kernels
from gausspair import cli, kernels, linalg, onemode, states, twomode
from gausspair.errors import DimensionMismatchError, SingularMatrixError
from gausspair.kernels import GaussianKernel, convert

# the fixed involutions, written out: T exchanges (z, z*) of every mode,
# T1 of the first mode only
T2 = np.array([[0.0, 1.0], [1.0, 0.0]])
T4 = np.array(
    [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]
)
T1 = np.array(
    [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
)
T_OF_DIM = {2: T2, 4: T4}


def hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


class TestStructureMatrix:
    """E = structure_e; T is the kernel's normal form; T1 is the partial transpose."""

    def test_e_is_diag_plus_minus(self):
        assert_close(linalg.structure_e(2), np.diag([1.0, -1.0]))
        assert_close(linalg.structure_e(4), np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_t_swaps_every_mode_pair(self, rng):
        m = hermitian(rng, 4)
        assert_close(linalg.hermitian(m), 0.5 * (m + T4 @ m.T @ T4))

    def test_t1_swaps_first_mode_only(self):
        k = twomode.build_C2(
            twomode.TwoModeMoments(n1=1.0, n2=0.8, m1=0.1 + 0.2j, m2=0.1j, ms=0.2, mc=0.15j)
        )
        assert_close(kernels.partial_transpose(k).matrix, T1 @ k.matrix @ T1)

    @pytest.mark.parametrize("kind", ["E", "T"])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_squares_to_identity(self, kind, dim, rng):
        if kind == "E":
            e = linalg.structure_e(dim)
            assert_close(e @ e, np.eye(dim))
        else:
            # the T normal form is a projection: applying it again changes nothing
            m = linalg.hermitian(hermitian(rng, dim))
            assert np.array_equal(linalg.hermitian(m), m)
            assert np.array_equal(m, T_OF_DIM[dim] @ m.T @ T_OF_DIM[dim])

    def test_t1_squares_to_identity(self):
        k = states.anti_epr(n=0.9, mc=0.3, ms=0.2)
        twice = kernels.partial_transpose(kernels.partial_transpose(k))
        assert_close(twice.matrix, k.matrix)


class TestSymMatrix:
    """The one matrix type, a kernel's read-only normal-form array: ``linalg.hermitian`` checks
    outside input, and the public ``GaussianKernel`` runs it."""

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.hermitian([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            GaussianKernel("C", [[1.0, 1.0], [0.0, 1.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            GaussianKernel("C", [[1.0, np.nan], [np.nan, 1.0]])

    @pytest.mark.parametrize(
        "scale, skew, hermitian",
        [(1.0, 1e-13, False), (1.0, 1e-15, True), (1e6, 1e-9, True), (1e6, 1e-8, False)],
    )
    def test_hermiticity_band_is_relative(self, scale, skew, hermitian):
        # the anti-Hermitian part may reach band(max|M|, 1) = 16 eps max|M|
        m = np.array([[scale, 0.5 * scale + skew], [0.5 * scale, scale]])
        if hermitian:
            linalg.hermitian(m)
        else:
            with pytest.raises(ValueError):
                linalg.hermitian(m)

    def test_rejects_wrong_shape(self):
        for shape in [(3, 3), (4,), (2, 4), (0, 0), (6, 6)]:
            with pytest.raises(DimensionMismatchError):
                linalg.hermitian(np.ones(shape))
            with pytest.raises(DimensionMismatchError):
                GaussianKernel("C", np.ones(shape))

    def test_normal_form_is_exact(self):
        # hermitian but not T-symmetric input gets averaged into the normal form
        m = GaussianKernel("C", [[1.0, 0.2j], [-0.2j, 2.0]]).matrix
        assert np.array_equal(m, T2 @ m.T @ T2)
        # diagonal entries averaged, off-diagonal kept
        assert m[0, 0] == pytest.approx(1.5)
        assert m[0, 1] == pytest.approx(0.2j)

    def test_assembled_moments_are_in_normal_form(self, rng):
        # build_C2 and onemode.build_C hold the assembled matrix without a normalization
        # pass: the pass would change no value of it (only the sign of a zero part)
        for _ in range(500):
            parts = rng.normal(size=10) * 10.0 ** rng.uniform(-6.0, 6.0, 10)
            parts[rng.random(10) < 0.3] = 0.0
            parts *= rng.choice([-1.0, 1.0], 10)  # zeros of both signs
            m = [complex(a, b) for a, b in zip(parts[:5], parts[5:])]
            n1, n2 = np.abs(parts[:2]) * 3.0
            c2 = twomode.assemble_c(twomode.TwoModeMoments(n1, n2, *m[:4]))
            assert np.array_equal(linalg.normal_form(c2), c2)
            p = onemode.OneModeMoments(n1 + abs(m[4]), m[4])  # a state: |m| < n + 1/2
            c1 = onemode.build_C(p).matrix
            assert np.array_equal(linalg.normal_form(c1), c1)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_entries_past_half_the_largest_float_do_not_overflow(self, dim):
        # the averages added before they halved: diag(1e308, 1e308) overflowed to inf and nan,
        # with RuntimeWarnings, which are errors under pytest
        huge = np.diag([1e308] * dim).astype(complex)
        assert linalg.hermitian(huge).tobytes() == huge.tobytes()
        assert linalg.normal_form(huge).tobytes() == huge.tobytes()
        skew = huge.copy()
        skew[0, 1], skew[1, 0] = 1e308, -1e308
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian(skew)
        with pytest.raises(ValueError, match="an eigenvalue overflows it"):
            GaussianKernel("C", huge)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_halving_first_keeps_the_bits_of_halving_the_sum(self, rng, dim):
        # for entries of at least 2^-1021 in size, where halving is exact
        for _ in range(300):
            m = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * 10.0 ** rng.uniform(-300, 300)
            m[rng.random((dim, dim)) < 0.2] = 0.0
            summed = 0.5 * (m + T_OF_DIM[dim] @ m.T @ T_OF_DIM[dim])
            summed = 0.5 * (summed + summed.conj().T)
            assert linalg.normal_form(m).tobytes() == summed.tobytes()

    def test_leaves_the_callers_array_alone(self):
        entries = np.array([[1.0, 0.2j], [-0.2j, 2.0]])
        k = GaussianKernel("C", entries)
        assert entries.flags.writeable and np.array_equal(entries, [[1.0, 0.2j], [-0.2j, 2.0]])
        assert k.matrix[0, 0] == 1.5
        entries[0, 1] = 0.3  # the kernel holds a copy
        assert k.matrix[0, 1] == 0.2j

    def test_is_immutable(self):
        # a kernel built from outside input, from assembled moments, and by convert
        for k in (GaussianKernel("C", np.eye(2)), states.mixed_epr(1.0, 0.5), kernels.convert(states.mixed_epr(1.0, 0.5), "W")):
            assert not k.matrix.flags.writeable
            with pytest.raises(ValueError):
                k.matrix[0, 0] = 5.0
            with pytest.raises(AttributeError):
                k.matrix = np.zeros((2, 2))

    def test_det_and_indexing(self):
        k = GaussianKernel("C", [[1.5, 0.5], [0.5, 1.5]])
        assert k.det == pytest.approx(2.0)  # the product of the carried eigenvalues
        assert k.matrix[1, 0] == pytest.approx(0.5)
        assert k.modes == 1


class TestBand:
    def test_floats_and_arrays_give_the_same_bits(self, rng):
        # one kernel's verdicts take band on Python floats, a stack's on arrays
        xs = (rng.random(20000) * 10.0 ** rng.uniform(-8, 8, 20000)).tolist()
        assert sum(x**2 != x * x for x in xs) > 0  # libm's pow misses some squares
        for degree in (1, 2, 3):
            got = np.array([linalg.band(x, degree) for x in xs])
            assert np.array_equal(got.view(np.uint64), linalg.band(np.array(xs), degree).view(np.uint64)), degree


class TestNonsingular:
    def test_a_smallest_eigenvalue_on_the_band_is_singular(self):
        # the sum is 1 exactly and band(1, 1) = 16 eps = 2^-48: a smallest |eigenvalue| at the band is singular,
        # strictly above it is not
        with pytest.raises(SingularMatrixError):
            linalg.nonsingular([2.0**-48, 1.0 - 2.0**-48])
        assert linalg.nonsingular([2.0**-47, 1.0 - 2.0**-47]) == 2.0**-47


def _scan_text():
    return "".join(cli.scan_blocks(cli.ScanRequest("anti_epr", 0.5, 0.0, 2.0, 9, 0.0, 2.0, 9)))


class TestOneHomePerRule:
    """C's existence and P rules (``c_rules``) and the singularity rule (``nonsingular``) are written
    once, here: each caller goes through them, seen by counting wrappers on the module attributes."""

    @pytest.mark.parametrize(
        "action, callers",
        [
            (lambda: GaussianKernel("C", [[1.0, 0.2], [0.2, 1.0]]), {("_check", "c_rules")}),
            (functools.partial(convert, states.mixed_epr(1.0, 0.3), "P"), {("_check", "c_rules"), ("_invertible", "nonsingular")}),
            (lambda: convert(GaussianKernel("W", [[1.0, 0.2], [0.2, 1.0]]), "C"), {("_invertible", "nonsingular"), ("_check", "c_rules")}),
            *((functools.partial(GaussianKernel, kind, [[1.0, 0.2], [0.2, 1.0]]),
               {("_invertible", "nonsingular"), ("_check", "c_rules")}) for kind in "WQP"),
            (lambda: twomode.classify2(states.anti_epr(0.9, 0.5, 0.3)), {("verdicts_from_invariants", "c_rules")}),
            (lambda: onemode.OneModeMoments(1.0, 0.3), {("__post_init__", "c_rules")}),
            (lambda: onemode.classify(onemode.OneModeMoments(1.0, 0.3)), {("classify", "c_rules")}),
            (_scan_text, {("verdicts_from_invariants", "c_rules")}),
        ],
        ids=["kernel-check", "convert", "built-w-to-c", "build-w", "build-q", "build-p", "classify2", "one-mode-moments",
             "one-mode-classify", "scan-blocks"],
    )
    def test_each_caller_goes_through_the_rules(self, monkeypatch, action, callers):
        seen = set()
        for name in ("c_rules", "nonsingular"):
            def counted(*args, rule=name, real=getattr(linalg, name)):
                seen.add((sys._getframe(1).f_code.co_name, rule))
                return real(*args)

            monkeypatch.setattr(linalg, name, counted)
        action()
        assert callers <= seen, seen

    def test_the_scan_decides_its_blocks_through_them(self, monkeypatch):
        shapes = []
        real = linalg.c_rules
        monkeypatch.setattr(linalg, "c_rules", lambda low, trace: shapes.append(np.shape(low)) or real(low, trace))
        _scan_text()
        assert shapes == [(9, 9)]


class TestInvert:
    def test_identity(self):
        assert np.allclose(linalg.invert(np.eye(2)), np.eye(2), rtol=0.0, atol=1e-10)

    def test_thermal_scalar_inverse(self):
        inv = linalg.invert(GaussianKernel("C", np.diag([1.5, 1.5])).matrix)
        assert_close(inv, np.diag([2.0 / 3.0, 2.0 / 3.0]))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.invert(GaussianKernel("C", [[1.0, 1.0], [1.0, 1.0]]).matrix)

    def test_small_scale_is_not_singular(self):
        # singularity is relative to the size of the matrix, not to an absolute det
        inv = linalg.invert(GaussianKernel("C", 1e-8 * np.array([[2.0, 1.0], [1.0, 2.0]])).matrix)
        assert_close(inv * 1e-8, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, tol=1e-15)

    @given(two_mode_kernels())
    def test_involution_on_random_c(self, k):
        assert np.allclose(linalg.invert(linalg.invert(k.matrix)), k.matrix, rtol=0.0, atol=1e-10)

    @given(two_mode_kernels())
    def test_inverse_multiplies_to_identity(self, k):
        prod = linalg.invert(k.matrix) @ k.matrix
        assert_close(prod, np.eye(4))


class TestConjByStructure:
    """Conjugation by the literal T1 and E: the partial transpose and the E sandwich."""

    def test_t_conjugates_one_mode_m(self):
        # on the first mode's block the partial transpose is T conjugation: m1 -> m1*
        k = twomode.build_C2(twomode.TwoModeMoments(n1=1.0, n2=0.5, m1=0.3j))
        out = kernels.partial_transpose(k)
        want = twomode.build_C2(twomode.TwoModeMoments(n1=1.0, n2=0.5, m1=-0.3j))
        assert np.allclose(out.matrix, want.matrix, rtol=0.0, atol=1e-10)
        assert_close(out.matrix[:2, :2], T2 @ k.matrix[:2, :2] @ T2)

    def test_t1_moves_mc_to_ms_slot(self):
        out = kernels.partial_transpose(states.mixed_epr(n=1.0, mc=0.7))
        want = states.anti_epr(n=1.0, mc=0.0, ms=0.7)
        assert np.allclose(out.matrix, want.matrix, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("kind", ["E", "T", "T1"])
    def test_involution(self, kind):
        k = states.anti_epr(n=0.9, mc=0.3, ms=0.2)
        if kind == "E":
            e = linalg.structure_e(4)
            twice = e @ (e @ k.matrix @ e) @ e
        elif kind == "T":
            # T applied to the transpose: the kernel's own normal form
            twice = T4 @ k.matrix.T @ T4
        else:
            twice = kernels.partial_transpose(kernels.partial_transpose(k)).matrix
        assert_close(twice, k.matrix)

    @given(two_mode_kernels())
    def test_t1_preserves_det(self, k):
        out = kernels.partial_transpose(k)
        assert out.det == pytest.approx(k.det, abs=1e-10)
