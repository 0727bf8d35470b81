import numpy as np
import pytest
from hypothesis import given

from conftest import assert_close, one_mode_moments, two_mode_kernels
from gausspair import linalg, onemode, states, twomode
from gausspair.errors import DimensionMismatchError, SingularMatrixError, WrongModeCountError
from gausspair.kernels import GaussianKernel
from gausspair.linalg import SymMatrix

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
    """E = structure_e; T is the SymMatrix normal form; T1 is the partial transpose."""

    def test_e_is_diag_plus_minus(self):
        assert_close(linalg.structure_e(2), np.diag([1.0, -1.0]))
        assert_close(linalg.structure_e(4), np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_t_swaps_every_mode_pair(self, rng):
        m = hermitian(rng, 4)
        assert_close(SymMatrix(m).mat, 0.5 * (m + T4 @ m.T @ T4))

    def test_t1_swaps_first_mode_only(self):
        k = twomode.build_C2(
            twomode.TwoModeMoments(n1=1.0, n2=0.8, m1=0.1 + 0.2j, m2=0.1j, ms=0.2, mc=0.15j)
        )
        assert_close(twomode.partial_transpose(k).matrix, T1 @ k.matrix @ T1)

    @pytest.mark.parametrize("kind", ["E", "T"])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_squares_to_identity(self, kind, dim, rng):
        if kind == "E":
            e = linalg.structure_e(dim)
            assert_close(e @ e, np.eye(dim))
        else:
            # the T normal form is a projection: applying it again changes nothing
            m = SymMatrix(hermitian(rng, dim))
            assert np.array_equal(SymMatrix(m.mat).mat, m.mat)
            assert np.array_equal(m.mat, T_OF_DIM[dim] @ m.mat.T @ T_OF_DIM[dim])

    def test_t1_squares_to_identity(self):
        k = states.anti_epr(n=0.9, mc=0.3, ms=0.2)
        twice = twomode.partial_transpose(twomode.partial_transpose(k))
        assert_close(twice.matrix, k.matrix)

    def test_t1_one_mode_rejected(self):
        with pytest.raises(WrongModeCountError):
            twomode.partial_transpose(onemode.build_C(onemode.OneModeMoments(n=1.0, m=0.3)))


class TestSymMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            SymMatrix([[1.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "scale, skew, hermitian",
        [(1.0, 1e-13, False), (1.0, 1e-15, True), (1e6, 1e-9, True), (1e6, 1e-8, False)],
    )
    def test_hermiticity_band_is_relative(self, scale, skew, hermitian):
        # the anti-Hermitian part may reach band(max|M|, 1) = 16 eps max|M|
        m = np.array([[scale, 0.5 * scale + skew], [0.5 * scale, scale]])
        if hermitian:
            SymMatrix(m)
        else:
            with pytest.raises(ValueError):
                SymMatrix(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            SymMatrix(np.eye(3))

    def test_normal_form_is_exact(self):
        # hermitian but not T-symmetric input gets averaged into the normal form
        m = SymMatrix([[1.0, 0.2j], [-0.2j, 2.0]])
        assert np.array_equal(m.mat, T2 @ m.mat.T @ T2)
        # diagonal entries averaged, off-diagonal kept
        assert m[0, 0] == pytest.approx(1.5)
        assert m[0, 1] == pytest.approx(0.2j)

    def test_assembled_moments_are_in_normal_form(self, rng):
        # build_C2 and onemode.build_C wrap the assembled matrix without a normalization
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

    def test_is_immutable(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(AttributeError):
            m.mat = np.zeros((2, 2))
        with pytest.raises(ValueError):
            m.mat[0, 0] = 5.0

    def test_det_and_indexing(self):
        m = SymMatrix([[1.5, 0.5], [0.5, 1.5]])
        assert GaussianKernel("C", m).det == pytest.approx(2.0)  # the product of the carried eigenvalues
        assert m[1, 0] == pytest.approx(0.5)
        assert m.dim == 2 and m.modes == 1


class TestBand:
    def test_floats_and_arrays_give_the_same_bits(self, rng):
        # one kernel's verdicts take band on Python floats, a stack's on arrays
        xs = (rng.random(20000) * 10.0 ** rng.uniform(-8, 8, 20000)).tolist()
        assert sum(x**2 != x * x for x in xs) > 0  # libm's pow misses some squares
        for degree in (1, 2, 3):
            got = np.array([linalg.band(x, degree) for x in xs])
            assert np.array_equal(got.view(np.uint64), linalg.band(np.array(xs), degree).view(np.uint64)), degree


class TestInvert:
    def test_identity(self):
        assert linalg.invert(linalg.identity(2)).allclose(linalg.identity(2), atol=1e-10)

    def test_thermal_scalar_inverse(self):
        inv = linalg.invert(SymMatrix(np.diag([1.5, 1.5])))
        assert_close(inv.mat, np.diag([2.0 / 3.0, 2.0 / 3.0]))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.invert(SymMatrix([[1.0, 1.0], [1.0, 1.0]]))

    def test_small_scale_is_not_singular(self):
        # singularity is relative to the size of the matrix, not to an absolute det
        inv = linalg.invert(SymMatrix(1e-8 * np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert_close(inv.mat * 1e-8, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, tol=1e-15)

    @given(two_mode_kernels())
    def test_involution_on_random_c(self, k):
        assert linalg.invert(linalg.invert(k.sym)).allclose(k.sym, atol=1e-10)

    @given(two_mode_kernels())
    def test_inverse_multiplies_to_identity(self, k):
        prod = linalg.invert(k.sym).mat @ k.sym.mat
        assert_close(prod, np.eye(4))


class TestConjByStructure:
    """Conjugation by the literal T1 and E: the partial transpose and the E sandwich."""

    def test_t_conjugates_one_mode_m(self):
        # on the first mode's block the partial transpose is T conjugation: m1 -> m1*
        k = twomode.build_C2(twomode.TwoModeMoments(n1=1.0, n2=0.5, m1=0.3j))
        out = twomode.partial_transpose(k)
        want = twomode.build_C2(twomode.TwoModeMoments(n1=1.0, n2=0.5, m1=-0.3j))
        assert out.sym.allclose(want.sym, atol=1e-10)
        assert_close(out.matrix[:2, :2], T2 @ k.matrix[:2, :2] @ T2)

    def test_t1_moves_mc_to_ms_slot(self):
        out = twomode.partial_transpose(states.mixed_epr(n=1.0, mc=0.7))
        want = states.anti_epr(n=1.0, mc=0.0, ms=0.7)
        assert out.sym.allclose(want.sym, atol=1e-10)

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
            twice = twomode.partial_transpose(twomode.partial_transpose(k)).matrix
        assert_close(twice, k.matrix)

    @given(two_mode_kernels())
    def test_t1_preserves_det(self, k):
        out = twomode.partial_transpose(k)
        assert out.det == pytest.approx(k.det, abs=1e-10)
