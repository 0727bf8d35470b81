import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_close, one_mode_moments
from gausspair import linalg, onemode, twomode
from gausspair.errors import (
    NotAStateError,
    NotPositiveError,
    NotPureError,
    NotRealBranchError,
)
from gausspair.kernels import GaussianKernel, convert
from gausspair.onemode import OneModeMoments, SqueezeMap


class TestMomentsAndBuild:
    def test_vacuum(self):
        assert_close(onemode.build_C(OneModeMoments(0.0, 0.0)).matrix, 0.5 * np.eye(2))

    def test_explicit_layout(self):
        k = onemode.build_C(OneModeMoments(1.0, 0.5))
        assert_close(k.matrix, [[1.5, 0.5], [0.5, 1.5]])

    def test_existence_violated(self):
        with pytest.raises(NotAStateError):
            OneModeMoments(0.0, 1.0)

    @given(one_mode_moments())
    def test_moments_round_trip(self, p):
        q = onemode.moments_from_c(onemode.build_C(p))
        assert q.n == pytest.approx(p.n, abs=1e-12)
        assert q.m == pytest.approx(p.m, abs=1e-12)

    @given(one_mode_moments())
    def test_carries_the_closed_form_pair(self, p):
        # lam = n + 1/2 -+ |m|, the floats classify reads, with orthonormal vectors that rebuild C
        x, v = onemode.build_C(p).eig
        assert x.tolist() == [p.n + 0.5 - abs(p.m), p.n + 0.5 + abs(p.m)]
        assert_close(v.conj().T @ v, np.eye(2), tol=1e-15)
        assert_close((v * x) @ v.conj().T, onemode.build_C(p).matrix, tol=1e-15 * (2.0 * p.n + 1.0))

    @pytest.mark.parametrize("n", [1e-6, 0.5, 3.0, 1e6])
    def test_thermal_conversions_stay_exactly_diagonal(self, n):
        # at m = 0 the carried vectors are the unit vectors, so no round-off enters
        k = onemode.build_C(OneModeMoments(n, 0.0))
        for kind, s in (("W", 0.0), ("Q", 0.5), ("P", -0.5)):
            assert np.array_equal(convert(k, kind).matrix, np.eye(2) / (n + 0.5 + s)), kind


class TestExistenceFollowsTheKernelRule:
    """``OneModeMoments`` admits moments by ``linalg.c_rules`` on the eigenvalues ``build_C`` carries,
    band and all, so no path refuses a kernel that another path accepted.  At the parent it refused
    lam_min <= 0 with no band, and ``moments_from_c`` raised on accepted kernels at the edge."""

    BANDS = (-2.0, -0.5, 0.0, 0.5)  # lam_min = n + 1/2 - |m| in units of band(2n + 1, 1)

    @staticmethod
    def edge(n: float, bands: float, phase: float) -> tuple[float, complex]:
        a = n + 0.5
        return a, (a - bands * linalg.band(2.0 * n + 1.0, 1)) * np.exp(1j * phase)

    @staticmethod
    def unchecked(n: float, m: complex) -> OneModeMoments:
        p = object.__new__(OneModeMoments)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "m", m)
        return p

    @pytest.mark.parametrize("bands", BANDS)
    @pytest.mark.parametrize("phase", [0.0, 0.7])
    def test_moments_are_admitted_where_build_c_is(self, bands, phase):
        for n in np.logspace(-6, 6, 25).tolist():
            _, m = self.edge(n, bands, phase)
            try:
                onemode.build_C(self.unchecked(n, m))
                built = True
            except NotAStateError:
                built = False
            try:
                OneModeMoments(n, m)
                admitted = True
            except NotAStateError:
                admitted = False
            assert admitted == built == (bands > -1.0), (n, bands)

    @pytest.mark.parametrize("bands", BANDS)
    @pytest.mark.parametrize("phase", [0.0, 0.7])
    def test_moments_from_c_takes_every_accepted_kernel(self, bands, phase):
        accepted = 0
        for n in np.logspace(-6, 6, 25).tolist():
            a, m = self.edge(n, bands, phase)
            try:
                k = GaussianKernel("C", [[a, m], [np.conj(m), a]])
            except NotAStateError:
                continue
            accepted += 1
            onemode.build_C(onemode.moments_from_c(k))
        assert accepted == (0 if bands < -1.0 else 25)

    def test_moments_of_the_singular_edge_kernel(self):
        # lam = 0 and 2: the constructor accepts it, and it converts to Q
        k = GaussianKernel("C", [[1.0, 1.0], [1.0, 1.0]])
        assert onemode.moments_from_c(k) == OneModeMoments(0.5, 1.0)
        assert convert(k, "Q").eigenvalues == pytest.approx((2.0, 0.4), rel=1e-15)

    @pytest.mark.parametrize("n, m", [(math.nan, 0.0), (1.0, math.nan), (-math.inf, 0.0), (-1e300, 0.0)])
    def test_non_finite_moments_are_refused_as_build_c_refuses_them(self, n, m):
        # an eigenvalue NaN or past the verdict range: a ValueError from both, not NotAStateError from the moments
        for build in (lambda: onemode.build_C(self.unchecked(n, m)), lambda: OneModeMoments(n, m)):
            with pytest.raises(ValueError, match="non-finite") as raised:
                build()
            assert type(raised.value) is ValueError

    def test_the_refusal_message_is_kept(self):
        with pytest.raises(NotAStateError, match=r"^n \+ 1/2 = 0.5 must exceed \|m\| = 1.0$"):
            OneModeMoments(0.0, 1.0)


class TestClassify:
    def test_thermal(self):
        v = onemode.classify(OneModeMoments(1.0, 0.0))
        assert v.positive and not v.pure and v.p_representable
        assert v.g == pytest.approx(0.5)

    def test_pure_squeezed(self):
        v = onemode.classify(OneModeMoments(1.0, math.sqrt(2.0)))
        assert v.positive and v.pure and not v.p_representable
        assert v.g == pytest.approx(0.0, abs=1e-10)

    def test_not_positive(self):
        v = onemode.classify(OneModeMoments(0.5, 1.0 - 1e-12))
        assert not v.positive
        assert v.g is None

    @given(one_mode_moments(positive_only=True))
    def test_g_in_range_and_thermal_formula(self, p):
        v = onemode.classify(p)
        assert v.positive
        assert 0.0 <= v.g < 1.0
        if abs(p.m) < 1e-12:
            assert v.g == pytest.approx(p.n / (p.n + 1.0), abs=1e-12)

    @given(one_mode_moments())
    def test_pure_implies_positive(self, p):
        v = onemode.classify(p)
        if v.pure:
            assert v.positive


class TestPurityFromWigner:
    def test_pure_vacuum(self):
        c = onemode.build_C(OneModeMoments(0.0, 0.0))
        assert onemode.purity_from_wigner(convert(c, "W")) == pytest.approx(1.0)

    def test_thermal(self):
        c = onemode.build_C(OneModeMoments(1.0, 0.0))
        assert onemode.purity_from_wigner(convert(c, "W")) == pytest.approx(1.0 / 3.0)

    def test_pure_boundary(self):
        c = onemode.build_C(OneModeMoments(1.0, math.sqrt(2.0)))
        assert onemode.purity_from_wigner(convert(c, "W")) == pytest.approx(1.0, abs=1e-9)

    @given(one_mode_moments(positive_only=True))
    def test_matches_g_expression(self, p):
        v = onemode.classify(p)
        w = convert(onemode.build_C(p), "W")
        assert onemode.purity_from_wigner(w) == pytest.approx(
            (1.0 - v.g) / (1.0 + v.g), abs=1e-10
        )


class TestSqueezeMap:
    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(0, 2 * math.pi, allow_nan=False),
        st.floats(0, 2 * math.pi, allow_nan=False),
    )
    def test_symplectic_invariants(self, theta, phi, varphi):
        u = SqueezeMap(theta, phi, varphi).matrix
        e = np.diag([1.0, -1.0])
        t = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_close(u.conj().T @ e @ u, e, tol=1e-12)
        assert_close(t @ u.T, u.conj().T @ t, tol=1e-12)

    def test_theta_zero_is_identity(self):
        assert_close(SqueezeMap(0.0).matrix, np.eye(2))

    def test_forward_from_diagonal_form(self):
        g = 0.4
        c0 = 0.5 * (1 + g) / (1 - g)
        theta, dphi = 0.7, 1.1
        u = SqueezeMap(theta=theta, phi=dphi, varphi=0.0)
        k = onemode.apply_squeeze(
            onemode.build_C(OneModeMoments(c0 - 0.5, 0.0)), u, "forward"
        )
        p = onemode.moments_from_c(k)
        assert p.n + 0.5 == pytest.approx(c0 * math.cosh(2 * theta), abs=1e-10)
        assert p.m == pytest.approx(c0 * np.exp(-1j * dphi) * math.sinh(2 * theta), abs=1e-10)

    @given(one_mode_moments(positive_only=True), st.floats(-1, 1, allow_nan=False))
    def test_forward_then_inverse_is_identity(self, p, theta):
        u = SqueezeMap(theta, 0.3, -0.2)
        k = onemode.build_C(p)
        back = onemode.apply_squeeze(onemode.apply_squeeze(k, u, "forward"), u, "inverse")
        assert np.allclose(back.matrix, k.matrix, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_a_squeeze_takes_a_c_kernel_and_squeezes_every_mode(self, direction):
        with pytest.raises(ValueError, match="expected a C kernel"):
            onemode.apply_squeeze(convert(onemode.build_C(OneModeMoments(1.0, 0.2)), "W"), SqueezeMap(0.3))
        # a product of two one-mode C: each mode is squeezed as that mode alone, and no coupling appears
        u, p1, p2 = SqueezeMap(0.4, 0.3, -0.2), OneModeMoments(0.7, 0.3 - 0.1j), OneModeMoments(1.5, 0.5j)
        c = onemode.apply_squeeze(twomode.build_C2(twomode.TwoModeMoments(p1.n, p2.n, p1.m, p2.m)), u, direction).matrix
        for block, p in ((c[:2, :2], p1), (c[2:, 2:], p2)):
            assert_close(block, onemode.apply_squeeze(onemode.build_C(p), u, direction).matrix, tol=1e-12)
        assert_close(c[:2, 2:], np.zeros((2, 2)), tol=1e-12)

    def test_a_squeeze_goes_forward_or_inverse(self):
        with pytest.raises(ValueError, match="direction must be 'forward' or 'inverse'"):
            onemode.apply_squeeze(onemode.build_C(OneModeMoments(1.0, 0.2)), SqueezeMap(0.3), "sideways")


class TestThetaWindow:
    def test_thermal(self):
        lo, hi, theta0 = onemode.theta_window(OneModeMoments(1.0, 0.0))
        assert lo == pytest.approx(-0.5 * math.log(3.0))
        assert hi == pytest.approx(0.5 * math.log(3.0))
        assert theta0 == 0.0

    def test_pure_boundary(self):
        _, _, theta0 = onemode.theta_window(OneModeMoments(1.0, math.sqrt(2.0)))
        want = 0.25 * math.log((1.5 + math.sqrt(2.0)) / (1.5 - math.sqrt(2.0)))
        assert theta0 == pytest.approx(want)

    @given(one_mode_moments(positive_only=True))
    def test_zero_inside_window_when_p_representable(self, p):
        lo, hi, theta0 = onemode.theta_window(p)
        assert lo <= theta0 <= hi
        if onemode.classify(p).p_representable:
            assert lo <= 0.0 <= hi

    @given(one_mode_moments(positive_only=True))
    def test_window_edges_saturate_p_bound(self, p):
        lo, hi, _ = onemode.theta_window(p)
        for edge in (lo, hi):
            big_n, big_m = onemode.moments_after_squeeze(p, edge)
            # N = |M| exactly at the edge of the admissible range
            assert big_n == pytest.approx(big_m, abs=1e-9)

    def test_not_positive_rejected(self):
        with pytest.raises(NotPositiveError):
            onemode.theta_window(OneModeMoments(0.2, 0.6))

    def test_read_from_the_carried_eigenvalues_as_the_closed_form(self, rng):
        # 2 lam = 2n + 1 -+ 2|m| exactly, so the window is the closed form's, bit for bit, from n = 1e-8 to 1e8
        for n in 10.0 ** rng.uniform(-8, 8, 3000):
            p = OneModeMoments(n, rng.uniform(0, 1) * math.sqrt(n * (n + 1.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            am = abs(p.m)
            want = (-0.5 * math.log(2.0 * p.n + 1.0 - 2.0 * am), 0.5 * math.log(2.0 * p.n + 1.0 + 2.0 * am),
                    0.25 * math.log((p.n + 0.5 + am) / (p.n + 0.5 - am)))
            assert onemode.theta_window(p) == want


class TestDiagonalizingSqueeze:
    def test_m_zero_gives_identity(self):
        for n in (0.0, 1e-6, 1.0, 1e6):
            u = onemode.diagonalizing_squeeze(OneModeMoments(n, 0.0))
            assert u == SqueezeMap(0.0)
            assert np.array_equal(u.matrix, np.eye(2))

    @given(one_mode_moments(positive_only=True))
    def test_inverse_action_lands_on_thermal_diagonal(self, p):
        u = onemode.diagonalizing_squeeze(p)
        k = onemode.apply_squeeze(onemode.build_C(p), u, "inverse")
        g = onemode.classify(p).g
        c = 0.5 * (1 + g) / (1 - g)
        assert_close(k.matrix, c * np.eye(2), tol=1e-9)

    def test_real_m_selects_zero_phase(self):
        u = onemode.diagonalizing_squeeze(OneModeMoments(1.0, 0.5))
        assert u.phi == pytest.approx(0.0)
        assert u.varphi == 0.0

    def test_imaginary_m_selects_quarter_phase(self):
        u = onemode.diagonalizing_squeeze(OneModeMoments(1.0, 0.5j))
        assert u.phi == pytest.approx(-math.pi / 2)

    def test_not_positive_rejected(self):
        # |m| = 0.9 lies past sqrt(n (n + 1)) = 0.866, inside n + 1/2: a state with no squeeze to a thermal form
        with pytest.raises(NotPositiveError):
            onemode.diagonalizing_squeeze(OneModeMoments(0.5, 0.9))


class TestNormalOrderNu:
    def test_thermal(self):
        # nu = n/(n+1) for m = 0
        assert onemode.normal_order_nu(OneModeMoments(1.0, 0.0)) == pytest.approx(0.5)

    @given(one_mode_moments())
    def test_closed_form(self, p):
        want = (p.n * (p.n + 1) - abs(p.m) ** 2) / ((p.n + 1) ** 2 - abs(p.m) ** 2)
        assert onemode.normal_order_nu(p) == pytest.approx(want, abs=1e-10)


class TestSqueezedWavefunction:
    def test_ground_state(self):
        f = onemode.squeezed_wavefunction(OneModeMoments(0.0, 0.0))
        assert f.mu == 0.0 and f.kappa == 1.0
        assert f(0.0) == pytest.approx(math.pi**-0.25)

    def test_n_one(self):
        f = onemode.squeezed_wavefunction(OneModeMoments(1.0, math.sqrt(2.0)))
        assert f.mu == pytest.approx(math.sqrt(0.5))
        assert f.kappa == pytest.approx((math.sqrt(2) + 1) / (math.sqrt(2) - 1))

    def test_kappa_identity(self):
        f = onemode.squeezed_wavefunction(OneModeMoments(2.0, math.sqrt(6.0)))
        assert f.kappa == pytest.approx((1 + f.mu) / (1 - f.mu))

    def test_normalization(self):
        f = onemode.squeezed_wavefunction(OneModeMoments(1.0, math.sqrt(2.0)))
        q = np.linspace(-12, 12, 20001)
        assert np.trapezoid(f(q) ** 2, q) == pytest.approx(1.0, abs=1e-8)

    def test_mixed_state_rejected(self):
        with pytest.raises(NotPureError):
            onemode.squeezed_wavefunction(OneModeMoments(1.0, 0.5))

    def test_complex_m_rejected(self):
        with pytest.raises(NotRealBranchError):
            onemode.squeezed_wavefunction(OneModeMoments(1.0, math.sqrt(2.0) * 1j))

    def test_negative_m_rejected(self):
        with pytest.raises(NotRealBranchError, match="m >= 0"):
            onemode.squeezed_wavefunction(OneModeMoments(1.0, -math.sqrt(2.0)))
