import contextlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_close, differential_kernels, local_squeeze, local_unitary_pairs, two_mode_kernels
from gausspair import linalg, onemode, states, twomode
from gausspair.errors import NotAStateError, NotPositiveError, NotPureError, SingularMatrixError
from gausspair.kernels import GaussianKernel, convert, partial_transpose
from gausspair.onemode import SqueezeMap
from gausspair.twomode import TwoModeMoments, build_C2


def two_vacua():
    return build_C2(TwoModeMoments(n1=0.0, n2=0.0))


def product_thermal(n1, n2):
    return build_C2(TwoModeMoments(n1=n1, n2=n2))


class TestBuild:
    def test_two_vacua(self):
        assert_close(two_vacua().matrix, 0.5 * np.eye(4))

    def test_epr_layout(self):
        k = states.mixed_epr(n=1.0, mc=0.7)
        want = np.array(
            [
                [1.5, 0, 0, 0.7],
                [0, 1.5, 0.7, 0],
                [0, 0.7, 1.5, 0],
                [0.7, 0, 0, 1.5],
            ]
        )
        assert_close(k.matrix, want)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotAStateError):
            build_C2(TwoModeMoments(n1=0.0, n2=0.0, mc=1.0))

    @given(two_mode_kernels())
    def test_moments_round_trip(self, k):
        p = twomode.moments_from_c(k)
        assert np.allclose(build_C2(p).matrix, k.matrix, rtol=0.0, atol=1e-12)


class TestTraceG2:
    def test_two_vacua(self):
        assert twomode.trace_g2(two_vacua()) == pytest.approx(1.0)

    def test_mixed_epr(self):
        assert twomode.trace_g2(states.mixed_epr(1.0, 1.0)) == pytest.approx(0.2)

    def test_product_thermal(self):
        assert twomode.trace_g2(product_thermal(1.0, 1.0)) == pytest.approx(1.0 / 9.0)

    def test_degenerate_boundary(self):
        assert twomode.trace_g2(states.mixed_epr(0.5, 1.0)) == math.inf


class TestSquaredKernel:
    def test_two_vacua_fixed_point(self):
        assert np.allclose(twomode.squared_kernel(two_vacua()).matrix, two_vacua().matrix, rtol=0.0, atol=1e-10)

    def test_thermal_substitution(self):
        k = product_thermal(1.0, 1.0)
        cbar = twomode.squared_kernel(k)
        assert_close(cbar.matrix, (0.5 * 1.5 + 0.125 * 2.0 / 3.0) * np.eye(4))

    def test_det_is_the_closed_form_of_the_invariants(self, rng):
        # det Cbar = (1 + 16 D + 4 Delta)^2 / (4096 D), which positivity_det_margins reads
        for k in random_kernels(rng, 200):
            v = twomode._kernel_verdicts(k)
            want = (1.0 + 16.0 * v.det_c + 4.0 * (v.d_ab + 2.0 * v.d_x)) ** 2 / (4096.0 * v.det_c)
            assert twomode.squared_kernel(k).det == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_idempotent_on_pure_states(self):
        for nbar in (0.0, 0.5, 1.0, 2.0):
            k = states.smoothed_epr(states.SmoothedEprParam(nbar))
            assert np.allclose(twomode.squared_kernel(k).matrix, k.matrix, rtol=0.0, atol=1e-10)


class TestPositivity:
    def test_two_vacua_both_routes(self):
        assert twomode.positivity_by_dets(two_vacua())
        assert twomode.positivity_by_q(two_vacua())

    def test_footnote_counterexample(self):
        # a diagonal kernel with unit trace and unit purity that is still not
        # a positive operator
        k = twomode.product_thermal_kernel(1.0 / 3.0, -1.0 / 3.0)
        assert twomode.trace_g2(k) == pytest.approx(1.0, abs=1e-10)
        assert not twomode.positivity_by_dets(k)
        assert not twomode.positivity_by_q(k)

    def test_mixed_epr_closed_form_by_q(self):
        # boundary case (exactly singular C) is rejected by the q-route
        assert not twomode.positivity_by_q(states.mixed_epr(0.5, 1.0))
        assert not twomode.positivity_by_dets(states.mixed_epr(0.55, 0.95))
        assert twomode.positivity_by_dets(states.mixed_epr(1.0, 1.2))

    @pytest.mark.parametrize("n", [0.3, 1e3, 5e5])
    def test_det_route_answers_a_singular_c(self, n):
        # C has the eigenvalue n + 1/2 - mc = 0, so its squared kernel does not exist
        k = states.mixed_epr(n, n + 0.5)
        assert not twomode.classify2(k).positive and not twomode.positivity_by_dets(k)

    @pytest.mark.parametrize("n", np.logspace(-6, 7, 27).tolist())
    def test_det_route_on_pure_smoothed_epr(self, n):
        # the route needed C^-1 and raised SingularMatrixError from n near 5e6
        assert twomode.positivity_by_dets(states.smoothed_epr(states.SmoothedEprParam(n)))

    def test_det_route_answers_wherever_classify2_does(self, rng):
        kernels = [k for k in differential_kernels(rng) if k.modes == 2]
        for k in kernels:
            positive = twomode.classify2(k).positive
            left, right = twomode.positivity_det_margins(k)
            if min(abs(left), abs(right)) > 1e3 * twomode._kernel_verdicts(k).band:
                assert twomode.positivity_by_dets(k) == positive
            else:
                assert isinstance(twomode.positivity_by_dets(k), bool)

    def test_det_route_runs_the_engine_once(self, monkeypatch):
        engine, calls = twomode.verdicts_from_invariants, []
        monkeypatch.setattr(twomode, "verdicts_from_invariants", lambda *args: calls.append(args) or engine(*args))
        for k in (two_vacua(), states.mixed_epr(0.8, 0.3), states.mixed_epr(0.3, 0.8), twomode.product_thermal_kernel(1 / 3, -1 / 3)):
            calls.clear()
            twomode.positivity_by_dets(k)
            assert len(calls) == 1

    @given(two_mode_kernels())
    def test_routes_agree(self, k):
        left, right = twomode.positivity_det_margins(k)
        if min(left, right) > 1e-8 or max(left, right) < -1e-8:
            assert twomode.positivity_by_dets(k) == twomode.positivity_by_q(k)


class TestNormalOrderParams:
    def test_mixed_epr_closed_form(self):
        n, mc = 1.0, 0.7
        p = twomode.normal_order_params(states.mixed_epr(n, mc))
        den = (n + 1.0) ** 2 - mc**2
        assert p.nu1 == pytest.approx((n * (n + 1) - mc**2) / den, abs=1e-12)
        assert p.nu2 == pytest.approx(p.nu1, abs=1e-12)
        assert p.muc == pytest.approx(mc / den, abs=1e-12)
        assert abs(p.mus) < 1e-12 and abs(p.mu1) < 1e-12

    def test_anti_epr_closed_form(self):
        n, mc, ms = 1.1, 0.4, 0.3
        p = twomode.normal_order_params(states.anti_epr(n, mc, ms))
        d = ((n + 1) ** 2 - (ms + mc) ** 2) * ((n + 1) ** 2 - (mc - ms) ** 2)
        assert p.nu1 == pytest.approx(
            1.0 - (n + 1) * ((n + 1) ** 2 - ms**2 - mc**2) / d, abs=1e-10
        )
        assert p.nu2 == pytest.approx(p.nu1, abs=1e-12)
        assert p.mu1 == pytest.approx(-2 * ms * mc * (n + 1) / d, abs=1e-10)
        assert p.mus == pytest.approx(-ms * ((n + 1) ** 2 - ms**2 + mc**2) / d, abs=1e-10)
        assert p.muc == pytest.approx(mc * ((n + 1) ** 2 + ms**2 - mc**2) / d, abs=1e-10)

    def test_squeezed_epr_closed_form(self):
        n, mc, m = 1.0, 0.5, 0.3
        p = twomode.normal_order_params(states.squeezed_epr(n, mc, m))
        big_d = ((n + 1) ** 2 - (m + mc) ** 2) * ((n + 1) ** 2 - (m - mc) ** 2)
        assert p.nu1 == pytest.approx(
            1.0 - (n + 1) * ((n + 1) ** 2 - m**2 - mc**2) / big_d, abs=1e-10
        )
        assert p.nu2 == pytest.approx(p.nu1, abs=1e-12)
        assert p.mu1 == pytest.approx(m * ((n + 1) ** 2 - m**2 + mc**2) / big_d, abs=1e-10)
        assert p.mu2 == pytest.approx(p.mu1, abs=1e-12)
        assert p.mus == pytest.approx(2 * m * mc * (n + 1) / big_d, abs=1e-10)
        assert p.muc == pytest.approx(mc * ((n + 1) ** 2 - mc**2 + m**2) / big_d, abs=1e-10)


class TestPartialTranspose:
    def test_mixed_epr_becomes_anti_shaped(self):
        out = partial_transpose(states.mixed_epr(1.0, 0.7))
        assert np.allclose(out.matrix, states.anti_epr(1.0, 0.0, 0.7).matrix, rtol=0.0, atol=1e-10)

    @given(two_mode_kernels())
    def test_involution_and_det(self, k):
        twice = partial_transpose(partial_transpose(k))
        assert np.allclose(twice.matrix, k.matrix, rtol=0.0, atol=1e-10)
        assert partial_transpose(k).det == pytest.approx(
            k.det, abs=1e-10
        )

    def test_moment_relabeling(self):
        p = TwoModeMoments(n1=1.0, n2=0.8, m1=0.1 + 0.2j, m2=0.1j, ms=0.2, mc=0.15j)
        q = twomode.moments_from_c(partial_transpose(build_C2(p)))
        assert q.m1 == pytest.approx(np.conj(p.m1))
        assert q.m2 == pytest.approx(p.m2)
        assert q.ms == pytest.approx(np.conj(p.mc))
        assert q.mc == pytest.approx(np.conj(p.ms))

    @pytest.mark.parametrize("kind", ["C", "W", "Q", "P"])
    def test_maps_the_carried_pair(self, kind, rng, monkeypatch):
        # one map for every kind, from k's own pair and no eigh: the same eigenvalues, C's (dA, dB, -dX), and
        # the kernel of that kind of C's partial transpose Pi C Pi, Pi swapping z1 and z1*, bit for bit
        swap = np.ix_([1, 0, 2, 3], [1, 0, 2, 3])
        sources = [states.mixed_epr(0.8, 1.0), states.anti_epr(0.9, 0.5, 0.3), states.squeezed_epr(0.7, 0.4, 0.3),
                   *(build_C2(TwoModeMoments(1.0 + x, 0.8, 0.1 + 0.1j, 0.05j, 0.2, 0.15j)) for x in rng.uniform(0, 1, 4))]
        monkeypatch.setattr(np.linalg, "eigh", None)
        for c in (c for c in sources if kind != "P" or twomode.classify2(c).p_representable):
            da, db, dx = c.block_dets  # taken before the conversion, which carries them
            k = convert(c, kind)
            pt = partial_transpose(k)
            assert pt.kind == kind and pt.eigenvalues == k.eigenvalues
            assert convert(pt, "C").block_dets == (da, db, -dx)
            assert np.max(np.abs(convert(pt, "C").matrix - c.matrix[swap])) <= linalg.band(max(map(abs, c.eigenvalues)), 1)
            other = convert(partial_transpose(c), kind)
            assert np.array_equal(pt.matrix, other.matrix) and pt.eigenvalues == other.eigenvalues
            assert all(np.array_equal(a, b) for a, b in zip(pt.eig, other.eig))


class TestInternalKernels:
    """``squared_kernel`` and ``product_thermal_kernel`` build matrices already in normal form (a sum
    of two, a diagonal) and enter them through the public constructor, as every matrix enters a kernel:
    ``linalg.hermitian`` checks each and changes no value.  Building again from the kernel's matrix gives
    the same matrix and the same pair bit for bit."""

    def test_bitwise_as_the_public_constructor(self, rng, monkeypatch):
        built, checked = [], []

        def check(m, real=linalg.hermitian):
            checked.append((m, real(m)))
            return checked[-1][1]

        for k in differential_kernels(rng):
            if k.modes != 2:
                continue
            v = twomode.classify2(k)
            monkeypatch.setattr(linalg, "hermitian", check)
            with contextlib.suppress(SingularMatrixError):  # no W at a singular C
                built.append(twomode.squared_kernel(k))
            if v.positive:
                built.append(twomode.product_thermal_kernel(v.thermal.g1, v.thermal.g2))
            monkeypatch.undo()
        assert {id(k.matrix) for k in built} <= {id(h) for _, h in checked} and len(built) > 400  # each build was checked
        assert all(np.array_equal(h, m) for m, h in checked)
        for k in built:
            public = GaussianKernel(k.kind, k.matrix)
            assert np.array_equal(public.matrix, k.matrix)
            assert [a.tobytes() for a in public.eig] == [a.tobytes() for a in k.eig]


class TestSeparability:
    def test_mixed_epr_closed_form(self):
        assert twomode.ppt_separable(states.mixed_epr(1.0, 1.0))  # boundary n = |mc|
        assert twomode.ppt_separable(states.mixed_epr(1.2, 1.0))
        assert not twomode.ppt_separable(states.mixed_epr(0.8, 1.0))

    def test_anti_epr_ms_equal_mc_never_entangled(self):
        for n in np.linspace(0.1, 2.0, 8):
            for mc in np.linspace(0.0, 1.0, 8):
                try:
                    k = states.anti_epr(float(n), float(mc), float(mc))
                except NotAStateError:
                    continue
                if twomode.positivity_by_q(k):
                    assert twomode.ppt_separable(k)

    def test_precondition(self):
        with pytest.raises(NotPositiveError):
            twomode.ppt_separable(states.mixed_epr(0.5, 0.99))

    @pytest.mark.parametrize("build", [lambda: states.anti_epr(0.9, 0.5, 0.3), lambda: build_C2(K_STAR)], ids=["anti_epr", "K*"])
    def test_ppt_reads_one_q_and_runs_no_eigensolver(self, monkeypatch, build):
        from test_kernels import _count_calls

        k = build()
        calls, reads = _count_calls(monkeypatch), []
        monkeypatch.setattr(twomode, "normal_order_params", lambda k, real=twomode.normal_order_params: reads.append(k) or real(k))
        assert twomode.ppt_separable(k) == twomode.classify2(k).ppt_separable
        assert calls["eigh"] == calls["eigvalsh"] == 0 and reads == [k]

    def test_ppt_is_the_positivity_of_the_partial_transpose(self, rng):
        # the transpose's Q has k's nu and |mus|, |muc| exchanged: the two routes differ only by
        # round-off, so they agree wherever both margins lie outside 2 bands
        compared = 0
        for k in differential_kernels(rng):
            if k.modes != 2 or not twomode.positivity_by_q(k):
                continue
            pt = partial_transpose(k)
            if min(_q_margin_in_bands(k, "muc"), _q_margin_in_bands(pt, "mus")) > 2.0:
                compared += 1
                assert twomode.ppt_separable(k) == twomode.positivity_by_q(pt)
        assert compared > 500


class TestPRepresentable:
    def test_two_vacua_excluded(self):
        assert not twomode.classify2(two_vacua()).p_representable

    def test_product_thermal(self):
        assert twomode.classify2(product_thermal(1.0, 1.0)).p_representable

    def test_pure_entangled_state(self):
        k = states.smoothed_epr(states.SmoothedEprParam(1.0))
        assert not twomode.classify2(k).p_representable


class TestThermalPair:
    def test_two_vacua(self):
        t = twomode.thermal_pair(two_vacua())
        assert t.g1 == pytest.approx(0.0, abs=1e-8)
        assert t.g2 == pytest.approx(0.0, abs=1e-8)

    def test_product_thermal(self):
        t = twomode.thermal_pair(product_thermal(1.0, 0.5))
        assert t.g1 == pytest.approx(0.5, abs=1e-10)
        assert t.g2 == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_footnote_counterexample_diagnostics(self):
        k = twomode.product_thermal_kernel(1.0 / 3.0, -1.0 / 3.0)
        with pytest.raises(NotPositiveError):
            twomode.thermal_pair(k)
        t = twomode.thermal_pair(k, diagnostics=True)
        assert t.g1 == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert t.g2 == pytest.approx(-1.0 / 3.0, abs=1e-10)

    @given(two_mode_kernels())
    def test_determinant_consistency(self, k):
        if not twomode.positivity_by_dets(k):
            return
        t = twomode.thermal_pair(k)
        assert t.g1 >= t.g2
        x1 = (1 + t.g1) / (1 - t.g1)
        x2 = (1 + t.g2) / (1 - t.g2)
        assert x1 * x2 == pytest.approx(4 * math.sqrt(k.det), abs=1e-8)
        cbar = twomode.squared_kernel(k)
        assert (x1 + 1 / x1) * (x2 + 1 / x2) / 4 == pytest.approx(
            4 * math.sqrt(cbar.det), abs=1e-8
        )


class TestPurity:
    def test_two_vacua(self):
        assert twomode.classify2(two_vacua()).pure

    def test_mixed_epr_pure_boundary(self):
        n = 0.25  # (n + 1/2)^2 - mc^2 = 1/4 with mc = sqrt(n(n+1))
        mc = math.sqrt(n * (n + 1.0))
        assert twomode.classify2(states.mixed_epr(n, mc)).pure

    def test_product_thermal_not_pure(self):
        assert not twomode.classify2(product_thermal(1.0, 1.0)).pure

    @pytest.mark.parametrize("n1", np.logspace(12, 30, 10))
    def test_thermal_times_vacuum_not_pure_at_large_n(self, n1):
        # |det C - 1/16| falls within the mixed-state band; Delta - 1/2 ~ n1^2 does not
        assert not twomode.classify2(product_thermal(n1, 0.0)).pure

    def test_pure_consistent_with_thermal_pair(self):
        k = states.smoothed_epr(states.SmoothedEprParam(0.7))
        t = twomode.thermal_pair(k)
        assert abs(t.g1) < 1e-6 and abs(t.g2) < 1e-6


class TestMarginalSeparability:
    def test_gamma_zero_separable(self):
        k = states.pure_from_d(states.PureStateD(alpha=2.0, beta=0.7, gamma=0.0))
        assert twomode.pure_marginal_separability(k, 1)
        assert twomode.pure_marginal_separability(k, 2)

    def test_smoothed_epr_entangled(self):
        k = states.smoothed_epr(states.SmoothedEprParam(1.0))
        assert not twomode.pure_marginal_separability(k, 1)

    def test_requires_purity(self):
        with pytest.raises(NotPureError):
            twomode.pure_marginal_separability(product_thermal(1.0, 1.0), 1)

    def test_which_names_mode_one_or_two(self):
        k = states.pure_from_d(states.PureStateD(alpha=2.0, beta=0.7, gamma=0.0))
        with pytest.raises(ValueError, match="which must be 1 or 2"):
            twomode.pure_marginal_separability(k, which=3)

    @pytest.mark.parametrize("n", [1e-6, 0.7, 1e3, 1e6])
    def test_closed_form_kernels_form_no_matrix(self, n):
        # tr C for the band is the sum of the carried eigenvalues, as for the Q route
        r = math.sqrt(n * (n + 1.0))
        pure = {states.smoothed_epr(states.SmoothedEprParam(n)): False, states.mixed_epr(n, r): False,
                states.anti_epr(n, r, 0.0): False, states.squeezed_epr(n, 0.0, r): True}
        for k, separable in pure.items():
            assert twomode.pure_marginal_separability(k, 1) == twomode.pure_marginal_separability(k, 2) == separable
            assert not isinstance(k._matrix, np.ndarray)


class TestLocalSqueeze:
    def test_theta_zero_is_identity(self):
        k = states.anti_epr(1.0, 0.4, 0.2)
        assert np.allclose(twomode.local_squeeze_to_p_rep(k, 0.0).matrix, k.matrix, rtol=0.0, atol=1e-10)

    def test_anti_epr_diagonal_blocks(self):
        n, theta = 1.0, 0.3
        k = twomode.local_squeeze_to_p_rep(states.anti_epr(n, 0.2, 0.1), theta)
        p = twomode.moments_from_c(k)
        # N +- M = (n + 1/2) e^{-+2 theta} - 1/2 on each mode
        big_n, big_m = p.n1, p.m1.real
        assert big_n + big_m == pytest.approx((n + 0.5) * math.exp(-2 * theta) - 0.5)
        assert big_n - big_m == pytest.approx((n + 0.5) * math.exp(2 * theta) - 0.5)

    def test_angle_makes_anti_epr_p_representable(self):
        n, mc, ms = 1.0, 0.3, 0.15
        theta = states.anti_epr_p_rep_angle(n, mc, ms)
        k = twomode.local_squeeze_to_p_rep(states.anti_epr(n, mc, ms), theta)
        assert twomode.classify2(k).p_representable

    def test_requires_positive_state(self):
        with pytest.raises(NotPositiveError):
            twomode.local_squeeze_to_p_rep(states.mixed_epr(0.5, 0.99), 0.1)

    @pytest.mark.parametrize("theta", [-0.7, 0.0, 0.3])
    def test_is_the_inverse_squeeze_on_both_modes(self, theta):
        for k in (states.anti_epr(1.0, 0.3, 0.15), build_C2(K_STAR)):
            want = onemode.apply_squeeze(k, SqueezeMap(theta), "inverse")
            assert twomode.local_squeeze_to_p_rep(k, theta).matrix.tobytes() == want.matrix.tobytes()

    @given(two_mode_kernels(), st.floats(-1, 1, allow_nan=False))
    def test_forward_then_inverse_is_identity(self, k, theta):
        u = SqueezeMap(theta, 0.3, -0.2)
        back = onemode.apply_squeeze(onemode.apply_squeeze(k, u, "forward"), u, "inverse")
        assert np.allclose(back.matrix, k.matrix, rtol=0.0, atol=1e-10)


class TestBohrVariances:
    def test_separability_boundary(self):
        lo, hi = twomode.bohr_variances(1.0, 1.0)
        assert lo == pytest.approx(1.0) and hi == pytest.approx(5.0)

    def test_matches_separability_verdict(self):
        for n in np.linspace(0.1, 1.5, 6):
            for mc in np.linspace(0.0, 1.2, 6):
                try:
                    k = states.mixed_epr(float(n), float(mc))
                except NotAStateError:
                    continue
                if not twomode.positivity_by_q(k):
                    continue
                lo, hi = twomode.bohr_variances(float(n), float(mc))
                assert (min(lo, hi) >= 1.0 - 1e-12) == twomode.ppt_separable(k)


class TestClassify2:
    def test_two_vacua(self):
        v = twomode.classify2(two_vacua())
        assert v.positive and v.pure and v.ppt_separable
        assert not v.p_representable

    def test_entangled_mixed_point(self):
        v = twomode.classify2(states.mixed_epr(0.8, 1.0))
        assert v.positive and not v.pure and not v.ppt_separable

    def test_non_positive(self):
        v = twomode.classify2(states.mixed_epr(0.5, 0.99))
        assert not v.positive and v.ppt_separable is None and v.thermal is None

    def test_large_n_pure_epr_returns(self):
        # a pure state at large n, where det C carries visible round-off:
        # the verdict comes back without raising, whatever it says
        n = 1000.0
        v = twomode.classify2(states.mixed_epr(n, math.sqrt(n * (n + 1.0))))
        if v.positive:
            assert v.thermal.g1 >= v.thermal.g2 >= 0.0


def random_kernels(rng, count):
    """C kernels spread over both sides of the positivity and PPT boundaries."""
    kernels = []
    while len(kernels) < count:
        p = TwoModeMoments(
            n1=rng.uniform(0.0, 1.5),
            n2=rng.uniform(0.0, 1.5),
            **{
                key: rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                for key in ("m1", "m2", "ms", "mc")
            },
        )
        if np.linalg.eigvalsh(twomode.assemble_c(p))[0] > 1e-3:
            kernels.append(build_C2(p))
    return kernels


class TestInvariantVerdicts:
    """The engine against the paper's other routes."""

    def test_matches_q_and_det_routes(self, rng):
        kernels = random_kernels(rng, 1000)
        v = twomode.invariant_verdicts(np.stack([k.matrix for k in kernels]))
        checked = entangled = 0
        for i, k in enumerate(kernels):
            p = twomode.normal_order_params(k)
            margins = (
                p.nu1 + p.nu2,
                p.nu1 * p.nu2 - abs(p.mus) ** 2,
                *twomode.positivity_det_margins(k),
            )
            if min(abs(m) for m in margins) <= 1e-8:
                continue
            checked += 1
            assert v.positive[i] == twomode.positivity_by_q(k) == twomode.positivity_by_dets(k)
            if v.positive[i] and abs(p.nu1 * p.nu2 - abs(p.muc) ** 2) > 1e-8:
                assert v.ppt_separable[i] == twomode.ppt_separable(k)
                entangled += not v.ppt_separable[i]
        assert checked > 900 and 0 < v.positive.mean() < 1 and entangled > 20

    def test_stack_matches_single_calls(self, rng):
        kernels = random_kernels(rng, 50)
        v = twomode.invariant_verdicts(np.stack([k.matrix for k in kernels]).reshape(5, 10, 4, 4))
        for i, k in enumerate(kernels):
            one = twomode.invariant_verdicts(k.matrix)
            for field in ("positive", "pure", "ppt_separable", "p_representable"):
                assert getattr(v, field)[i // 10, i % 10] == getattr(one, field)
            assert [nu[i // 10, i % 10] for nu in v.nu] == list(one.nu)

    @pytest.mark.parametrize("family", ["mixed_epr", "anti_epr", "squeezed_epr"])
    def test_family_margins(self, family):
        ns, mcs = np.meshgrid(np.linspace(0.0, 2.0, 41), np.linspace(0.0, 2.0, 41))
        seen = set()
        for n, mc in zip(ns.ravel(), mcs.ravel()):
            x = 0.4 * mc
            args = (n, mc) if family == "mixed_epr" else (n, mc, x)
            try:
                k = getattr(states, family)(*args)
            except NotAStateError:
                continue
            pos = getattr(states, f"{family}_positivity")(*args)
            sep = getattr(states, f"{family}_separability")(*args)
            v = twomode.invariant_verdicts(k.matrix)
            if abs(pos) > 1e-8:
                assert v.positive == (pos > 0)
                seen.add(("positive", pos > 0))
            if pos > 1e-8 and abs(sep) > 1e-8:
                assert v.ppt_separable == (sep > 0)
                seen.add(("separable", sep > 0))
        assert len(seen) == 4  # both sides of both boundaries were checked

    def test_symplectic_eigenvalues_of_product_thermal(self):
        nu_plus, nu_minus = twomode.invariant_verdicts(twomode.product_thermal_kernel(0.5, 0.2).matrix).nu
        assert nu_plus == pytest.approx(1.5) and nu_minus == pytest.approx(0.75)

    @pytest.mark.parametrize("kind", ["mixed_epr", "anti_epr", "squeezed_epr", "general", "pure_d", "smoothed"])
    def test_thermal_pair_bitwise_as_the_single_pass_engine(self, kind, rng):
        # nu+- are now computed only when read; classify2 must give the same floats as the
        # engine that computed them with the verdicts, over the scales of the verdict census
        seen = 0
        for n in np.logspace(-6, 6, 25):
            nn = n * (n + 1.0)
            f, r = rng.uniform(0.0, 1.0), rng.uniform(0.1, 0.9)
            mc = f * math.sqrt(nn)
            try:
                if kind == "mixed_epr":
                    k = states.mixed_epr(n, mc)
                elif kind == "anti_epr":
                    k = states.anti_epr(n, mc, r * mc)
                elif kind == "squeezed_epr":
                    k = states.squeezed_epr(n, mc / (1.0 + r), r * mc / (1.0 + r))
                elif kind == "general":
                    k = random_kernels(rng, 1)[0]
                elif kind == "pure_d":
                    alpha, beta = n**0.25, rng.uniform(0.1, 10.0)
                    k = states.pure_from_d(states.PureStateD(alpha, beta, r * math.sqrt(alpha * beta)))
                else:
                    k = states.smoothed_epr(states.SmoothedEprParam(n))
            except NotAStateError:
                continue
            verdict = twomode.classify2(k)
            if verdict.thermal is None:
                continue
            e0, e1, e2, e3 = np.sort(k.eig[0])
            c, det_c = k.matrix, e0 * e1 * e2 * e3
            da, db, dx = linalg.block_dets(c)
            delta = da + db + 2.0 * dx
            root = np.sqrt(np.maximum(delta * delta - 4.0 * det_c, 0.0))
            plus = np.maximum(0.5 * (delta + root), 0.25)
            nus = (np.sqrt(plus), np.sqrt(np.minimum(np.maximum(det_c / plus, 0.25), plus)))  # nu-^2 = D / nu+^2
            assert [float(nu) for nu in twomode._kernel_verdicts(k).nu] == [float(nu) for nu in nus], n
            g1, g2 = ((2.0 * nu - 1.0) / (2.0 * nu + 1.0) for nu in nus)
            assert (verdict.thermal.g1, verdict.thermal.g2) == (float(g1), float(g2)), n
            seen += 1
        assert seen >= 10


def _bits(x) -> int:
    return int(np.float64(x).view(np.uint64))


def _stacked_engine(kernels) -> twomode.InvariantVerdicts:
    """The engine on the stacked matrices' block determinants and the kernels' carried eigenvalues, sorted."""
    eig, dets = np.stack([np.sort(k.eig[0]) for k in kernels]), linalg.block_dets(np.stack([k.matrix for k in kernels]))
    return twomode.verdicts_from_invariants(np.moveaxis(eig, -1, 0), *np.moveaxis(dets, -1, 0))


class TestFloatPath:
    """``classify2`` runs the engine on one kernel's Python floats; the same engine on the
    stacked matrices and their carried eigenvalues must give the same bits."""

    def test_classify2_bitwise_as_the_stacked_engine(self, rng):
        kernels = [k for k in differential_kernels(rng) if k.modes == 2]
        v = _stacked_engine(kernels)
        g1, g2 = ((2.0 * nu - 1.0) / (2.0 * nu + 1.0) for nu in v.nu)
        seen = set()
        for i, k in enumerate(kernels):
            one = twomode.classify2(k)
            flags = (one.positive, one.pure, one.p_representable, one.ppt_separable)
            assert all(type(f) is bool for f in flags[:3]), flags  # no numpy scalar or 0-d array
            assert flags[:3] == (v.positive[i], v.pure[i], v.p_representable[i]), i
            if one.positive:
                assert one.ppt_separable == v.ppt_separable[i], i
                assert (type(one.thermal.g1), type(one.thermal.g2)) == (float, float)
                assert (_bits(one.thermal.g1), _bits(one.thermal.g2)) == (_bits(g1[i]), _bits(g2[i])), i
            seen.add(flags)
        # positive and not, pure, separable and entangled, P-representable: all met
        assert {f[0] for f in seen} == {True, False} and {f[3] for f in seen} == {True, False, None}
        assert any(f[1] for f in seen) and any(f[2] for f in seen)

    def test_engine_fields_bitwise_on_floats_and_arrays(self, rng):
        kernels = [k for k in differential_kernels(rng) if k.modes == 2]
        v = _stacked_engine(kernels)
        for i, k in enumerate(kernels):
            one = twomode._kernel_verdicts(k)
            assert [_bits(x) for x in one[4:]] == [_bits(x[i]) for x in v[4:]], i  # det_c, d_ab, d_x, band
            assert [_bits(x) for x in one.nu] == [_bits(x[i]) for x in v.nu], i


K_STAR = TwoModeMoments(0.7, 0.4, 0.1 + 0.05j, 0.08 - 0.03j, 0.05 + 0.02j, 0.2 + 0.1j)


def _q_margin_in_bands(k, coupling: str) -> float:
    """|nu1 nu2 - |mu|^2| of the Q entry ``coupling`` in units of the band the Q route holds it to."""
    p, tol = twomode.normal_order_params(k), linalg.band(sum(k.eigenvalues), 1)
    mu = abs(getattr(p, coupling))
    return abs(p.nu1 * p.nu2 - mu * mu) / (tol * (abs(p.nu1) + abs(p.nu2) + 2.0 * mu + tol))


_SWAP_MODES = np.ix_([2, 3, 0, 1], [2, 3, 0, 1])


def _outside_band(v: twomode.InvariantVerdicts) -> bool:
    """Whether each deciding margin of the engine's record v, det C - 1/16 and 1/4 + 4D - (dA + dB +- 2dX), lies outside
    the record's band."""
    margins = (v.det_c - 1.0 / 16.0, *(0.25 + 4.0 * v.det_c - (v.d_ab + s * v.d_x) for s in (2.0, -2.0)))
    return all(abs(m) > v.band for m in margins)


def _assert_same_state(k, other, flags: tuple) -> None:
    """k and other, one state in two frames, get the same verdict ``flags`` of ``classify2`` wherever each deciding
    margin of both records lies outside its band; where both are positive or neither, nu+- within sqrt(band), the band
    the larger of the two records', as nu+-^2 = (Delta +- sqrt(Delta^2 - 4D)) / 2 loses half its digits where the root
    cancels; and, where both C are nonsingular, Tr G^2 within band(kappa, 1) relative, kappa the larger
    lam_max / lam_min of the two C."""
    (v, a), (w, b) = ((twomode._kernel_verdicts(x), twomode.classify2(x)) for x in (k, other))
    if _outside_band(v) and _outside_band(w):
        assert [getattr(a, f) for f in flags] == [getattr(b, f) for f in flags]
    if a.positive == b.positive:  # nu's floor, 1/2 on a positive state and 0 on any other, is the same
        tol = math.sqrt(max(v.band, w.band))
        assert all(abs(x - y) <= tol for x, y in zip(v.nu, w.nu)), (v.nu, w.nu)
    lows = [min(x.eigenvalues) for x in (k, other)]
    if min(lows) > 0.0:  # Tr G^2 = 1 / (4 sqrt(det C)) is finite and kappa defined
        kappa = max(max(x.eigenvalues) / low for x, low in zip((k, other), lows))
        tr = twomode.trace_g2(k)
        assert abs(twomode.trace_g2(other) - tr) <= tr * linalg.band(kappa, 1)


def _assert_local_invariance(k, mapped) -> None:
    """A local map keeps positivity, purity and PPT; P-representability it changes.  The mode swap, rows and columns
    [2, 3, 0, 1], keeps all four verdicts, in the band too."""
    _assert_same_state(k, mapped, ("positive", "pure", "ppt_separable"))
    swapped = GaussianKernel("C", k.matrix[_SWAP_MODES])
    _assert_same_state(k, swapped, ())
    a, b = twomode.classify2(k), twomode.classify2(swapped)
    assert (a.positive, a.pure, a.p_representable, a.ppt_separable) == (b.positive, b.pure, b.p_representable, b.ppt_separable)


@st.composite
def _local_unitary_pair(draw):
    """``local_unitary_pairs``' draw under hypothesis: couplings of moments that are no state are halved until they are."""
    unit = st.floats(0.0, 1.0)
    s = 10.0 ** draw(st.floats(-6.0, 6.0))
    n1, n2 = s * draw(unit), s * draw(unit)
    couplings = [s * draw(unit) * complex(math.cos(t), math.sin(t)) for t in (2.0 * math.pi * draw(unit) for _ in range(4))]
    while True:
        try:
            k = build_C2(TwoModeMoments(n1, n2, *couplings))
            break
        except NotAStateError:
            couplings = [0.5 * m for m in couplings]
    maps = [SqueezeMap(draw(st.floats(-2.0, 2.0)), 2.0 * math.pi * draw(unit), 2.0 * math.pi * draw(unit)) for _ in range(2)]
    return k, local_squeeze(k, *maps)


class TestLocalUnitaries:
    """Positivity, purity, PPT, nu+- and Tr G^2 are invariant under local Gaussian unitaries, a squeeze and rotations
    of each mode (``conftest.local_squeeze``), and under the swap of the two modes."""

    def test_seeded(self):
        for k, mapped in local_unitary_pairs(np.random.default_rng(19), 1000):
            _assert_local_invariance(k, mapped)

    @given(_local_unitary_pair())
    def test_drawn(self, pair):
        _assert_local_invariance(*pair)
