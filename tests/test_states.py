import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_close
from gausspair import cli, linalg, states, twomode
from gausspair.errors import NotAStateError
from gausspair.kernels import partial_transpose


@st.composite
def valid_d(draw):
    alpha = draw(st.floats(0.2, 4.0))
    beta = draw(st.floats(0.2, 4.0))
    # normalizability: alpha + beta > sqrt((alpha-beta)^2 + 4 gamma^2);
    # gamma is either exactly zero or bounded away from it so that the
    # entangled/separable verdict is not a tolerance coin flip
    gmax = 0.98 * math.sqrt(alpha * beta)
    raw = draw(st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.floats(-1.0, -0.05)))
    return states.PureStateD(alpha=alpha, beta=beta, gamma=raw * gmax)


class TestMixedEpr:
    def test_boundary_point(self):
        k = states.mixed_epr(1.0, 1.0)
        assert twomode.positivity_by_q(k)
        assert twomode.ppt_separable(k)  # n = |mc| sits on the separable side

    def test_positivity_boundary_root(self):
        root = (math.sqrt(5.0) - 1.0) / 2.0
        assert states.mixed_epr_positivity(root, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_entangled_mixed_point(self):
        k = states.mixed_epr(0.8, 1.0)
        assert twomode.positivity_by_q(k)
        assert not twomode.ppt_separable(k)

    def test_margins_match_machinery(self):
        for n in np.linspace(0.1, 1.8, 7):
            for mc in np.linspace(0.0, 1.2, 7):
                try:
                    k = states.mixed_epr(float(n), float(mc))
                except NotAStateError:
                    assert n + 0.5 <= abs(mc) + 1e-12
                    continue
                pos = states.mixed_epr_positivity(float(n), float(mc)) >= 0
                if abs(states.mixed_epr_positivity(float(n), float(mc))) > 1e-8:
                    assert twomode.positivity_by_q(k) == pos
                if pos and abs(states.mixed_epr_separability(float(n), float(mc))) > 1e-8:
                    sep = states.mixed_epr_separability(float(n), float(mc)) >= 0
                    assert twomode.ppt_separable(k) == sep


class TestAntiEpr:
    def test_ms_zero_reduces_to_mixed(self):
        assert np.allclose(states.anti_epr(1.0, 0.7, 0.0).matrix, states.mixed_epr(1.0, 0.7).matrix, rtol=0.0, atol=1e-10)

    def test_explicit_non_positive_point(self):
        assert states.anti_epr_positivity(1.0, 1.0, 0.5) == pytest.approx(-0.25)
        assert not twomode.positivity_by_q(states.anti_epr(1.0, 1.0, 0.5))

    def test_ms_equals_mc_separability_margin(self):
        # with ms = mc the separability margin equals the positivity margin
        # with the roles of the couplings swapped, so positive implies separable
        for n in np.linspace(0.2, 2.0, 6):
            for mc in np.linspace(0.0, 0.9, 6):
                po = states.anti_epr_positivity(float(n), float(mc), float(mc))
                se = states.anti_epr_separability(float(n), float(mc), float(mc))
                if po >= 0:
                    assert se >= po - 1e-12

    def test_margins_match_machinery(self):
        n, mc, ms = 1.3, 0.6, 0.25
        k = states.anti_epr(n, mc, ms)
        assert twomode.positivity_by_q(k) == (states.anti_epr_positivity(n, mc, ms) >= 0)
        assert twomode.ppt_separable(k) == (states.anti_epr_separability(n, mc, ms) >= 0)

    def test_transpose_swaps_couplings(self):
        k = partial_transpose(states.anti_epr(1.0, 0.5, 0.2))
        p = twomode.moments_from_c(k)
        assert p.mc == pytest.approx(0.2) and p.ms == pytest.approx(0.5)


class TestSqueezedEpr:
    def test_m_zero_reduces_to_mixed(self):
        assert np.allclose(states.squeezed_epr(1.0, 0.7, 0.0).matrix, states.mixed_epr(1.0, 0.7).matrix, rtol=0.0, atol=1e-10)

    def test_separable_point(self):
        n, mc, m = 1.0, 0.5, 0.5
        assert states.squeezed_epr_positivity(n, mc, m) == pytest.approx(1.0)
        assert states.squeezed_epr_separability(n, mc, m) == pytest.approx(0.5)
        assert twomode.ppt_separable(states.squeezed_epr(n, mc, m))

    def test_entangled_point(self):
        n, mc, m = 1.0, 1.0, 0.4
        assert states.squeezed_epr_positivity(n, mc, m) == pytest.approx(2.0 - 1.96)
        assert states.squeezed_epr_separability(n, mc, m) == pytest.approx(-0.16)
        k = states.squeezed_epr(n, mc, m)
        assert twomode.positivity_by_q(k)
        assert not twomode.ppt_separable(k)


class TestFamilyMarginDomain:
    """The engine's family verdicts depend only on the couplings' sizes; the paper's margins are stated for
    non-negative couplings, where they match the engine, and ``anti_epr_*`` and ``squeezed_epr_*`` change with a
    coupling's sign."""

    GRID = [(n, a, b) for n in (0.0, 0.3, 0.8, 1.5) for a in (-1.2, -0.45, 0.0, 0.3, 0.9) for b in (-0.9, -0.2, 0.0, 0.5)]

    @staticmethod
    def family_kernel(family, n, a, b):
        couplings = (a, b)[: len(states.FAMILIES[family])]
        try:
            return getattr(states, family)(n, *couplings), couplings
        except NotAStateError:
            return None, couplings

    @pytest.mark.parametrize("family", list(states.FAMILIES))
    def test_verdicts_keep_each_coupling_sign(self, family):
        for n, a, b in self.GRID:
            k, couplings = self.family_kernel(family, n, a, b)
            if k is None:
                continue
            want = twomode.classify2(k)
            for i in range(len(couplings)):
                flipped = [-c if j == i else c for j, c in enumerate(couplings)]
                assert twomode.classify2(getattr(states, family)(n, *flipped)) == want

    @pytest.mark.parametrize("family", list(states.FAMILIES))
    def test_margins_at_the_couplings_sizes_match_the_engine(self, family):
        positivity, separability = (getattr(states, f"{family}_{rule}") for rule in ("positivity", "separability"))
        for n, a, b in self.GRID:
            k, couplings = self.family_kernel(family, n, a, b)
            if k is None:
                continue
            v, sizes = twomode.classify2(k), [abs(c) for c in couplings]
            pos, sep = positivity(n, *sizes), separability(n, *sizes)
            if abs(pos) > 1e-9:
                assert v.positive == (pos >= 0)
            if v.positive and abs(sep) > 1e-9:
                assert v.ppt_separable == (sep >= 0)


class TestPRepAngle:
    def test_example_point(self):
        theta = states.anti_epr_p_rep_angle(1.0, 0.6, 0.3)
        assert math.exp(4 * theta) == pytest.approx(0.5)
        assert theta == pytest.approx(-math.log(2.0) / 4.0)

    def test_pure_families_need_no_transformation(self):
        assert states.anti_epr_p_rep_angle(1.0, 0.7, 0.0) == pytest.approx(0.0)
        assert states.anti_epr_p_rep_angle(1.0, 0.0, 0.4) == pytest.approx(0.0)

    def test_cond_equivalent_to_separability(self):
        for n in np.linspace(0.2, 2.0, 12):
            for mc in np.linspace(0.0, 1.2, 12):
                for r in (0.25, 0.5, 0.75):
                    ms = r * mc
                    try:
                        theta = states.anti_epr_p_rep_angle(float(n), float(mc), float(ms))
                    except NotAStateError:
                        continue
                    margin = states.anti_epr_separability(float(n), float(mc), float(ms))
                    if abs(margin) < 1e-8:
                        continue
                    got = states.anti_epr_p_rep_conditions(
                        float(n), float(mc), float(ms), theta
                    )
                    assert got == (margin >= 0)


class TestPureFromD:
    def test_two_vacua(self):
        k = states.pure_from_d(states.PureStateD(1.0, 1.0, 0.0))
        assert_close(k.matrix, 0.5 * np.eye(4))

    def test_nbar_one_block_diagonal(self):
        k = states.pure_from_d(states.PureStateD(3.0, 3.0, -2.0 * math.sqrt(2.0)))
        assert k.matrix[0, 0].real == pytest.approx(1.5)  # = nbar + 1/2 at nbar = 1

    def test_invalid_d_rejected(self):
        with pytest.raises(NotAStateError):
            states.PureStateD(1.0, 1.0, 1.5)

    @pytest.mark.parametrize("d", [(math.nan, 1.0, 0.0), (1.0, math.nan, 0.0), (1.0, 1.0, math.nan)])
    def test_nan_d_rejected(self, d):
        # accepted, pure_ket_params and pure_from_d would answer NaN
        with pytest.raises(NotAStateError):
            states.PureStateD(*d)

    @given(valid_d())
    def test_always_pure(self, d):
        k = states.pure_from_d(d)
        assert abs(k.det - 1.0 / 16.0) <= 1e-10
        assert twomode.classify2(k).pure

    @given(valid_d())
    def test_separable_iff_gamma_zero(self, d):
        k = states.pure_from_d(d)
        want = d.gamma == 0.0
        assert twomode.ppt_separable(k) == want
        assert twomode.pure_marginal_separability(k, 1) == want

    @given(valid_d())
    def test_marginal_block_det(self, d):
        k = states.pure_from_d(d)
        det11 = np.linalg.det(k.matrix[:2, :2]).real
        # det C11 = 1/4 exactly when the modes decouple
        assert (abs(det11 - 0.25) <= 1e-10) == (d.gamma == 0.0)


class TestPureKetParams:
    @given(valid_d())
    def test_matches_q_matrix(self, d):
        mu1, mu2, muc, det_q = states.pure_ket_params(d)
        p = twomode.normal_order_params(states.pure_from_d(d))
        assert mu1 == pytest.approx(p.mu1.real, abs=1e-9)
        assert mu2 == pytest.approx(p.mu2.real, abs=1e-9)
        assert muc == pytest.approx(p.muc.real, abs=1e-9)
        q = states.pure_from_d(d)
        from gausspair.kernels import convert

        assert det_q == pytest.approx(
            np.linalg.det(convert(q, "Q").matrix).real, abs=1e-9
        )


class TestSmoothedEpr:
    def test_nbar_zero_is_two_vacua(self):
        k = states.smoothed_epr(states.SmoothedEprParam(0.0))
        assert_close(k.matrix, 0.5 * np.eye(4))
        assert twomode.ppt_separable(k)

    def test_nbar_one_entangled(self):
        assert not twomode.ppt_separable(states.smoothed_epr(states.SmoothedEprParam(1.0)))

    def test_maps_to_mixed_epr_identification(self):
        nbar = 0.8
        k = states.smoothed_epr(states.SmoothedEprParam(nbar))
        p = twomode.moments_from_c(k)
        assert p.n1 == pytest.approx(nbar, abs=1e-10)
        assert p.n2 == pytest.approx(nbar, abs=1e-10)
        assert p.mc.real == pytest.approx(-math.sqrt(nbar * (nbar + 1.0)), abs=1e-10)
        assert abs(p.ms) < 1e-10 and abs(p.m1) < 1e-10

    def test_negative_nbar_rejected(self):
        with pytest.raises(NotAStateError):
            states.SmoothedEprParam(-0.1)

    def test_nan_nbar_rejected(self):
        # accepted, epr_wavefunction would answer NaN
        with pytest.raises(NotAStateError):
            states.SmoothedEprParam(math.nan)

    @pytest.mark.parametrize("nbar", np.logspace(-6, 6, 61).tolist())
    def test_closed_form_matches_the_d_route(self, nbar):
        # the D route loses det D = alpha^2 - gamma^2 = 1 by eps alpha^2 and divides by it:
        # its entries carry up to eps alpha^3, alpha = 1 + 2 nbar
        p = states.SmoothedEprParam(nbar)
        direct, via_d = states.smoothed_epr(p), states.pure_from_d(p.to_d())
        assert np.abs(direct.matrix - via_d.matrix).max() <= linalg.band(1.0 + 2.0 * nbar, 3)

    @pytest.mark.parametrize("nbar", np.logspace(0, 9, 181).tolist())
    def test_builds_without_refusal_up_to_1e9(self, nbar):
        # the D route refuses 30 of these n from near 3.5e7: PureStateD loses det D = 1
        v = twomode.classify2(states.smoothed_epr(states.SmoothedEprParam(nbar)))
        assert v.positive and v.pure and not v.ppt_separable


class TestEprWavefunction:
    def test_ground_state(self):
        p = states.SmoothedEprParam(0.0)
        got = states.epr_wavefunction(p, 0.7, -0.3)
        want = math.pi**-0.5 * math.exp(-0.5 * (0.7**2 + 0.3**2))
        assert got == pytest.approx(want)

    def test_nbar_one_point(self):
        got = states.epr_wavefunction(states.SmoothedEprParam(1.0), 1.0, 1.0)
        assert got == pytest.approx(math.pi**-0.5 * math.exp(-3.0 + 2.0 * math.sqrt(2.0)))

    def test_ridge_grows_with_nbar(self):
        for nbar in (1.0, 4.0, 16.0):
            p = states.SmoothedEprParam(nbar)
            ratio = states.epr_wavefunction(p, 1.0, 1.0) / states.epr_wavefunction(
                p, 1.0, -1.0
            )
            assert ratio > math.exp(4.0 * math.sqrt(nbar * (nbar + 1.0)) - 1e-9)

    def test_normalized(self):
        for nbar in (0.0, 1.0):
            # the slow direction is along the q1 = q2 ridge, with
            # |psi|^2 ~ exp(-4 delta q^2), delta = nbar + 1/2 - sqrt(nbar(nbar+1))
            delta = nbar + 0.5 - math.sqrt(nbar * (nbar + 1.0))
            lim = 3.5 / math.sqrt(delta)
            q = np.linspace(-lim, lim, 801)
            q1, q2 = np.meshgrid(q, q, indexing="ij")
            psi = states.epr_wavefunction(states.SmoothedEprParam(nbar), q1, q2)
            step = q[1] - q[0]
            assert np.sum(psi**2) * step**2 == pytest.approx(1.0, abs=1e-6)


    @pytest.mark.parametrize("nbar", [0.0, 1.0, 1e12, 1e15, 1e30, 2e74, cli._MOMENT_BOUND])
    def test_grid_is_finite_and_at_most_the_maximum(self, nbar):
        # the exponent is never positive: no cell above pi^(-1/2) and no overflow up to --nbar's bound
        q = np.linspace(-4.0, 4.0, 101)
        psi = states.epr_wavefunction(states.SmoothedEprParam(nbar), *np.meshgrid(q, q, indexing="ij"))
        assert np.isfinite(psi).all() and psi.max() <= math.pi**-0.5 * (1.0 + 4.0 * sys.float_info.epsilon)

    def test_matches_the_paper_exponent_up_to_nbar_10(self):
        q1, q2 = np.meshgrid(np.linspace(-4.0, 4.0, 101), np.linspace(-4.0, 4.0, 101), indexing="ij")
        for nbar in np.linspace(0.0, 10.0, 41).tolist():
            exponent = -(nbar + 0.5) * (q1**2 + q2**2) + 2.0 * math.sqrt(nbar * (nbar + 1.0)) * q1 * q2
            paper = math.pi**-0.5 * np.exp(exponent)
            got = states.epr_wavefunction(states.SmoothedEprParam(nbar), q1, q2)
            assert np.all(np.abs(got - paper) <= 1e-12 * paper), nbar


class TestBell:
    def test_zero_shift(self):
        b = states.bell_parameters(states.BellShift(0.0))
        assert b.exponent_const == 0.0
        assert b.coeff_a2dag == 0.0 and b.coeff_a1dag == 0.0
        assert b.coeff_a1dag_a2dag == 1.0

    def test_unit_shift(self):
        b = states.bell_parameters(states.BellShift(1.0))
        assert b.exponent_const == pytest.approx(-0.5)
        assert b.coeff_a2dag == pytest.approx(1.0)
        assert b.coeff_a1dag == pytest.approx(-1.0)
        assert b.coeff_a1dag_a2dag == pytest.approx(1.0)

    def test_wigner_support_for_imaginary_shift(self):
        b = states.bell_parameters(states.BellShift(1j))
        assert b.wigner_support_mode1 == pytest.approx(1j)
        assert b.wigner_support_mode2 == pytest.approx(1j)
