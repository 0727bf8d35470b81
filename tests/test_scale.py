"""Verdicts and conversions across scale: occupations n from 1e-6 to 1e6, and
paths that must agree on the same kernel."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gausspair import linalg, onemode, states, twomode
from gausspair.errors import NotAStateError, NotPRepresentableError, NotPureError, SingularMatrixError
from gausspair.kernels import convert
from gausspair.onemode import OneModeMoments

occupations = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e)
phases = st.floats(min_value=0.0, max_value=2 * math.pi)
ratios = st.floats(min_value=0.0, max_value=1.0)


def pure_m(n: float) -> float:
    return math.sqrt(n * (n + 1.0))


class TestOneModeAcrossScale:
    @given(occupations, phases)
    @example(1e3, 0.0)
    @example(1e6, 1.0)
    def test_pure_state_is_positive_and_pure(self, n, phase):
        v = onemode.classify(OneModeMoments(n, pure_m(n) * np.exp(1j * phase)))
        assert v.positive and v.pure and not v.p_representable

    @given(occupations, st.floats(min_value=-1e-6, max_value=1e-6))
    @example(1e-6, 1e-7)
    @example(1e6, 0.0)
    def test_wavefunction_accepts_what_classify_calls_pure(self, n, rel):
        m = pure_m(n) * (1.0 + rel)
        assume(m < n + 0.5)  # the perturbed moments still describe a state
        p = OneModeMoments(n, complex(m))
        if onemode.classify(p).pure:
            f = onemode.squeezed_wavefunction(p)
            assert 0.0 <= f.mu < 1.0 and f.kappa >= 1.0
        else:
            with pytest.raises(NotPureError):
                onemode.squeezed_wavefunction(p)


class TestPureTwoModeAcrossScale:
    @pytest.mark.parametrize(
        "build",
        [lambda n: states.smoothed_epr(states.SmoothedEprParam(n)), lambda n: states.mixed_epr(n, pure_m(n))],
        ids=["smoothed_epr", "pure_mixed_epr"],
    )
    @given(occupations)
    @example(1e3)
    @example(1e6)
    def test_positive_pure_and_entangled(self, build, n):
        v = twomode.classify2(build(n))
        assert v.positive and v.pure and not v.ppt_separable

    @pytest.mark.parametrize("n", [1e4, 1e6])
    def test_marginal_separability_on_smoothed_epr(self, n):
        k = states.smoothed_epr(states.SmoothedEprParam(n))
        assert twomode.pure_marginal_separability(k) is False


def with_nu(n: float, nu: float) -> float:
    """|m| (one mode) or mc (mixed_epr) for which the symplectic eigenvalue is nu."""
    return math.sqrt((n + 0.5) ** 2 - nu * nu)


class TestNoFalseAdmissionAtLargeN:
    """Verdicts just outside the true boundary, far outside the round-off
    of the margins (about eps (2n+1)^2) but inside a band of eps (tr C)^4."""

    @pytest.mark.parametrize("n", [1e2, 1e3, 1e4])
    def test_uncertainty_violation_is_not_positive(self, n):
        assert not twomode.classify2(states.mixed_epr(n, with_nu(n, 0.3))).positive
        assert not onemode.classify(OneModeMoments(n, complex(with_nu(n, 0.3)))).positive

    @pytest.mark.parametrize("n", [1e2, 1e3, 1e4])
    @pytest.mark.parametrize("nu", [0.6, 0.99])
    def test_mixed_state_is_not_pure(self, n, nu):
        k = states.mixed_epr(n, with_nu(n, nu))
        v = twomode.classify2(k)
        assert v.positive and not v.pure and not twomode.purity2(k)
        with pytest.raises(NotPureError):
            twomode.pure_marginal_separability(k)
        p = OneModeMoments(n, complex(with_nu(n, nu)))
        assert onemode.classify(p).positive and not onemode.classify(p).pure
        with pytest.raises(NotPureError):
            onemode.squeezed_wavefunction(p)


def _at_margin(kind: str, n: float, r: float, delta: float):
    """(builder, margin, args) whose closed-form positivity margin is delta;
    r sets ms = r mc (anti) or m = r mc (squeezed)."""
    q = n * (n + 1.0) - delta
    if kind == "mixed_epr":
        return states.mixed_epr, states.mixed_epr_positivity, (n, math.sqrt(q))
    if kind == "anti_epr":
        t = q / (r * (n + 0.5) + math.sqrt(r * r * (n + 0.5) ** 2 + (1.0 - r * r) * q))
        return states.anti_epr, states.anti_epr_positivity, (n, t, r * t)
    mc = math.sqrt(q) / (1.0 + r)
    return states.squeezed_epr, states.squeezed_epr_positivity, (n, mc, r * mc)


def _positive(build, args) -> bool:
    try:
        return twomode.classify2(build(*args)).positive
    except NotAStateError:  # C itself is not positive semi-definite
        return False


class TestFamilyBoundariesAcrossScale:
    @pytest.mark.parametrize("kind", ["mixed_epr", "anti_epr", "squeezed_epr"])
    @pytest.mark.parametrize("f", [0.9, 1.1])
    @given(n=occupations, r=ratios)
    @example(n=1e-5, r=0.5)
    @example(n=1e6, r=1.0)
    def test_verdict_has_the_sign_of_the_margin(self, kind, f, n, r):
        # q = f^2 n(n+1): mixed and squeezed EPR at f times their boundary mc
        build, margin, args = _at_margin(kind, n, r, (1.0 - f * f) * n * (n + 1.0))
        assert _positive(build, args) == (margin(*args) > 0.0)

    @pytest.mark.parametrize("kind", ["mixed_epr", "anti_epr", "squeezed_epr"])
    @pytest.mark.parametrize("delta", [-0.1, 0.1])
    @given(n=st.floats(min_value=2.0, max_value=6.0).map(lambda e: 10.0**e), r=ratios)
    @example(n=1e3, r=0.0)
    @example(n=1e4, r=1.0)
    def test_margin_of_a_tenth_at_large_n(self, kind, delta, n, r):
        build, margin, args = _at_margin(kind, n, r, delta)
        assert _positive(build, args) == (margin(*args) > 0.0)

    @pytest.mark.parametrize("kind", ["mixed_epr", "anti_epr", "squeezed_epr"])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @given(n=st.floats(min_value=0.0, max_value=6.0).map(lambda e: 10.0**e), r=st.floats(0.1, 1.0))
    @example(n=1e3, r=0.5)
    def test_margin_a_thousand_times_its_round_off(self, kind, sign, n, r):
        # the closed-form margin carries a round-off of about eps (2n+1)^2; r
        # keeps off 0, where both symplectic eigenvalues near 1/2 leave the
        # invariant margins only second-order sensitive to the sign
        delta = sign * 2.0**10 * sys.float_info.epsilon * (2.0 * n + 1.0) ** 2
        build, margin, args = _at_margin(kind, n, r, delta)
        assert _positive(build, args) == (margin(*args) > 0.0)


# r in [0, 1] sets the coupling; every family is a state for all n and r
CONVERSION_FAMILIES = {
    "mixed_epr": lambda n, r: states.mixed_epr(n, r * n),
    "anti_epr": lambda n, r: states.anti_epr(n, 0.6 * r * n, 0.3 * r * n),
    "squeezed_epr": lambda n, r: states.squeezed_epr(n, 0.5 * r * n, 0.5 * r * r * n),
    "smoothed_epr": lambda n, r: states.smoothed_epr(states.SmoothedEprParam(n)),
    "one_mode": lambda n, r: onemode.build_C(OneModeMoments(n, r * n * np.exp(1j))),
    "one_mode_pure": lambda n, r: onemode.build_C(OneModeMoments(n, pure_m(n) * np.exp(1j * r))),
}


def _p_representable(k) -> bool:
    if k.modes == 1:
        return onemode.classify(onemode.moments_from_c(k)).p_representable
    return twomode.classify2(k).p_representable


class TestConversionsAcrossScale:
    @pytest.mark.parametrize("family", sorted(CONVERSION_FAMILIES))
    @pytest.mark.parametrize("chain", ["WC", "QC", "WQC", "PC"])
    @given(n=occupations, r=ratios)
    @example(n=1e4, r=0.5)  # mixed_epr(n, n/2): det W = 1/det C falls below 1e-16
    @example(n=1e6, r=0.5)
    @example(n=1e-4, r=0.0)  # two-mode thermal: det (C - I/2) = n^4 is 1e-16
    @example(n=1e-6, r=0.0)
    def test_round_trip_within_eps_kappa(self, family, chain, n, r):
        # a generic inverse loses eps times the condition number: kappa of C,
        # times that of C - I/2 for chains through P
        k = CONVERSION_FAMILIES[family](n, r)
        lam = np.linalg.eigvalsh(k.matrix)
        kappa = lam[-1] / lam[0]
        if "P" in chain:
            # no path refuses what the verdict accepts, nor accepts what it refuses
            if not _p_representable(k):
                with pytest.raises(NotPRepresentableError):
                    convert(k, "P")
                return
            kappa *= (lam[-1] - 0.5) / (lam[0] - 0.5)
        back = k
        for target in chain:
            back = convert(back, target)
        err = np.abs(back.matrix - k.matrix).max()
        assert err <= 64 * sys.float_info.epsilon * kappa * np.abs(k.matrix).max()

    @pytest.mark.parametrize(
        "k",
        [
            onemode.build_C(OneModeMoments(262.31479893498516, 262.3147989349833)),
            states.mixed_epr(7455.475754059096, 7455.47575405899),
        ],
        ids=["one_mode", "mixed_epr"],
    )
    def test_p_form_at_the_band_edge(self, k):
        # n - |m| clears band(tr C, 1) by a few eps, so P's eigenvalues span about
        # 1/(16 eps); its small one belongs to C's large eigenvalue, not to the P boundary
        assert _p_representable(k)
        assert convert(k, "P").kind == "P"


# total coupling t split so that lambda_min(C) - 1/2 = n - t for each family
EDGE_FAMILIES = {
    "mixed_epr": lambda n, t: states.mixed_epr(n, t),
    "anti_epr": lambda n, t: states.anti_epr(n, 0.7 * t, 0.3 * t),
    "squeezed_epr": lambda n, t: states.squeezed_epr(n, 0.7 * t, 0.3 * t),
}


def _through_p(k):
    """C -> P -> C, or None where a step refuses."""
    try:
        return convert(convert(k, "P"), "C")
    except (NotPRepresentableError, SingularMatrixError):
        return None


@pytest.mark.parametrize("family", sorted(EDGE_FAMILIES))
def test_verdict_and_convert_agree_at_the_p_edge(family):
    # +-20 ulps of n around lambda_min - 1/2 = band(tr C, 1): classify2 and convert
    # read the kernel's one spectrum, so C -> P -> C succeeds exactly where the
    # verdict admits P, on both sides of the edge, and again on the C it returns
    admitted = 0
    for n in np.geomspace(1e-6, 1e6, 100):
        t = n - linalg.band(4.0 * n + 2.0, 1)
        for nk in n + np.arange(-20, 21) * np.spacing(n):
            k = EDGE_FAMILIES[family](nk, t)
            back = _through_p(k)
            assert twomode.classify2(k).p_representable == (back is not None), (nk, t)
            if back is not None:
                admitted += 1
                assert twomode.classify2(back).p_representable == (_through_p(back) is not None), (nk, t)
    assert 0 < admitted < 100 * 41  # the probe straddles the edge


class TestSqueezesAtLargeN:
    def test_inverse_diagonalizing_squeeze(self):
        p = OneModeMoments(1e6, 0.3e6)
        k = onemode.apply_squeeze(onemode.build_C(p), onemode.diagonalizing_squeeze(p), "inverse")
        c = math.sqrt((p.n + 0.5) ** 2 - abs(p.m) ** 2)  # the thermal form c I keeps det C
        assert np.abs(k.matrix / c - np.eye(2)).max() <= 64 * sys.float_info.epsilon

    def test_local_squeeze_of_anti_epr(self):
        n, theta = 1e6, 0.5
        p = twomode.moments_from_c(twomode.local_squeeze_to_p_rep(states.anti_epr(n, 3e5, 2e5), theta))
        # N +- M = (n + 1/2) e^{-+2 theta} - 1/2 on each mode
        assert p.n1 + p.m1.real == pytest.approx((n + 0.5) * math.exp(-2 * theta) - 0.5, rel=1e-12)
        assert p.n2 - p.m2.real == pytest.approx((n + 0.5) * math.exp(2 * theta) - 0.5, rel=1e-12)
