"""Verdicts and conversions across scale: occupations n from 1e-6 to 1e6, and
paths that must agree on the same kernel."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from test_engine_reference import exact_det_margin_squares, exact_margins, exact_q_margins, margins

from gausspair import linalg, onemode, states, twomode
from gausspair.errors import NotAStateError, NotPRepresentableError, NotPureError, SingularMatrixError
from gausspair.kernels import convert
from gausspair.onemode import OneModeMoments

occupations = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e)
phases = st.floats(min_value=0.0, max_value=2 * math.pi)
ratios = st.floats(min_value=0.0, max_value=1.0)


def pure_m(n: float) -> float:
    return math.sqrt(n * (n + 1.0))


# the positivity verdict of the engine and of the paper's two reference routes
ROUTES = {
    "classify2": lambda k: twomode.classify2(k).positive,
    "positivity_by_q": twomode.positivity_by_q,
    "positivity_by_dets": twomode.positivity_by_dets,
}


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
    @example(10**5.25)  # smoothed_epr: the Q route's nu1 + nu2 reads -3.1e-10, inside its band of 2.5e-9
    @example(1e6)
    def test_positive_pure_and_entangled(self, build, n):
        k = build(n)
        v = twomode.classify2(k)
        assert v.pure and not v.ppt_separable
        assert {route: positive(k) for route, positive in ROUTES.items()} == dict.fromkeys(ROUTES, True)
        assert twomode.ppt_separable(k) is False  # the partial-transpose route does not raise

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
        assert v.positive and not v.pure
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


SEPARABILITY = {
    "mixed_epr": states.mixed_epr_separability,
    "anti_epr": states.anti_epr_separability,
    "squeezed_epr": states.squeezed_epr_separability,
}


def _verdicts(build, args) -> dict:
    """Each route's positivity verdict, and ``ppt_separable``'s where the Q route,
    which it calls first, finds the state positive."""
    try:
        k = build(*args)
    except NotAStateError:  # C itself is not positive semi-definite
        return dict.fromkeys(ROUTES, False)
    out = {route: positive(k) for route, positive in ROUTES.items()}
    if out["positivity_by_q"]:
        out["ppt_separable"] = twomode.ppt_separable(k)
    return out


def _closed_form(kind, margin, args) -> dict:
    """The verdicts ``_verdicts`` must give: the signs of the family's closed-form margins."""
    positive = margin(*args) > 0.0
    out = dict.fromkeys(ROUTES, positive)
    if positive:
        out["ppt_separable"] = SEPARABILITY[kind](*args) >= 0.0
    return out


def _assert_routes_match_closed_form(kind, n, r, delta):
    """Every route at the point whose positivity margin is delta.  The separability
    verdict is compared where its margin lies at least |delta| from zero: the point is
    chosen by its positivity margin, and a separability margin of 1e-14 n^2 at n = 1e6
    lies within the routes' bands."""
    build, margin, args = _at_margin(kind, n, r, delta)
    got, want = _verdicts(build, args), _closed_form(kind, margin, args)
    if abs(SEPARABILITY[kind](*args)) < abs(delta):
        got.pop("ppt_separable", None), want.pop("ppt_separable", None)
    assert got == want


class TestFamilyBoundariesAcrossScale:
    """Every route, the engine and the paper's reference routes, against the closed forms."""

    @pytest.mark.parametrize("kind", ["mixed_epr", "anti_epr", "squeezed_epr"])
    @pytest.mark.parametrize("f", [0.9, 1.1])
    @given(n=occupations, r=ratios)
    @example(n=1e-5, r=0.5)  # at 1.1x the routes' deciding margins are -5e-11 (anti) and -2e-11 (squeezed)
    @example(n=1e6, r=1.0)
    def test_verdict_has_the_sign_of_the_margin(self, kind, f, n, r):
        # q = f^2 n(n+1): mixed and squeezed EPR at f times their boundary mc
        _assert_routes_match_closed_form(kind, n, r, (1.0 - f * f) * n * (n + 1.0))

    @pytest.mark.parametrize("kind", ["mixed_epr", "anti_epr", "squeezed_epr"])
    @pytest.mark.parametrize("delta", [-0.1, 0.1])
    @given(n=st.floats(min_value=2.0, max_value=6.0).map(lambda e: 10.0**e), r=ratios)
    @example(n=1e3, r=0.0)
    @example(n=1e4, r=1.0)
    def test_margin_of_a_tenth_at_large_n(self, kind, delta, n, r):
        _assert_routes_match_closed_form(kind, n, r, delta)

    @pytest.mark.parametrize("kind", ["mixed_epr", "anti_epr", "squeezed_epr"])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @given(n=st.floats(min_value=0.0, max_value=6.0).map(lambda e: 10.0**e), r=st.floats(0.1, 1.0))
    @example(n=1e3, r=0.5)
    def test_margin_a_thousand_times_its_round_off(self, kind, sign, n, r):
        # the closed-form margin carries a round-off of about eps (2n+1)^2; r
        # keeps off 0, where both symplectic eigenvalues near 1/2 leave the
        # invariant margins only second-order sensitive to the sign
        delta = sign * 2.0**10 * sys.float_info.epsilon * (2.0 * n + 1.0) ** 2
        _assert_routes_match_closed_form(kind, n, r, delta)


def _engine_within_two_bands(k, ppt: bool) -> bool:
    """An exact margin of the engine's positivity (or, with ``ppt``, PPT) decision
    lies within 2 of its bands."""
    c, eig = k.matrix.real, np.sort(k.eig[0])
    tol = Fraction(float(margins(c, eig, np.prod(eig))[3]))
    return any(abs(m) <= 2 * tol for m in exact_margins(c)[: 3 if ppt else 2])


def _q_route_within_two_bands(k) -> bool:
    """An exact margin of ``positivity_by_q`` lies within 2 of the bands it applies."""
    p, tol = twomode.normal_order_params(k), linalg.band(sum(k.eig[0].tolist()), 1)
    tol_product = tol * (abs(p.nu1) + abs(p.nu2) + 2.0 * abs(p.mus) + tol)
    total, product = exact_q_margins(k.matrix)
    return abs(total) <= 2 * Fraction(tol) or abs(product) <= 2 * Fraction(tol_product)


def _det_route_within_two_bands(k) -> bool:
    """An exact margin a - b of ``positivity_by_dets`` lies within 2 of its band,
    compared as squares: |a^2 - b^2| <= 2 band (a + b)."""
    eig = np.sort(k.eig[0])
    tol = Fraction(float(margins(k.matrix.real, eig, np.prod(eig))[3]))
    return any(abs(sq) <= 2 * tol * (a + Fraction(math.sqrt(float(a * a - sq))))
               for a, sq in exact_det_margin_squares(k.matrix))


def test_exact_route_margins_reproduce_the_floats():
    k = states.anti_epr(0.9, 0.5, 0.3)
    p = twomode.normal_order_params(k)
    total, product = exact_q_margins(k.matrix)
    assert float(total) == pytest.approx(p.nu1 + p.nu2, rel=1e-12)
    assert float(product) == pytest.approx(p.nu1 * p.nu2 - abs(p.mus) ** 2, rel=1e-12)
    for (a, sq), margin in zip(exact_det_margin_squares(k.matrix), twomode.positivity_det_margins(k)):
        assert float(a) - math.sqrt(float(a * a - sq)) == pytest.approx(margin, abs=1e-12)


def test_routes_differ_from_the_engine_only_within_two_bands():
    # near 1/2 (small n, close to the boundary) the margins are of the order of their own
    # round-off; where a reference route and classify2 decide differently, the exact
    # margin of one of them must lie within 2 of its bands
    for kind in ("mixed_epr", "anti_epr", "squeezed_epr"):
        for n in np.logspace(-6, 6, 25):
            for f in (0.9, 0.99, 0.999, 0.9999, 1.0001, 1.001, 1.01, 1.1):
                for r in (0.0, 0.3, 1.0):
                    build, _, args = _at_margin(kind, n, r, (1.0 - f * f) * n * (n + 1.0))
                    try:
                        k = build(*args)
                    except NotAStateError:
                        continue
                    v, by_q = twomode.classify2(k), twomode.positivity_by_q(k)
                    where = (kind, n, f, r)
                    if by_q != v.positive:
                        assert _engine_within_two_bands(k, False) or _q_route_within_two_bands(k), where
                    if twomode.positivity_by_dets(k) != v.positive:
                        assert _engine_within_two_bands(k, False) or _det_route_within_two_bands(k), where
                    if by_q and v.positive and twomode.ppt_separable(k) != v.ppt_separable:
                        pt = twomode.partial_transpose(k)
                        assert _engine_within_two_bands(k, True) or _q_route_within_two_bands(pt), where


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


@pytest.mark.parametrize("phase", [0.0, 0.7])
def test_one_mode_verdict_and_convert_agree_at_the_p_edge(phase):
    # the one-mode twin: +-20 ulps of n around n - |m| = band(2n + 1, 1); classify's
    # P margin reads the eigenvalues n + 1/2 -+ |m| that build_C carries, summed as
    # convert sums them, so C -> P -> C succeeds exactly where the verdict admits P; the
    # C it returns holds those eigenvalues unchanged, so it converts through P again
    admitted = 0
    for n in np.geomspace(1e-6, 1e6, 100):
        m = (n - linalg.band(2.0 * n + 1.0, 1)) * np.exp(1j * phase)
        for nk in n + np.arange(-20, 21) * np.spacing(n):
            p = OneModeMoments(nk, m if phase else m.real)
            back = _through_p(onemode.build_C(p))
            assert onemode.classify(p).p_representable == (back is not None), (nk, m)
            if back is not None:
                admitted += 1
                assert back.eigenvalues == onemode.build_C(p).eigenvalues and _through_p(back) is not None, (nk, m)
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
