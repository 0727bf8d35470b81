"""Seeded probes of known defects.  Each public function returns (defects, sample size) on a fixed sample, or one
such pair per kind, so a test can hold a defect's count at the figure it had when the probe was written
(``test_known_defects``), and a change that fixes it shows as a lower count.  CI prints every count."""

import json
import math

import numpy as np
from conftest import local_unitary_pairs
from test_engine_reference import exact_margins, margins

from gausspair import cli, fock, linalg, onemode, phasespace, states, twomode
from gausspair.errors import CutoffTooSmallError, NotAStateError, NotPositiveError, NotPRepresentableError, SingularMatrixError
from gausspair.kernels import GaussianKernel, convert, partial_transpose


def _ppt_split_kernels(seed: int = 5, count: int = 4000) -> list:
    """``count`` positive ``anti_epr(n, mc, r mc)`` kernels within 1e-16 to 1e-10 relative of the
    separability boundary: mc is the root of (1 - r^2) mc^2 - (2n + 1) mc + n (n + 1) = 0 nearer 0,
    scaled by 1 +- 10^U(-16, -10), with n = 10^U(-6, 3) and r in U(0.1, 0.9)."""
    rng, out = np.random.default_rng(seed), []
    while len(out) < count:
        n, r = 10.0 ** rng.uniform(-6.0, 3.0), rng.uniform(0.1, 0.9)
        h, nn = n + 0.5, n * (n + 1.0)
        mc = nn / (h + math.sqrt(h * h - (1.0 - r * r) * nn)) * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -10.0))
        k = states.anti_epr(n, mc, r * mc)
        if twomode.classify2(k).positive:
            out.append(k)
    return out


def ppt_split(seed: int = 5, count: int = 4000) -> tuple[int, int]:
    """Kernels of ``_ppt_split_kernels`` where ``classify2`` of the partial transpose (the kernel's mapped pair)
    calls it positive and ``classify2`` of the kernel calls it not PPT-separable, or the reverse."""
    kernels = _ppt_split_kernels(seed, count)
    split = sum(twomode.classify2(partial_transpose(k)).positive != twomode.classify2(k).ppt_separable for k in kernels)
    return split, len(kernels)


def p_file_round_trip(seed: int = 65, count: int = 3000) -> tuple[int, int]:
    """One-mode C with lam_min - 1/2 at 1 to 4 bands, band(tr C, 1), n = 10^U(-6, 6): the P files
    that ``convert`` writes (``cli.kernel_to_json``) and ``cli.kernel_from_json`` refuses, of those written."""
    rng, refused, written = np.random.default_rng(seed), 0, 0
    for _ in range(count):
        n, bands, phase = 10.0 ** rng.uniform(-6.0, 6.0), rng.uniform(1.0, 4.0), rng.uniform(0.0, 2.0 * math.pi)
        m = (n - bands * linalg.band(2.0 * n + 1.0, 1)) * complex(math.cos(phase), math.sin(phase))
        try:
            text = json.dumps(cli.kernel_to_json(convert(onemode.build_C(onemode.OneModeMoments(n, m)), "P")))
        except (NotPRepresentableError, SingularMatrixError):
            continue
        written += 1
        try:
            cli.kernel_from_json(json.loads(text))
        except (NotAStateError, NotPRepresentableError, SingularMatrixError):
            refused += 1
    return refused, written


def wq_file_round_trip(seed: int = 7, count: int = 3000) -> dict:
    """Two-mode C near singular: ``count`` states of n1, n2 in U(0.1, 1) and four couplings U(0, 0.3) e^(2 pi i U),
    whose eigenvectors V keep 1 to 3 eigenvalues set to one top eps U(10, 80) and the rest to top = 10^U(-3, 3).
    Per kind, W and Q: (the files that ``cli.kernel_from_json`` refuses, those that ``convert`` writes)."""
    rng, eps, counts = np.random.default_rng(seed), np.finfo(float).eps, {"W": [0, 0], "Q": [0, 0]}
    drawn = 0
    while drawn < count:
        n1, n2 = rng.uniform(0.1, 1.0, 2).tolist()
        m1, m2, ms, mc = (rng.uniform(0.0, 0.3, 4) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 4))).tolist()
        try:
            v = twomode.build_C2(twomode.TwoModeMoments(n1, n2, m1, m2, ms, mc)).eig[1]
        except NotAStateError:
            continue
        drawn += 1
        small, top = int(rng.integers(1, 4)), 10.0 ** rng.uniform(-3.0, 3.0)
        lam = np.full(4, top)
        lam[:small] = top * eps * rng.uniform(10.0, 80.0)
        try:
            c = GaussianKernel("C", linalg.hermitian((v * lam) @ v.conj().T))
        except NotAStateError:
            continue
        for kind, tally in counts.items():
            try:
                text = json.dumps(cli.kernel_to_json(convert(c, kind)))
            except SingularMatrixError:
                continue
            tally[1] += 1
            try:
                cli.kernel_from_json(json.loads(text))
            except (NotAStateError, NotPRepresentableError, SingularMatrixError):
                tally[0] += 1
    return {kind: tuple(pair) for kind, pair in counts.items()}


def converted_pair_residual(seed: int = 53, count: int = 300) -> dict:
    """``count`` complex two-mode C of ``build_C2``, one ``eigh`` each: n = 10^U(-6, 3), n1, n2 in n U(0.5, 1) and four
    couplings n U(0, 0.3) e^(2 pi i U).  Per kind, W, Q and P: (the converted kernels whose carried pair misses its own
    matrix, |V diag(x) V^dag - M| > band(max|x|, 1), the tolerance a closed-form pair meets, those ``convert`` returns)."""
    rng, counts, drawn = np.random.default_rng(seed), {"W": [0, 0], "Q": [0, 0], "P": [0, 0]}, 0
    while drawn < count:
        n = 10.0 ** rng.uniform(-6.0, 3.0)
        n1, n2 = (n * rng.uniform(0.5, 1.0, 2)).tolist()
        m1, m2, ms, mc = (n * rng.uniform(0.0, 0.3, 4) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 4))).tolist()
        try:
            c = twomode.build_C2(twomode.TwoModeMoments(n1, n2, m1, m2, ms, mc))
        except NotAStateError:
            continue
        drawn += 1
        for kind, tally in counts.items():
            try:
                k = convert(c, kind)
            except (NotPRepresentableError, SingularMatrixError):
                continue
            x, v = k.eig
            tally[1] += 1
            tally[0] += bool(np.abs((v * x) @ v.conj().T - k.matrix).max() > linalg.band(np.abs(x).max(), 1))
    return {kind: tuple(pair) for kind, pair in counts.items()}


def near_half_product_signs() -> tuple[int, int]:
    """Product states n1 in logspace(-6, 0, 13), n2 = -10^-k for k = 9..13, whose n2 factor alone is
    not positive: the engine's decisions on det C - 1/16 and the positivity and PPT margins (each
    >= -band) that differ from the exact sign of ``test_engine_reference.exact_margins``."""
    wrong = total = 0
    for n1 in np.logspace(-6.0, 0.0, 13).tolist():
        for k in range(9, 14):
            c = twomode.build_C2(twomode.TwoModeMoments(n1, -(10.0**-k)))
            eig = np.sort(c.eig[0])
            *engine, tol = margins(c.matrix, eig, eig[0] * eig[1] * eig[2] * eig[3])
            for got, exact in zip(engine, exact_margins(c.matrix)):
                wrong += bool(got >= -tol) != (exact >= 0)
                total += 1
    return wrong, total


def wigner_point_grid_split() -> tuple[int, int]:
    """The W of four one-mode kernels, (n, m) from (1e-5, 3e-6) to (1e4, 5e3), each on ``GridSpec(-4, 4, 23)``: the
    points where ``phasespace.wigner_value`` differs from ``wigner_grid`` in any bit, of all points."""
    grid, split = phasespace.GridSpec(-4.0, 4.0, 23), 0
    axis = grid.axis.tolist()
    for n, m in ((1e-5, 3e-6), (0.7, 0.2 + 0.3j), (30.0, 12.0 - 4.0j), (1e4, 5e3)):
        k = convert(onemode.build_C(onemode.OneModeMoments(n, m)), "W")
        for row, q in zip(phasespace.wigner_grid(k, grid).tolist(), axis):
            split += sum(bool(phasespace.wigner_value(k, phasespace.PhasePoint.one_mode(q, p)) != w) for w, p in zip(row, axis))
    return split, 4 * len(axis) ** 2


def family_boundary_signs(seed: int = 10, count: int = 600) -> tuple[int, int]:
    """``count`` points alternating ``squeezed_epr(n, mc, r mc)`` and ``anti_epr(n, mc, r mc)``, n = 10^U(-6, 2) and
    r = 10^U(-12, -1), with mc placed so that the closed-form positivity margin is +-2^U(0, 20) eps (2n + 1)^2: the
    engine's decisions on det C - 1/16 and the positivity margin (each >= -band) that differ from the exact sign of
    ``test_engine_reference.exact_margins``."""
    rng, wrong = np.random.default_rng(seed), 0
    for i in range(count):
        n, r = 10.0 ** rng.uniform(-6.0, 2.0), 10.0 ** rng.uniform(-12.0, -1.0)
        margin = rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(0.0, 20.0) * np.finfo(float).eps * (2.0 * n + 1.0) ** 2
        rest = n * (n + 1.0) - margin  # squeezed: (1 + r)^2 mc^2; anti: (1 - r^2) mc^2 + 2 r (n + 1/2) mc
        if i % 2 == 0:
            mc = math.sqrt(rest) / (1.0 + r)
            k = states.squeezed_epr(n, mc, r * mc)
        else:
            h = r * (n + 0.5)
            mc = rest / (h + math.sqrt(h * h + (1.0 - r * r) * rest))
            k = states.anti_epr(n, mc, r * mc)
        eig = np.sort(k.eig[0])
        *engine, tol = margins(k.matrix, eig, eig[0] * eig[1] * eig[2] * eig[3])
        for got, exact in zip(engine[:2], exact_margins(k.matrix)):
            wrong += bool(got >= -tol) != (exact >= 0)
    return wrong, 2 * count


def q_route_boundary_split(seed: int = 31, count: int = 500) -> tuple[int, int]:
    """``count`` complex two-mode C that exist and are not positive, n1, n2 in U(0, s) and four couplings
    U(0, s) e^(2 pi i U) with s = 10^U(-4, 4), each moved to the positivity boundary: C(t) = I/2 + t (C - I/2) at
    the last t, of 60 bisection steps, at which ``classify2`` calls it positive.  The boundary kernels on which
    ``ppt_separable``, whose Q route has its own band, raises ``NotPositiveError``, of all of them."""
    rng, half, refused, drawn = np.random.default_rng(seed), 0.5 * np.eye(4), 0, 0
    while drawn < count:
        s = 10.0 ** rng.uniform(-4.0, 4.0)
        n1, n2 = rng.uniform(0.0, s, 2).tolist()
        m1, m2, ms, mc = (rng.uniform(0.0, s, 4) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 4))).tolist()
        try:
            c = twomode.build_C2(twomode.TwoModeMoments(n1, n2, m1, m2, ms, mc))
        except NotAStateError:
            continue
        if twomode.classify2(c).positive:
            continue
        drawn += 1
        lo, hi, k = 0.0, 1.0, GaussianKernel("C", half)
        for _ in range(60):
            t = 0.5 * (lo + hi)
            mid = GaussianKernel("C", half + t * (c.matrix - half))
            if twomode.classify2(mid).positive:
                lo, k = t, mid
            else:
                hi = t
        try:
            twomode.ppt_separable(k)
        except NotPositiveError:
            refused += 1
    return refused, count


def one_mode_returned_c_p_edge() -> dict:
    """The probe of ``test_scale.test_one_mode_verdict_and_convert_agree_at_the_p_edge``: 100 n in geomspace(1e-6, 1e6),
    +-20 ulps of n around n - |m| = band(2n + 1, 1), arg m in {0, 0.7}.  Per arg m: (the kernels on which C -> P -> C
    succeeds and the returned C's moments, ``onemode.classify(moments_from_c(back))``, refuse P, those on which it succeeds)."""
    counts = {}
    for phase in (0.0, 0.7):
        refused = admitted = 0
        for n in np.geomspace(1e-6, 1e6, 100):
            m = (n - linalg.band(2.0 * n + 1.0, 1)) * np.exp(1j * phase)
            for nk in n + np.arange(-20, 21) * np.spacing(n):
                try:
                    back = convert(convert(onemode.build_C(onemode.OneModeMoments(nk, m if phase else m.real)), "P"), "C")
                except (NotPRepresentableError, SingularMatrixError):
                    continue
                admitted += 1
                refused += not onemode.classify(onemode.moments_from_c(back)).p_representable
        counts[f"arg m = {phase}"] = (refused, admitted)
    return counts


def negative_truncation_loss() -> tuple[int, int]:
    """One-mode C that exist and are not positive, n = 0.1, 0.2, ..., 1.0 and m = s + f (n + 1/2 - s) with
    s = sqrt(n (n + 1)) and f = 0.1, 0.3, ..., 0.9, each built by the strict ``fock.from_kernel`` at cutoffs 8, 16, 24
    and 32: the builds admitted with a truncation loss below -``fock.LOSS_THRESHOLD``, where the trace of the truncated
    operator exceeds 1 and the one-sided gate, loss > ``LOSS_THRESHOLD``, lets it through, of all builds."""
    negative = total = 0
    for n in (i / 10 for i in range(1, 11)):
        s = math.sqrt(n * (n + 1.0))
        for f in (0.1, 0.3, 0.5, 0.7, 0.9):
            c = onemode.build_C(onemode.OneModeMoments(n, s + f * (n + 0.5 - s)))
            for cutoff in (8, 16, 24, 32):
                total += 1
                try:
                    negative += fock.from_kernel(c, cutoff).truncation_loss < -fock.LOSS_THRESHOLD
                except CutoffTooSmallError:
                    continue
    return negative, total


def local_unitary_flips(seed: int = 1, count: int = 3000) -> dict:
    """``conftest.local_unitary_pairs`` at r = 2: the ``count`` pairs (k, k') where ``classify2`` changes its positivity
    verdict, of all of them, and, of the pairs positive in both, those where it changes its PPT verdict.  Local Gaussian
    unitaries leave both verdicts unchanged."""
    counts = {"positivity": [0, 0], "ppt": [0, 0]}
    for k, mapped in local_unitary_pairs(np.random.default_rng(seed), count):
        a, b = twomode.classify2(k), twomode.classify2(mapped)
        counts["positivity"][0] += a.positive != b.positive
        counts["positivity"][1] += 1
        if a.positive and b.positive:
            counts["ppt"][0] += a.ppt_separable != b.ppt_separable
            counts["ppt"][1] += 1
    return {kind: tuple(pair) for kind, pair in counts.items()}


def degenerate_thermal_split() -> tuple[int, int]:
    """Exactly degenerate pairs nu+ = nu-, for n in logspace(-6, 6, 121): ``mixed_epr(n, f sqrt(n (n + 1)))`` for
    f = 0.1, 0.5 and 0.9, ``smoothed_epr(n)`` and ``product_thermal_kernel(g, g)`` with g = n / (n + 1).  The kernels
    whose ``classify2(k).thermal`` has g1 != g2, of all of them: nu+- read off the invariants lose half their digits
    where Delta^2 - 4D cancels."""
    split = total = 0
    for n in np.logspace(-6.0, 6.0, 121).tolist():
        g = n / (n + 1.0)
        kernels = [states.mixed_epr(n, f * math.sqrt(n * (n + 1.0))) for f in (0.1, 0.5, 0.9)]
        kernels += [states.smoothed_epr(states.SmoothedEprParam(n)), twomode.product_thermal_kernel(g, g)]
        for k in kernels:
            thermal = twomode.classify2(k).thermal
            split += thermal.g1 != thermal.g2
            total += 1
    return split, total


def d_state_refusals() -> tuple[int, int]:
    """``SmoothedEprParam(nbar).to_d()`` for nbar in logspace(0, 9, 181): the D matrices of these pure states that
    ``PureStateD`` refuses as not positive definite, of all of them."""
    nbars, refused = np.logspace(0.0, 9.0, 181).tolist(), 0
    for nbar in nbars:
        try:
            states.SmoothedEprParam(nbar).to_d()
        except NotAStateError:
            refused += 1
    return refused, len(nbars)
