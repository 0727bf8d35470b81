"""Seeded probes of known defects.  Each returns (defects, sample size) on a fixed sample, so a
test can hold a defect's count at the figure it had when the probe was written
(``test_known_defects``), and a change that fixes it shows as a lower count."""

import json
import math

import numpy as np
from test_engine_reference import exact_margins, margins

from gausspair import cli, linalg, onemode, states, twomode
from gausspair.errors import NotAStateError, NotPRepresentableError, SingularMatrixError
from gausspair.kernels import convert


def ppt_split_kernels(seed: int = 5, count: int = 4000) -> list:
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
    """Kernels of ``ppt_split_kernels`` where ``classify2`` of the partial transpose (a fresh ``eigh``)
    calls it positive and ``classify2`` of the kernel calls it not PPT-separable, or the reverse."""
    kernels = ppt_split_kernels(seed, count)
    split = sum(twomode.classify2(twomode.partial_transpose(k)).positive != twomode.classify2(k).ppt_separable for k in kernels)
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
