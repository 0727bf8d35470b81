"""Shared strategies and helpers for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from gausspair import onemode, states, twomode
from gausspair.errors import NotAStateError
from gausspair.kernels import GaussianKernel


def _finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def one_mode_moments(draw, positive_only=False):
    """Random valid one-mode moments; optionally restricted to positive states."""
    n = draw(_finite(0.0, 3.0))
    bound = n if positive_only else n + 0.5
    r = draw(_finite(0.0, 0.95)) * bound
    phase = draw(_finite(0.0, 2 * np.pi))
    return onemode.OneModeMoments(n=n, m=r * np.exp(1j * phase))


@st.composite
def two_mode_moments(draw):
    """Random two-mode moments whose C matrix is safely positive definite."""
    n1 = draw(_finite(0.1, 2.5))
    n2 = draw(_finite(0.1, 2.5))
    coups = [
        draw(_finite(0.0, 0.4)) * np.exp(1j * draw(_finite(0.0, 2 * np.pi)))
        for _ in range(4)
    ]
    p = twomode.TwoModeMoments(n1=n1, n2=n2, m1=coups[0], m2=coups[1], ms=coups[2], mc=coups[3])
    eigs = np.linalg.eigvalsh(twomode.assemble_c(p))
    if eigs[0] < 1e-6:
        # couplings too strong for these occupations; shrink them
        p = twomode.TwoModeMoments(n1=n1, n2=n2)
    return p


@st.composite
def two_mode_kernels(draw):
    return twomode.build_C2(draw(two_mode_moments()))


def random_one_mode(rng: np.random.Generator, positive_only=False) -> onemode.OneModeMoments:
    """Plain-RNG sampler for bulk loops where hypothesis would be too slow."""
    n = rng.uniform(0.0, 3.0)
    bound = n if positive_only else n + 0.5
    r = rng.uniform(0.0, 0.95) * bound
    return onemode.OneModeMoments(n=n, m=r * np.exp(1j * rng.uniform(0, 2 * np.pi)))


def random_two_mode(rng: np.random.Generator, coupling=0.4, n_hi=2.5) -> twomode.TwoModeMoments:
    while True:
        p = twomode.TwoModeMoments(
            n1=rng.uniform(0.1, n_hi),
            n2=rng.uniform(0.1, n_hi),
            m1=rng.uniform(0, coupling) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            m2=rng.uniform(0, coupling) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            ms=rng.uniform(0, coupling) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            mc=rng.uniform(0, coupling) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        )
        if np.linalg.eigvalsh(twomode.assemble_c(p))[0] > 1e-6:
            return p


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


# C[i, j] of a scan family is the coefficient of the swap i ^ j: I, X (z <-> z* in each
# mode), Y (the modes) or XY; the coefficients are a = n + 1/2, m1, ms and mc
_SWAP = np.bitwise_xor.outer(np.arange(4), np.arange(4))


def family_stack(family, n, mc, ratio):
    """The stacked real C matrices of a scan family at each (mc, n), gathered entry by entry:
    the matrices the CLI scan decides without building."""
    n, mc = np.broadcast_arrays(np.asarray(n, dtype=float), np.asarray(mc, dtype=float))
    zero = np.zeros_like(n)
    m1 = ratio * mc if family == "squeezed_epr" else zero
    ms = ratio * mc if family == "anti_epr" else zero
    return np.stack([n + 0.5, m1, ms, mc], axis=-1)[..., _SWAP]


def family_bounds(n: float, r: float) -> dict:
    """Each scan family's (positivity, separability) boundary couplings mc at n, with ms or
    m = r mc; for anti and squeezed the separability one solves mc^2 (1 - r^2) - 2 mc h + nn = 0."""
    nn, h = n * (n + 1.0), n + 0.5
    sep = nn / (h + math.sqrt(h * h - (1.0 - r * r) * nn))
    return {"mixed_epr": (math.sqrt(nn), n), "anti_epr": (nn / (r * h + math.sqrt(r * r * h * h + (1.0 - r * r) * nn)), sep),
            "squeezed_epr": (math.sqrt(nn) / (1.0 + r), sep)}


def scaled_two_mode(n: float, p: twomode.TwoModeMoments):
    """The two-mode C kernel n times the C of moments p."""
    return twomode.build_C2(twomode.TwoModeMoments(
        n * (p.n1 + 0.5) - 0.5, n * (p.n2 + 0.5) - 0.5, *(n * x for x in (p.m1, p.m2, p.ms, p.mc))))


def differential_kernels(rng) -> list:
    """C kernels over n in [1e-6, 1e6] for comparing the per-kernel float path with the array
    one: the three families at 0.9, 1 -+ 1e-9, 1 and 1.1 of their positivity and separability
    boundary couplings, random complex two-mode kernels, pure D-states and one-mode kernels
    near |m| = sqrt(n (n + 1)) and the P edge |m| = n."""
    out = []

    def add(build, *args):
        try:
            out.append(build(*args))
        except NotAStateError:
            pass

    for n in np.logspace(-6, 6, 13).tolist():
        nn = n * (n + 1.0)
        for r in (0.3, 0.7):
            for family, couplings in family_bounds(n, r).items():
                for mc in (f * b for b in couplings for f in (0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.1)):
                    add(getattr(states, family), *((n, mc) if family == "mixed_epr" else (n, mc, r * mc)))
        for _ in range(4):
            p = random_two_mode(rng)
            add(scaled_two_mode, n, p)
            alpha, beta = n ** rng.uniform(-0.5, 0.5), rng.uniform(0.1, 10.0)
            add(lambda: states.pure_from_d(states.PureStateD(alpha, beta, rng.uniform(-0.9, 0.9) * math.sqrt(alpha * beta))))
        for m in (math.sqrt(nn), 0.999 * math.sqrt(nn), n, rng.uniform(0.0, n)):
            add(lambda: onemode.build_C(onemode.OneModeMoments(n, m * np.exp(1j * rng.uniform(0, 2 * np.pi)))))
    return out


def assert_close(a, b, tol=1e-10):
    assert np.allclose(a, b, atol=tol, rtol=0.0), f"\n{a}\n!=\n{b}"
