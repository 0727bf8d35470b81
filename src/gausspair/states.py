"""Constructors for the example state families: EPR variants with their closed-form eigenpair, pure D-states, Bell record.
An EPR-family C is a I + m1 X + ms Y + mc XY (X swaps z and z* in each mode, Y the modes); its builders, on Python floats,
and a scan's ``family_invariants`` read the same ``family_spectrum`` and ``family_dets``, so the two decide alike."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAStateError
from .kernels import GaussianKernel
from .twomode import TwoModeMoments, build_C2

# each EPR family's real couplings after n, in its builder's order: the families of the CLI's --family and scan
FAMILIES = {"mixed_epr": ("mc",), "anti_epr": ("mc", "ms"), "squeezed_epr": ("mc", "m")}
# C[i, j] of an EPR-family C is the coefficient of the swap i ^ j: I, X, Y or XY
_SWAP = np.bitwise_xor.outer(np.arange(4), np.arange(4))
_FAMILY_V = 0.5 * np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=complex)
_FAMILY_V.setflags(write=False)  # every family kernel holds it as its eigenvectors


def family_spectrum(a, m1, ms, mc) -> list:
    """The eigenvalues a + x m1 + y ms + xy mc, (x, y) = (1, 1), (1, -1), (-1, 1), (-1, -1), of
    a I + m1 X + ms Y + mc XY, on floats or arrays: ``_FAMILY_V``'s columns (1, x, y, xy)/2 in order."""
    return [a + m1 + ms + mc, a + m1 - ms - mc, a - m1 + ms - mc, a - m1 - ms + mc]


def family_dets(a, m1, ms, mc) -> tuple:
    """(dA, dB, dX) of a I + m1 X + ms Y + mc XY: its blocks [[a, m1], [m1, a]] and [[ms, mc], [mc, ms]]'s determinants."""
    da = a * a - m1 * m1
    return da, da, ms * ms - mc * mc


def build_family(n: float, m1: float, ms: float, mc: float) -> GaussianKernel:
    """The EPR-family C kernel, its closed-form pair and block determinants, on its moments as Python floats."""
    c = float(n + 0.5), float(m1), float(ms), float(mc)
    return GaussianKernel._closed(functools.partial(np.take, c, _SWAP), family_spectrum(*c), _FAMILY_V, family_dets(*c))


def family_invariants(family: str, n: np.ndarray, mc: np.ndarray, ratio: float) -> tuple:
    """The invariants ``twomode.verdicts_from_invariants`` reads of ``family``'s C at every (mc, n) they
    broadcast to, its second coupling ratio * mc: ``family_spectrum`` ascending and ``family_dets``."""
    couplings = dict(zip(FAMILIES[family], (mc, ratio * mc)))
    a, m1, ms = n + 0.5, couplings.get("m", 0.0), couplings.get("ms", 0.0)
    eig = family_spectrum(a, m1, ms, mc)
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):  # a sorting network of compare-exchange pairs
        eig[i], eig[j] = np.minimum(eig[i], eig[j]), np.maximum(eig[i], eig[j])
    return (eig, *family_dets(a, m1, ms, mc))


def mixed_epr(n: float, mc: float) -> GaussianKernel:
    """EPR-correlated mixed state: only n1 = n2 = n and real mc are non-zero."""
    return build_family(n, 0.0, 0.0, mc)


def anti_epr(n: float, mc: float, ms: float) -> GaussianKernel:
    """Mixed EPR state with an additional real anti-EPR coupling ms."""
    return build_family(n, 0.0, ms, mc)


def squeezed_epr(n: float, mc: float, m: float) -> GaussianKernel:
    """Mixed EPR state with equal real single-mode squeezing m on both modes."""
    return build_family(n, m, 0.0, mc)


# the families' positivity / separability margins, for n >= 0 and couplings >= 0: positive (separable) iff >= 0; a
# coupling's sign flip keeps C's spectrum and (dA, dB, dX), so a negative coupling is decided by the margins at its size

def mixed_epr_positivity(n: float, mc: float) -> float:
    return n * (n + 1.0) - mc * mc


def mixed_epr_separability(n: float, mc: float) -> float:
    return n - abs(mc)


def anti_epr_positivity(n: float, mc: float, ms: float) -> float:
    return n * (n + 1.0) - 2.0 * ms * (n + 0.5) + ms * ms - mc * mc


def anti_epr_separability(n: float, mc: float, ms: float) -> float:
    return n * (n + 1.0) - 2.0 * mc * (n + 0.5) + mc * mc - ms * ms


def squeezed_epr_positivity(n: float, mc: float, m: float) -> float:
    return n * (n + 1.0) - (mc + m) ** 2


def squeezed_epr_separability(n: float, mc: float, m: float) -> float:
    return n * (n + 1.0) - 2.0 * mc * (n + 0.5) + mc * mc - m * m


def anti_epr_p_rep_angle(n: float, mc: float, ms: float) -> float:
    """Squeeze angle for which the locally transformed anti-EPR kernel saturates
    the P-representability bounds."""
    num = n + 0.5 - abs(mc + ms)
    den = n + 0.5 - abs(mc - ms)
    if num <= 0.0 or den <= 0.0:
        raise NotAStateError("angle undefined: C matrix is not positive definite")
    return 0.25 * math.log(num / den)


def anti_epr_p_rep_conditions(n: float, mc: float, ms: float, theta: float) -> bool:
    """P-representability of the transformed anti-EPR kernel at squeeze angle theta.

    The two bounds follow from N +- M >= |Mc +- Ms| with
    N +- M = (n + 1/2) e^{-+2 theta} - 1/2 and |Mc +- Ms| = e^{-+2 theta}|mc +- ms|.
    """
    first = (n + 0.5) - 0.5 * math.exp(2.0 * theta) >= abs(mc + ms)
    second = (n + 0.5) - 0.5 * math.exp(-2.0 * theta) >= abs(mc - ms)
    return first and second


@dataclass(frozen=True)
class PureStateD:
    """Real quadratic-form matrix D = [[alpha, gamma], [gamma, beta]] of a pure
    two-mode Gaussian wave function."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not self.alpha + self.beta > math.sqrt((self.alpha - self.beta) ** 2 + 4.0 * self.gamma**2):  # refuses NaN too
            raise NotAStateError("D is not positive definite: wave function not normalizable")

    @property
    def det(self) -> float:
        return self.alpha * self.beta - self.gamma**2


def pure_from_d(p: PureStateD) -> GaussianKernel:
    """C kernel of the pure state with position wave function ~ exp(-q^T D q / 2)."""
    a, b, g, d = p.alpha, p.beta, p.gamma, p.det
    n1 = a / 4.0 + b / (4.0 * d) - 0.5
    m1 = a / 4.0 - b / (4.0 * d)
    n2 = b / 4.0 + a / (4.0 * d) - 0.5
    m2 = b / 4.0 - a / (4.0 * d)
    ms = g / 4.0 * (1.0 - 1.0 / d)
    mc = g / 4.0 * (1.0 + 1.0 / d)
    return build_C2(TwoModeMoments(n1=n1, n2=n2, m1=m1, m2=m2, ms=ms, mc=mc))


def pure_ket_params(p: PureStateD) -> tuple[complex, complex, complex, float]:
    """(mu1, mu2, muc, det Q) of the projector ket built from D."""
    a, b, g, d = p.alpha, p.beta, p.gamma, p.det
    den = d + a + b + 1.0
    mu1 = (d + a - b - 1.0) / den
    mu2 = (d - a + b - 1.0) / den
    muc = 2.0 * g / den
    det_q = 16.0 * d / den**2
    return mu1, mu2, muc, det_q


@dataclass(frozen=True)
class SmoothedEprParam:
    """Single-parameter EPR-correlated pure state, alpha = beta = 1 + 2 nbar."""

    nbar: float

    def __post_init__(self):
        if not self.nbar >= 0.0:  # refuses NaN too
            raise NotAStateError("nbar must be non-negative")

    def to_d(self) -> PureStateD:
        a = 1.0 + 2.0 * self.nbar
        gamma = -2.0 * math.sqrt(self.nbar * (self.nbar + 1.0))
        return PureStateD(alpha=a, beta=a, gamma=gamma)


def smoothed_epr(p: SmoothedEprParam) -> GaussianKernel:
    """``pure_from_d(p.to_d())`` at det D = 1: n1 = n2 = nbar, mc = gamma/2 = -sqrt(nbar (nbar + 1)), m1 = m2 = ms = 0.
    The D route loses det D = 1 by eps nbar^2 and refuses the state from nbar near 3.5e7."""
    nb = p.nbar
    return build_family(nb, 0.0, 0.0, -math.sqrt(nb * (nb + 1.0)))


def epr_wavefunction(p: SmoothedEprParam, q1, q2):
    """Normalized smoothed EPR wave function on position space.  The exponent -(nbar + 1/2)(q1^2 + q2^2) + 2s q1 q2,
    s = sqrt(nbar (nbar + 1)), is taken as -(nbar + 1/2)(q1 - q2)^2 - q1 q2 / (2 nbar + 1 + 2s): never positive, no cancellation."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    nb = p.nbar
    den = 2.0 * nb + 1.0 + 2.0 * math.sqrt(nb * (nb + 1.0))
    return math.pi**-0.5 * np.exp(-(nb + 0.5) * (q1 - q2) ** 2 - q1 * q2 / den)


@dataclass(frozen=True)
class BellShift:
    """Displacement label z0 of a continuous Bell state."""

    z0: complex


@dataclass(frozen=True)
class BellParameters:
    """Descriptive record of a continuous Bell state: ket coefficients and the
    support points of its singular Wigner function.  No kernel exists (C is
    undefined for delta-supported states)."""

    exponent_const: float
    coeff_a2dag: complex
    coeff_a1dag: complex
    coeff_a1dag_a2dag: complex
    wigner_support_mode1: complex
    wigner_support_mode2: complex


def bell_parameters(s: BellShift) -> BellParameters:
    z0 = complex(s.z0)
    return BellParameters(
        exponent_const=-0.5 * abs(z0) ** 2,
        coeff_a2dag=np.conj(z0),
        coeff_a1dag=-z0,
        coeff_a1dag_a2dag=1.0,
        wigner_support_mode1=z0,
        wigner_support_mode2=-np.conj(z0),
    )
