"""One-mode Gaussian states: moments, verdicts, squeezing, and the pure-state wave function.

Parameters are the mean occupation n = <a^dag a> and the anomalous moment
m = -<a^2>; the covariance matrix is C = [[n+1/2, m], [m*, n+1/2]].  Moments are admitted as
``build_C`` admits their C: its eigenvalues n + 1/2 -+ |m| within ``linalg.MAX_SCALE``, and C a state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotAStateError, NotPositiveError, NotPureError, NotRealBranchError
from .kernels import GaussianKernel, convert, require


@dataclass(frozen=True)
class OneModeMoments:
    """Second moments (n, m) of a one-mode Gaussian kernel, accepted as ``build_C`` accepts its C."""

    n: float
    m: complex

    def __post_init__(self):
        lo, hi = _eigenvalues(self)
        if hi > linalg.MAX_SCALE:  # past the verdict range, as ``kernels._check`` refuses lam; then |lo| <= hi if C exists
            raise ValueError("matrix has non-finite entries: an eigenvalue overflows it")
        if not linalg.c_rules(lo, lo + hi)[0]:
            raise NotAStateError(f"n + 1/2 = {self.n + 0.5} must exceed |m| = {abs(self.m)}")


@dataclass(frozen=True)
class OneModeVerdict:
    positive: bool
    pure: bool
    p_representable: bool
    g: float | None


@dataclass(frozen=True)
class SqueezeMap:
    """Linear mode transformation a -> e^{i phi} cosh(theta) a + e^{i varphi} sinh(theta) a^dag."""

    theta: float
    phi: float = 0.0
    varphi: float = 0.0

    @property
    def matrix(self) -> np.ndarray:
        ch = math.cosh(self.theta)
        sh = math.sinh(self.theta)
        return np.array(
            [
                [np.exp(1j * self.phi) * ch, np.exp(1j * self.varphi) * sh],
                [np.exp(-1j * self.varphi) * sh, np.exp(-1j * self.phi) * ch],
            ]
        )


@dataclass(frozen=True)
class SqueezedWavefunction:
    """Position wave function (kappa/pi)^(1/4) exp(-kappa q^2 / 2) of a pure squeezed state."""

    mu: float
    kappa: float

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        return (self.kappa / math.pi) ** 0.25 * np.exp(-0.5 * self.kappa * q**2)


def build_C(p: OneModeMoments) -> GaussianKernel:
    """The C kernel, carrying its closed-form pair: lam = n + 1/2 -+ |m| with
    eigenvectors (1, -+e^{-i arg m}) / sqrt 2, or the unit vectors of a diagonal C (m = 0),
    so that its conversions stay exactly diagonal.  Its matrix is formed when first read."""
    a, u = p.n + 0.5, np.exp(-1j * np.angle(p.m))
    v = np.array([[1.0, 1.0], [-u, u]]) * math.sqrt(0.5) if p.m else np.eye(2, dtype=complex)
    v.setflags(write=False)
    return GaussianKernel._closed(functools.partial(np.array, [[a, p.m], [np.conj(p.m), a]]), _eigenvalues(p), v)  # in normal form


def _eigenvalues(p: OneModeMoments) -> tuple[float, float]:
    """C's eigenvalues n + 1/2 -+ |m|, ascending: the floats ``build_C`` carries."""
    a, am = p.n + 0.5, abs(p.m)
    return a - am, a + am


def moments_from_c(k: GaussianKernel) -> OneModeMoments:
    require(k, "C", 1)
    return OneModeMoments(n=float(k.matrix[0, 0].real) - 0.5, m=complex(k.matrix[0, 1]))


def classify(p: OneModeMoments) -> OneModeVerdict:
    """Positivity, purity, and P-representability in closed form; each margin
    is decided against ``linalg.band`` at the scale tr C = 2n + 1.  The P rule is
    ``linalg.c_rules`` on the eigenvalues ``build_C`` carries, as ``convert`` applies it."""
    mm = abs(p.m) ** 2
    det_c = (p.n + 0.5) ** 2 - mm
    band = linalg.band(2.0 * p.n + 1.0, 2)
    positive = p.n * (p.n + 1.0) - mm >= -band
    pure = positive and abs(det_c - 0.25) <= band
    lo, hi = _eigenvalues(p)
    p_rep = linalg.c_rules(lo, lo + hi)[1]  # strict: no delta-function limit
    g = None
    if positive:
        s = math.sqrt(max(det_c, 0.25))
        g = (s - 0.5) / (s + 0.5)
    return OneModeVerdict(positive=positive, pure=pure, p_representable=p_rep, g=g)


def purity_from_wigner(k: GaussianKernel) -> float:
    """Tr G^2 of one mode from its Wigner matrix: half the square root of det W (of two modes: ``twomode.trace_g2``)."""
    require(k, "W", 1)
    return 0.5 * math.sqrt(k.det)


def normal_order_nu(p: OneModeMoments) -> float:
    """The nu entry of the Q matrix, 1 - Q[0,0]."""
    q = convert(build_C(p), "Q")
    return 1.0 - float(q.matrix[0, 0].real)


def apply_squeeze(k: GaussianKernel, u: SqueezeMap, direction: str = "forward") -> GaussianKernel:
    """Conjugate a C kernel by a squeeze map.

    forward:  C -> U^dag C U        (basic Gaussian to squeezed one)
    inverse:  C -> E U E C E U^dag E  (undoes the forward map)
    """
    require(k, "C", 1)
    um = u.matrix
    if direction == "forward":
        a = um.conj().T
    elif direction == "inverse":
        e = linalg.structure_e(2)
        a = e @ um @ e
    else:
        raise ValueError("direction must be 'forward' or 'inverse'")
    return GaussianKernel("C", linalg.congruence(a, k.matrix))


def theta_window(p: OneModeMoments) -> tuple[float, float, float]:
    """Range of squeeze angles mapping a positive state onto a P-representable one.

    Returns (lo, hi, theta0) where theta0 marks the transformation that lands
    on the thermal diagonal form.
    """
    if not classify(p).positive:
        raise NotPositiveError("theta window is only defined for positive states")
    am = abs(p.m)
    lo = -0.5 * math.log(2.0 * p.n + 1.0 - 2.0 * am)
    hi = 0.5 * math.log(2.0 * p.n + 1.0 + 2.0 * am)
    theta0 = 0.25 * math.log((p.n + 0.5 + am) / (p.n + 0.5 - am))
    return lo, hi, theta0


def moments_after_squeeze(p: OneModeMoments, theta: float) -> tuple[float, float]:
    """(N, |M|) of the kernel after the real-phase squeeze by theta."""
    am = abs(p.m)
    big_n = (p.n + 0.5) * math.cosh(2 * theta) - am * math.sinh(2 * theta) - 0.5
    big_m = abs(am * math.cosh(2 * theta) - (p.n + 0.5) * math.sinh(2 * theta))
    return big_n, big_m


def diagonalizing_squeeze(p: OneModeMoments) -> SqueezeMap:
    """Squeeze map whose inverse action brings C to its thermal diagonal form c*I.

    The relative phase is fixed by phi = -arg(m), varphi = 0; at m = 0 this is
    the identity map.  A state that is not positive raises ``theta_window``'s NotPositiveError.
    """
    _, _, theta0 = theta_window(p)
    return SqueezeMap(theta=theta0, phi=-np.angle(p.m), varphi=0.0)


def squeezed_wavefunction(p: OneModeMoments) -> SqueezedWavefunction:
    """Position wave function of a pure state with real, non-negative m."""
    if abs(p.m.imag) > linalg.band(2.0 * p.n + 1.0, 1):
        raise NotRealBranchError("wave function is given for real m only")
    if p.m.real < 0:
        raise NotRealBranchError("wave function is given for m >= 0 only")
    if not classify(p).pure:
        raise NotPureError("|m| must equal sqrt(n(n+1)) for a pure state")
    mu = math.sqrt(p.n / (p.n + 1.0))
    kappa = (1.0 + mu) / (1.0 - mu)
    return SqueezedWavefunction(mu=mu, kappa=kappa)
