"""Two-mode Gaussian states: positivity, PPT separability, P-representability, and thermal-pair extraction.
One engine, ``verdicts_from_invariants``, decides on Python floats for one kernel (``classify2``) and on arrays
for a stack (``invariant_verdicts``) or a scan block (``states.family_invariants``); the Q-matrix route (one Q
for positivity and PPT) and the determinant route stay as criteria.  Every margin is compared with ``linalg.band``; C's rules are ``linalg.c_rules``.

The covariance matrix is parameterized as

    C = [[n1+1/2, m1,     ms,     mc    ],
         [m1*,    n1+1/2, mc*,    ms*   ],
         [ms*,    mc,     n2+1/2, m2    ],
         [mc*,    ms,     m2*,    n2+1/2]]

in the (z1, z1*, z2, z2*) ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import NotPositiveError, NotPureError
from .kernels import GaussianKernel, convert, require
from .onemode import SqueezeMap, apply_squeeze, basic_g


@dataclass(frozen=True)
class TwoModeMoments:
    n1: float
    n2: float
    m1: complex = 0.0
    m2: complex = 0.0
    ms: complex = 0.0
    mc: complex = 0.0


@dataclass(frozen=True)
class NormalOrderParams2:
    """The (nu, mu) entries of a two-mode Q matrix."""

    nu1: float
    nu2: float
    mu1: complex
    mu2: complex
    mus: complex
    muc: complex


@dataclass(frozen=True)
class ThermalPair:
    """Geometric-decay parameters of the two thermal factors, g1 >= g2."""

    g1: float
    g2: float


@dataclass(frozen=True)
class TwoModeVerdict:
    positive: bool
    pure: bool
    p_representable: bool
    ppt_separable: bool | None
    thermal: ThermalPair | None


class InvariantVerdicts(NamedTuple):
    """Verdicts of stacked C matrices, the invariants they were read from: D = det C, dA + dB
    and dX, and the band applied to the margins that hold D.  Every field has the stack's shape
    (or broadcasts to it), or is a float or bool for one C; ``ppt_separable`` is False where not ``positive``."""

    positive: np.ndarray
    pure: np.ndarray
    ppt_separable: np.ndarray
    p_representable: np.ndarray
    det_c: np.ndarray
    d_ab: np.ndarray
    d_x: np.ndarray
    band: np.ndarray

    @property
    def nu(self) -> tuple[np.ndarray, np.ndarray]:
        """The symplectic eigenvalues (nu+, nu-), computed on each read: nu+^2 = (Delta +
        sqrt(Delta^2 - 4D))/2 with Delta = dA + dB + 2dX, and nu-^2 = D/nu+^2, which does
        not cancel when nu+ >> nu-; on positive states both are held at 1/2 or above."""
        delta = self.d_ab + 2.0 * self.d_x
        disc = delta * delta - 4.0 * self.det_c  # an array iff any invariant is
        maximum, minimum, sqrt = _elementwise(disc)
        root = sqrt(maximum(disc, 0.0))
        floor = 0.25 * self.positive  # lower bound on nu^2
        plus = maximum(0.5 * (delta + root), floor)
        # D / nu+^2 within [floor, nu+^2]; where nu+^2 = 0 it divides by 1 and is clamped to 0
        return sqrt(plus), sqrt(minimum(maximum(self.det_c / (plus + (plus == 0.0)), floor), plus))


def _elementwise(x) -> tuple:
    """(maximum, minimum, sqrt): numpy's for an array x, else the builtins and ``math.sqrt`` on floats.
    Only these primitives differ; both square roots are correctly rounded, so the bits agree."""
    return (np.maximum, np.minimum, np.sqrt) if isinstance(x, np.ndarray) else (max, min, math.sqrt)


def assemble_c(p: TwoModeMoments) -> np.ndarray:
    n1, n2 = p.n1 + 0.5, p.n2 + 0.5
    m1, m2, ms, mc = (complex(x) for x in (p.m1, p.m2, p.ms, p.mc))
    return np.array(
        [
            [n1, m1, ms, mc],
            [m1.conjugate(), n1, mc.conjugate(), ms.conjugate()],
            [ms.conjugate(), mc, n2, m2],
            [mc.conjugate(), ms, m2.conjugate(), n2],
        ]
    )


def build_C2(p: TwoModeMoments) -> GaussianKernel:
    return GaussianKernel("C", assemble_c(p))


def _layout(k: GaussianKernel, kind: str) -> list[complex]:
    """Entries M00, M22, M01, M23, M02, M03 of the ``kind`` matrix of the two-mode C kernel k, laid out as C above."""
    require(k, "C", 2)
    return convert(k, kind).matrix.take([0, 10, 1, 11, 2, 3]).tolist()


def moments_from_c(k: GaussianKernel) -> TwoModeMoments:
    a, b, m1, m2, ms, mc = _layout(k, "C")
    return TwoModeMoments(a.real - 0.5, b.real - 0.5, m1, m2, ms, mc)


def trace_g2(k: GaussianKernel) -> float:
    """Tr G^2 = 1 / (4 sqrt(det C))."""
    require(k, "C", 2)
    det_c = k.det
    return math.inf if det_c <= 0.0 else 1.0 / (4.0 * math.sqrt(det_c))


def squared_kernel(k: GaussianKernel) -> GaussianKernel:
    """C matrix of the normalized square G^2 / Tr G^2: Cbar = C/2 + E C^-1 E / 8; a singular C raises ``SingularMatrixError``."""
    require(k, "C", 2)
    return GaussianKernel("C", 0.5 * k.matrix + 0.125 * convert(k, "W").matrix)


def positivity_by_dets(k: GaussianKernel) -> bool:
    """Both margins within the engine's band of det C.  They decide for g in (-1, 1) only, and both hold
    at a singular C (nu = 0, g = -1): a C with lam_min lam_max < 1/4, as no positive state has, is not."""
    v, x = _kernel_verdicts(k), k.eigenvalues  # the verdicts first: their block_dets require a two-mode C
    if min(x) * max(x) < 0.25 - linalg.band(max(x), 2):
        return False
    return all(margin >= -v.band for margin in _det_margins(v))


def positivity_det_margins(k: GaussianKernel) -> tuple[float, float]:
    """Margins of the two determinant inequalities; both non-negative iff G >= 0.

    The right inequality encodes g1*g2 >= 0, the left one (g1+g2)(1+g1)(1+g2) >= (g1-g2)^2.  Their
    cross term 4 sqrt(D det Cbar) is 1/16 + D + Delta/4 with Delta = dA + dB + 2dX, since C = S diag(nu1,
    nu1, nu2, nu2) S^dag gives det Cbar = prod (nu/2 + 1/(8 nu))^2 = (1 + 16D + 4 Delta)^2 / (4096 D).
    """
    return _det_margins(_kernel_verdicts(k))


def _det_margins(v: InvariantVerdicts) -> tuple[float, float]:
    cross = 1.0 / 16.0 + v.det_c + 0.25 * (v.d_ab + 2.0 * v.d_x)
    return (1.0 / 16.0 + 3.0 * v.det_c) - cross, (1.0 / 8.0 + 2.0 * v.det_c) - cross


def normal_order_params(k: GaussianKernel) -> NormalOrderParams2:
    a, b, mu1, mu2, mus, muc = _layout(k, "Q")
    return NormalOrderParams2(1.0 - a.real, 1.0 - b.real, mu1, mu2, mus, muc)


def positivity_by_q(k: GaussianKernel) -> bool:
    """G >= 0 iff nu1 + nu2 >= 0 and nu1*nu2 >= |mus|^2."""
    return all(_q_margins_hold(k)[:2])


def _q_margins_hold(k: GaussianKernel) -> tuple[bool, bool, bool]:
    """(nu1 + nu2 >= 0, nu1*nu2 >= |mus|^2, nu1*nu2 >= |muc|^2) from one read of the Q entries: the sum within
    band(tr C, 1), the round-off of one Q entry; each product within that times its sensitivity |nu1| + |nu2| + 2|mu| + band."""
    p, tol = normal_order_params(k), linalg.band(sum(k.eigenvalues), 1)
    holds = [p.nu1 * p.nu2 - mu * mu >= -tol * (abs(p.nu1) + abs(p.nu2) + 2.0 * mu + tol) for mu in (abs(p.mus), abs(p.muc))]
    return p.nu1 + p.nu2 >= -tol, *holds


def ppt_separable(k: GaussianKernel) -> bool:
    """Peres criterion: positivity of the partial transpose (sufficient for Gaussians), the paper's
    nu1*nu2 >= |muc|^2.  Its Q, the Q of ``kernels.partial_transpose``, is S Pi Q Pi S, Pi swapping z1 and z1*,
    S = diag(-1, -1, 1, 1): k's nu, with |mus| and |muc| exchanged, so k's own Q decides."""
    total, positive, separable = _q_margins_hold(k)
    if not (total and positive):
        raise NotPositiveError("separability is only defined for positive states")
    return separable


def thermal_pair(k: GaussianKernel, diagnostics: bool = False) -> ThermalPair:
    """Recover (g1, g2) from the symplectic eigenvalues: each g is ``onemode.basic_g`` of its nu.

    Each thermal factor has C = nu I with nu = (1+g)/(2(1-g)).  ``diagnostics``
    allows extraction for non-positive kernels (one g may then be negative).
    """
    v = _kernel_verdicts(k)
    if not (diagnostics or v.positive):
        raise NotPositiveError("kernel is not positive; pass diagnostics=True to force")
    return _thermal(v)


def _thermal(v: InvariantVerdicts) -> ThermalPair:
    return ThermalPair(*map(basic_g, v.nu))


def pure_marginal_separability(k: GaussianKernel, which: int = 1) -> bool:
    """For a pure state: separable iff the chosen 2x2 diagonal block has det 1/4."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if not _kernel_verdicts(k).pure:
        raise NotPureError("marginal criterion only applies to pure states")
    return bool(abs(k.block_dets[which - 1] - 0.25) <= linalg.band(sum(k.eigenvalues), 2))


def local_squeeze_to_p_rep(k: GaussianKernel, theta: float) -> GaussianKernel:
    """``onemode.apply_squeeze``'s inverse map C -> E U E C E U^dag E by ``SqueezeMap(theta)`` on both modes."""
    if not _kernel_verdicts(k).positive:
        raise NotPositiveError("local squeeze to P form requires a positive state")
    return apply_squeeze(k, SqueezeMap(theta), "inverse")


def invariant_verdicts(c) -> InvariantVerdicts:
    """Two-mode verdicts for stacked (..., 4, 4) C matrices: ``verdicts_from_invariants``
    on their ``eigvalsh`` spectrum and their block determinants (``linalg.block_dets``)."""
    c = np.asarray(c)
    return verdicts_from_invariants(np.moveaxis(np.linalg.eigvalsh(c), -1, 0), *np.moveaxis(linalg.block_dets(c), -1, 0))


def verdicts_from_invariants(eig, da, db, dx) -> InvariantVerdicts:
    """The verdict engine: two-mode verdicts from C's local symplectic invariants (Simon,
    PRL 84, 2726 (2000); Serafini, PRL 96, 110402 (2006)), in the normalization where
    vacuum is C = I/2.  ``eig`` is C's four eigenvalues ascending, as Python floats for one C
    or arrays that broadcast against the block determinants: a stack, or the closed forms of
    a scan family over a block of grid rows (``states.family_invariants``).  The same formulas, operators
    and ``abs`` take both; only max, min and sqrt are picked for the type (``_elementwise``).

    With D = det C, the product of the eigenvalues, an existing C is positive iff
    D >= 1/16 and 1/4 + 4D - (dA + dB + 2dX) >= 0.  Transposing one mode flips the sign
    of dX, so the same test with -2dX decides PPT separability.  The symplectic
    eigenvalues (``InvariantVerdicts.nu``) are computed only when read.

    The margins get band(s, 2), s^2 = |C| (|C| + |adj C|) with |C| the largest
    |eigenvalue| and |adj C| the sum of the eigenvalue triple products: det C
    carries a round-off of about eps |C| |adj C|, the 2x2 block determinants
    eps |C|^2.  s is of order tr C for pure states and of order (tr C)^2 for
    mixed ones with a large symplectic eigenvalue.  C's existence and P rules are ``linalg.c_rules``.
    Every product stays finite while |C| <= ``linalg.MAX_SCALE``.
    """
    e0, e1, e2, e3 = eig
    det_c = e0 * e1 * e2 * e3
    maximum, _, sqrt = _elementwise(det_c)  # applied to functions of the eigenvalues only
    d_ab, dx2, excess = da + db, 2.0 * dx, det_c - 1.0 / 16.0
    a0, a1, a2, a3 = abs(e0), abs(e1), abs(e2), abs(e3)
    top = maximum(a0, a3)
    adj = a0 * a1 * (a2 + a3) + a2 * a3 * (a0 + a1)
    del a0, a1, a2, a3  # a lower peak of block-sized temporaries: fewer heap trims and page faults per block
    tol, (exists, p_rep) = linalg.band(sqrt(top * (top + adj)), 2), linalg.c_rules(e0, e0 + e1 + e2 + e3)
    slack = 0.25 + 4.0 * det_c - d_ab + tol  # the margins 1/4 + 4D - (dA + dB +- 2dX) >= -tol: slack >= +-2dX
    positive = exists & (excess >= -tol) & (slack >= dx2)
    # D within tol can be a mixed state with a large nu+; Delta - 1/2 >= nu+^2 - 1/4 then exceeds band(|C|, 2)
    pure = positive & (excess <= tol) & (d_ab + dx2 - 0.5 <= linalg.band(top, 2))
    return InvariantVerdicts(positive, pure, positive & (slack >= -dx2), p_rep, det_c, d_ab, dx, tol)


def _kernel_verdicts(k: GaussianKernel) -> InvariantVerdicts:
    """One two-mode C kernel's verdicts, on Python floats: the eigenvalues and block determinants it carries."""
    return verdicts_from_invariants(sorted(k.eigenvalues), *k.block_dets)


def classify2(k: GaussianKernel) -> TwoModeVerdict:
    """Verdict bundle of one kernel: the engine of ``invariant_verdicts`` on its floats."""
    v = _kernel_verdicts(k)
    if not v.positive:
        return TwoModeVerdict(False, v.pure, v.p_representable, None, None)
    return TwoModeVerdict(True, v.pure, v.p_representable, v.ppt_separable, _thermal(v))


def bohr_variances(n: float, mc: float) -> tuple[float, float]:
    """<P1^2>+<Q2^2> and <P2^2>+<Q1^2> for the EPR-correlated family (ms=m1=m2=0).

    Both must be at least 1 for separability; this diagnostic applies to that
    family only.
    """
    return 1.0 + 2.0 * n - 2.0 * mc, 1.0 + 2.0 * n + 2.0 * mc


def product_thermal_kernel(g1: float, g2: float) -> GaussianKernel:
    """Diagonal C kernel of a product of two basic Gaussians with parameters g1, g2.

    Valid for -1 < g < 1; negative g gives a non-positive (diagnostic) kernel.
    """
    c1, c2 = (0.5 * (1.0 + g) / (1.0 - g) for g in (g1, g2))
    return GaussianKernel("C", np.diag([c1, c1, c2, c2]))
