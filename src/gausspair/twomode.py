"""Two-mode Gaussian states: positivity, partial transpose, PPT separability,
P-representability, and thermal-pair extraction.  ``classify2`` decides through
``invariant_verdicts``; the Q-matrix and squared-kernel routes stay as criteria.

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

import numpy as np

from . import linalg
from .errors import NotPositiveError, NotPureError, WrongModeCountError
from .kernels import GaussianKernel, convert
from .linalg import SymMatrix

POS_TOL = 1e-10  # band of the paper's reference routes; the engine uses ``linalg.band``

# transposing the first mode exchanges z1 and z1*
_PT_SWAP = np.ix_([1, 0, 2, 3], [1, 0, 2, 3])


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


@dataclass(frozen=True)
class InvariantVerdicts:
    """Verdicts and symplectic eigenvalues of stacked C matrices; every field
    has the stack's shape.  ``ppt_separable`` is False where not ``positive``."""

    positive: np.ndarray
    pure: np.ndarray
    ppt_separable: np.ndarray
    p_representable: np.ndarray
    nu_plus: np.ndarray
    nu_minus: np.ndarray


def assemble_c(p: TwoModeMoments) -> np.ndarray:
    n1, n2 = p.n1 + 0.5, p.n2 + 0.5
    m1, m2, ms, mc = (complex(x) for x in (p.m1, p.m2, p.ms, p.mc))
    return np.array(
        [
            [n1, m1, ms, mc],
            [np.conj(m1), n1, np.conj(mc), np.conj(ms)],
            [np.conj(ms), mc, n2, m2],
            [np.conj(mc), ms, np.conj(m2), n2],
        ]
    )


def build_C2(p: TwoModeMoments) -> GaussianKernel:
    return GaussianKernel("C", SymMatrix._hermitian(assemble_c(p)))


def moments_from_c(k: GaussianKernel) -> TwoModeMoments:
    if k.kind != "C" or k.modes != 2:
        raise ValueError("expected a two-mode C kernel")
    m = k.matrix
    return TwoModeMoments(
        n1=float(m[0, 0].real) - 0.5,
        n2=float(m[2, 2].real) - 0.5,
        m1=complex(m[0, 1]),
        m2=complex(m[2, 3]),
        ms=complex(m[0, 2]),
        mc=complex(m[0, 3]),
    )


def trace_g2(k: GaussianKernel) -> float:
    """Tr G^2 = 1 / (4 sqrt(det C))."""
    _require_c(k)
    det_c = k.sym.det()
    if det_c <= 0.0:
        return math.inf
    return 1.0 / (4.0 * math.sqrt(det_c))


def squared_kernel(k: GaussianKernel) -> GaussianKernel:
    """C matrix of the normalized square G^2 / Tr G^2: Cbar = C/2 + E C^-1 E / 8."""
    _require_c(k)
    return GaussianKernel("C", SymMatrix(0.5 * k.matrix + 0.125 * convert(k, "W").matrix))


def positivity_by_dets(k: GaussianKernel) -> bool:
    left, right = positivity_det_margins(k)
    return left >= -POS_TOL and right >= -POS_TOL


def positivity_det_margins(k: GaussianKernel) -> tuple[float, float]:
    """Margins of the two determinant inequalities; both non-negative iff G >= 0.

    The right inequality encodes g1*g2 >= 0, the left one
    (g1+g2)(1+g1)(1+g2) >= (g1-g2)^2.
    """
    _require_c(k)
    det_c = k.sym.det()
    det_cbar = squared_kernel(k).sym.det()
    cross = 4.0 * math.sqrt(det_c) * math.sqrt(det_cbar)
    left = (1.0 / 16.0 + 3.0 * det_c) - cross
    right = (1.0 / 8.0 + 2.0 * det_c) - cross
    return left, right


def normal_order_params(k: GaussianKernel) -> NormalOrderParams2:
    _require_c(k)
    q = convert(k, "Q").matrix
    return NormalOrderParams2(
        nu1=1.0 - float(q[0, 0].real),
        nu2=1.0 - float(q[2, 2].real),
        mu1=complex(q[0, 1]),
        mu2=complex(q[2, 3]),
        mus=complex(q[0, 2]),
        muc=complex(q[0, 3]),
    )


def positivity_by_q(k: GaussianKernel) -> bool:
    """G >= 0 iff nu1 + nu2 >= 0 and nu1*nu2 >= |mus|^2."""
    p = normal_order_params(k)
    return (p.nu1 + p.nu2 >= -POS_TOL) and (p.nu1 * p.nu2 - abs(p.mus) ** 2 >= -POS_TOL)


def partial_transpose(k: GaussianKernel) -> GaussianKernel:
    """Transpose the first mode only; on moments m1 -> m1*, ms -> mc*, mc -> ms*."""
    if k.modes != 2:
        raise WrongModeCountError("partial transpose needs a two-mode kernel")
    return GaussianKernel(k.kind, SymMatrix(k.matrix[_PT_SWAP]))


def separability_inequality(k: GaussianKernel) -> bool:
    """Direct separability test nu1*nu2 >= |muc|^2 on the untransposed kernel."""
    p = normal_order_params(k)
    return p.nu1 * p.nu2 - abs(p.muc) ** 2 >= -POS_TOL


def ppt_separable(k: GaussianKernel) -> bool:
    """Peres criterion: positivity of the partial transpose (sufficient for Gaussians)."""
    if not positivity_by_q(k):
        raise NotPositiveError("separability is only defined for positive states")
    return positivity_by_q(partial_transpose(k))


def p_representable(k: GaussianKernel) -> bool:
    """True iff all four eigenvalues of C - I/2 are strictly positive."""
    return bool(_kernel_verdicts(k).p_representable)


def thermal_pair(k: GaussianKernel, diagnostics: bool = False) -> ThermalPair:
    """Recover (g1, g2) from the symplectic eigenvalues: g = (2 nu - 1)/(2 nu + 1).

    Each thermal factor has C = nu I with nu = (1+g)/(2(1-g)).  ``diagnostics``
    allows extraction for non-positive kernels (one g may then be negative).
    """
    v = _kernel_verdicts(k)
    if not (diagnostics or v.positive):
        raise NotPositiveError("kernel is not positive; pass diagnostics=True to force")
    return _thermal(v)


def _thermal(v: InvariantVerdicts) -> ThermalPair:
    g1, g2 = ((2.0 * nu - 1.0) / (2.0 * nu + 1.0) for nu in (v.nu_plus, v.nu_minus))
    return ThermalPair(g1=float(g1), g2=float(g2))


def purity2(k: GaussianKernel) -> bool:
    """det C = 1/16 marks a pure state (given positivity): the engine's verdict."""
    return bool(_kernel_verdicts(k).pure)


def pure_marginal_separability(k: GaussianKernel, which: int = 1) -> bool:
    """For a pure state: separable iff the chosen 2x2 diagonal block has det 1/4."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if not purity2(k):
        raise NotPureError("marginal criterion only applies to pure states")
    at = 2 * (which - 1)
    margin = _det2(k.matrix, at, at) - 0.25
    return bool(abs(margin) <= linalg.band(np.trace(k.matrix).real, 2))


def local_squeeze_map(theta1: float, theta2: float) -> np.ndarray:
    """Block matrix of two real-phase one-mode squeezes."""
    u = np.eye(4, dtype=complex)
    for i, th in enumerate((theta1, theta2)):
        ch, sh = math.cosh(th), math.sinh(th)
        u[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[ch, sh], [sh, ch]]
    return u


def local_squeeze_to_p_rep(k: GaussianKernel, theta: float) -> GaussianKernel:
    """Apply the local map C -> E U E C E U^dag E with equal real squeezes on both modes."""
    if not _kernel_verdicts(k).positive:
        raise NotPositiveError("local squeeze to P form requires a positive state")
    e = linalg.structure_e(4)
    return GaussianKernel("C", linalg.congruence(e @ local_squeeze_map(theta, theta) @ e, k.matrix))


def _det2(c: np.ndarray, row: int, col: int) -> np.ndarray:
    """Determinant of the 2x2 block of stacked matrices at (row, col)."""
    a, b = c[..., row, col], c[..., row, col + 1]
    d, e = c[..., row + 1, col], c[..., row + 1, col + 1]
    return (a * e - b * d).real


def invariant_verdicts(c) -> InvariantVerdicts:
    """Two-mode verdicts for stacked (..., 4, 4) C matrices from their local
    symplectic invariants (Simon, PRL 84, 2726 (2000); Serafini, PRL 96,
    110402 (2006)), in the normalization where vacuum is C = I/2.

    With D = det C and dA, dB, dX the determinants of the diagonal and
    off-diagonal 2x2 blocks, an existing C is positive iff D >= 1/16 and
    1/4 + 4D - (dA + dB + 2dX) >= 0.  Transposing one mode flips the sign of
    dX, so the same test with -2dX decides PPT separability.  The symplectic
    eigenvalues are nu+-^2 = (Delta +- sqrt(Delta^2 - 4D))/2 with
    Delta = dA + dB + 2dX; on positive states both are held at 1/2 or above.

    The margins get band(s, 2), s^2 = |C| (|C| + |adj C|) with |C| the largest
    |eigenvalue| and |adj C| the sum of the eigenvalue triple products: det C
    carries a round-off of about eps |C| |adj C|, the 2x2 block determinants
    eps |C|^2.  s is of order tr C for pure states and of order (tr C)^2 for
    mixed ones with a large symplectic eigenvalue.  Eigenvalues get band(tr C, 1).
    """
    c = np.asarray(c)
    return _verdicts(c, np.linalg.eigvalsh(c))


def _kernel_verdicts(k: GaussianKernel) -> InvariantVerdicts:
    """One C kernel's verdicts on the eigenvalues it carries, which ``convert`` reads."""
    _require_c(k)
    return _verdicts(k.matrix, np.sort(k.eig[0]))


def _verdicts(c: np.ndarray, eig: np.ndarray) -> InvariantVerdicts:
    """The engine on C's eigenvalues ``eig``, ascending along the last axis."""
    lam = eig[..., 0]
    det_c = np.linalg.det(c).real
    da, db, dx = _det2(c, 0, 0), _det2(c, 2, 2), _det2(c, 0, 2)
    delta = da + db + 2.0 * dx
    base = 0.25 + 4.0 * det_c - (da + db)
    a0, a1, a2, a3 = np.moveaxis(np.abs(eig), -1, 0)
    top = np.maximum(a0, a3)
    adj = a0 * a1 * (a2 + a3) + a2 * a3 * (a0 + a1)
    tol, tol_lam = linalg.band(np.sqrt(top * (top + adj)), 2), linalg.band(eig.sum(-1), 1)
    positive = (lam >= -tol_lam) & (det_c - 1.0 / 16.0 >= -tol) & (base - 2.0 * dx >= -tol)
    root = np.sqrt(np.maximum(delta * delta - 4.0 * det_c, 0.0))
    floor = np.where(positive, 0.25, 0.0)  # lower bound on nu^2
    return InvariantVerdicts(
        positive=positive,
        pure=positive & (np.abs(det_c - 1.0 / 16.0) <= tol),
        ppt_separable=positive & (base + 2.0 * dx >= -tol),
        p_representable=lam - 0.5 > tol_lam,
        nu_plus=np.sqrt(np.maximum(0.5 * (delta + root), floor)),
        nu_minus=np.sqrt(np.maximum(0.5 * (delta - root), floor)),
    )


def classify2(k: GaussianKernel) -> TwoModeVerdict:
    """Verdict bundle of one kernel: the batch-of-one case of ``invariant_verdicts``."""
    v = _kernel_verdicts(k)
    positive = bool(v.positive)
    return TwoModeVerdict(
        positive=positive,
        pure=bool(v.pure),
        p_representable=bool(v.p_representable),
        ppt_separable=bool(v.ppt_separable) if positive else None,
        thermal=_thermal(v) if positive else None,
    )


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
    c1 = 0.5 * (1.0 + g1) / (1.0 - g1)
    c2 = 0.5 * (1.0 + g2) / (1.0 - g2)
    return GaussianKernel("C", SymMatrix(np.diag([c1, c1, c2, c2])))


def _require_c(k: GaussianKernel):
    if k.kind != "C" or k.modes != 2:
        raise ValueError("expected a two-mode C kernel")
