"""Complex 2x2 / 4x4 matrix substrate with the symplectic structure used everywhere else.

All covariance-style matrices in this package are plain ndarrays (read-only
once a kernel holds them), Hermitian and obeying the swap symmetry M = T M^T T,
where T exchanges the (z, z*) pair of every mode.  ``hermitian`` checks outside input and puts it in
that normal form (``normal_form``); ``hermitian_part`` and ``congruence`` return
matrices already in it.  ``kernels.GaussianKernel`` holds the result.  ``block_det`` is C's 2x2 block determinant.

No tolerance of the package is absolute: the Hermiticity check, every verdict margin and the
rules written only here, the singularity test ``nonsingular`` and C's existence and P rules
``c_rules``, use ``band``, which scales with the size of the matrix.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError

K = 16  # width of the verdict band in units of eps * scale**degree
# the largest |eigenvalue| of a kernel whose verdicts are resolved: the two-mode margins
# hold products of up to four eigenvalues (det C, Delta^2, the band's scale), finite below it
MAX_SCALE = 2.0**250

# T m^T T as a gather from the flattened m: T exchanges z and z* of every mode
_T_GATHER = {dim: np.arange(dim * dim).reshape(dim, dim).T[np.ix_(np.arange(dim) ^ 1, np.arange(dim) ^ 1)] for dim in (2, 4)}


def hermitian(entries) -> np.ndarray:
    """Outside input as a kernel's matrix: a copy of ``entries`` in ``normal_form``.  It must be
    2x2 or 4x4, finite, and its anti-Hermitian part within ``band(max|M|, 1)``.  Averaging
    M with T M^T T leaves the associated Gaussian characteristic function unchanged."""
    m = np.array(entries, dtype=complex)
    if m.shape not in ((2, 2), (4, 4)):
        raise DimensionMismatchError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    h = 0.5 * m  # halved before any sum, exactly, so no sum of finite entries overflows
    if np.abs(h - h.conj().T).max() > band(np.abs(h).max(), 1):
        raise ValueError("matrix is not Hermitian within tolerance")
    return _normal_form_of_half(h)


SymMatrix = hermitian  # the old name, kept for perfbench/workloads.py, which builds its general kernels through it


def normal_form(m: np.ndarray) -> np.ndarray:
    """The T-symmetric Hermitian part of m: its average with T m^T T, then with m^dag, each halving first so no sum overflows."""
    return _normal_form_of_half(0.5 * m)


def _normal_form_of_half(h: np.ndarray) -> np.ndarray:  # normal_form(2h)
    h = 0.5 * (h + h.take(_T_GATHER[len(h)]))
    return h + h.conj().T


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``normal_form`` of (m + m^dag)/2, such as V diag(x) V^dag, whose last average with m^dag is exact there."""
    m = 0.5 * (m + m.conj().T)
    return 0.5 * (m + m.take(_T_GATHER[len(m)]))


def congruence(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a m a^dag for a Hermitian m."""
    return hermitian_part(a @ m @ a.conj().T)


def reciprocal(x) -> list[float]:
    """1/x for the eigenvalues x (Python floats) of one ``nonsingular`` Hermitian matrix."""
    nonsingular([abs(v) for v in x])
    return [1.0 / v for v in x]


def nonsingular(a) -> float:
    """min(a) of the |eigenvalues| a of one matrix; ``SingularMatrixError`` where it is at most band(sum(a), 1)."""
    low, tol = min(a), band(sum(a), 1)
    if not low > tol:
        raise SingularMatrixError(f"min|eigenvalue| = {low:.3e} <= {tol:.3e}")
    return low


def c_rules(low, trace):
    """(exists, P-representable) of a C of smallest eigenvalue ``low`` and trace ``trace``, floats or arrays:
    low >= -band(trace, 1), zeros within it kept as boundary cases, and strictly low - 1/2 > band(trace, 1)."""
    tol = band(trace, 1)
    return low >= -tol, low - 0.5 > tol


def block_det(c, row: int, col: int):
    """Re(a e - b d) of the 2x2 block [[a, b], [d, e]] at (row, col) of one matrix or a stack: every dA, dB and dX."""
    return (c[..., row, col] * c[..., row + 1, col + 1] - c[..., row, col + 1] * c[..., row + 1, col]).real


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse of the Hermitian ``m`` from its eigendecomposition, V diag(1/x) V^dag.  Nothing in
    the package calls it; it is kept for the traced probe in perfbench/workloads.py."""
    x, v = np.linalg.eigh(m)
    return congruence(v, np.diag(reciprocal(x.tolist())))


def band(scale, degree: int):
    """Verdict band K * eps * scale**degree, for floats or arrays: the round-off
    of a margin that grows like the power ``degree`` of the matrix size ``scale``.  The power
    is a product: a float's ``**`` is libm's pow, which misses x * x for 1 float in 1200."""
    power = scale
    for _ in range(degree - 1):
        power = power * scale
    return K * sys.float_info.epsilon * power


def structure_e(dim: int) -> np.ndarray:
    return np.diag([1.0, -1.0] * (dim // 2))
