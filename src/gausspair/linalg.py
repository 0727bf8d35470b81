"""Complex 2x2 / 4x4 matrix substrate with the symplectic structure used everywhere else.

All covariance-style matrices in this package are plain ndarrays (read-only
once a kernel holds them), Hermitian and obeying the swap symmetry M = T M^T T,
where T exchanges the (z, z*) pair of every mode.  ``hermitian`` checks outside input and puts it in
that normal form (``normal_form``); ``hermitian_part`` and ``congruence`` return
matrices already in it.  ``kernels.GaussianKernel`` holds the result.

No tolerance of the package is absolute: the Hermiticity check, the singularity
test of ``reciprocal`` and every verdict margin, the reference routes' included,
use ``band``, which scales with the size of the matrix.
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
    2x2 or 4x4, and its anti-Hermitian part within ``band(max|M|, 1)`` (NaN is not).  Averaging
    M with T M^T T leaves the associated Gaussian characteristic function unchanged."""
    m = np.array(entries, dtype=complex)
    if m.shape not in ((2, 2), (4, 4)):
        raise DimensionMismatchError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    # written as "not <=" so that NaN entries are rejected too
    if not np.abs(m - m.conj().T).max() <= band(np.abs(m).max(), 1):
        raise ValueError("matrix is not Hermitian within tolerance")
    return normal_form(m)


SymMatrix = hermitian  # the old name, kept for perfbench/workloads.py, which builds its general kernels through it


def normal_form(m: np.ndarray) -> np.ndarray:
    """The T-symmetric Hermitian part of m: the average with T m^T T, then with m^dag."""
    m = 0.5 * (m + m.take(_T_GATHER[len(m)]))
    return 0.5 * (m + m.conj().T)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``normal_form`` of (m + m^dag)/2, such as V diag(x) V^dag, whose last average with m^dag is exact there."""
    m = 0.5 * (m + m.conj().T)
    return 0.5 * (m + m.take(_T_GATHER[len(m)]))


def congruence(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a m a^dag for a Hermitian m."""
    return hermitian_part(a @ m @ a.conj().T)


def reciprocal(x) -> list[float]:
    """1/x for the eigenvalues x (Python floats) of one Hermitian matrix.  The matrix counts
    as singular when min|x| <= band(sum|x|, 1), the round-off of its eigenvalues."""
    a = [abs(v) for v in x]
    tol = band(sum(a), 1)
    if not min(a) > tol:
        raise SingularMatrixError(f"min|eigenvalue| = {min(a):.3e} <= {tol:.3e}")
    return [1.0 / v for v in x]


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
