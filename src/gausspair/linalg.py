"""Complex 2x2 / 4x4 matrix substrate with the symplectic structure used everywhere else.

All covariance-style matrices in this package are Hermitian and obey the
swap symmetry M = T M^T T, where T exchanges the (z, z*) pair of every mode.
``SymMatrix`` puts its input in that normal form (``normal_form``), and
``SymMatrix._hermitian`` wraps a matrix already in it, such as assembled moments.

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


class SymMatrix:
    """Hermitian matrix in the T-symmetric normal form M = T M^T T.

    The constructor rejects input whose anti-Hermitian part exceeds
    ``band(max|M|, 1)`` (or is not finite) and symmetrizes by averaging M with
    T M^T T, which leaves the associated Gaussian characteristic function
    unchanged.
    """

    __slots__ = ("mat",)

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise DimensionMismatchError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
        # written as "not <=" so that NaN entries are rejected too
        if not np.abs(m - m.conj().T).max() <= band(np.abs(m).max(), 1):
            raise ValueError("matrix is not Hermitian within tolerance")
        self._hold(normal_form(m))

    @classmethod
    def _hermitian(cls, m) -> "SymMatrix":
        """The constructor for a matrix already in normal form: it only checks finiteness."""
        m = np.asarray(m, dtype=complex)
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        s = object.__new__(cls)
        s._hold(m)
        return s

    def _hold(self, m):
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def modes(self) -> int:
        return self.dim // 2

    def __getitem__(self, idx):
        return self.mat[idx]

    def __repr__(self):
        return f"SymMatrix({self.mat.tolist()!r})"

    def allclose(self, other: "SymMatrix", atol: float) -> bool:
        return self.dim == other.dim and np.allclose(self.mat, other.mat, atol=atol, rtol=0.0)


def identity(dim: int) -> SymMatrix:
    return SymMatrix(np.eye(dim))


def normal_form(m: np.ndarray) -> np.ndarray:
    """The T-symmetric Hermitian part of m: the average with T m^T T, then with m^dag."""
    m = 0.5 * (m + m.take(_T_GATHER[len(m)]))
    return 0.5 * (m + m.conj().T)


def hermitian_part(m: np.ndarray) -> SymMatrix:
    """``normal_form`` of (m + m^dag)/2, such as V diag(x) V^dag, whose last average with m^dag is exact there."""
    m = 0.5 * (m + m.conj().T)
    return SymMatrix._hermitian(0.5 * (m + m.take(_T_GATHER[len(m)])))


def congruence(a: np.ndarray, m: np.ndarray) -> SymMatrix:
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


def invert(m: SymMatrix) -> SymMatrix:
    """Inverse of ``m`` from its eigendecomposition: V diag(1/x) V^dag."""
    x, v = np.linalg.eigh(m.mat)
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
