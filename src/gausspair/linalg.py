"""Complex 2x2 / 4x4 matrix substrate with the symplectic structure used everywhere else.

All covariance-style matrices in this package are Hermitian and obey the
swap symmetry M = T M^T T, where T exchanges the (z, z*) pair of every mode.
``SymMatrix`` enforces that normal form on construction; ``SymMatrix._hermitian``
builds it, checking only finiteness, from matrices Hermitian by construction:
assembled moments, ``congruence`` and ``kernels.convert``.

No tolerance here is absolute: the Hermiticity check, the singularity test of
``reciprocal`` and every verdict margin use ``band``, which scales with the
size of the matrix.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError

K = 16  # width of the verdict band in units of eps * scale**degree

# T as an index permutation: it exchanges z and z* of every mode
_T_SWAP = {dim: np.ix_(np.arange(dim) ^ 1, np.arange(dim) ^ 1) for dim in (2, 4)}


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
        self._normalize(m)

    @classmethod
    def _hermitian(cls, m) -> "SymMatrix":
        """The constructor without its anti-Hermitian-part test."""
        m = np.asarray(m, dtype=complex)
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        s = object.__new__(cls)
        s._normalize(m)
        return s

    def _normalize(self, m):
        m = 0.5 * (m + m.T[_T_SWAP[m.shape[0]]])
        m = 0.5 * (m + m.conj().T)
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

    def det(self) -> float:
        return float(np.linalg.det(self.mat).real)

    def __getitem__(self, idx):
        return self.mat[idx]

    def __repr__(self):
        return f"SymMatrix({self.mat.tolist()!r})"

    def allclose(self, other: "SymMatrix", atol: float) -> bool:
        return self.dim == other.dim and np.allclose(self.mat, other.mat, atol=atol, rtol=0.0)


def identity(dim: int) -> SymMatrix:
    return SymMatrix(np.eye(dim))


def congruence(a: np.ndarray, m: np.ndarray) -> SymMatrix:
    """a m a^dag for a Hermitian m."""
    out = a @ m @ a.conj().T
    return SymMatrix._hermitian(0.5 * (out + out.conj().T))


def reciprocal(x: np.ndarray) -> np.ndarray:
    """1/x for the eigenvalues x of one Hermitian matrix.  The matrix counts as
    singular when min|x| <= band(sum|x|, 1), the round-off of its eigenvalues."""
    a = np.abs(x)
    tol = band(a.sum(), 1)
    if not a.min() > tol:
        raise SingularMatrixError(f"min|eigenvalue| = {a.min():.3e} <= {tol:.3e}")
    return 1.0 / x


def invert(m: SymMatrix) -> SymMatrix:
    """Inverse of ``m`` from its eigendecomposition: V diag(1/x) V^dag."""
    x, v = np.linalg.eigh(m.mat)
    return congruence(v, np.diag(reciprocal(x)))


def eigenvalues_hermitian(m: SymMatrix) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(m.mat)


def band(scale, degree: int):
    """Verdict band K * eps * scale**degree, for floats or arrays: the round-off
    of a margin that grows like the power ``degree`` of the matrix size ``scale``."""
    return K * sys.float_info.epsilon * scale**degree


def structure_e(dim: int) -> np.ndarray:
    return np.diag([1.0, -1.0] * (dim // 2))
