"""Gaussian kernels and conversions among the C, W, Q, P representations.

A kernel is a Hermitian T-symmetric matrix tagged with the representation it
lives in.  The four forms of the same Gaussian operator are related by

    W = E C^-1 E
    Q = E (C + I/2)^-1 E
    P = E (C - I/2)^-1 E        (only if C - I/2 > 0)

so all four share C's eigenvectors, conjugated by E, and have eigenvalues
1/(lam + s) for s = 0, 1/2, -1/2.  Each kernel carries the pair (x, V) it was
built from: one ``eigh`` of a given matrix, or the source's pair mapped by
``convert``, so a chain of conversions diagonalizes once.  A kernel is singular
when its smallest |eigenvalue| lies within ``linalg.band`` of zero, relative to
their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NotAStateError, NotPRepresentableError
from .linalg import SymMatrix

KINDS = ("C", "W", "Q", "P")
# each kind other than C is E (C + s I)^-1 E with this shift s
_SHIFT = {"W": 0.0, "Q": 0.5, "P": -0.5}
# the diagonal of E, which flips eigenvectors by a sign per row
_E_SIGN = {dim: np.diag(linalg.structure_e(dim))[:, None] for dim in (2, 4)}


@dataclass(frozen=True)
class GaussianKernel:
    """A representation-tagged Gaussian kernel matrix; ``eig`` is its read-only
    pair (x, V), ``matrix`` = V diag(x) V^dag to round-off, x unsorted."""

    kind: str
    sym: SymMatrix
    eig: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if "eig" not in vars(self):  # built from a matrix, not by ``convert``
            object.__setattr__(self, "eig", tuple(np.linalg.eigh(self.sym.mat)))
        for a in self.eig:
            a.setflags(write=False)
        x = self.eig[0]
        # a negative eigenvalue of C means no Gaussian exists at all;
        # zeros within the band are kept as degenerate boundary cases
        if self.kind == "C" and x.min() < -linalg.band(x.sum(), 1):
            raise NotAStateError("C matrix has a negative eigenvalue")
        # a P kernel only exists when C - I/2 > 0 strictly, that is when P > 0;
        # a small eigenvalue of P belongs to a large one of C, not to that boundary
        if self.kind == "P" and x.min() <= 0.0:
            raise NotAStateError("P matrix is not positive definite")

    @property
    def matrix(self) -> np.ndarray:
        return self.sym.mat

    @property
    def dim(self) -> int:
        return self.sym.dim

    @property
    def modes(self) -> int:
        return self.sym.modes

    @property
    def det(self) -> float:
        """The determinant: the product of the carried eigenvalues."""
        return float(np.prod(self.eig[0]))


def convert(k: GaussianKernel, target: str) -> GaussianKernel:
    """Convert a kernel to the target representation.

    The source's carried pair gives every kind: its eigenvalues x map to C's
    eigenvalues lam (lam = x, or 1/x - s for a kind E (C + s)^-1 E), and those to
    the target's 1/(lam + s); the eigenvectors are flipped by E when C is on
    exactly one side of the conversion.  The result carries the mapped pair.
    """
    if target not in KINDS:
        raise ValueError(f"target must be one of {KINDS}, got {target!r}")
    if target == k.kind:
        return k
    x, v = k.eig
    lam = x if k.kind == "C" else linalg.reciprocal(x) - _SHIFT[k.kind]
    if target == "C":
        out = lam
    else:
        if target == "P":
            # the engine's rule for C - I/2 > 0, on C's eigenvalues in its ascending
            # order: the smallest clears band(tr C, 1)
            asc = np.sort(lam)
            if not asc[0] - 0.5 > linalg.band(asc.sum(), 1):
                raise NotPRepresentableError("C - I/2 has a non-positive eigenvalue")
        out = linalg.reciprocal(lam + _SHIFT[target])
    if (k.kind == "C") != (target == "C"):
        v = _E_SIGN[k.dim] * v
    m = (v * out) @ v.conj().T
    return _carrying(target, SymMatrix._hermitian(0.5 * (m + m.conj().T)), out, v)


def _carrying(kind: str, sym: SymMatrix, x: np.ndarray, v: np.ndarray) -> GaussianKernel:
    """The kernel of ``sym``, built as V diag(x) V^dag, carrying that pair."""
    k = object.__new__(GaussianKernel)
    object.__setattr__(k, "eig", (x, v))
    GaussianKernel.__init__(k, kind, sym)
    return k


def c_kernel(entries) -> GaussianKernel:
    """Build a C kernel straight from matrix entries."""
    return GaussianKernel("C", SymMatrix(entries))
