"""Gaussian kernels and conversions among the C, W, Q, P representations.

A kernel is a Hermitian T-symmetric matrix tagged with the representation it
lives in.  The four forms of the same Gaussian operator are related by

    W = E C^-1 E
    Q = E (C + I/2)^-1 E
    P = E (C - I/2)^-1 E        (only if C - I/2 > 0)

so all four share C's eigenvectors, conjugated by E, and have eigenvalues
1/(lam + s) for s = 0, 1/2, -1/2.  ``convert`` takes one eigendecomposition of
the source and maps its eigenvalues; a kernel is singular when its smallest
|eigenvalue| lies within ``linalg.band`` of zero, relative to their sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotAStateError, NotPRepresentableError
from .linalg import SymMatrix

KINDS = ("C", "W", "Q", "P")
# each kind other than C is E (C + s I)^-1 E with this shift s
_SHIFT = {"W": 0.0, "Q": 0.5, "P": -0.5}


@dataclass(frozen=True)
class GaussianKernel:
    """A representation-tagged Gaussian kernel matrix."""

    kind: str
    sym: SymMatrix

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind in ("C", "P"):
            lam = linalg.eigenvalues_hermitian(self.sym)
            # a negative eigenvalue of C means no Gaussian exists at all;
            # zeros within the band are kept as degenerate boundary cases
            if self.kind == "C" and lam[0] < -linalg.band(lam.sum(), 1):
                raise NotAStateError("C matrix has a negative eigenvalue")
            # a P kernel only exists when C - I/2 > 0 strictly, that is when P > 0;
            # a small eigenvalue of P belongs to a large one of C, not to that boundary
            if self.kind == "P" and lam[0] <= 0.0:
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


def convert(k: GaussianKernel, target: str) -> GaussianKernel:
    """Convert a kernel to the target representation.

    One ``eigh`` of the source gives every kind: its eigenvalues x map to C's
    eigenvalues lam (lam = x, or 1/x - s for a kind E (C + s)^-1 E), and those to
    the target's 1/(lam + s); the eigenvectors are flipped by E when C is on
    exactly one side of the conversion.
    """
    if target not in KINDS:
        raise ValueError(f"target must be one of {KINDS}, got {target!r}")
    if target == k.kind:
        return k
    x, v = np.linalg.eigh(k.matrix)
    lam = x if k.kind == "C" else linalg.reciprocal(x) - _SHIFT[k.kind]
    if target == "C":
        out = lam
    else:
        # the engine's rule for C - I/2 > 0: its smallest eigenvalue clears band(tr C, 1)
        if target == "P" and not lam.min() - 0.5 > linalg.band(lam.sum(), 1):
            raise NotPRepresentableError("C - I/2 has a non-positive eigenvalue")
        out = linalg.reciprocal(lam + _SHIFT[target])
    if (k.kind == "C") != (target == "C"):
        v = linalg.structure_e(k.dim) @ v
    return GaussianKernel(target, linalg.congruence(v, np.diag(out)))


def c_kernel(entries) -> GaussianKernel:
    """Build a C kernel straight from matrix entries."""
    return GaussianKernel("C", SymMatrix(entries))
