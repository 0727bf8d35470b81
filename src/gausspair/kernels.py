"""Gaussian kernels and conversions among the C, W, Q, P representations.

A kernel is a Hermitian T-symmetric matrix tagged with the representation it
lives in.  The four forms of the same Gaussian operator are related by

    W = E C^-1 E
    Q = E (C + I/2)^-1 E
    P = E (C - I/2)^-1 E        (only if C - I/2 > 0)

so all four share C's eigenvectors, conjugated by E, and have eigenvalues
1/(lam + s) for s = 0, 1/2, -1/2.  Each kernel carries the pair (x, V) it was
built from: one ``eigh`` of a given matrix, or the source's pair mapped by
``convert``, so a chain of conversions diagonalizes once and forms a matrix only
for a kernel that is read.  A kernel is singular when its smallest |eigenvalue|
lies within ``linalg.band`` of zero, relative to their sum.
"""

from __future__ import annotations

import sys

import numpy as np

from . import linalg
from .errors import NotAStateError, NotPRepresentableError
from .linalg import SymMatrix

KINDS = ("C", "W", "Q", "P")
# each kind other than C is E (C + s I)^-1 E with this shift s
_SHIFT = {"W": 0.0, "Q": 0.5, "P": -0.5}
# the diagonal of E, which flips eigenvectors by a sign per row
_E_SIGN = {dim: np.diag(linalg.structure_e(dim))[:, None] for dim in (2, 4)}
_ENTRY_BOUND = sys.float_info.max / 4  # V diag(x) V^dag has entries <= max|x| (V unitary); forming it adds two


class GaussianKernel:
    """A representation-tagged Gaussian kernel; ``eig`` is its read-only pair (x, V), x unsorted,
    and ``sym``/``matrix`` = V diag(x) V^dag to round-off: the matrix it was built from, or,
    for a kernel that ``convert`` returns, formed from the pair when first read."""

    __slots__ = ("kind", "eig", "_sym")

    def __init__(self, kind: str, sym: SymMatrix | None, eig: tuple | None = None):
        """``eig`` is the pair of ``sym``, one ``eigh`` if not given; ``sym`` None is formed on read."""
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        x, v = np.linalg.eigh(sym.mat) if eig is None else eig
        x.setflags(write=False)
        v.setflags(write=False)
        xs = x.tolist()
        # a negative eigenvalue of C means no Gaussian exists at all;
        # zeros within the band are kept as degenerate boundary cases
        if kind == "C" and min(xs) < -linalg.band(sum(xs), 1):
            raise NotAStateError("C matrix has a negative eigenvalue")
        # a P kernel only exists when C - I/2 > 0 strictly, that is when P > 0;
        # a small eigenvalue of P belongs to a large one of C, not to that boundary
        if kind == "P" and min(xs) <= 0.0:
            raise NotAStateError("P matrix is not positive definite")
        for name, value in (("kind", kind), ("eig", (x, v)), ("_sym", sym)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianKernel is immutable")

    @property
    def sym(self) -> SymMatrix:
        if self._sym is None:  # a converted kernel: V diag(x) V^dag, hermitized, on first read
            x, v = self.eig
            m = (v * x) @ v.conj().T
            object.__setattr__(self, "_sym", SymMatrix._hermitian(linalg.normal_form(0.5 * (m + m.conj().T))))
        return self._sym

    @property
    def matrix(self) -> np.ndarray:
        return self.sym.mat

    @property
    def dim(self) -> int:
        return len(self.eig[0])

    @property
    def modes(self) -> int:
        return self.dim // 2

    @property
    def det(self) -> float:
        """The determinant: the product of the carried eigenvalues."""
        return float(np.prod(self.eig[0]))


def convert(k: GaussianKernel, target: str) -> GaussianKernel:
    """Convert a kernel to the target representation.

    The source's carried pair gives every kind: its eigenvalues x map to C's
    eigenvalues lam (lam = x, or 1/x - s for a kind E (C + s)^-1 E), and those to
    the target's 1/(lam + s); the eigenvectors are flipped by E when C is on
    exactly one side of the conversion.  The result carries the mapped pair and
    forms its matrix only when that is read; every refusal is raised here.
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
            asc = sorted(lam.tolist())
            if not asc[0] - 0.5 > linalg.band(sum(asc), 1):
                raise NotPRepresentableError("C - I/2 has a non-positive eigenvalue")
        out = linalg.reciprocal(lam + _SHIFT[target])
    if not all(abs(a) <= _ENTRY_BOUND for a in out.tolist()):
        raise ValueError("matrix has non-finite entries: an eigenvalue overflows it")
    if (k.kind == "C") != (target == "C"):
        v = _E_SIGN[k.dim] * v
    return GaussianKernel(target, None, (out, v))


def c_kernel(entries) -> GaussianKernel:
    """Build a C kernel straight from matrix entries."""
    return GaussianKernel("C", SymMatrix(entries))
