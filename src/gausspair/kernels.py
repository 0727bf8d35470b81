"""Gaussian kernels and conversions among the C, W, Q, P representations.

A kernel is a Hermitian T-symmetric matrix, a read-only ndarray in ``linalg.normal_form``, tagged
with the representation it lives in.  The four forms of the same Gaussian operator are related by

    W = E C^-1 E
    Q = E (C + I/2)^-1 E
    P = E (C - I/2)^-1 E        (only if C - I/2 > 0)

so all four share C's eigenvectors, conjugated by E, and have eigenvalues 1/(lam + s) for
s = 0, 1/2, -1/2.  Each kernel carries a pair (x, V): one ``eigh`` of outside input, which the public
constructor checks (``linalg.hermitian``), or of assembled moments; the closed-form pair of a
one-mode or EPR-family C, with no eigensolver (``_closed``); or the source's pair mapped by
``convert``.  So a chain of conversions diagonalizes at most once and forms a matrix only for a
kernel that is read.  ``convert``, ``det`` and ``twomode``'s verdicts compute on x as Python floats
(``eigenvalues``).  A kernel is singular when its smallest |eigenvalue| lies within ``linalg.band``
of zero, relative to their sum.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import linalg
from .errors import NotAStateError, NotPRepresentableError

KINDS = ("C", "W", "Q", "P")
# each kind other than C is E (C + s I)^-1 E with this shift s
_SHIFT = {"W": 0.0, "Q": 0.5, "P": -0.5}
# the diagonal of E, which flips eigenvectors by a sign per row
_E_SIGN = {dim: np.diag(linalg.structure_e(dim))[:, None] for dim in (2, 4)}
_ENTRY_BOUND = sys.float_info.max / 4  # V diag(x) V^dag has entries <= max|x| (V unitary); forming it adds two


class GaussianKernel:
    """A representation-tagged Gaussian kernel; ``matrix`` is its read-only normal-form array,
    ``eig`` its read-only pair (x, V), x unsorted, and ``eigenvalues`` that x as Python floats.
    The matrix is V diag(x) V^dag to round-off: the one it was built from, or, for a kernel that
    ``convert`` returns, formed when first read, as ``eig`` is where no ``eigh`` ran.  Each kind keeps
    C's eigenvectors (V = E V_C otherwise), so ``convert`` copies no array."""

    __slots__ = ("kind", "eigenvalues", "_vc", "_eig", "_matrix")

    def __init__(self, kind: str, entries):
        """The kernel of outside input, which ``linalg.hermitian`` checks and copies: one ``eigh``."""
        self._of(kind, linalg.hermitian(entries))

    @classmethod
    def _normal(cls, kind: str, m) -> "GaussianKernel":
        """The kernel of a matrix already in normal form, such as assembled moments: only finiteness
        is checked, and one ``eigh`` gives its pair."""
        m = np.asarray(m, dtype=complex)
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        return object.__new__(cls)._of(kind, m)

    @classmethod
    def _closed(cls, m, x, v: np.ndarray) -> "GaussianKernel":
        """The C kernel of a matrix m in normal form with its closed-form pair (x, v), x held as Python
        floats: no eigensolver runs.  Finite eigenvalues bound every entry of m, so only x is checked."""
        x, m = list(map(float, x)), np.asarray(m, dtype=complex)
        if not all(map(math.isfinite, x)):
            raise ValueError("matrix has non-finite entries")
        for a in (m, v):
            a.setflags(write=False)
        return object.__new__(cls)._hold("C", m, x, v, None)

    def _of(self, kind: str, m: np.ndarray) -> "GaussianKernel":
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        x, v = np.linalg.eigh(m)
        vc = v if kind == "C" else _E_SIGN[len(v)] * v
        for a in (m, x, v, vc):
            a.setflags(write=False)
        return self._hold(kind, m, x.tolist(), vc, (x, v))

    def _hold(self, kind: str, m: np.ndarray | None, x: list[float], vc: np.ndarray, eig: tuple | None):
        """Check the eigenvalues x and hold them with C's eigenvectors vc (``convert``: on a new object)."""
        # a negative eigenvalue of C means no Gaussian exists at all;
        # zeros within the band are kept as degenerate boundary cases
        if kind == "C" and min(x) < -linalg.band(sum(x), 1):
            raise NotAStateError("C matrix has a negative eigenvalue")
        # a P kernel only exists when C - I/2 > 0 strictly, that is when P > 0;
        # a small eigenvalue of P belongs to a large one of C, not to that boundary
        if kind == "P" and min(x) <= 0.0:
            raise NotAStateError("P matrix is not positive definite")
        for name, value in (("kind", kind), ("eigenvalues", tuple(x)), ("_vc", vc), ("_eig", eig), ("_matrix", m)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GaussianKernel is immutable")

    @property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:  # a converted kernel: the carried floats, and C's eigenvectors flipped by E
            x, v = np.array(self.eigenvalues), self._vc if self.kind == "C" else _E_SIGN[len(self._vc)] * self._vc
            for a in (x, v):
                a.setflags(write=False)
            object.__setattr__(self, "_eig", (x, v))
        return self._eig

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:  # a converted kernel: V diag(x) V^dag, hermitized, on first read
            x, v = self.eig
            m = linalg.hermitian_part((v * x) @ v.conj().T)  # finite: convert bounds max|x|
            m.setflags(write=False)
            object.__setattr__(self, "_matrix", m)
        return self._matrix

    sym = matrix  # the old name, kept for the traced probe in perfbench/workloads.py

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def modes(self) -> int:
        return self.dim // 2

    @property
    def det(self) -> float:
        """The determinant: the product of the carried eigenvalues, in their order."""
        return math.prod(self.eigenvalues)


def convert(k: GaussianKernel, target: str) -> GaussianKernel:
    """Convert a kernel to the target representation.

    The source's carried pair gives every kind: its eigenvalues x map to C's
    eigenvalues lam (lam = x, or 1/x - s for a kind E (C + s)^-1 E), and those to
    the target's 1/(lam + s), all on Python floats; the eigenvectors are C's,
    flipped by E for a kind other than C.  The result forms its arrays only when
    they are read; every refusal is raised here.
    """
    if target not in KINDS:
        raise ValueError(f"target must be one of {KINDS}, got {target!r}")
    if target == k.kind:
        return k
    x = k.eigenvalues
    lam = x if k.kind == "C" else [y - _SHIFT[k.kind] for y in linalg.reciprocal(x)]
    if target == "C":
        out = lam
    else:
        if target == "P":
            # the engine's rule for C - I/2 > 0, on C's eigenvalues in its ascending
            # order: the smallest clears band(tr C, 1)
            asc = sorted(lam)
            if not asc[0] - 0.5 > linalg.band(sum(asc), 1):
                raise NotPRepresentableError("C - I/2 has a non-positive eigenvalue")
        s = _SHIFT[target]
        out = linalg.reciprocal([y + s for y in lam])
    if not max(map(abs, out)) <= _ENTRY_BOUND:
        raise ValueError("matrix has non-finite entries: an eigenvalue overflows it")
    return object.__new__(GaussianKernel)._hold(target, None, out, k._vc, None)

