"""Gaussian kernels and conversions among the C, W, Q, P representations.

A kernel is a Hermitian T-symmetric matrix, a read-only ndarray in ``linalg.normal_form``, tagged
with the representation it lives in.  The four forms of the same Gaussian operator are related by

    W = E C^-1 E
    Q = E (C + I/2)^-1 E
    P = E (C - I/2)^-1 E        (only if C - I/2 > 0)

so all four share C's eigenvectors, conjugated by E, and have eigenvalues 1/(lam + s) for
s = 0, 1/2, -1/2.  Every kernel holds C's eigenvalues lam as Python floats beside C's eigenvectors:
from one ``eigh`` of outside input, which the public constructor checks (``linalg.hermitian``), or
of assembled moments; from the closed-form pair of a one-mode or EPR-family C, with no eigensolver
(``_closed``); or, for a kernel ``convert`` returns, its source's lam unchanged.  A W, Q or P built
from a matrix derives lam = 1/x - s from its own eigenvalues x on its first conversion.  So a chain
of conversions diagonalizes at most once, maps lam once per kernel whose eigenvalues are read, and
forms a matrix only for a kernel that is read.  ``convert``, ``det`` and ``twomode``'s verdicts
compute on Python floats (``eigenvalues``).  C's existence and P rules and the singularity of
C + sI are ``linalg``'s (``c_rules``, ``nonsingular``); this module holds no copy of them.
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
    ``convert`` returns, formed when first read, as ``eig`` and, for W, Q and P, x = 1/(lam + s)
    are where no ``eigh`` ran.  Each kind keeps C's eigenvalues lam and eigenvectors (V = E V_C
    otherwise), so ``convert`` copies no array and maps no eigenvalue."""

    # private slots behind read-only properties: the public surface cannot be assigned
    __slots__ = ("_kind", "_lam", "_x", "_vc", "_eig", "_matrix")

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
        x, m = tuple(map(float, x)), np.asarray(m, dtype=complex)
        if not all(map(math.isfinite, x)):
            raise ValueError("matrix has non-finite entries")
        _check("C", x)
        for a in (m, v):
            a.setflags(write=False)
        return object.__new__(cls)._hold("C", x, x, v, None, m)

    def _of(self, kind: str, m: np.ndarray) -> "GaussianKernel":
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        x, v = np.linalg.eigh(m)
        vc = v if kind == "C" else _E_SIGN[len(v)] * v
        for a in (m, x, v, vc):
            a.setflags(write=False)
        xs = tuple(x.tolist())
        _check(kind, xs)
        return self._hold(kind, xs if kind == "C" else None, xs, vc, (x, v), m)

    def _hold(self, kind: str, lam: tuple | None, x: tuple | None, vc: np.ndarray, eig: tuple | None, m: np.ndarray | None):
        """Set the slots, unchecked: C's eigenvalues lam (None until derived), the kernel's own x
        (None until mapped), C's eigenvectors vc, the ``eig`` pair and the matrix (None until formed)."""
        self._kind, self._lam, self._x, self._vc, self._eig, self._matrix = kind, lam, x, vc, eig, m
        return self

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        if self._x is None:  # a converted W, Q or P: 1/(lam + s) on C's eigenvalues, on first read
            s = _SHIFT[self._kind]
            self._x = tuple([1.0 / (y + s) for y in self._lam])
        return self._x

    @property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:  # no eigh ran: the floats, and C's eigenvectors flipped by E
            x, v = np.array(self.eigenvalues), self._vc if self._kind == "C" else _E_SIGN[len(self._vc)] * self._vc
            for a in (x, v):
                a.setflags(write=False)
            self._eig = x, v
        return self._eig

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:  # a converted kernel: V diag(x) V^dag, hermitized, on first read
            x, v = self.eig
            m = linalg.hermitian_part((v * x) @ v.conj().T)  # finite: convert bounds max|x|
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    sym = matrix  # the old name, kept for the traced probe in perfbench/workloads.py

    @property
    def dim(self) -> int:
        return len(self._vc)

    @property
    def modes(self) -> int:
        return len(self._vc) // 2

    @property
    def det(self) -> float:
        """The determinant: the product of the eigenvalues, in their order."""
        return math.prod(self.eigenvalues)


def _check(kind: str, x: tuple) -> None:
    """The rules of a C or P kernel on its own eigenvalues x."""
    if kind == "C" and not linalg.c_rules(min(x), sum(x))[0]:
        raise NotAStateError("C matrix has a negative eigenvalue")
    # a P kernel only exists when C - I/2 > 0 strictly, that is when P > 0;
    # a small eigenvalue of P belongs to a large one of C, not to that boundary
    if kind == "P" and min(x) <= 0.0:
        raise NotAStateError("P matrix is not positive definite")


def convert(k: GaussianKernel, target: str) -> GaussianKernel:
    """Convert a kernel to the target representation.

    The result holds the source's C eigenvalues lam and eigenvectors unchanged;
    only the target's rules run, on lam as Python floats: ``linalg.c_rules`` for
    C and P, and for W, Q and P ``linalg.nonsingular`` on |lam + s|.  The target's
    eigenvalues, 1/(lam + s) for a kind other than C, must stay within
    ``_ENTRY_BOUND``.  The result forms those eigenvalues and its arrays only when
    they are read; every refusal is raised here.
    """
    if target not in KINDS:
        raise ValueError(f"target must be one of {KINDS}, got {target!r}")
    if target == k._kind:
        return k
    if k._lam is None:  # a W, Q or P built from a matrix derives lam = 1/x - s once, under reciprocal's rule
        k._lam = tuple([y - _SHIFT[k._kind] for y in linalg.reciprocal(k._x)])
    lam = k._lam
    if target == "C":
        top = max(map(abs, lam))
    else:
        if target == "P" and not linalg.c_rules(min(lam), sum(sorted(lam)))[1]:  # summed as the engine sums
            raise NotPRepresentableError("C - I/2 has a non-positive eigenvalue")
        s = _SHIFT[target]
        top = 1.0 / linalg.nonsingular([abs(y + s) for y in lam])  # max|1/(lam + s)|
    if not top <= _ENTRY_BOUND:
        raise ValueError("matrix has non-finite entries: an eigenvalue overflows it")
    if target == "C":
        _check("C", lam)
    return object.__new__(GaussianKernel)._hold(target, lam, lam if target == "C" else None, k._vc, None, None)
