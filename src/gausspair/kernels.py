"""Gaussian kernels and conversions among the C, W, Q, P representations.

A kernel is a Hermitian T-symmetric matrix, a read-only ndarray in ``linalg.normal_form``, tagged
with the representation it lives in.  The four forms of the same Gaussian operator are related by

    W = E C^-1 E
    Q = E (C + I/2)^-1 E
    P = E (C - I/2)^-1 E        (only if C - I/2 > 0)

so all four share C's eigenvectors, conjugated by E, and have eigenvalues 1/(lam + s) for
s = 0, 1/2, -1/2.  Every kernel holds C's eigenvalues lam as Python floats beside C's eigenvectors
from the moment it is made: from one ``eigh`` of a matrix, outside input or assembled, checked by ``linalg.hermitian``
in the public constructor, the one way in for a matrix, lam = 1/x - s of its own eigenvalues x for a W, Q or P; from
the closed-form pair of a one-mode or EPR-family C, with no eigensolver (``_closed``), which forms its matrix only when
read and, for two modes, carries C's block determinants (dA, dB, dX) too; or, for a kernel ``convert`` returns, its
source's lam and (dA, dB, dX) unchanged.  Every constructor checks lam once (``_check``), within ``linalg.MAX_SCALE``,
where every verdict is finite, so ``convert`` checks only what its target adds (``_invertible``, 1/(lam + s) in range).  Only this
module decides which kernels exist, by one rule per kind on lam: a W, Q or P built from a matrix is
admitted where ``convert`` admits that kind of its lam, so a file ``convert`` writes reads back except
within ``eigh``'s round-off; the rules' primitives are ``linalg``'s (``c_rules``, ``nonsingular``).  A chain of
conversions diagonalizes at most once, maps lam once per kernel whose eigenvalues are read, and forms a matrix only
for a kernel that is read, and ``partial_transpose`` maps the pair alike for every kind, so it commutes with ``convert``.
Only this module touches a kernel's slots; ``block_dets`` serves C's block determinants; ``require`` is the one check of a kernel
argument.  ``convert``, ``det`` and ``twomode``'s verdicts compute on Python floats."""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import NotAStateError, NotPRepresentableError, WrongModeCountError

KINDS = ("C", "W", "Q", "P")
# each kind other than C is E (C + s I)^-1 E with this shift s
_SHIFT = {"W": 0.0, "Q": 0.5, "P": -0.5}
# the diagonal of E, which flips eigenvectors by a sign per row
_E_SIGN = {dim: np.diag(linalg.structure_e(dim))[:, None] for dim in (2, 4)}
# the flat indices of a two-mode C's 2x2 blocks A, B, X: its determinants in one ``linalg.block_det`` pass
_BLOCKS = np.array([[[4 * r + c, 4 * r + c + 1], [4 * r + c + 4, 4 * r + c + 5]] for r, c in ((0, 0), (2, 2), (0, 2))])


class GaussianKernel:
    """A representation-tagged Gaussian kernel; ``matrix`` is its read-only normal-form array,
    ``eigenvalues`` its own x, unsorted, as Python floats, and ``eig`` the read-only pair (x, V),
    formed on each read from those floats and C's eigenvectors (V = E V_C for W, Q and P).
    The matrix is V diag(x) V^dag to round-off: the one it was built from, or formed when first
    read, by a closed-form C's closed form or, for a kernel that ``convert`` returns, from ``eig``;
    for W, Q and P, x = 1/(lam + s) is formed where no ``eigh`` ran.  Each kind keeps C's
    eigenvalues lam and eigenvectors, and C's block determinants once known (``block_dets``),
    so ``convert`` copies no array and maps no eigenvalue."""

    # private slots behind read-only properties: the public surface cannot be assigned
    __slots__ = ("_kind", "_lam", "_x", "_vc", "_matrix", "_dets")

    def __init__(self, kind: str, entries):
        """The kernel of a matrix, outside input or assembled, which ``linalg.hermitian`` checks and copies: one ``eigh``."""
        m = linalg.hermitian(entries)
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        x, v = np.linalg.eigh(m)
        vc = v if kind == "C" else _E_SIGN[len(v)] * v
        for a in (m, vc):
            a.setflags(write=False)
        xs = tuple(x.tolist())
        lam = xs
        if kind != "C":  # C's eigenvalues 1/x - s (infinite at x = 0), admitted by convert's rule for this kind
            lam = tuple([(1.0 / y if y else math.inf) - _SHIFT[kind] for y in xs])
            _invertible(lam, _SHIFT[kind])
        _check(kind, lam)
        self._hold(kind, lam, xs, vc, m, None)

    @classmethod
    def _closed(cls, form, x, v: np.ndarray, dets: tuple | None = None) -> "GaussianKernel":
        """The C kernel with its closed-form pair (x, read-only v) and block determinants ``dets``: no eigensolver
        runs, and ``form()`` makes its matrix in normal form when read.  Bounded x bound every entry, so only x is checked."""
        x = tuple(map(float, x))
        _check("C", x)
        return object.__new__(cls)._hold("C", x, x, v, form, dets)

    def _hold(self, kind: str, lam: tuple, x: tuple | None, vc: np.ndarray, m, dets: tuple | None):
        """Set the slots, unchecked: C's checked eigenvalues lam, the kernel's own x (None until mapped), C's eigenvectors
        vc, the matrix (until formed, its closed form or None) and C's (dA, dB, dX) (or None)."""
        self._kind, self._lam, self._x, self._vc, self._matrix, self._dets = kind, lam, x, vc, m, dets
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
        x, v = np.array(self.eigenvalues), self._vc if self._kind == "C" else _E_SIGN[len(self._vc)] * self._vc
        for a in (x, v):
            a.setflags(write=False)
        return x, v

    @property
    def block_dets(self) -> tuple[float, float, float]:
        """A two-mode C's (dA, dB, dX), carried or taken once and kept; only C's, as ``convert`` passes them on."""
        require(self, "C", 2)
        if self._dets is None:
            self._dets = tuple(linalg.block_det(self.matrix.take(_BLOCKS), 0, 0).tolist())
        return self._dets

    @property
    def matrix(self) -> np.ndarray:
        m = self._matrix
        if not isinstance(m, np.ndarray):  # formed on first read: a closed form, or V diag(x) V^dag, hermitized
            if m is None:
                x, v = self.eig
                m = linalg.hermitian_part((v * x) @ v.conj().T)  # finite: convert bounds max|x|
            else:
                m = np.asarray(m(), dtype=complex)
            m.setflags(write=False)
            self._matrix = m
        return m

    sym = matrix  # the old name, kept for the traced probe in perfbench/workloads.py

    @property
    def modes(self) -> int:
        return len(self._vc) // 2

    @property
    def det(self) -> float:
        """The determinant: the product of the eigenvalues, in their order."""
        return math.prod(self.eigenvalues)


def require(k: GaussianKernel, kind: str, modes: int | None = None) -> None:
    """The one check of a kernel argument: ``ValueError`` unless k is of ``kind``, ``WrongModeCountError`` (a ValueError)
    unless, when given, of ``modes`` modes.  Every function that takes a kernel calls it before computing anything."""
    if k.kind != kind or modes not in (None, k.modes):
        error = ValueError if k.kind != kind else WrongModeCountError
        raise error(f"expected a {('', 'one-mode ', 'two-mode ')[modes or 0]}{kind} kernel")


def _check(kind: str, lam: tuple) -> None:
    """The rules on C's eigenvalues lam that every kernel obeys from construction: each finite and at
    most ``linalg.MAX_SCALE`` in size, the verdict range, so that every verdict on the kernel is finite; C exists
    (``linalg.c_rules``, summed in ascending order as the engine sums); and a P kernel's C is P-representable."""
    if not all(abs(y) <= linalg.MAX_SCALE for y in lam):
        raise ValueError("matrix has non-finite entries: an eigenvalue overflows it")
    exists, p_representable = linalg.c_rules(min(lam), sum(sorted(lam)))
    if not exists:
        raise NotAStateError("C matrix has a negative eigenvalue")
    if kind == "P" and not p_representable:
        raise NotPRepresentableError("C - I/2 has a non-positive eigenvalue")


def _invertible(lam: tuple, s: float) -> None:
    """The rules a kind E (C + sI)^-1 E adds to C's eigenvalues lam: C + sI nonsingular (``linalg.nonsingular``
    on |lam + s|), and its eigenvalues 1/(lam + s) at most ``linalg.MAX_SCALE`` in size."""
    if not 1.0 / linalg.nonsingular([abs(y + s) for y in lam]) <= linalg.MAX_SCALE:  # 1/min|lam + s| = max|1/(lam + s)|
        raise ValueError("matrix has non-finite entries: an eigenvalue overflows it")


def convert(k: GaussianKernel, target: str) -> GaussianKernel:
    """Convert a kernel to the target representation.

    The result holds the source's C eigenvalues lam, eigenvectors and block determinants
    unchanged.  Its constructor checked lam, so only what the target adds runs, on lam as
    Python floats: for C no rule; for P, ``_check``'s P rule; for W, Q and P, ``_invertible``,
    which a W, Q or P built from a matrix obeys too.  The result forms its eigenvalues
    1/(lam + s) and its arrays only when they are read; every refusal of a conversion is raised here.
    """
    if target not in KINDS:
        raise ValueError(f"target must be one of {KINDS}, got {target!r}")
    if target == k._kind:
        return k
    lam = k._lam
    if target == "P":
        _check("P", lam)
    if target != "C":
        _invertible(lam, _SHIFT[target])
    return object.__new__(GaussianKernel)._hold(target, lam, lam if target == "C" else None, k._vc, None, k._dets)


def partial_transpose(k: GaussianKernel) -> GaussianKernel:
    """The first mode transposed: k's kind of Pi C Pi, Pi swapping z1 and z1*, so m1 -> m1*, ms -> mc*, mc -> ms*.  With
    no eigensolver: the same x and lam, C's eigenvectors Pi V_C and C's (dA, dB, -dX), as Pi swaps X's rows."""
    require(k, k.kind, 2)
    vc = k._vc[[1, 0, 2, 3]]
    vc.setflags(write=False)
    return object.__new__(GaussianKernel)._hold(k._kind, k._lam, k._x, vc, None, k._dets and (*k._dets[:2], -k._dets[2]))
