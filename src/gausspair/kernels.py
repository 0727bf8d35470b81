"""Gaussian kernels and conversions among the C, W, Q, P representations.

A kernel is a Hermitian T-symmetric matrix tagged with the representation it
lives in.  The four forms of the same Gaussian operator are related by

    W = E C^-1 E
    Q = E (C + I/2)^-1 E
    P = E (C - I/2)^-1 E        (only if C - I/2 > 0)

and the corresponding inverses; conversions route through C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotAStateError, NotPRepresentableError
from .linalg import SymMatrix

KINDS = ("C", "W", "Q", "P")


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
            band = linalg.band(lam.sum(), 1)
            # a negative eigenvalue of C means no Gaussian exists at all;
            # zeros within the band are kept as degenerate boundary cases
            if self.kind == "C" and lam[0] < -band:
                raise NotAStateError("C matrix has a negative eigenvalue")
            # a P kernel only exists when C - I/2 > 0 strictly
            if self.kind == "P" and lam[0] <= band:
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


def _sandwich_e(m: SymMatrix) -> SymMatrix:
    e = linalg.structure_e(m.dim)
    return SymMatrix(e @ m.mat @ e)


def _shift(m: SymMatrix, amount: float) -> SymMatrix:
    return SymMatrix(m.mat + amount * np.eye(m.dim))


def _to_c(k: GaussianKernel) -> SymMatrix:
    if k.kind == "C":
        return k.sym
    inv = linalg.invert(k.sym)
    if k.kind == "W":
        return _sandwich_e(inv)
    if k.kind == "Q":
        return _shift(_sandwich_e(inv), -0.5)
    # P
    return _shift(_sandwich_e(inv), +0.5)


def _from_c(c: SymMatrix, target: str) -> SymMatrix:
    if target == "C":
        return c
    if target == "W":
        return _sandwich_e(linalg.invert(c))
    if target == "Q":
        return _sandwich_e(linalg.invert(_shift(c, +0.5)))
    # P: requires C - I/2 > 0
    shifted = _shift(c, -0.5)
    lam = linalg.eigenvalues_hermitian(shifted)
    if lam[0] <= linalg.band(lam.sum(), 1):
        raise NotPRepresentableError("C - I/2 has a non-positive eigenvalue")
    return _sandwich_e(linalg.invert(shifted))


def convert(k: GaussianKernel, target: str) -> GaussianKernel:
    """Convert a kernel to the target representation."""
    if target not in KINDS:
        raise ValueError(f"target must be one of {KINDS}, got {target!r}")
    if target == k.kind:
        return k
    return GaussianKernel(target, _from_c(_to_c(k), target))


def c_kernel(entries) -> GaussianKernel:
    """Build a C kernel straight from matrix entries."""
    return GaussianKernel("C", SymMatrix(entries))
