"""Truncated Fock-space oracle: rebuild a Gaussian kernel as an explicit matrix
and re-derive every verdict numerically.

Matrix elements come from the coherent-state generating function of the
normally ordered form G = sqrt(det Q) :exp(-a^dag Q a / 2):.  Writing the
exponent in the eigen-variables (alpha*, beta) gives

    sum_jk G_jk alpha*^j beta^k / sqrt(j! k!)
        = sqrt(det Q) exp(alpha* . beta - s^dag Q s / 2)

with s = (beta_1, alpha*_1, beta_2, alpha*_2).  The right-hand side is the
exponential of a quadratic polynomial, expanded exactly (up to round-off) by
iterated truncated polynomial products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, WrongModeCountError
from .kernels import GaussianKernel, convert

DEFAULT_CUTOFF = 16
LOSS_THRESHOLD = 1e-4
DEAD_BAND = 1e-5  # oracle eigenvalues this close to zero decide nothing


@dataclass(frozen=True)
class FockOperator:
    """Hermitian truncated matrix of a Gaussian operator in the Fock basis."""

    modes: int
    cutoff: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.modes

    @property
    def truncation_loss(self) -> float:
        return 1.0 - float(np.trace(self.matrix).real)


def _quadratic_terms(q: np.ndarray, modes: int) -> dict[tuple[int, ...], complex]:
    """Monomials of alpha*.beta - s^dag Q s / 2 as exponent-tuple -> coefficient.

    Exponent tuples are (j1, k1) for one mode and (j1, k1, j2, k2) for two,
    with j the alpha* power and k the beta power.
    """
    nvars = 2 * modes

    def unit(var: int) -> tuple[int, ...]:
        e = [0] * nvars
        e[var] = 1
        return tuple(e)

    # variable index per matrix slot: rows follow (alpha1*, beta1, alpha2*, beta2),
    # columns follow (beta1, alpha1*, beta2, alpha2*)
    row_var = [0, 1, 2, 3][: 2 * modes]
    col_var = [1, 0, 3, 2][: 2 * modes]

    terms: dict[tuple[int, ...], complex] = {}

    def add(exp: tuple[int, ...], coeff: complex):
        if abs(coeff) == 0.0:
            return
        terms[exp] = terms.get(exp, 0.0) + coeff

    for mode in range(modes):
        add(tuple(np.add(unit(2 * mode), unit(2 * mode + 1))), 1.0)
    for a in range(2 * modes):
        for b in range(2 * modes):
            exp = tuple(np.add(unit(row_var[a]), unit(col_var[b])))
            add(exp, -0.5 * complex(q[a, b]))
    return terms


def _exp_poly(terms: dict[tuple[int, ...], complex], cutoff: int, modes: int) -> np.ndarray:
    """exp of a quadratic polynomial, truncated to per-variable degree <= cutoff."""
    nvars = 2 * modes
    shape = (cutoff + 1,) * nvars
    total = np.zeros(shape, dtype=complex)
    total[(0,) * nvars] = 1.0
    power = total.copy()
    max_order = modes * cutoff  # every monomial has degree 2; higher powers truncate away
    for t in range(1, max_order + 1):
        nxt = np.zeros(shape, dtype=complex)
        for exp, coeff in terms.items():
            src = tuple(slice(0, cutoff + 1 - e) for e in exp)
            dst = tuple(slice(e, cutoff + 1) for e in exp)
            nxt[dst] += coeff * power[src]
        power = nxt / t
        total += power
        if not np.any(power):
            break
    return total


def from_kernel(k: GaussianKernel, cutoff: int = DEFAULT_CUTOFF, strict: bool = True) -> FockOperator:
    """Truncated Fock matrix of the Gaussian operator behind any kernel."""
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4")
    q = convert(k, "Q").matrix
    modes = k.modes
    det_q = float(np.linalg.det(q).real)
    coeff = _exp_poly(_quadratic_terms(q, modes), cutoff, modes)

    # math.sqrt handles the arbitrary-precision factorials that overflow int64
    root_fact = np.array([math.sqrt(math.factorial(j)) for j in range(cutoff + 1)])
    if modes == 1:
        mat = coeff * np.outer(root_fact, root_fact)
    else:
        # coeff axes are (j1, k1, j2, k2); reorder to (j1, j2, k1, k2) and flatten
        scale = (
            root_fact[:, None, None, None]
            * root_fact[None, :, None, None]
            * root_fact[None, None, :, None]
            * root_fact[None, None, None, :]
        )
        mat = (coeff.transpose(0, 2, 1, 3) * scale).reshape(
            (cutoff + 1) ** 2, (cutoff + 1) ** 2
        )
    mat = math.sqrt(det_q) * mat
    op = FockOperator(modes=modes, cutoff=cutoff, matrix=mat)
    if strict and op.truncation_loss > LOSS_THRESHOLD:
        raise CutoffTooSmallError(
            f"truncation loss {op.truncation_loss:.2e} exceeds {LOSS_THRESHOLD}"
        )
    return op


def spectrum(f: FockOperator) -> np.ndarray:
    """Eigenvalues of the (hermitized) truncated matrix, descending."""
    h = 0.5 * (f.matrix + f.matrix.conj().T)
    return np.linalg.eigvalsh(h)[::-1]


def agreement(min_eig: float, positive: bool, min_ppt=None, separable=None) -> tuple[bool, bool]:
    """(agree, indeterminate) of the oracle's smallest eigenvalues against the
    closed-form verdicts.  An eigenvalue outside ``DEAD_BAND`` must carry the
    verdict's sign; one inside decides nothing.  The partial-transpose pair is
    compared only when both of its values are given."""
    pairs = [(min_eig, positive)]
    if min_ppt is not None and separable is not None:
        pairs.append((min_ppt, separable))
    agree = all(abs(eig) <= DEAD_BAND or (eig > 0) == verdict for eig, verdict in pairs)
    return agree, any(abs(eig) <= DEAD_BAND for eig, _ in pairs)


def partial_transpose_fock(f: FockOperator) -> FockOperator:
    """Index swap (m1 m2, n1 n2) -> (n1 m2, m1 n2) on a two-mode operator."""
    if f.modes != 2:
        raise WrongModeCountError("partial transpose needs two modes")
    d = f.cutoff + 1
    four = f.matrix.reshape(d, d, d, d)  # (m1, m2, n1, n2)
    return FockOperator(modes=2, cutoff=f.cutoff, matrix=four.transpose(2, 1, 0, 3).reshape(d * d, d * d))


def trace_power(f: FockOperator, k: int) -> float:
    """Tr G^k of the truncated matrix."""
    return float(np.trace(np.linalg.matrix_power(f.matrix, k)).real)


def alternating_trace(f: FockOperator) -> float:
    """Tr{2^modes (-1)^(total occupation) G}: the Wigner function value at the origin."""
    d = f.cutoff + 1
    signs = (-1.0) ** np.arange(d)
    diag = np.diagonal(f.matrix).real
    if f.modes == 1:
        weights = signs
    else:
        weights = np.outer(signs, signs).reshape(d * d)
    return float(2**f.modes * np.dot(weights, diag))


def _ladder(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff + 1, cutoff + 1))
    for n in range(1, cutoff + 1):
        a[n - 1, n] = math.sqrt(n)
    return a


def reconstructed_moments(f: FockOperator) -> dict[str, complex]:
    """Second moments recomputed from the truncated matrix."""
    a = _ladder(f.cutoff)
    if f.modes == 1:
        return {
            "n": complex(np.trace(a.T @ a @ f.matrix)),
            "m": complex(-np.trace(a @ a @ f.matrix)),
        }
    eye = np.eye(f.cutoff + 1)
    a1 = np.kron(a, eye)
    a2 = np.kron(eye, a)
    g = f.matrix
    return {
        "n1": complex(np.trace(a1.conj().T @ a1 @ g)),
        "n2": complex(np.trace(a2.conj().T @ a2 @ g)),
        "m1": complex(-np.trace(a1 @ a1 @ g)),
        "m2": complex(-np.trace(a2 @ a2 @ g)),
        "ms": complex(np.trace(a1 @ a2.conj().T @ g)),
        "mc": complex(-np.trace(a1 @ a2 @ g)),
    }
