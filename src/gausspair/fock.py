"""Truncated Fock-space oracle: rebuild a Gaussian kernel as an explicit matrix
and re-derive every verdict numerically.

The generating function of G = sqrt(det Q) :exp(-a^dag Q a / 2): is

    sum_jk G_jk alpha*^j beta^k / sqrt(j! k!) = sqrt(det Q) exp(x^T B x / 2)

over x = (alpha1*, alpha2*, beta1, beta2), the matrix's own index order: the exponent
alpha*.beta - s^dag Q s / 2, s = (beta1, alpha1*, beta2, alpha2*), is x^T B x / 2 with
B = S - (Q~ + Q~^T) / 2, where Q~ holds rows (0, 2, 1, 3) and columns (1, 3, 0, 2) of Q (rows
(0, 1) and columns (1, 0) for one mode), the entries of s^dag and s in x's order, and
S = [[0, I], [I, 0]].  So G_jk is the amplitude A_k = sqrt(det Q) sqrt(k!) [x^k] exp(x^T B x / 2),
k = (j1, j2, k1, k2), and the Gaussian Fock-amplitude recurrence (Miatto & Quesada, Quantum 4,
366 (2020)) builds each one from lower orders: sqrt(k_0 + 1) A_{k+e_0} = sum_j B_0j sqrt(k_j) A_{k-e_j}.
Seeded with A_0 = sqrt(det Q), it fills a C-ordered (j1, j2, k1, k2) tensor that is the matrix itself.
Every exponent term has degree 2, so entries with odd total index are exactly zero, and the
zeros of B that come from a conserved quantity (n1 - n2 for `mixed_epr`, n1 + n2 for its
partial transpose) zero many more; entries of B within band(max|B|, 1) are the round-off of
the conversion to Q and are set to zero, so that these zeros survive it.  Spectra and traces
of powers are taken over the connected components of the exact nonzero pattern, blocks of one
size in one batched solve: a permutation makes the matrix block-diagonal, so nothing is
dropped or rounded away.  A real B is kept real, so real kernels give real matrices and real
eigenproblems.  Moments are diagonal sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, WrongModeCountError
from .kernels import GaussianKernel, convert
from .linalg import band

DEFAULT_CUTOFF = 16
LOSS_THRESHOLD = 1e-4
DEAD_BAND = 1e-5  # oracle eigenvalues this close to zero decide nothing
MAX_ENTRIES = 2**21  # largest (cutoff + 1)^(2 modes): 32 MB of complex amplitudes; two-mode cutoff 37


@dataclass(frozen=True)
class FockOperator:
    """Hermitian truncated matrix of a Gaussian operator in the Fock basis."""

    modes: int
    cutoff: int
    matrix: np.ndarray

    @property
    def truncation_loss(self) -> float:
        return 1.0 - float(np.trace(self.matrix).real)


def _amplitudes(b: np.ndarray, d: int, seed: float) -> np.ndarray:
    """seed * A_k, A_k = sqrt(k!) [x^k] exp(x^T b x / 2), for every k with entries < d, filled in
    place along the first index, each slab from the two below it; the k_0 = 0 slab is the same
    problem over the other variables."""
    if len(b) == 0:
        return np.full((), seed, dtype=b.dtype)
    root = np.sqrt(np.arange(d))
    a = np.zeros((d,) * len(b), dtype=b.dtype)
    a[0] = _amplitudes(b[1:, 1:], d, seed)
    # b_0j sqrt(k_j) A_{k-e_j}: a shift one step up axis j, for each j that b couples (a zero adds nothing)
    shifts = [((slice(None),) * j + (slice(1, None),), (slice(None),) * j + (slice(None, -1),),
               b[0, j + 1] * root[1:].reshape((-1,) + (1,) * (len(b) - 2 - j))) for j in np.flatnonzero(b[0, 1:])]
    for k in range(d - 1):
        lo, hi = a[k, ...], a[k + 1, ...]  # views, also where a slab is one entry
        if b[0, 0] and k:
            np.multiply(a[k - 1], b[0, 0] * root[k] / root[k + 1], out=hi)
        for dst, src, coef in shifts:
            hi[dst] += coef / root[k + 1] * lo[src]
    return a


def from_kernel(k: GaussianKernel, cutoff: int = DEFAULT_CUTOFF, strict: bool = True) -> FockOperator:
    """Truncated Fock matrix of the Gaussian operator behind any kernel."""
    if cutoff < 4 or (cutoff + 1) ** (2 * k.modes) > MAX_ENTRIES:
        raise ValueError(f"cutoff must be at least 4 and (cutoff + 1)^(2 modes) at most {MAX_ENTRIES}")
    kq = convert(k, "Q")
    q, det_q, modes = kq.matrix, kq.det, k.modes
    axes = [*range(0, 2 * modes, 2), *range(1, 2 * modes, 2)]  # x = (alpha1*, alpha2*, beta1, beta2)
    q_x = q[np.ix_(axes, axes[modes:] + axes[:modes])]
    b = np.roll(np.eye(2 * modes), modes, axis=1) - 0.5 * (q_x + q_x.T)
    b[np.abs(b) <= band(np.abs(b).max(), 1)] = 0.0
    if not b.imag.any():
        b = b.real
    dim = (cutoff + 1) ** modes
    mat = _amplitudes(b, cutoff + 1, math.sqrt(det_q)).reshape(dim, dim)  # (j1, j2, k1, k2) is matrix order
    op = FockOperator(modes=modes, cutoff=cutoff, matrix=mat)
    if strict and op.truncation_loss > LOSS_THRESHOLD:
        raise CutoffTooSmallError(f"truncation loss {op.truncation_loss:.2e} exceeds {LOSS_THRESHOLD}")
    return op


def _blocks(f: FockOperator) -> list[np.ndarray]:
    """The hermitized diagonal blocks of the matrix, one stack per block size.

    Blocks are the connected components of the exact nonzero pattern of G and G^T; every
    entry between two of them is zero.  Each index is labelled with the lowest index its row
    touches; while a nonzero entry still joins two labels, every index takes the lowest
    label among its neighbours in its row and in its column."""
    m = f.matrix
    touch = m != 0
    nonzero = np.count_nonzero(touch)
    np.fill_diagonal(touch, True)
    lab = touch.argmax(axis=1)
    while True:
        count = np.bincount(lab, minlength=len(m))  # count[r]: size of the block labelled r
        by_block = np.argsort(lab, kind="stable")
        block_size = count[lab[by_block]]
        stacks = []
        for size in np.flatnonzero(np.bincount(count)[1:]) + 1:
            idx = by_block[block_size == size].reshape(-1, size)
            stacks.append(m[idx[:, :, None], idx[:, None, :]])
        if sum(np.count_nonzero(b) for b in stacks) == nonzero:
            break
        touch |= touch.T
        lab = np.where(touch, lab, len(m)).min(axis=1)
    herm = [0.5 * (b + b.conj().swapaxes(1, 2)) for b in stacks]
    return [b if b.imag.any() else b.real for b in herm]


def spectrum(f: FockOperator) -> np.ndarray:
    """Eigenvalues of the (hermitized) truncated matrix, descending."""
    eigs = np.concatenate([np.linalg.eigvalsh(b).ravel() for b in _blocks(f)])
    return np.sort(eigs)[::-1]


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


def compare(k: GaussianKernel, positive: bool, separable=None, cutoff: int = DEFAULT_CUTOFF, strict: bool = True) -> dict:
    """The oracle's side of a cross-check, as the CLI reports it: build the truncated operator
    of ``k``, take its spectrum and, for two modes, that of its partial transpose, and hold
    their smallest eigenvalues against the closed-form verdicts with ``agreement``."""
    op = from_kernel(k, cutoff, strict)
    eigs = spectrum(op)
    oracle = {"min_eig": float(eigs[-1]), "trace": float(eigs.sum()), "trace_g2": float(eigs @ eigs)}
    if op.modes == 2:
        oracle["min_ppt_eig"] = float(spectrum(partial_transpose_fock(op))[-1])
    agree, indeterminate = agreement(oracle["min_eig"], positive, oracle.get("min_ppt_eig"), separable)
    return {"oracle": oracle, "agree": agree, "indeterminate": indeterminate, "truncation_loss": op.truncation_loss}


def partial_transpose_fock(f: FockOperator) -> FockOperator:
    """Index swap (m1 m2, n1 n2) -> (n1 m2, m1 n2) on a two-mode operator."""
    if f.modes != 2:
        raise WrongModeCountError("partial transpose needs two modes")
    d = f.cutoff + 1
    four = f.matrix.reshape(d, d, d, d)  # (m1, m2, n1, n2)
    return FockOperator(modes=2, cutoff=f.cutoff, matrix=four.transpose(2, 1, 0, 3).reshape(d * d, d * d))


def trace_power(f: FockOperator, k: int) -> float:
    """Tr G^k of the (hermitized) truncated matrix: the sum of the k-th powers of its spectrum."""
    return float(np.sum(spectrum(f) ** k))


def alternating_trace(f: FockOperator) -> float:
    """Tr{2^modes (-1)^(total occupation) G}: the Wigner function value at the origin."""
    d = f.cutoff + 1
    signs = (-1.0) ** np.arange(d)
    diag = np.diagonal(f.matrix).real
    weights = signs if f.modes == 1 else np.outer(signs, signs).reshape(d * d)
    return float(2**f.modes * np.dot(weights, diag))


def reconstructed_moments(f: FockOperator) -> dict[str, complex]:
    """Second moments recomputed from the truncated matrix, each a weighted sum over one
    shifted diagonal: n1 = sum n1 G_(n1 n2)(n1 n2), m1 = -sum sqrt(j1 (j1 - 1)) G_(j1 j2)(j1-2, j2),
    ms = sum sqrt(j1 (j2 + 1)) G_(j1 j2)(j1-1, j2+1), mc = -sum sqrt(j1 j2) G_(j1 j2)(j1-1, j2-1).
    The local moments are those of the reduced one-mode matrices."""
    d = f.cutoff + 1
    occ = np.arange(d)
    root = np.sqrt(occ[1:])  # <j-1| a |j> for j >= 1

    def n_and_m(g: np.ndarray) -> tuple[complex, complex]:
        return complex(occ @ np.diagonal(g)), complex(-(root[1:] * root[:-1]) @ np.diagonal(g, -2))

    if f.modes == 1:
        n, m = n_and_m(f.matrix)
        return {"n": n, "m": m}
    four = f.matrix.reshape(d, d, d, d)  # (j1, j2, k1, k2): row (j1, j2), column (k1, k2)
    (n1, m1), (n2, m2) = n_and_m(np.einsum("ijkj->ik", four)), n_and_m(np.einsum("ijil->jl", four))
    lo, hi = slice(None, -1), slice(1, None)
    ms = complex(root @ np.einsum("ijij->ij", four[hi, lo, lo, hi]) @ root)
    mc = complex(-root @ np.einsum("ijij->ij", four[hi, hi, lo, lo]) @ root)
    return {"n1": n1, "n2": n2, "m1": m1, "m2": m2, "ms": ms, "mc": mc}
