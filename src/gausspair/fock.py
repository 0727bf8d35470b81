"""Truncated Fock-space oracle: rebuild a Gaussian kernel's Fock amplitudes and re-derive every verdict numerically.

The generating function of G = sqrt(det Q) :exp(-a^dag Q a / 2): is

    sum_jk G_jk alpha*^j beta^k / sqrt(j! k!) = sqrt(det Q) exp(x^T B x / 2)

over x = (alpha1*, alpha2*, beta1, beta2), the matrix's own index order: the exponent alpha*.beta - s^dag Q s / 2, s =
(beta1, alpha1*, beta2, alpha2*), is x^T B x / 2 with B = S - Q~, S = [[0, I], [I, 0]], where Q~_ij = Q[r_i, r_j ^ 1],
r = (0, 2, 1, 3) ((0, 1) for one mode), holds the entries of s^dag and s in x's order: Q's normal form is exactly
T-symmetric, Q_ab = Q[b ^ 1, a ^ 1], so Q~ is exactly symmetric as read.  So G_jk is the amplitude A_k = sqrt(det Q)
sqrt(k!) [x^k] exp(x^T B x / 2), k = (j1, j2, k1, k2), and the Gaussian Fock-amplitude recurrence (Miatto & Quesada,
Quantum 4, 366 (2020)) builds each one from lower orders: sqrt(k_0 + 1) A_{k+e_0} = sum_j B_0j sqrt(k_j) A_{k-e_j}.
Seeded with A_0 = sqrt(det Q), it fills a C-ordered (j1, j2, k1, k2) tensor, G's entries in row-major order.  Entries
of B within band(max|B|, 1) are the round-off of the conversion to Q and are set to zero, so that B's exact zeros
survive it.  Each component of B's coupling graph, with alpha_i* and beta_i joined (``_laws``), gives a law that every
term, and so every nonzero entry, keeps: a charge c.k = 0 (n1 - n2 for `mixed_epr`) where it is bipartite with no
self-coupling, else an even c.k.  An index's class is its row's share of each law's value: the matrix is
block-diagonal over the classes, and the partial transpose swaps the roles of alpha1* and beta1.  Where the last
variable carries a charge, the recurrence runs on that sector with the last axis dropped.  The operator holds the
filled tensor and reads it through an index map, which sends an entry between two classes to a stored zero; the dense
``matrix`` is formed only when read.  Spectra are solved on the classes, packed into bins the size of the largest, one
batched solve per bin size.  Real kernels give real eigenproblems.  Moments are shifted diagonal sums.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
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
    """Truncated Fock matrix of a Gaussian operator, held as its amplitudes; ``matrix`` is formed on each read."""

    modes: int
    cutoff: int
    amplitudes: np.ndarray  # the tensor ``_amplitudes`` fills, flat, then one stored zero
    laws: tuple[tuple[tuple[int, ...], bool], ...]  # ``_laws`` of B; the first, a charge, drops the tensor's last axis
    roles: tuple[int, ...]  # the tensor's axis of each row index, then of each column index

    @property
    def matrix(self) -> np.ndarray:
        rows = np.arange((self.cutoff + 1) ** self.modes)
        return _take(self, rows[:, None], rows)

    @functools.cached_property
    def truncation_loss(self) -> float:
        rows = np.arange((self.cutoff + 1) ** self.modes)
        return 1.0 - float(_take(self, rows, rows).sum().real)


def _laws(b: np.ndarray) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """Per component of the graph of b_ij != 0, with each pair alpha_i*, beta_i joined (so a law's row and column shares
    agree), last variables first: (c, True), c = +-1 by side of a 2-colouring and 1 at its last variable, where it is
    bipartite with no self-coupling, else (1 on it, False); 0 off it.  The graph of ``from_kernel``'s B is closed under
    the swap of alpha_i* and beta_i already: Q's normal form is Hermitian, so B_(swap i)(swap j) = conj(B_ij)."""
    n, coupled, side, laws = len(b), (b != 0).tolist(), [0] * len(b), []
    swap = [(i + n // 2) % n for i in range(n)]
    for last in (i for i in reversed(range(n)) if not side[i]):  # each component's last variable
        side[last], todo, charged = 1, [last], True
        for i in todo:  # breadth first: todo grows while it is walked
            for j in range(n):
                if coupled[i][j] or j == swap[i]:  # a coupling or the pair
                    charged &= side[j] != side[i]  # false at a self-coupling (j = i) or an odd cycle
                    todo += [j] * (not side[j])  # j is reached for the first time
                    side[j] = side[j] or -side[i]
        laws.append((tuple((side[i] if charged else 1) * (i in todo) for i in range(n)), charged))
    return tuple(laws)


@functools.lru_cache
def _sector(d: int, charge: tuple[int, ...]) -> np.ndarray:
    """sqrt(k_l) over the indices ``_amplitudes`` stores with ``charge``, k_l = -sum_(i<l) c_i k_i, where k_l lies in
    [0, d) and 0 elsewhere; read-only, shared by every build at (d, charge)."""
    last = -np.tensordot(charge[:-1], np.indices((d,) * (len(charge) - 1)), 1)
    root = np.sqrt(np.where((last >= 0) & (last < d), last, 0))
    root.setflags(write=False)
    return root


def _amplitudes(b: np.ndarray, d: int, seed: float, charge: tuple | None = None, out: np.ndarray | None = None):
    """seed * A_k, A_k = sqrt(k!) [x^k] exp(x^T b x / 2), for every k with entries < d, filled in place into ``out`` or
    a new flat array, returned with one stored zero after it: along the first index, each slab from the two below it,
    the k_0 = 0 slab the same problem over the other variables.  With a ``charge`` c every nonzero A_k has c.k = 0, so
    the last index k_l = -sum_(i<l) c_i k_i is not stored, and b_0l's term is a shift along the first axis alone."""
    axes = len(b) - (charge is not None)
    flat = np.zeros(d**axes + 1, dtype=b.dtype) if out is None else None
    a = flat[:-1].reshape((d,) * axes) if out is None else out
    if axes == 0:
        a[...] = seed
        return flat
    root = np.sqrt(np.arange(d))
    _amplitudes(b[1:, 1:], d, seed, charge and charge[1:], a[0, ...])
    # b_0j sqrt(k_j) A_{k-e_j} / sqrt(k_0 + 1): a shift up axis j for each j that b couples, row k_0 of a[:-1] to a[1:]
    up, down, whole = slice(1, None), slice(None, -1), (slice(None),)
    shifts = [(a[(up,) + whole * j + (up,)], a[(down,) + whole * j + (down,)],
               (b[0, j + 1] * root[1:] / root[1:, None]).reshape((d - 1, -1) + (1,) * (axes - 2 - j)))
              for j in np.flatnonzero(b[0, 1:axes])]
    if axes < len(b) and b[0, -1]:  # b_0l sqrt(k_l) / sqrt(k_0 + 1), zero where k_l is outside [0, d)
        coef = (b[0, -1] * _sector(d, charge))[1:] / root[1:].reshape((-1,) + (1,) * (axes - 1))
        shifts.append((a[up], a[down], coef))
    diag = (b[0, 0] * root[:-1] / root[1:]).tolist()
    for k in range(d - 1):
        if diag[k]:
            np.multiply(a[k - 1], diag[k], out=a[k + 1, ...])
        for hi, lo, coef in shifts:
            view = hi[k, ...]  # a view, also where a slab is one entry
            view += coef[k, ...] * lo[k, ...]  # 0-d arrays for a one-entry slab: numpy scalars round otherwise
    return flat


def from_kernel(k: GaussianKernel, cutoff: int = DEFAULT_CUTOFF, strict: bool = True) -> FockOperator:
    """Truncated Fock operator of the Gaussian operator behind any kernel, holding the amplitudes it is built from."""
    if cutoff < 4 or (cutoff + 1) ** (2 * k.modes) > MAX_ENTRIES:
        raise ValueError(f"cutoff must be at least 4 and (cutoff + 1)^(2 modes) at most {MAX_ENTRIES}")
    kq = convert(k, "Q")
    q, det_q, modes = kq.matrix, kq.det, k.modes
    axes = [*range(0, 2 * modes, 2), *range(1, 2 * modes, 2)]  # x = (alpha1*, alpha2*, beta1, beta2)
    b = np.roll(np.eye(2 * modes), modes, axis=1) - q[np.ix_(axes, axes[modes:] + axes[:modes])]  # S - Q~, symmetric
    b[np.abs(b) <= band(np.abs(b).max(), 1)] = 0.0
    b = b if b.imag.any() else b.real
    laws = _laws(b)  # the first is the last variable's: a charge there drops the tensor's last axis
    a = _amplitudes(b, cutoff + 1, math.sqrt(det_q), laws[0][0] if laws[0][1] else None)
    op = FockOperator(modes, cutoff, a, laws, tuple(range(2 * modes)))  # (j1, j2, k1, k2) roles
    if strict and op.truncation_loss > LOSS_THRESHOLD:
        raise CutoffTooSmallError(f"truncation loss {op.truncation_loss:.2e} exceeds {LOSS_THRESHOLD}")
    return op


def _bins(lab: np.ndarray) -> list[np.ndarray]:
    """The blocks labelled ``lab`` packed into bins the size of the largest block, as index arrays, one (bins, size)
    array per bin size.  Bin h takes the largest block left, h, then the smallest blocks left while the bin's size stays
    within the largest block's; on a diagonal pattern every bin is one block of size 1, and they form one stack."""
    count = np.bincount(lab, minlength=len(lab))  # count[r]: size of the block labelled r
    blocks = np.argsort(count)[: -np.count_nonzero(count) - 1 : -1]  # largest first
    sizes = count[blocks].tolist()
    owner, fill, hi, lo = list(range(len(sizes))), sizes.copy(), 0, len(sizes)  # block b lies in bin owner[b]
    while hi < lo:  # blocks [hi, lo) are left: bin hi holds block hi, then takes blocks lo - 1, lo - 2, ... that fit
        while lo - 1 > hi and fill[hi] + sizes[lo - 1] <= sizes[0]:
            lo -= 1
            fill[hi] += sizes[lo]
            owner[lo] = hi
        hi += 1
    key_of = np.empty(len(lab), dtype=np.intp)  # a bin's key: its size fill[h] * len(lab) + its number h
    key_of[blocks] = [fill[h] * len(lab) + h for h in owner]
    order, stacks, start = np.argsort(key_of[lab], kind="stable"), [], 0  # bins of one size side by side
    for size, run in itertools.groupby(sorted(fill[:hi])):  # the bin sizes, ascending
        stacks.append(order[start : (start := start + size * len(list(run)))].reshape(-1, size))
    return stacks


@functools.lru_cache
def _index(d: int, modes: int, laws: tuple, roles: tuple[int, ...]) -> tuple:
    """The class of each index, its value of every law's row share (a parity's mod 2), labelled by the class's lowest
    index; the classes' bins (``_bins``); and each row's and column's share of the flat held index: its digits times
    the strides of the held axes that their roles name, where a sector's last axis has stride 0."""
    digits = np.indices((d,) * modes).reshape(modes, -1)
    values = np.array([np.take(c, roles[:modes]) for c, _ in laws]) @ digits
    values[[not charged for _, charged in laws]] %= 2
    cls = np.unique(values, axis=1, return_inverse=True)[1].ravel()
    lab = np.unique(cls, return_index=True)[1][cls]
    strides = d ** np.arange(2 * modes - 1, -1, -1) // d ** laws[0][1]
    return lab, _bins(lab), *(strides[list(r)] @ digits for r in (roles[:modes], roles[modes:]))


def _take(f: FockOperator, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """f's entries at rows r and columns c (broadcast): held where they share a class, else the stored zero."""
    lab, _, row, col = _index(f.cutoff + 1, f.modes, f.laws, f.roles)
    return f.amplitudes.take(np.where(lab[r] == lab[c], row[r] + col[c], len(f.amplitudes) - 1))


def _blocks(f: FockOperator) -> list[np.ndarray]:
    """f gathered into the bins of its classes, hermitized, and real where it is real, one stack per bin size."""
    stacks = [_take(f, i[:, :, None], i[:, None, :]) for i in _index(f.cutoff + 1, f.modes, f.laws, f.roles)[1]]
    herm = [0.5 * (b + b.conj().swapaxes(1, 2)) for b in stacks]
    return [b if np.iscomplexobj(b) and b.imag.any() else b.real for b in herm]


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
    """Index swap (m1 m2, n1 n2) -> (n1 m2, m1 n2) on a two-mode operator: alpha1* and beta1 swap roles, no copy."""
    if f.modes != 2:
        raise WrongModeCountError("partial transpose needs two modes")
    return dataclasses.replace(f, roles=tuple(f.roles[i] for i in (2, 1, 0, 3)))


def trace_power(f: FockOperator, k: int) -> float:
    """Tr G^k of the (hermitized) truncated matrix: the sum of the k-th powers of its spectrum."""
    return float(np.sum(spectrum(f) ** k))


def alternating_trace(f: FockOperator) -> float:
    """Tr{2^modes (-1)^(total occupation) G}: the Wigner function value at the origin."""
    d = f.cutoff + 1
    signs, rows = (-1.0) ** np.arange(d), np.arange(d**f.modes)
    weights = functools.reduce(np.multiply.outer, [signs] * f.modes).ravel()
    return float(2**f.modes * np.dot(weights, _take(f, rows, rows).real))


def reconstructed_moments(f: FockOperator) -> dict[str, complex]:
    """Second moments recomputed from the truncated matrix, each a weighted sum over one diagonal, the column shifted
    by s: n1 = sum j1 G_(j1 j2)(j1 j2), m1 = -sum sqrt(j1 (j1 - 1)) G_(j1 j2)(j1-2, j2), ms = sum sqrt(j1 (j2 + 1))
    G_(j1 j2)(j1-1, j2+1), mc = -sum sqrt(j1 j2) G_(j1 j2)(j1-1, j2-1), and n2, m2 as n1, m1 on mode 2.  A weight is
    zero where the column leaves the box, so the column index may wrap there."""
    d, rows = f.cutoff + 1, np.arange((f.cutoff + 1) ** f.modes)
    occ, ones = np.arange(d), np.ones(d)
    root, two, up = np.sqrt(occ), -np.sqrt(occ * (occ - 1)), np.sqrt(np.append(occ[1:], 0))  # a, -a^2 and a^dag
    terms = {"n": (0, occ, [1.0]), "m": (2, two, [1.0])} if f.modes == 1 else {  # s and the weights of j1 and j2
        "n1": (0, occ, ones), "n2": (0, ones, occ), "m1": (2 * d, two, ones), "m2": (2, ones, two),
        "ms": (d - 1, root, up), "mc": (d + 1, -root, root)}
    shifts, left, right = map(np.array, zip(*terms.values()))
    g = _take(f, rows, rows - shifts[:, None]).reshape(len(terms), d, -1)
    return dict(zip(terms, map(complex, (left[:, None] @ g @ right[:, :, None]).ravel())))
