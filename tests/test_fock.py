import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import assert_close, random_one_mode, random_two_mode
from test_twomode import K_STAR
from gausspair import fock, onemode, states, twomode
from gausspair.errors import CutoffTooSmallError, WrongModeCountError
from gausspair.kernels import convert, partial_transpose
from gausspair.onemode import OneModeMoments


def one_mode_kernel(n, m=0.0):
    return onemode.build_C(OneModeMoments(n, m))


COMPLEX_TWO_MODE = twomode.TwoModeMoments(
    n1=0.7, n2=0.4, m1=0.1 + 0.05j, m2=-0.08 + 0.06j, ms=0.12 - 0.07j, mc=0.2 + 0.15j
)
COMPLEX_ONE_MODE = OneModeMoments(0.6, 0.3 + 0.25j)
KERNELS = {
    "mixed_epr": lambda: states.mixed_epr(0.8, 1.0),
    "anti_epr": lambda: states.anti_epr(0.9, 0.5, 0.3),
    "squeezed_epr": lambda: states.squeezed_epr(0.7, 0.4, 0.3),
    "product_thermal": lambda: twomode.product_thermal_kernel(1.0 / 3.0, -1.0 / 3.0),
    "complex_two_mode": lambda: twomode.build_C2(COMPLEX_TWO_MODE),
    "complex_one_mode": lambda: onemode.build_C(COMPLEX_ONE_MODE),
}
KSTAR = twomode.build_C2(K_STAR)
PARTIAL_TRANSPOSE_KERNELS = {
    **{name: KERNELS[name] for name in ("mixed_epr", "anti_epr", "squeezed_epr")},
    "k_star": lambda: KSTAR,
    "product": lambda: twomode.build_C2(twomode.TwoModeMoments(n1=0.5, n2=0.2)),
}
# mixed_epr points whose conversion to Q leaves round-off where B has exact zeros
ROUND_OFF_POINTS = [(0.6735727653444255, 0.967023070269148), (0.7594238572792352, 0.92208927381045),
                    (0.5661268429308703, 0.7260394427217898)]
# kernels whose B conserves a charge, so that from_kernel builds their charge sector
CHARGED = {
    "mixed_epr": KERNELS["mixed_epr"],
    "product_thermal": KERNELS["product_thermal"],
    "product": lambda: twomode.build_C2(twomode.TwoModeMoments(n1=0.5, n2=0.2)),
    "one_mode_thermal": lambda: one_mode_kernel(0.6),
    **{f"round_off_{i}": lambda n=n, mc=mc: states.mixed_epr(n, mc) for i, (n, mc) in enumerate(ROUND_OFF_POINTS)},
}


def hermitized(op):
    return 0.5 * (op.matrix + op.matrix.conj().T)


# the oracle plan's kinds of check, one kernel each
ORACLE_KINDS = {
    "one_mode_nonpositive": lambda: one_mode_kernel(0.5, math.sqrt(0.75) + 0.8 * (1.0 - math.sqrt(0.75))),
    "one_mode_random": lambda: one_mode_kernel(1.3, 0.6 * 1.8 * cmath.exp(2.1j)),
    "two_mode_random": lambda: twomode.build_C2(random_two_mode(np.random.default_rng(7), coupling=0.3, n_hi=1.0)),
    "epr_band": lambda: states.mixed_epr(0.7, 0.7 + 0.5 * (math.sqrt(0.7 * 1.7) - 0.7)),
}
# a charge on one mode and a parity on the other: held as the sector where the charge is the last variable's
MIXED_LAWS = {
    "thermal_and_squeezed": lambda: twomode.build_C2(twomode.TwoModeMoments(n1=0.5, n2=0.3, m2=0.2)),
    "squeezed_and_thermal": lambda: twomode.build_C2(twomode.TwoModeMoments(n1=0.3, n2=0.5, m1=0.2j)),
}
REFERENCE_KERNELS = {**KERNELS, **PARTIAL_TRANSPOSE_KERNELS, **CHARGED, **ORACLE_KINDS, **MIXED_LAWS}


def classes(op):
    """The class label of each index of op, the lowest index of its class."""
    return fock._index(op.cutoff + 1, op.modes, op.laws, op.roles)[0]


def pattern_labels(m):
    """Reference for the classes: the connected components of m's exact nonzero pattern, by a graph search, each
    index labelled with the lowest index of its component."""
    pattern = (m != 0) | (m != 0).T
    lab = np.full(len(m), -1)
    for start in range(len(m)):
        if lab[start] < 0:
            lab[start], todo = start, [start]
            for i in todo:
                reached = np.flatnonzero(pattern[i] & (lab < 0))
                lab[reached] = start
                todo += reached.tolist()
    return lab


def pattern_spectrum(m):
    """Reference for ``fock.spectrum``: m's pattern components (``pattern_labels``) packed by ``fock._bins``, each bin
    gathered from m, hermitized, real where it is real, and solved."""
    stacks = [m.take(i[:, :, None] * len(m) + i[:, None, :]) for i in fock._bins(pattern_labels(m))]
    herm = [0.5 * (b + b.conj().swapaxes(1, 2)) for b in stacks]
    eigs = np.concatenate([np.linalg.eigvalsh(b if b.imag.any() else b.real).ravel() for b in herm])
    return np.sort(eigs)[::-1]


def full_recurrence(k, cutoff, monkeypatch):
    """k's dense matrix from the recurrence over every index, with no charge, no classes and no index map, and its
    partial transpose by a dense index swap."""
    b, _, seed, _ = recurrence_arguments(k, monkeypatch, cutoff)
    d = cutoff + 1
    m = fock._amplitudes(b, d, seed)[:-1].reshape(d**k.modes, d**k.modes)
    return [m] if k.modes == 1 else [m, m.reshape((d,) * 4).transpose(2, 1, 0, 3).reshape(d * d, d * d)]


def with_partial_transpose(op):
    return [op, fock.partial_transpose_fock(op)] if op.modes == 2 else [op]


def dense_moments(f):
    """Reference for ``fock.reconstructed_moments``: the ladder-operator traces on
    dense truncated matrices, a = sum sqrt(n) |n-1><n| and a1 = a (x) 1, a2 = 1 (x) a."""
    a = np.zeros((f.cutoff + 1, f.cutoff + 1))
    for n in range(1, f.cutoff + 1):
        a[n - 1, n] = math.sqrt(n)
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


class TestFromKernel:
    def test_vacuum(self):
        op = fock.from_kernel(one_mode_kernel(0.0), cutoff=8)
        want = np.zeros((9, 9))
        want[0, 0] = 1.0
        assert_close(op.matrix, want, tol=1e-12)

    def test_thermal_geometric_diagonal(self):
        op = fock.from_kernel(one_mode_kernel(0.5), cutoff=24)
        g = 1.0 / 3.0
        diag = np.diagonal(op.matrix).real
        assert_close(diag, (1 - g) * g ** np.arange(25), tol=1e-8)
        off = op.matrix - np.diag(diag)
        assert np.max(np.abs(off)) < 1e-12

    def test_pure_squeezed_is_projector(self):
        op = fock.from_kernel(one_mode_kernel(1.0, math.sqrt(2.0)), cutoff=48)
        spec = fock.spectrum(op)
        assert spec[0] == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(spec[1:])) < 1e-6

    def test_hermitian_and_trace(self):
        k = states.mixed_epr(0.9, 0.6)
        op = fock.from_kernel(k)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-10
        assert abs(op.truncation_loss) < 1e-4

    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_two_mode_squeezed_vacuum_at_cutoff_32(self, phi):
        # |psi><psi| with psi_kk = sqrt(1 - lam^2) (-lam e^{i phi})^k, lam^2 = n / (n + 1)
        n, d = 1.0, 33
        k = twomode.build_C2(
            twomode.TwoModeMoments(n1=n, n2=n, mc=math.sqrt(n * (n + 1)) * cmath.exp(1j * phi))
        )
        lam = math.sqrt(n / (n + 1))
        psi = np.zeros((d, d), dtype=complex)
        psi[range(d), range(d)] = math.sqrt(1 - lam**2) * (-lam * cmath.exp(1j * phi)) ** np.arange(d)
        want = np.outer(psi.ravel(), psi.ravel().conj())
        assert_close(fock.from_kernel(k, cutoff=32).matrix, want, tol=1e-15)

    def test_odd_total_index_is_exactly_zero(self, rng):
        # parity is one cut of the exact blocks that spectrum and trace_power solve on
        k = twomode.build_C2(random_two_mode(rng, coupling=0.4))
        d = 17
        two = fock.from_kernel(k, cutoff=d - 1, strict=False)
        one = fock.from_kernel(onemode.build_C(COMPLEX_ONE_MODE), cutoff=d - 1, strict=False)
        for op in [*with_partial_transpose(two), one]:
            parity = np.indices((d,) * op.modes).sum(axis=0).ravel() % 2
            odd = parity[:, None] != parity[None, :]
            assert np.all(op.matrix[odd] == 0)
            assert np.all(op.matrix[~odd] != 0)

    @pytest.mark.parametrize("cutoff", [16, 32])
    @pytest.mark.parametrize("name", KERNELS)
    def test_real_kernels_stay_real(self, name, cutoff, monkeypatch):
        k = KERNELS[name]()
        got = fock.from_kernel(k, cutoff=cutoff, strict=False).matrix
        if name.startswith("complex"):
            assert got.dtype == complex
            return
        assert got.dtype == float
        recurrence = fock._amplitudes
        monkeypatch.setattr(fock, "_amplitudes", lambda b, *args: recurrence(b.astype(complex), *args))
        want = fock.from_kernel(k, cutoff=cutoff, strict=False).matrix
        assert want.dtype == complex
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("name", KERNELS)
    def test_a_larger_cutoff_only_adds_entries(self, name):
        # each amplitude is built from lower indices alone, by the same operations at every cutoff:
        # the cutoff-16 matrix is the leading (j1, j2, k1, k2) box of the cutoff-24 one, bit for bit
        k = KERNELS[name]()
        axes = 2 * k.modes
        small = fock.from_kernel(k, cutoff=16, strict=False).matrix.reshape((17,) * axes)
        big = fock.from_kernel(k, cutoff=24, strict=False).matrix.reshape((25,) * axes)
        assert np.array_equal(small, big[(slice(17),) * axes])

    def test_build_peak_memory_is_about_the_held_tensor(self):
        # the operator holds the amplitude tensor the recurrence fills, the k_0 = 0 slab filled in place: no reordered
        # copy, no scaling pass, and slab-sized temporaries that add under 2/33 at cutoff 32, a slab being 1/33
        k = twomode.build_C2(COMPLEX_TWO_MODE)
        tracemalloc.start()
        try:
            op = fock.from_kernel(k, cutoff=32, strict=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1 + 2 / 33) * op.amplitudes.nbytes, peak / op.amplitudes.nbytes

    def test_a_charged_check_allocates_no_dense_matrix(self):
        # the build, both spectra and the moments of a charged kernel at cutoff 32 read the 33^3 sector through the
        # index map: the peak stays below one 33^4 matrix, and the partial transpose shares the amplitudes
        k = KERNELS["mixed_epr"]()
        tracemalloc.start()
        try:
            op = fock.from_kernel(k, cutoff=32)
            pt = fock.partial_transpose_fock(op)
            fock.spectrum(op), fock.spectrum(pt), fock.reconstructed_moments(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.amplitudes.size == 33**3 + 1 and peak < 33**4 * op.amplitudes.itemsize, peak
        assert np.shares_memory(pt.amplitudes, op.amplitudes)

    def test_cutoff_guard(self, monkeypatch):
        with pytest.raises(CutoffTooSmallError):
            fock.from_kernel(one_mode_kernel(3.0), cutoff=5)
        with pytest.raises(ValueError):
            fock.from_kernel(one_mode_kernel(0.0), cutoff=2)
        # 201^4 amplitudes are refused before the conversion or any allocation
        monkeypatch.setattr(fock, "convert", None)
        with pytest.raises(ValueError, match="at most"):
            fock.from_kernel(KERNELS["mixed_epr"](), cutoff=200)

    def test_loss_threshold(self):
        # thermal n = 2 loses 1.01e-3 of its trace at cutoff 16 and 1.5e-6 at 32: the rule is
        # loss <= fock.LOSS_THRESHOLD = 1e-4, so the first is refused and the second builds
        k = one_mode_kernel(2.0)
        with pytest.raises(CutoffTooSmallError, match="1.01e-03"):
            fock.from_kernel(k, 16)
        assert fock.from_kernel(k, 32).truncation_loss == pytest.approx(1.5e-6, rel=0.05)


def recurrence_arguments(k, monkeypatch, cutoff=8):
    """The (B, d, seed, charge) that ``from_kernel`` hands the amplitude recurrence for k."""
    calls, recurrence = [], fock._amplitudes
    with monkeypatch.context() as patch:
        patch.setattr(fock, "_amplitudes", lambda *args: calls.append(args) or recurrence(*args))
        fock.from_kernel(k, cutoff=cutoff, strict=False)
    return calls[0]


class TestChargeSector:
    @pytest.mark.parametrize(
        "name, want",
        [("mixed_epr", (1, -1, -1, 1)), ("product_thermal", (0, -1, 0, 1)), ("product", (0, -1, 0, 1)),
         ("one_mode_thermal", (-1, 1)), ("anti_epr", None), ("squeezed_epr", None), ("complex_two_mode", None),
         ("complex_one_mode", None)],
    )
    def test_charge_of_each_kernel(self, name, want, monkeypatch):
        # x = (alpha1*, alpha2*, beta1, beta2): mixed_epr conserves n1 - n2 and a product state n2; anti_epr's B has a
        # triangle, and the others couple the last variable to itself
        b, *_, charge = recurrence_arguments({**KERNELS, **CHARGED}[name](), monkeypatch)
        (last, charged), *_ = fock._laws(b)
        assert charge == (last if charged else None) == want

    @pytest.mark.parametrize(
        "name, want",
        [("mixed_epr", [((1, -1, -1, 1), True)]), ("product", [((0, -1, 0, 1), True), ((-1, 0, 1, 0), True)]),
         ("anti_epr", [((1, 1, 1, 1), False)]), ("complex_one_mode", [((1, 1), False)]),
         ("squeezed_and_thermal", [((0, -1, 0, 1), True), ((1, 0, 1, 0), False)])],
    )
    def test_every_component_gives_a_law(self, name, want, monkeypatch):
        # a product state conserves n1 and n2; anti_epr's and a complex kernel's one component keeps a parity, and a
        # squeezed mode 1 beside a thermal mode 2 keeps a parity beside n2
        b, *_ = recurrence_arguments(REFERENCE_KERNELS[name](), monkeypatch)
        assert list(fock._laws(b)) == want

    def test_a_self_coupling_leaves_a_parity(self):
        # alpha* beta and beta^2: bipartite as a graph, but beta^2 carries twice beta's charge
        assert fock._laws(np.array([[0.0, 0.2], [0.2, 0.1]])) == (((1, 1), False),)
        assert fock._laws(np.array([[0.0, 0.2], [0.2, 0.0]])) == (((-1, 1), True),)
        # the same for a variable the last one reaches, here x_2 through x_0; alpha_i* and beta_i always share a
        # component, so the last variable's charge survives a self-coupling of x_0 alone, whose component keeps a parity
        b = np.zeros((4, 4))
        b[[0, 3, 0, 2, 2], [3, 0, 2, 0, 2]] = [0.2, 0.2, 0.3, 0.3, 0.1]
        assert fock._laws(b) == (((1, 1, 1, 1), False),)
        b[:] = 0.0
        b[[1, 3, 0], [3, 1, 0]] = [0.2, 0.2, 0.1]
        assert fock._laws(b) == (((0, -1, 0, 1), True), ((1, 0, 1, 0), False))

    def test_the_laws_are_closed_under_the_swap_of_alpha_and_beta(self):
        # alpha1* beta2 and alpha2* beta1 alone: by B's own graph two charges, -j1 + k2 and -j2 + k1, whose shares of
        # a row and of a column differ; closed under the swap and with each alpha_i* beta_i joined, one charge n1 + n2
        b = np.zeros((4, 4))
        b[[0, 3, 1, 2], [3, 0, 2, 1]] = 0.5
        assert fock._laws(b) == (((-1, -1, 1, 1), True),)

    @pytest.mark.parametrize("charge", [(1, -1, -1, 1), (0, -1, 0, 1), (-1, 1)])
    def test_the_sector_root_is_the_last_index_inside_the_box(self, charge):
        # sqrt(k_l), k_l = -sum_(i<l) c_i k_i, where k_l lies in [0, d), and 0 elsewhere
        d = 9
        last = -np.tensordot(charge[:-1], np.indices((d,) * (len(charge) - 1)), 1)
        want = np.where((last >= 0) & (last < d), np.sqrt(np.abs(last)), 0.0)
        assert np.array_equal(fock._sector(d, charge), want)

    @pytest.mark.parametrize("cutoff", [8, 16, 24, 32])
    @pytest.mark.parametrize("name", CHARGED)
    def test_the_sector_build_is_the_full_recurrence_bit_for_bit(self, name, cutoff, monkeypatch):
        k = CHARGED[name]()
        assert recurrence_arguments(k, monkeypatch)[3] is not None
        got = fock.from_kernel(k, cutoff=cutoff, strict=False)
        assert got.amplitudes.size == (cutoff + 1) ** (2 * k.modes - 1) + 1  # the sector, then the stored zero
        for m, full in zip(with_partial_transpose(got), full_recurrence(k, cutoff, monkeypatch)):
            assert np.array_equal(m.matrix, full)


class TestPatternReference:
    """The classes against the route they replace: a graph search on the dense matrix's nonzero pattern, its
    components packed by ``_bins``, gathered and solved."""

    @pytest.mark.parametrize("cutoff", [8, 16, 24, 32])
    @pytest.mark.parametrize("name", REFERENCE_KERNELS)
    def test_the_classes_are_the_pattern_components_and_the_spectra_agree_bit_for_bit(self, name, cutoff, monkeypatch):
        k = REFERENCE_KERNELS[name]()
        got = with_partial_transpose(fock.from_kernel(k, cutoff=cutoff, strict=False))
        for m, full in zip(got, full_recurrence(k, cutoff, monkeypatch)):
            assert np.array_equal(m.matrix, full)  # every nonzero entry lies within a class
            assert np.array_equal(classes(m), pattern_labels(full))
            assert np.array_equal(fock.spectrum(m), pattern_spectrum(full))


class TestSpectrum:
    def test_vacuum(self):
        spec = fock.spectrum(fock.from_kernel(one_mode_kernel(0.0), cutoff=6))
        assert spec[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(spec[1:])) < 1e-12

    def test_product_thermal_top_eigenvalue(self):
        # g1 = 0.5, g2 = 1/3 correspond to n1 = 1, n2 = 0.5
        k = twomode.build_C2(twomode.TwoModeMoments(n1=1.0, n2=0.5))
        spec = fock.spectrum(fock.from_kernel(k, cutoff=20))
        assert spec[0] == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_non_positive_mixed_epr(self):
        k = states.mixed_epr(0.5, 1.0)
        op = fock.from_kernel(k, cutoff=12, strict=False)
        assert fock.spectrum(op)[-1] < -1e-4

    @pytest.mark.parametrize("cutoff", [16, 24, 32])
    @pytest.mark.parametrize("name", KERNELS)
    def test_blocks_match_the_full_eigenproblem(self, name, cutoff):
        op = fock.from_kernel(KERNELS[name](), cutoff=cutoff, strict=False)
        for m in with_partial_transpose(op):
            full = np.linalg.eigvalsh(hermitized(m))[::-1]
            scale = np.max(np.abs(full))
            assert np.max(np.abs(fock.spectrum(m) - full)) <= 1e-14 * scale
            for k in (2, 3):
                assert fock.trace_power(m, k) == pytest.approx(np.sum(full**k), abs=1e-14)

    def test_top_of_random_complex_states_matches_williamson(self, rng):
        # A state G is unitarily equivalent to two thermal factors: eigenvalues
        # lam = (1 - g1)(1 - g2) g1^j g2^k.  The oracle's matrix is the compression P G P onto the
        # Fock box, with eps = truncation_loss = Tr G - Tr P G P = Tr Q G Q (Q = 1 - P), and its
        # sorted eigenvalues mu obey mu_i <= lam_i (Poincare separation), and, as
        # G <= (1 + t) P G P + (1 + 1/t) Q G Q for every t > 0 and ||Q G Q|| <= eps, also
        # lam_i <= (sqrt(mu_i) + sqrt(eps))^2.  Both hold up to round-off: the eigensolver's backward
        # error of about dim * eps_machine * ||G||, with dim = 25^2 and ||G|| <= Tr G = 1.
        round_off = 25**2 * np.finfo(float).eps
        checked = 0
        while checked < 5:
            k = twomode.build_C2(random_two_mode(rng, coupling=0.3, n_hi=1.0))
            verdict = twomode.classify2(k)
            # non-degenerate: g1 > g2 > 0, so the factors differ and neither is pure
            if not verdict.positive or min(verdict.thermal.g2, verdict.thermal.g1 - verdict.thermal.g2) < 0.05:
                continue
            g1, g2 = verdict.thermal.g1, verdict.thermal.g2
            op = fock.from_kernel(k, cutoff=24, strict=False)
            assert op.matrix.dtype == complex
            loss = max(op.truncation_loss, 0.0)
            lam = np.sort(np.outer((1 - g1) * g1 ** np.arange(25), (1 - g2) * g2 ** np.arange(25)).ravel())[::-1][:20]
            mu = fock.spectrum(op)[:20]
            assert np.all(mu <= lam + round_off)
            assert np.all(lam <= (np.sqrt(mu) + math.sqrt(loss)) ** 2 + round_off)
            checked += 1

    def test_merged_spectrum_descends_to_the_minimum_of_both_blocks(self):
        # g2 = -1/3 puts the most negative eigenvalue (1 - g1)(1 - g2) g2 = -8/27 at
        # (j1, j2) = (0, 1), in the odd block; callers read it as spectrum(...)[-1]
        op = fock.from_kernel(KERNELS["product_thermal"](), cutoff=21, strict=False)
        spec = fock.spectrum(op)
        assert np.all(np.diff(spec) <= 0)
        d = op.cutoff + 1
        even = np.indices((d, d)).sum(axis=0).ravel() % 2 == 0
        h = hermitized(op)
        even_min, odd_min = (np.linalg.eigvalsh(h[np.ix_(s, s)])[0] for s in (even, ~even))
        assert spec[-1] == odd_min < even_min
        assert spec[-1] == pytest.approx(-8.0 / 27.0, abs=1e-12)


class TestBlocks:
    @staticmethod
    def count(op):
        return len(np.unique(classes(op)))

    def test_conserved_quantities_split_beyond_parity(self):
        # mixed_epr conserves n1 - n2 and its partial transpose n1 + n2: 33 blocks of
        # size <= 17 each; the product thermal matrix is diagonal
        op = fock.from_kernel(KERNELS["mixed_epr"](), cutoff=16)
        for m in with_partial_transpose(op):
            assert self.count(m) == 33
            assert max(stack.shape[-1] for stack in fock._blocks(m)) == 17
        thermal = fock.from_kernel(KERNELS["product_thermal"](), cutoff=16, strict=False)
        assert self.count(thermal) == 289

    def test_an_epr_operator_is_one_batched_solve(self, monkeypatch):
        # 33 blocks of sizes 1 to 17 pack into 17 bins of 17, for the matrix and for its partial transpose alike
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        op = fock.from_kernel(KERNELS["mixed_epr"](), cutoff=16)
        for m in with_partial_transpose(op):
            calls.clear()
            fock.spectrum(m)
            assert calls == [(17, 17, 17)]

    def test_a_diagonal_matrix_is_one_stack_of_its_entries(self):
        thermal = fock.from_kernel(KERNELS["product_thermal"](), cutoff=16, strict=False)
        assert [stack.shape for stack in fock._blocks(thermal)] == [(289, 1, 1)]

    @pytest.mark.parametrize("n, mc", ROUND_OFF_POINTS)
    def test_conversion_round_off_keeps_the_blocks(self, n, mc, monkeypatch):
        # C -> Q leaves entries of about 1e-16 where these kernels have exact zeros
        k = states.mixed_epr(n, mc)
        op = fock.from_kernel(k, cutoff=16)
        for m in with_partial_transpose(op):
            assert self.count(m) == 33
        monkeypatch.setattr(fock, "band", lambda scale, degree: -1.0)
        kept = fock.from_kernel(k, cutoff=16)
        assert self.count(kept) == 2
        for m, raw in zip(with_partial_transpose(op), with_partial_transpose(kept)):
            assert_close(fock.spectrum(m), fock.spectrum(raw), tol=1e-13)

    def test_entries_between_two_blocks_of_a_bin_are_read_from_the_stored_zero(self):
        # mixed_epr's bins pair its n1 - n2 = delta block with a smaller one.  The sector holds an amplitude at every
        # (j1, j2, k1), with k2 = k1 + j2 - j1, so at a row of one block and a column of the other it holds an
        # amplitude of another column: the index map sends that entry to the stored zero
        op = fock.from_kernel(KERNELS["mixed_epr"](), cutoff=16)
        lab, (bins,), row, col = fock._index(op.cutoff + 1, op.modes, op.laws, op.roles)
        r, c = bins[:, :, None], bins[:, None, :]
        between = lab[r] != lab[c]
        assert np.count_nonzero(op.amplitudes[(row[r] + col[c])[between]]) > 0
        assert np.all(fock._blocks(op)[0][between] == 0)

    def test_real_blocks_of_a_complex_matrix_are_solved_as_real(self):
        op = fock.from_kernel(KERNELS["anti_epr"](), cutoff=16)
        held = dataclasses.replace(op, amplitudes=op.amplitudes.astype(complex))
        assert [stack.dtype for stack in fock._blocks(held)] == [float, float]
        assert np.array_equal(fock.spectrum(held), fock.spectrum(op))
        complex_op = fock.from_kernel(KERNELS["complex_two_mode"](), cutoff=16)
        assert [stack.dtype for stack in fock._blocks(complex_op)] == [complex, complex]


class TestClassCache:
    def test_the_classes_are_found_once_per_cutoff_and_laws(self):
        # two mixed_epr operators share their laws, and their partial transposes theirs
        fock._index.cache_clear()
        for k in (states.mixed_epr(0.8, 1.0), states.mixed_epr(0.5, 0.6)):
            for m in with_partial_transpose(fock.from_kernel(k, cutoff=16)):
                fock.spectrum(m)
        assert fock._index.cache_info().misses == 2

    def test_a_matrix_and_its_partial_transpose_keep_their_own_blocks(self):
        # the same size and nonzero count, but n1 - n2 blocks against n1 + n2 blocks
        op, pt = with_partial_transpose(fock.from_kernel(KERNELS["mixed_epr"](), cutoff=16))
        assert op.matrix.shape == pt.matrix.shape == (289, 289)
        assert np.count_nonzero(op.matrix) == np.count_nonzero(pt.matrix)
        assert not np.array_equal(op.matrix != 0, pt.matrix != 0)
        found = [classes(m) for m in (op, pt)]
        assert [len(np.unique(lab)) for lab in found] == [33, 33]
        assert not np.array_equal(*found)

    @pytest.mark.parametrize("cutoff", [16, 24, 32])
    @pytest.mark.parametrize("name", KERNELS)
    def test_a_cache_hit_gives_the_first_spectrum_bit_for_bit(self, name, cutoff):
        for m in with_partial_transpose(fock.from_kernel(KERNELS[name](), cutoff=cutoff, strict=False)):
            fock._index.cache_clear()
            first = fock.spectrum(m)
            assert np.array_equal(fock.spectrum(m), first)
            assert fock._index.cache_info().misses == 1


class TestPartialTranspose:
    def test_product_state_spectrum_unchanged(self):
        k = twomode.build_C2(twomode.TwoModeMoments(n1=1.0, n2=0.5))
        op = fock.from_kernel(k, cutoff=14)
        assert_close(
            fock.spectrum(op), fock.spectrum(fock.partial_transpose_fock(op)), tol=1e-10
        )

    def test_entangled_point_negative(self):
        op = fock.from_kernel(states.mixed_epr(0.8, 1.0), cutoff=16)
        assert fock.spectrum(fock.partial_transpose_fock(op))[-1] < -1e-4

    def test_separable_point_non_negative(self):
        op = fock.from_kernel(states.mixed_epr(1.2, 1.0), cutoff=16)
        assert fock.spectrum(fock.partial_transpose_fock(op))[-1] >= -1e-6

    def test_one_mode_rejected(self):
        with pytest.raises(WrongModeCountError):
            fock.partial_transpose_fock(fock.from_kernel(one_mode_kernel(0.0), cutoff=6))

    def test_hermiticity_preserved(self):
        op = fock.partial_transpose_fock(
            fock.from_kernel(states.anti_epr(1.0, 0.4, 0.2), cutoff=16)
        )
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-10

    @pytest.mark.parametrize("cutoff", [12, 16])
    @pytest.mark.parametrize("name, kind", [(name, kind) for name, build in PARTIAL_TRANSPOSE_KERNELS.items()
                                            for kind in "CWQP" if kind != "P" or twomode.classify2(build()).p_representable])
    def test_the_kernel_map_is_the_fock_map_up_to_a_local_phase(self, name, kind, cutoff):
        # the kernel's partial transpose (ms -> mc*) is the Fock index swap (ms -> -mc*) conjugated by
        # (-1)^n1, the local pi phase that flips the sign of mode 1's ladder operator: the same operator, for every kind
        k = convert(PARTIAL_TRANSPOSE_KERNELS[name](), kind)
        signs = np.repeat((-1.0) ** np.arange(cutoff + 1), cutoff + 1)  # (-1)^j1 of the row (j1, j2)
        got = fock.from_kernel(partial_transpose(k), cutoff, strict=False).matrix
        want = fock.partial_transpose_fock(fock.from_kernel(k, cutoff, strict=False)).matrix
        assert np.max(np.abs(got - signs[:, None] * signs * want)) <= 1e-15

    def test_the_fock_map_takes_ms_to_minus_mc_conjugate(self):
        moments = fock.reconstructed_moments(fock.partial_transpose_fock(fock.from_kernel(KSTAR, cutoff=24)))
        want = {"m1": np.conj(K_STAR.m1), "ms": -np.conj(K_STAR.mc), "mc": -np.conj(K_STAR.ms)}
        for moment, value in want.items():  # within the truncation at cutoff 24
            assert moments[moment] == pytest.approx(value, abs=1e-6)


class TestTracePower:
    @pytest.mark.parametrize("name", KERNELS)
    def test_matches_dense_matrix_powers(self, name):
        # the reference: Tr G^k from powers of the whole hermitized matrix
        op = fock.from_kernel(KERNELS[name](), cutoff=12, strict=False)
        for m in with_partial_transpose(op):
            for k in (1, 2, 3, 4):
                want = np.trace(np.linalg.matrix_power(hermitized(m), k)).real
                assert fock.trace_power(m, k) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_vacuum_all_one(self):
        op = fock.from_kernel(one_mode_kernel(0.0), cutoff=6)
        for k in (1, 2, 4):
            assert fock.trace_power(op, k) == pytest.approx(1.0, abs=1e-12)

    def test_thermal_closed_forms(self):
        op = fock.from_kernel(one_mode_kernel(1.0), cutoff=40)
        g = 0.5
        assert fock.trace_power(op, 2) == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert fock.trace_power(op, 4) == pytest.approx(
            (1 - g) ** 4 / (1 - g**4), abs=1e-8
        )
        assert fock.trace_power(op, 4) == pytest.approx(1.0 / 15.0, abs=1e-8)

    def test_footnote_counterexample(self):
        k = twomode.product_thermal_kernel(1.0 / 3.0, -1.0 / 3.0)
        op = fock.from_kernel(k, cutoff=21, strict=False)
        assert fock.trace_power(op, 1) == pytest.approx(1.0, abs=1e-6)
        assert fock.trace_power(op, 2) == pytest.approx(1.0, abs=1e-6)
        assert fock.spectrum(op)[-1] < -1e-3

    def test_trace_g2_matches_analytic(self):
        k = states.mixed_epr(0.9, 0.5)
        op = fock.from_kernel(k, cutoff=16)
        assert fock.trace_power(op, 2) == pytest.approx(
            twomode.trace_g2(k), abs=max(1e-6, op.truncation_loss)
        )


class TestMomentReconstruction:
    def test_one_mode(self):
        p = OneModeMoments(n=0.8, m=0.3 + 0.2j)
        got = fock.reconstructed_moments(fock.from_kernel(onemode.build_C(p), cutoff=32))
        assert got["n"] == pytest.approx(p.n, abs=1e-6)
        assert got["m"] == pytest.approx(p.m, abs=1e-6)

    def test_two_mode(self, rng):
        p = random_two_mode(rng, coupling=0.3)
        k = twomode.build_C2(p)
        got = fock.reconstructed_moments(fock.from_kernel(k, cutoff=16, strict=False))
        for name in ("n1", "n2", "m1", "m2", "ms", "mc"):
            assert got[name] == pytest.approx(getattr(p, name), abs=1e-5), name


class TestMomentIndexSums:
    @pytest.mark.parametrize("cutoff", [16, 32])
    @pytest.mark.parametrize("name", ["complex_one_mode", "complex_two_mode"])
    def test_match_dense_ladder_traces(self, name, cutoff):
        op = fock.from_kernel(KERNELS[name](), cutoff=cutoff, strict=False)
        got, want = fock.reconstructed_moments(op), dense_moments(op)
        assert got.keys() == want.keys()
        assert_close([got[key] for key in want], list(want.values()), tol=1e-14)


class TestWignerCrossCheck:
    def test_alternating_trace_is_wigner_at_origin(self, rng):
        for _ in range(5):
            n = rng.uniform(0.0, 1.2)
            m = rng.uniform(0.0, 0.9) * n * np.exp(1j * rng.uniform(0, 2 * np.pi))
            k = onemode.build_C(OneModeMoments(n=n, m=m))
            op = fock.from_kernel(k, cutoff=28, strict=False)
            want = math.sqrt(convert(k, "W").det)
            assert fock.alternating_trace(op) == pytest.approx(want, abs=1e-5)

    def test_two_mode(self):
        k = states.mixed_epr(0.7, 0.4)
        op = fock.from_kernel(k, cutoff=16)
        want = math.sqrt(convert(k, "W").det)
        assert fock.alternating_trace(op) == pytest.approx(want, abs=1e-5)


class TestBulkAgreement:
    """A truncated positive Gaussian always has min eigenvalue ~ 0+, so the
    decisive sign check is on clearly non-positive kernels; positive samples
    are checked for the absence of false negatives."""

    def test_positive_kernels_have_no_negative_eigenvalues(self, rng):
        for _ in range(8):
            p = random_two_mode(rng, coupling=0.35, n_hi=1.2)
            k = twomode.build_C2(p)
            if not twomode.positivity_by_q(k):
                continue
            op = fock.from_kernel(k, cutoff=14, strict=False)
            assert fock.spectrum(op)[-1] > -1e-5

    def test_non_positive_kernels_show_negative_eigenvalues(self, rng):
        decisive = 0
        for _ in range(10):
            n = rng.uniform(0.2, 1.0)
            # pick |m| comfortably inside the non-positive band
            lo = math.sqrt(n * (n + 1.0))
            m = lo + 0.8 * (n + 0.5 - lo)
            k = onemode.build_C(OneModeMoments(n=n, m=m))
            assert not onemode.classify(OneModeMoments(n=n, m=m)).positive
            op = fock.from_kernel(k, cutoff=20, strict=False)
            min_eig = fock.spectrum(op)[-1]
            assert min_eig < 1e-5  # never pronounced positive
            if min_eig < -1e-5:
                decisive += 1
        assert decisive >= 8


class TestAgreement:
    @pytest.mark.parametrize(
        "args, want",
        [
            ((0.1, True), (True, False)),
            ((-0.1, True), (False, False)),
            ((1e-6, False), (True, True)),  # inside the dead band: decides nothing
            ((0.1, True, -0.1, False), (True, False)),
            ((0.1, True, -0.1, True), (False, False)),
            ((0.1, True, 1e-6, False), (True, True)),
            ((0.1, True, -0.1, None), (True, False)),  # no separability verdict to compare
        ],
    )
    def test_sign_rule(self, args, want):
        assert fock.agreement(*args) == want

    def test_compare_reads_both_spectra(self):
        k = states.mixed_epr(0.8, 1.0)  # entangled: the partial transpose has a negative eigenvalue
        got, op = fock.compare(k, True, False), fock.from_kernel(k)
        eigs, oracle = fock.spectrum(op), got["oracle"]
        assert (oracle["min_eig"], oracle["trace"], oracle["trace_g2"]) == (eigs[-1], eigs.sum(), eigs @ eigs)
        assert oracle["min_ppt_eig"] == fock.spectrum(fock.partial_transpose_fock(op))[-1] < -1e-4
        assert got["agree"] and got["indeterminate"] == (abs(eigs[-1]) <= fock.DEAD_BAND)
        assert got["truncation_loss"] == op.truncation_loss
        assert not fock.compare(k, True, True)["agree"]  # a wrong verdict is a decisive disagreement

    def test_a_strict_compare_measures_the_loss_once(self, monkeypatch):
        # the loss is the one read of the diagonal alone, rows and columns both 1-d, in a compare: the strict gate, its
        # message and the report read one cached measurement
        diagonal_reads, take = [], fock._take
        monkeypatch.setattr(fock, "_take",
                            lambda f, r, c: diagonal_reads.append(np.ndim(r) == np.ndim(c) == 1) or take(f, r, c))
        got = fock.compare(states.mixed_epr(0.8, 1.0), True, False)
        assert sum(diagonal_reads) == 1 and 0.0 < got["truncation_loss"] <= fock.LOSS_THRESHOLD
        with pytest.raises(CutoffTooSmallError):
            fock.compare(one_mode_kernel(2.0), True)
        assert sum(diagonal_reads) == 2

    def test_dead_band(self):
        # just past the positivity boundary, |m| = 1.003 sqrt(n (n + 1)) at n = 0.3, the oracle's smallest
        # eigenvalue is -2.36e-3: outside fock.DEAD_BAND = 1e-5, so it decides, and agrees with "not positive"
        n = 0.3
        got = fock.compare(one_mode_kernel(n, 1.003 * math.sqrt(n * (n + 1.0))), False, None, 16)
        assert got["oracle"]["min_eig"] == pytest.approx(-2.36e-3, rel=0.01)
        assert got["agree"] and not got["indeterminate"]

    def test_compare_one_mode_has_no_partial_transpose(self):
        got = fock.compare(one_mode_kernel(0.5), True)
        assert "min_ppt_eig" not in got["oracle"] and got["agree"]
