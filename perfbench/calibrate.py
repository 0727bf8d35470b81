"""Machine-speed calibration.

On the shared 2-core virtual machine this benchmark was tuned on, the same
code runs up to 1.6x slower in phases lasting seconds than in others (other
tenants share the cores).  That is far more than the changes the benchmark
must resolve, and a single long operation can straddle a change of phase.
So while operations are timed, a small fixed calibration unit runs between
short operations, and from a timer signal every ``PERIOD_S`` seconds during
long ones.  No unit touches gausspair, so no change to the package can alter
them.  Each operation's time, less the sampling time inside it, is divided
by its speed factor: the median unit time around the operation (within
``SMOOTH_S``) over the unit's nominal time.  Operations and calibration slow
down together, so the scaled times stay steady.

There is one unit per kind of work, because a slow phase does not slow all
code alike: ``interp`` is interpreter-bound small-matrix numpy calls (the
verdicts), ``fmt`` formats floats into CSV lines (the grid commands), and
``dense`` is a Hermitian eigensolve and strided updates of a Fock-sized
array (the oracle).
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import reference as ref

PERIOD_S = 0.02
# a factor is the median of the samples within this window around an
# operation: phases last seconds, while one sample varies by some 15%
SMOOTH_S = 1.0
# median sampled unit times on the reference machine (2 cores, Python 3.11.7,
# numpy 2.4.6, one OpenBLAS thread); times are scaled to this speed
NOMINAL_NS = {"interp": 150_000, "fmt": 270_000, "dense": 520_000}


class SpeedSampler:
    def __init__(self):
        rng = np.random.default_rng(20261017)
        self._mats = [
            ref.assemble_c2(*(0.2 + rng.random(2)), *(0.2 * rng.random(4) * np.exp(2j * np.pi * rng.random(4))))
            for _ in range(4)
        ]
        self._floats = (3.0 * rng.random((200, 2))).tolist()
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._herm = a + a.conj().T
        self._grid = rng.standard_normal((11, 11, 11, 11)) + 0j
        self.kind = "interp"  # the unit the timer runs
        self.at = {k: [] for k in NOMINAL_NS}  # start of each sample of a unit, ns
        self.dur = {k: [] for k in NOMINAL_NS}  # its timed pass, ns
        self._starts: list[int] = []  # start of every sample, in time order
        self._spent: list[int] = []  # running total of sampling time up to each start

    def unit(self, kind: str) -> None:
        """The calibration work of one unit."""
        if kind == "interp":
            for c in self._mats:
                ref.invariant_margins(c)
                np.linalg.eigvalsh(c)
                np.linalg.inv(c)
        elif kind == "fmt":
            "\n".join(f"{q:.10g},{p:.10g},{q * p:.12g}" for q, p in self._floats)
        else:
            np.linalg.eigvalsh(self._herm)
            acc = np.zeros_like(self._grid)
            for s in range(1, 4):
                acc[s:, :, s:, :] += 0.5 * self._grid[:-s, :, :-s, :]

    def sample(self, kind: str | None = None) -> None:
        """Record one speed sample.  The first pass warms the caches that the
        preceding code left cold, so the timed second pass reflects the
        machine rather than the program's footprint."""
        kind = kind or self.kind
        t0 = perf_counter_ns()
        self.unit(kind)
        t1 = perf_counter_ns()
        self.unit(kind)
        t2 = perf_counter_ns()
        self.at[kind].append(t0)
        self.dur[kind].append(t2 - t1)
        self._starts.append(t0)
        self._spent.append((self._spent[-1] if self._spent else 0) + t2 - t0)

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextmanager
    def periodic(self, kind: str):
        """Sample ``kind`` every PERIOD_S seconds from a timer signal, also
        inside long operations."""
        self.kind = kind
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def factor(self, kind: str) -> float:
        """Speed factor over every sample of ``kind`` so far."""
        return statistics.median(self.dur[kind]) / NOMINAL_NS[kind]

    def scale(self, kind: str, t0: int, t1: int) -> tuple[float, int]:
        """(speed factor, sampling ns inside [t0, t1]) for an interval timed
        while sampling.  The factor uses the samples of ``kind`` within
        SMOOTH_S of the interval, or the nearest one if there are none."""
        at, pad = self.at[kind], int(SMOOTH_S * 1e9)
        lo, hi = bisect.bisect_left(at, t0 - pad), bisect.bisect_right(at, t1 + pad)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(at), lo + 1)
        factor = statistics.median(self.dur[kind][lo:hi]) / NOMINAL_NS[kind]
        a, b = bisect.bisect_left(self._starts, t0), bisect.bisect_right(self._starts, t1)
        spent = (self._spent[b - 1] if b else 0) - (self._spent[a - 1] if a else 0)
        return factor, spent
