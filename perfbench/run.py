#!/usr/bin/env python3
"""gausspair benchmark: three closed-loop, single-process workloads against the
library's public API, every output checked against an independent reference.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last line of output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
Workloads, metrics and their meaning are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_runs"
WORKLOADS = ("verdicts", "grids", "oracle")
BLAS_THREADS = 1  # one BLAS thread: multi-threaded OpenBLAS gave 100x outliers on small eigensolves
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
SPAWN_PROBES = 3
SPAWN_ARGV = ("classify", "--modes", "2", "--family", "mixed-epr", "--n", "0.8", "--mc", "1")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "frac",
    "verdicts_per_s": "1/s",
    "verdict_p50_us": "us",
    "verdict_p99_us": "us",
    "scan_points_per_s": "1/s",
    "phasegrid_points_per_s": "1/s",
    "oracle_checks_per_s": "1/s",
    "oracle_c16_p50_ms": "ms",
}
# phasespace is reached only through cli inside operations, so it has no self time of its own
LAYERS = ("states", "linalg", "kernels", "onemode", "twomode", "fock", "cli", "bench")
CUTOFFS = (16, 24, 32)
PER_LAYER = {
    "linalg.symmatrix_us": "us",
    "linalg.invert_us": "us",
    "states.build_us": "us",
    "kernels.convert_w_us": "us",
    "kernels.convert_q_us": "us",
    "kernels.convert_p_us": "us",
    "kernels.convert_refused_frac": "frac",
    "twomode.classify2_us": "us",
    "twomode.classify2_p99_us": "us",
    "twomode.positivity_by_q_us": "us",
    "twomode.ppt_separable_us": "us",
    "twomode.thermal_pair_us": "us",
    "twomode.trace_g2_us": "us",
    "twomode.raise_frac": "frac",
    "twomode.boundary_frac": "frac",
    "onemode.classify_us": "us",
    "cli.run_scan_ms": "ms",
    "cli.scan_io_ms": "ms",
    "phasespace.wigner_grid_ms": "ms",
    "cli.wigner_io_ms": "ms",
    "phasespace.scan_wavefunction_ms": "ms",
    "cli.wavefun_io_ms": "ms",
    "cli.csv_bytes": "bytes",
    "cli.spawn_classify_ms": "ms",
    **{f"fock.{m}_ms.c{c}": "ms" for m in ("from_kernel", "spectrum", "ppt_spectrum", "moments") for c in CUTOFFS},
    "fock.matrix_mb.c32": "MB",
    "fock.nonzero_frac": "frac",
    "fock.decisive_frac": "frac",
    "fock.truncation_loss_max": "frac",
    **{f"{layer}.self_frac": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child that only sets up, for the setup_s measurement
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    env["PYTHONPATH"] = str(SRC)
    return env


def blas_threads_in_use() -> int | None:
    """The thread count OpenBLAS reports, or None where it cannot be queried."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def host_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": blas_threads_in_use(),
    }


# ---- measurement -----------------------------------------------------------

# the calibration unit (calibrate.py) that scales each class of operation
CALIBRATION = {"verdict": "interp", "grid": "fmt", "oracle": "dense"}
VERDICT_BATCH = 25  # verdicts between two speed samples
# a stall of the machine lasting seconds decides the tail of the verdict times;
# so verdict_p99_us takes each verdict's fastest run in the first MIN_ROUNDS
# rounds, which every run completes
MIN_ROUNDS = 2


class Stats:
    """Counts and operation durations of one segment of a run.  Durations are
    scaled to the nominal machine speed (calibrate.py) once the segment ends;
    ``raw_ns`` keeps the wall-clock sums."""

    def __init__(self):
        self.dur = defaultdict(list)  # op class -> scaled duration of every run, ns
        self.best = defaultdict(list)  # op class -> fastest scaled run of each keyed operation, ns
        self.raw_ns = Counter()
        self.factors = defaultdict(list)  # op class -> speed factor of each op
        self.points = Counter()
        self.attempted = self.failed = self.unexpected = 0
        self.reasons = Counter()
        self.rounds = 0
        self.verdicts = self.boundary = 0
        self.classify2 = self.classify2_raised = 0
        self.converts = self.refused = 0
        self.round_bytes: list[int] = []
        self.io = defaultdict(list)  # grid kind -> cli.main time minus its library call, scaled ns
        self.decisive = self.compared = self.nonzero = self.entries = 0
        self.loss_max = 0.0
        self.c32_mb = 0.0
        self._ops: list[tuple[tuple[str, ...], int, int, int | None, int]] = []
        self._io: list[tuple[str, int, int, int, int]] = []

    def fail(self, reason: str | None, expected: bool = False) -> None:
        """Count one attempted operation; ``expected`` marks a failure of a
        kind ROADMAP item 2 records (verdicts at extreme scales)."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.unexpected += not expected
            self.reasons[reason] += 1

    def timed(self, classes: tuple[str, ...], t0: int, t1: int, key=None) -> None:
        """One run of an operation; ``key``, where given, names the operation
        within a round, so that its runs in different rounds can be compared."""
        self._ops.append((classes, t0, t1, key, self.rounds))

    def probed(self, kind: str, op: tuple[int, int], probe: tuple[int, int]) -> None:
        """A grid command and the library call behind it, for ``io``."""
        self._io.append((kind, *op, *probe))

    def scale(self, sampler) -> None:
        """Scale every recorded interval by the machine speed around it."""

        def scaled(cls, t0, t1):
            factor, sampling = sampler.scale(CALIBRATION[cls], t0, t1)
            return (t1 - t0 - sampling) / factor, factor

        fastest = {}
        for classes, t0, t1, key, rnd in self._ops:
            d, factor = scaled(classes[0], t0, t1)
            for c in classes:
                self.dur[c].append(d)
                self.raw_ns[c] += t1 - t0
            self.factors[classes[0]].append(factor)
            if key is not None and rnd < MIN_ROUNDS:
                fastest[key] = (classes, min(d, fastest.get(key, (classes, math.inf))[1]))
        for classes, d in fastest.values():
            for c in classes:
                self.best[c].append(d)
        for kind, a0, a1, b0, b1 in self._io:
            self.io[kind].append(scaled("grid", a0, a1)[0] - scaled("grid", b0, b1)[0])

    def op_ns(self) -> float:
        return sum(sum(self.dur[k]) for k in CALIBRATION)


def run_round(wl, items, tr, st: Stats, tmp: Path, probes: bool, sampler) -> None:
    """One round; verdicts are sampled between batches, grids and oracle
    checks by the timer, because one of them can last seconds."""
    verdicts, grids, checks = items
    gc.collect()
    sampler.sample("interp")
    for i, v in enumerate(verdicts):
        # each verdict runs twice in a row; its latency is the faster run, so
        # that a stall of the machine too short for the sampler to see does
        # not decide it
        t0 = perf_counter_ns()
        out = tr.call("bench.verdict", wl.verdict_op, tr, v)
        t1 = perf_counter_ns()
        tr.call("bench.verdict", wl.verdict_op, tr, v)
        t2 = perf_counter_ns()
        st.timed(("verdict",), t0, t1, i)
        st.timed(("verdict",), t1, t2, i)
        count_verdict(wl, st, v, out)
        if probes and out["k"] is not None and out["k"].modes == 2:
            tr.call("bench.probe", wl.verdict_probes, tr, out["k"])
        if i % VERDICT_BATCH == VERDICT_BATCH - 1 or i == len(verdicts) - 1:
            sampler.sample("interp")
    with sampler.periodic("fmt"):
        grid_phase(wl, grids, tr, st, tmp, probes)
    with sampler.periodic("dense"):
        for chk in checks:
            run_check(wl, tr, st, chk, "bench.oracle")
    st.rounds += 1


def count_verdict(wl, st: Stats, v, out: dict) -> None:
    reason, boundary = wl.score_verdict(v, out)
    expected = not wl.SOUND_SCALE[0] <= v.scale <= wl.SOUND_SCALE[1]
    st.fail(reason and f"{v.kind}: {reason} (n ~ 1e{round(v.scale):+d})", expected)
    st.verdicts += 1
    st.boundary += boundary
    stage = out["error"][0] if out["error"] else None
    if not v.kind.startswith("one_mode") and stage != "build":
        st.classify2 += 1
        st.classify2_raised += stage == "classify"
    st.converts += out["converts"]
    st.refused += out["refused"]


def run_census(wl, seed: int) -> Stats:
    """Every full-scale census verdict once, untimed and untraced: the count
    of the scale defects (ROADMAP item 2) that the timed verdicts avoid."""
    from spans import NullTracer

    st = Stats()
    for v in wl.census_inputs(seed):
        count_verdict(wl, st, v, wl.verdict_op(NullTracer(), v))
    return st


def grid_phase(wl, grids, tr, st: Stats, tmp: Path, probes: bool) -> None:
    nbytes = 0
    probed = set()
    for i, cmd in enumerate(grids):
        path = tmp / f"grid{i}.csv"
        path.unlink(missing_ok=True)
        t0 = perf_counter_ns()
        try:
            rc = tr.call("bench.grid", wl.grid_op, tr, cmd, str(path))
        except (Exception, SystemExit) as exc:  # a usage error in the CLI exits
            rc = type(exc).__name__
        t1 = perf_counter_ns()
        st.timed(("grid", cmd.kind), t0, t1)
        st.points[cmd.kind] += cmd.points
        if rc != 0:
            st.fail(f"{cmd.kind}: exit {rc}")
            continue
        data = path.read_bytes()
        nbytes += len(data)
        reason = wl.score_grid(cmd, data)
        st.fail(reason and f"{cmd.kind}: {reason}")
        if probes and cmd.kind not in probed and (cmd.kind != "scan" or cmd.params["steps"] == 201):
            probed.add(cmd.kind)
            p0 = perf_counter_ns()
            tr.call("bench.probe", wl.grid_probe, tr, cmd)
            st.probed(cmd.kind, (t0, t1), (p0, perf_counter_ns()))
    st.round_bytes.append(nbytes)


def run_check(wl, tr, st: Stats, chk, root: str) -> None:
    """One oracle check, scored; only checks of the workload itself (root
    ``bench.oracle``) count towards the oracle timings."""
    import numpy as np

    t0 = perf_counter_ns()
    try:
        out = tr.call(root, wl.oracle_op, tr, chk)
    except Exception as exc:  # any raise from the oracle path is a failure
        st.fail(f"oracle {chk.kind} c{chk.cutoff}: {type(exc).__name__}")
        return
    if root == "bench.oracle":
        st.timed(("oracle", f"oracle.c{chk.cutoff}"), t0, perf_counter_ns())
    reason, decisive, compared = wl.score_oracle(out)
    st.fail(reason and f"oracle {chk.kind} c{chk.cutoff}: {reason}")
    st.decisive += decisive
    st.compared += compared
    m = out["op"].matrix
    st.nonzero += int(np.count_nonzero(m))
    st.entries += m.size
    st.loss_max = max(st.loss_max, out["op"].truncation_loss)
    if chk.cutoff == 32:
        st.c32_mb = max(st.c32_mb, m.nbytes / 1e6)


def run_segment(wl, items, tr, seconds: float, tmp: Path, probes: bool, sampler) -> Stats:
    """Whole rounds until ``seconds`` have passed (at least MIN_ROUNDS), timed
    while the sampler measures the machine speed."""
    st = Stats()
    deadline = time.perf_counter() + seconds
    while st.rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        run_round(wl, items, tr, st, tmp, probes, sampler)
    st.scale(sampler)
    return st


def measure_setup(args) -> list[float]:
    """Time from process start to the end of the warm-up pass, in fresh
    processes, each scaled by the speed its child sampled while warming up."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.time_ns()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-only"]  # fmt: skip
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=170, env=child_env(), cwd=ROOT)
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()}")
        ready_ns, factor = res.stdout.split()[-2:]
        out.append((int(ready_ns) - t0) / 1e9 / float(factor))
    return out


def measure_spawn_classify() -> tuple[list[float], bool]:
    """A child ``python -m gausspair.cli classify ...``: wall time and whether it answered right."""
    times, ok = [], True
    for _ in range(SPAWN_PROBES):
        t0 = perf_counter_ns()
        res = subprocess.run([sys.executable, "-m", "gausspair.cli", *SPAWN_ARGV], capture_output=True,
                             text=True, timeout=120, env=child_env(), cwd=ROOT)  # fmt: skip
        times.append((perf_counter_ns() - t0) / 1e6)
        try:
            report = json.loads(res.stdout)
            # mixed_epr(0.8, 1): positive (0.8*1.8 > 1) and entangled (0.8 < 1)
            ok &= res.returncode == 0 and report["positive"] is True and report["separable"] is False
        except (ValueError, KeyError):
            ok = False
    return times, ok


# ---- metrics ---------------------------------------------------------------

def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else float("nan")


def _p99(xs) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(xs, dtype=float), 99)) if xs else float("nan")


def end_to_end(st: Stats, census: Stats, setup: list[float]) -> dict:
    ns = 1e-9
    runs = st.dur["verdict"]
    latency = [min(a, b) for a, b in zip(runs[0::2], runs[1::2])]  # each verdict runs twice in a row
    phase = st.dur["wigner"] + st.dur["wavefun"]
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": census.failed / census.attempted,
        "verdicts_per_s": len(runs) / (sum(runs) * ns),
        "verdict_p50_us": _median(latency) / 1e3,
        "verdict_p99_us": _p99(st.best["verdict"]) / 1e3,
        "scan_points_per_s": st.points["scan"] / (sum(st.dur["scan"]) * ns),
        "phasegrid_points_per_s": (st.points["wigner"] + st.points["wavefun"]) / (sum(phase) * ns),
        "oracle_checks_per_s": len(st.dur["oracle"]) / (sum(st.dur["oracle"]) * ns),
        "oracle_c16_p50_ms": _median(st.dur["oracle.c16"]) / 1e6,
    }


def per_layer(wl, tr, st: Stats, base: Stats, census: Stats, spawn: list[float]) -> dict:
    speed = {c: _median(st.factors[c]) for c in CALIBRATION}

    def scaled(name, tag=None):
        cls = "oracle" if name.startswith("fock.") else "grid" if name.startswith(("cli.", "phasespace.")) else "verdict"
        return [d / speed[cls] for d in tr.durations(name, tag)]

    def med(name, tag=None, scale=1e3):
        return _median(scaled(name, tag)) / scale

    states = [d for n in wl.STATE_BUILDERS for d in scaled(n)]
    out = {
        "linalg.symmatrix_us": med("linalg.SymMatrix"),
        "linalg.invert_us": med("linalg.invert"),
        "states.build_us": _median(states) / 1e3,
        "kernels.convert_w_us": med("kernels.convert", "W"),
        "kernels.convert_q_us": med("kernels.convert", "Q"),
        "kernels.convert_p_us": med("kernels.convert", "P"),
        "kernels.convert_refused_frac": census.refused / census.converts,
        "twomode.classify2_us": med("twomode.classify2"),
        "twomode.classify2_p99_us": _p99(scaled("twomode.classify2")) / 1e3,
        "twomode.positivity_by_q_us": med("twomode.positivity_by_q"),
        "twomode.ppt_separable_us": med("twomode.ppt_separable"),
        "twomode.thermal_pair_us": med("twomode.thermal_pair"),
        "twomode.trace_g2_us": med("twomode.trace_g2"),
        "twomode.raise_frac": census.classify2_raised / census.classify2,
        "twomode.boundary_frac": census.boundary / census.verdicts,
        "onemode.classify_us": med("onemode.classify"),
        "cli.run_scan_ms": med("cli.run_scan", scale=1e6),
        "cli.scan_io_ms": _median(st.io["scan"]) / 1e6,
        "phasespace.wigner_grid_ms": med("phasespace.wigner_grid", scale=1e6),
        "cli.wigner_io_ms": _median(st.io["wigner"]) / 1e6,
        "phasespace.scan_wavefunction_ms": med("phasespace.scan_wavefunction", scale=1e6),
        "cli.wavefun_io_ms": _median(st.io["wavefun"]) / 1e6,
        "cli.csv_bytes": st.round_bytes[0],
        "cli.spawn_classify_ms": _median(spawn),
        "fock.matrix_mb.c32": st.c32_mb,
        "fock.nonzero_frac": st.nonzero / st.entries,
        "fock.decisive_frac": st.decisive / st.compared if st.compared else 0.0,
        "fock.truncation_loss_max": st.loss_max,
    }
    for c in CUTOFFS:
        tag = f"c{c}"
        out[f"fock.from_kernel_ms.{tag}"] = med("fock.from_kernel", tag, 1e6)
        out[f"fock.spectrum_ms.{tag}"] = med("fock.spectrum", tag, 1e6)
        pt, sp = scaled("fock.partial_transpose_fock", tag), scaled("fock.spectrum", "ppt." + tag)
        out[f"fock.ppt_spectrum_ms.{tag}"] = _median([a + b for a, b in zip(pt, sp)]) / 1e6
        out[f"fock.moments_ms.{tag}"] = med("fock.reconstructed_moments", tag, 1e6)
    selfs, total = tr.self_times(("bench.verdict", "bench.grid", "bench.oracle"))
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = selfs.get(layer, 0.0) / total
    out["trace.overhead_frac"] = (st.op_ns() / st.rounds) / (base.op_ns() / base.rounds) - 1.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gausspair" / "__init__.py").is_file():
        print(f"error: no gausspair package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for k in BLAS_ENV:  # before numpy is first imported
        os.environ[k] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import gausspair

    if Path(gausspair.__file__).resolve().parent != SRC / "gausspair":
        print(f"error: imported gausspair from {gausspair.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl
    from calibrate import SpeedSampler
    from spans import NullTracer, Tracer

    plan = wl.PLANS[args.workload]
    items = (
        wl.verdict_inputs(args.seed, plan["verdicts"], wl.SOUND_SCALE),
        wl.grid_commands(args.seed, plan["grids"]),
        wl.oracle_checks(args.seed, wl.ORACLE_FULL if plan["oracle"] == "full" else wl.ORACLE_MINI),
    )
    sampler = SpeedSampler()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpname:
        tmp = Path(tmpname)
        run_round(wl, wl.warmup_items(args.seed), NullTracer(), Stats(), tmp, False, sampler)
        if args.setup_only:
            print(time.time_ns(), sampler.factor("interp"), flush=True)
            return 0
        # objects alive after warm-up stay alive; the collector need not scan them
        gc.collect()
        gc.freeze()
        host = host_facts()
        print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed, "trace": args.trace}))
        setup = measure_setup(args)
        spawn_ok = True
        if not args.trace:
            st = run_segment(wl, items, NullTracer(), args.seconds, tmp, False, sampler)
            census = run_census(wl, args.seed)
            metrics, units = end_to_end(st, census, setup), END_TO_END
        else:
            # the first half runs untraced, as the base of the tracing overhead
            base = run_segment(wl, items, NullTracer(), args.seconds / 2, tmp, False, sampler)
            tr = Tracer()
            st = run_segment(wl, items, tr, args.seconds / 2, tmp, True, sampler)
            reached = {(c.cutoff, c.two_mode) for c in items[2]}
            for chk in wl.oracle_checks(args.seed, wl.ORACLE_COVERAGE):
                if (chk.cutoff, True) not in reached:
                    run_check(wl, tr, st, chk, "bench.probe")
            spawn, spawn_ok = measure_spawn_classify()
            census = run_census(wl, args.seed)
            metrics, units = per_layer(wl, tr, st, base, census, spawn), PER_LAYER
            tr.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", {"host": host, "args": vars(args)})
    deterministic = len(set(st.round_bytes)) == 1
    print(json.dumps({
        "rounds": st.rounds,
        "attempted": st.attempted,
        "failed": st.failed,
        "failures": dict(sorted(st.reasons.items())),
        "verdict_latencies": len(st.best["verdict"]),
        "census_attempted": census.attempted,
        "census_failed": census.failed,
        "census_failed_outside_known_defects": census.unexpected,
        "census_failures": dict(sorted(census.reasons.items())),
        "csv_bytes_per_round": st.round_bytes[0],
        "setup_s_samples": setup,
        "speed_factor": {c: _median(st.factors[c]) for c in CALIBRATION},
        "wall_s": {c: st.raw_ns[c] / 1e9 for c in CALIBRATION},
    }))  # fmt: skip
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:.6g} {unit}")
    missing = [name for name in units if not math.isfinite(metrics[name])]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": deterministic and spawn_ok and st.failed == 0 and census.unexpected == 0,
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
