"""Seeded inputs, the three kinds of operation the benchmark times, and how
each outcome is scored against the independent references.

An operation is one user-visible call path, called through the library:

* a verdict: build a kernel, classify it, and convert it to W, Q, P and back
  to C, as the CLI's classify and convert commands do;
* a grid command: ``cli.main(argv)`` writing a CSV file;
* an oracle check: the closed-form verdict against the truncated Fock
  matrix, its spectrum, its partial transpose and its moments.

Every workload runs rounds made of all three kinds; the workload sets how
much of each a round holds (``PLANS``), so each end-to-end metric is measured
on every workload while each workload spends most of its time on one layer.

The timed verdicts keep to the scales on which the package answers right
(``SOUND_SCALE``), so that no timed operation fails.  The scale defects that
ROADMAP item 2 records are counted by an untimed census of ``CENSUS``
verdicts over the full scale range instead (``fail_frac``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference as ref
from gausspair import cli, fock, kernels, linalg, onemode, phasespace, states, twomode
from gausspair.errors import GausspairError, NotPRepresentableError, SingularMatrixError

# verdict inputs, grid commands and oracle checks per round
PLANS = {
    "verdicts": {"verdicts": 2500, "grids": "mini", "oracle": "mini"},
    "grids": {"verdicts": 1000, "grids": "full", "oracle": "mini"},
    "oracle": {"verdicts": 1000, "grids": "mini", "oracle": "full"},
}

FAMILIES = ("mixed_epr", "anti_epr", "squeezed_epr")
# one cycle of verdict input kinds; the stream repeats it
PATTERN = FAMILIES + ("general", "one_mode") + FAMILIES + ("general", "pure_d", "smoothed", "one_mode_pure")
# log10 n range in which the package's absolute tolerances sit far from the
# round-off of its inputs; the timed verdicts keep to it.  A census verdict
# failure outside it is one of the scale defects ROADMAP item 2 records and is
# counted; any failure inside it makes a run incorrect
SOUND_SCALE = (-3.0, 2.0)
FULL_SCALE = (-6.0, 6.0)
CENSUS = 1200  # verdicts of the full-scale census, once per run
STATE_BUILDERS = ("states.mixed_epr", "states.anti_epr", "states.squeezed_epr", "states.pure_from_d", "states.smoothed_epr")
SCAN_PAIRS = (("mixed_epr", 0.0), ("anti_epr", 0.5), ("anti_epr", 1.0), ("squeezed_epr", 0.5), ("squeezed_epr", 1.0))
GRID_LO, GRID_HI = -4.0, 4.0  # the CLI's default phase-space window
# the median check at cutoff 16 falls inside the largest group, the entangled
# band.  A two-mode check at cutoff 32 takes some 5 s, two thirds of a round's
# checks, and one such check per round made oracle_checks_per_s swing with the
# machine; the two-mode cutoff-32 rows come from a traced run's coverage check
ORACLE_FULL = (
    [(16, "one_mode_nonpositive")] * 2
    + [(16, "epr_band")] * 8
    + [(16, "two_mode_random")] * 2
    + [(16, "product_thermal")]
    + [(24, "one_mode_nonpositive"), (24, "one_mode_random")]
    + [(24, "epr_band")] * 2
    + [(24, "two_mode_random")]
    + [(32, "one_mode_random"), (32, "one_mode_nonpositive")]
)
ORACLE_MINI = [(16, "one_mode_random"), (16, "epr_band"), (16, "two_mode_random")] * 4
# two-mode checks a traced run adds when its workload reaches no such cutoff
ORACLE_COVERAGE = [(24, "epr_band"), (32, "epr_band")]


@dataclass(frozen=True)
class Verdict:
    kind: str
    params: dict
    c: np.ndarray | None  # reference C matrix (two-mode, not pure)
    scale: float  # log10 of the occupation scale, for failure breakdowns


@dataclass(frozen=True)
class GridCommand:
    kind: str  # scan | wigner | wavefun
    argv: tuple[str, ...]
    params: dict
    points: int


@dataclass(frozen=True)
class OracleCheck:
    kind: str
    params: dict
    cutoff: int

    @property
    def two_mode(self) -> bool:
        return not self.kind.startswith("one_mode")


# ---- inputs ----------------------------------------------------------------

def _lattice(rng: np.random.Generator, k: int, shifted: bool = True) -> np.ndarray:
    """k points in [0, 1)^3, in random order: an additive recurrence (the R_3
    low-discrepancy sequence), so that every seed covers each region of
    (scale, fraction, ratio) in nearly the same proportion.  Unshifted, the
    points themselves are the same for every seed; only their order is not."""
    phi = 1.2207440846057596  # root of x^4 = x + 1
    alpha = phi ** -np.arange(1.0, 4.0)
    pts = ((rng.random(3) if shifted else 0.5) + np.arange(k)[:, None] * alpha) % 1.0
    return pts[rng.permutation(k)]


def _random_two_mode(rng: np.random.Generator, coupling: float, n_hi: float) -> dict:
    """Complex two-mode moments with random couplings, redrawn until C > 0."""
    while True:
        p = {
            "n1": rng.uniform(0.1, n_hi),
            "n2": rng.uniform(0.1, n_hi),
            **{k: rng.uniform(0, coupling) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for k in ("m1", "m2", "ms", "mc")},
        }
        if np.linalg.eigvalsh(ref.assemble_c2(**p))[0] > 1e-6:
            return p


def verdict_inputs(seed: int, count: int, scale=FULL_SCALE, phase: int = 1, shifted: bool = True) -> list[Verdict]:
    """The verdict stream: PATTERN repeated, with the occupation n log-uniform
    over 10^scale (by default [1e-6, 1e6]) and the coupling at a fraction
    0-1.2 of the positivity boundary, spread evenly per kind by ``_lattice``."""
    rng = np.random.default_rng([seed, phase])
    lo, hi = scale
    kinds = [PATTERN[i % len(PATTERN)] for i in range(count)]
    draws = {k: iter(_lattice(rng, kinds.count(k), shifted)) for k in dict.fromkeys(PATTERN)}
    out = []
    for kind in kinds:
        u, v, w = (float(x) for x in next(draws[kind]))
        n = 10.0 ** (lo + (hi - lo) * u)
        nn = n * (n + 1.0)
        f = 1.2 * v
        c = None
        scale = math.log10(n)
        if kind == "mixed_epr":
            params = {"n": n, "mc": f * math.sqrt(nn), "x": 0.0}
        elif kind == "anti_epr":
            r = w  # ms = r * mc; the boundary solves the family's quadratic in mc
            t = nn / (r * (n + 0.5) + math.sqrt(r * r * (n + 0.5) ** 2 + (1.0 - r * r) * nn))
            params = {"n": n, "mc": f * t, "x": r * f * t}
        elif kind == "squeezed_epr":
            r = w  # m = r * mc
            mc = f * math.sqrt(nn) / (1.0 + r)
            params = {"n": n, "mc": mc, "x": r * mc}
        elif kind == "general":
            params = _random_two_mode(rng, 0.4, 2.5)
            scale = math.log10(max(params["n1"], params["n2"]))
        elif kind == "pure_d":
            alpha, beta = 10.0 ** (-2.0 + 4.0 * u), 10.0 ** (-2.0 + 4.0 * w)
            rho = 0.0 if v < 0.25 else (0.05 + 1.2 * (v - 0.25)) * (1.0 if rng.random() < 0.5 else -1.0)
            params = {"alpha": alpha, "beta": beta, "gamma": rho * math.sqrt(alpha * beta)}
            scale = math.log10(max(alpha, beta, 1.0 / alpha, 1.0 / beta) / 4.0)
        elif kind == "smoothed":
            params = {"nbar": n, "gamma": -2.0 * math.sqrt(nn)}
        else:  # one_mode, one_mode_pure
            mag = math.sqrt(nn) if kind == "one_mode_pure" else f * math.sqrt(nn)
            params = {"n": n, "m": mag * np.exp(1j * rng.uniform(0, 2 * np.pi))}
        if kind in FAMILIES:
            c = ref.family_matrix(kind, params["n"], params["mc"], params["x"])
        elif kind == "general":
            c = ref.assemble_c2(**params)
        out.append(Verdict(kind, params, c, scale))
    return out


def _scan(rng: np.random.Generator, family: str, ratio: float, steps: int) -> GridCommand:
    mc_max, n_max = 2.0 * rng.uniform(0.9, 1.1), 2.0 * rng.uniform(0.9, 1.1)
    argv = (
        "scan", "--family", family.replace("_", "-"), "--ratio", repr(ratio),
        "--mc-min", "0", "--mc-max", repr(mc_max), "--mc-steps", str(steps),
        "--n-min", "0", "--n-max", repr(n_max), "--n-steps", str(steps),
    )  # fmt: skip
    params = {"family": family, "ratio": ratio, "mc_max": mc_max, "n_max": n_max, "steps": steps}
    return GridCommand("scan", argv, params, steps * steps)


def _wigner(rng: np.random.Generator, samples: int) -> GridCommand:
    n = rng.uniform(0.2, 2.0)
    m = rng.uniform(0.0, 0.9) * math.sqrt(n * (n + 1.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    argv = ("wigner", "--n", repr(n), "--m", repr(complex(m)), "--samples", str(samples))
    return GridCommand("wigner", argv, {"n": n, "m": complex(m), "samples": samples}, samples * samples)


def _wavefun(rng: np.random.Generator, samples: int) -> GridCommand:
    nbar = rng.uniform(0.2, 2.0)
    argv = ("wavefun", "--nbar", repr(nbar), "--samples", str(samples))
    return GridCommand("wavefun", argv, {"nbar": nbar, "samples": samples}, samples * samples)


def grid_commands(seed: int, plan: str) -> list[GridCommand]:
    """``full``: the five family scans of the figure script at 201^2, one scan
    at 401^2, and Wigner and wave-function grids at 401^2.  ``mini``: three
    times a scan at 201^2 (three consecutive families) and both phase-space
    grids at 101^2."""
    rng = np.random.default_rng([seed, 2])
    if plan == "full":
        cmds = [_scan(rng, fam, ratio, 201) for fam, ratio in SCAN_PAIRS]
        cmds.append(_scan(rng, *SCAN_PAIRS[rng.integers(len(SCAN_PAIRS))], 401))
        return cmds + [_wigner(rng, 401), _wavefun(rng, 401)]
    first = int(rng.integers(len(SCAN_PAIRS)))
    return [
        cmd
        for i in range(3)
        for cmd in (_scan(rng, *SCAN_PAIRS[(first + i) % len(SCAN_PAIRS)], 201), _wigner(rng, 101), _wavefun(rng, 101))
    ]


def _oracle_params(rng: np.random.Generator, kind: str) -> dict:
    if kind == "one_mode_nonpositive":
        # past the positivity boundary but still a kernel, as in the acceptance test
        n = rng.uniform(0.2, 0.8)
        lo = math.sqrt(n * (n + 1.0))
        return {"n": n, "m": lo + 0.8 * (n + 0.5 - lo)}
    if kind == "one_mode_random":
        n = rng.uniform(0.0, 3.0)
        return {"n": n, "m": rng.uniform(0.0, 0.95) * (n + 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))}
    if kind == "two_mode_random":
        return _random_two_mode(rng, 0.3, 1.0)
    if kind == "epr_band":
        # entangled mixed-EPR states between the separability and positivity boundaries
        n = rng.uniform(0.4, 1.0)
        gap = math.sqrt(n * (n + 1.0)) - n
        return {"n": n, "mc": n + rng.uniform(0.3, 0.8) * gap}
    return {"g1": 1.0 / 3.0, "g2": -1.0 / 3.0}  # product_thermal: positive-looking, not positive


def oracle_checks(seed: int, spec) -> list[OracleCheck]:
    rng = np.random.default_rng([seed, 3])
    return [OracleCheck(kind, _oracle_params(rng, kind), cutoff) for cutoff, kind in spec]


def warmup_items(seed: int):
    """One operation of every code path, small, for the untimed warm-up pass."""
    rng = np.random.default_rng([seed, 4])
    verdicts = verdict_inputs(seed, len(PATTERN), SOUND_SCALE)
    grids = [_scan(rng, "mixed_epr", 0.0, 21), _wigner(rng, 21), _wavefun(rng, 21)]
    checks = oracle_checks(seed, [(16, "one_mode_random"), (8, "epr_band")])
    return verdicts, grids, checks


# ---- operations ------------------------------------------------------------

def _build_two_mode(tr, v: Verdict):
    p = v.params
    if v.kind == "mixed_epr":
        return tr.call("states.mixed_epr", states.mixed_epr, p["n"], p["mc"])
    if v.kind == "anti_epr":
        return tr.call("states.anti_epr", states.anti_epr, p["n"], p["mc"], p["x"])
    if v.kind == "squeezed_epr":
        return tr.call("states.squeezed_epr", states.squeezed_epr, p["n"], p["mc"], p["x"])
    if v.kind == "pure_d":
        d = tr.call("states.PureStateD", states.PureStateD, p["alpha"], p["beta"], p["gamma"])
        return tr.call("states.pure_from_d", states.pure_from_d, d)
    if v.kind == "smoothed":
        sp = tr.call("states.SmoothedEprParam", states.SmoothedEprParam, p["nbar"])
        return tr.call("states.smoothed_epr", states.smoothed_epr, sp)
    # a general kernel arrives as a raw matrix, as the CLI reads it from JSON
    sym = tr.call("linalg.SymMatrix", linalg.SymMatrix, v.c)
    return tr.call("kernels.GaussianKernel", kernels.GaussianKernel, "C", sym)


def verdict_op(tr, v: Verdict) -> dict:
    """Build, classify, and convert C -> W -> Q (-> P) -> C.  P is requested
    only when the verdict says the kernel is P-representable; a conversion
    refused with SingularMatrixError or NotPRepresentableError ends the chain."""
    out = {"error": None, "verdict": None, "k": None, "converts": 0, "refused": 0, "back": None, "through_p": False}
    stage = "build"
    try:
        if v.kind.startswith("one_mode"):
            mom = tr.call("onemode.OneModeMoments", onemode.OneModeMoments, v.params["n"], v.params["m"])
            k = tr.call("onemode.build_C", onemode.build_C, mom)
            stage = "classify"
            r = tr.call("onemode.classify", onemode.classify, mom)
            verdict = {"positive": r.positive, "pure": r.pure, "p_rep": r.p_representable, "separable": None}
        else:
            k = _build_two_mode(tr, v)
            stage = "classify"
            r = tr.call("twomode.classify2", twomode.classify2, k)
            verdict = {"positive": r.positive, "pure": r.pure, "p_rep": r.p_representable, "separable": r.ppt_separable}
            stage = "trace_g2"
            tr.call("twomode.trace_g2", twomode.trace_g2, k)
        out["k"], out["verdict"] = k, verdict
        stage = "convert"
        cur = k
        for target in ("W", "Q", "P", "C") if verdict["p_rep"] else ("W", "Q", "C"):
            out["converts"] += 1
            try:
                cur = tr.call("kernels.convert", kernels.convert, cur, target, tag=target)
            except (SingularMatrixError, NotPRepresentableError):
                out["refused"] += 1
                break
        else:
            out["back"], out["through_p"] = cur.matrix, verdict["p_rep"]
    except Exception as exc:  # scored as a failure unless it is a documented refusal
        out["error"] = (stage, type(exc).__name__)
    return out


def census_inputs(seed: int) -> list[Verdict]:
    """The full-scale verdicts whose failures ``fail_frac`` counts.  Their
    (scale, fraction, ratio) points are the same for every seed, so that the
    count of scale defects does not vary with where a shifted lattice puts its
    points near the edges of the failing regions; the seed still sets the
    phases, the signs and the general kernels."""
    return verdict_inputs(seed, CENSUS, FULL_SCALE, phase=5, shifted=False)


def verdict_probes(tr, k) -> None:
    """Traced runs only: time the substrate and the verdict internals that
    classify2 calls, through their public functions, on the same kernel."""
    tr.call("linalg.invert", linalg.invert, k.sym)
    try:
        positive = tr.call("twomode.positivity_by_q", twomode.positivity_by_q, k)
        if positive:
            tr.call("twomode.ppt_separable", twomode.ppt_separable, k)
            tr.call("twomode.thermal_pair", twomode.thermal_pair, k)
    except GausspairError:
        pass  # the verdict operation on this kernel already scored the raise


def score_verdict(v: Verdict, out: dict) -> tuple[str | None, bool]:
    """(failure reason or None, whether the input lies inside the reference band)."""
    if v.kind.startswith("one_mode"):
        truth = ref.one_mode_truth(v.params["n"], v.params["m"], v.kind == "one_mode_pure")
    else:
        truth = ref.two_mode_truth(v.kind, v.params, v.c)
    boundary = truth["exists"] is None or truth["positive"] is None
    if out["error"] is not None:
        stage, name = out["error"]
        if stage == "build" and name == "NotAStateError":
            return (None if truth["exists"] is not True else "refused a state"), boundary
        return f"{name} in {stage}", boundary
    if truth["exists"] is False:
        return "accepted a non-state", boundary
    got = out["verdict"]
    for key in ("positive", "separable", "pure", "p_rep"):
        if key == "separable" and truth["positive"] is not True:
            continue
        if truth[key] is not None and got[key] != truth[key]:
            return f"wrong {key}", boundary
    if out["back"] is not None and not ref.round_trip_ok(out["k"].matrix, out["back"], out["through_p"]):
        return "round trip", boundary
    return None, boundary


def grid_op(tr, cmd: GridCommand, path: str) -> int:
    return tr.call("cli.main", cli.main, [*cmd.argv, "--out", path], tag=cmd.kind)


def grid_probe(tr, cmd: GridCommand) -> None:
    """Traced runs only: the library call behind the command, without the CSV."""
    p = cmd.params
    if cmd.kind == "scan":
        req = cli.ScanRequest(p["family"], p["ratio"], 0.0, p["mc_max"], p["steps"], 0.0, p["n_max"], p["steps"])
        tr.call("cli.run_scan", cli.run_scan, req)
        return
    grid = phasespace.GridSpec(GRID_LO, GRID_HI, p["samples"])
    if cmd.kind == "wigner":
        w = kernels.convert(onemode.build_C(onemode.OneModeMoments(p["n"], p["m"])), "W")
        tr.call("phasespace.wigner_grid", phasespace.wigner_grid, w, grid)
    else:
        tr.call("phasespace.scan_wavefunction", phasespace.scan_wavefunction, states.SmoothedEprParam(p["nbar"]), grid)


def score_grid(cmd: GridCommand, data: bytes) -> str | None:
    """Failure reason for one CSV file, or None when it is well formed and
    every scored value matches the reference."""
    p = cmd.params
    if cmd.kind == "scan":
        table = ref.parse_csv(data, "mc,n,positive,pure,separable,p_representable", 6, cmd.points)
        if table is None:
            return "malformed csv"
        mcs = np.linspace(0.0, p["mc_max"], p["steps"])
        ns = np.linspace(0.0, p["n_max"], p["steps"])
        mc, n, want = ref.scan_reference(p["family"], p["ratio"], mcs, ns)
        flags = table[:, 2:]
        if not (np.allclose(table[:, 0], mc, rtol=1e-9, atol=0) and np.allclose(table[:, 1], n, rtol=1e-9, atol=0)):
            return "malformed csv"
        if not np.all((flags == 0.0) | (flags == 1.0)):
            return "malformed csv"
        return None if ref.flags_agree(flags, want) else "wrong scan flag"
    header = "q,p,w" if cmd.kind == "wigner" else "q1,q2,psi"
    table = ref.parse_csv(data, header, 3, cmd.points)
    if table is None:
        return "malformed csv"
    axis = np.linspace(GRID_LO, GRID_HI, p["samples"])
    x, y = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    if not (np.allclose(table[:, 0], x, rtol=1e-9, atol=1e-12) and np.allclose(table[:, 1], y, rtol=1e-9, atol=1e-12)):
        return "malformed csv"
    if cmd.kind == "wigner":
        want = ref.wigner_reference(p["n"], p["m"], x, y)
    else:
        want = ref.wavefunction_reference(p["nbar"], x, y)
    return None if np.allclose(table[:, 2], want, rtol=1e-9, atol=1e-300) else f"wrong {cmd.kind} value"


def _oracle_kernel(tr, chk: OracleCheck):
    p = chk.params
    if chk.kind in ("one_mode_nonpositive", "one_mode_random"):
        mom = tr.call("onemode.OneModeMoments", onemode.OneModeMoments, p["n"], p["m"])
        return tr.call("onemode.build_C", onemode.build_C, mom), mom
    if chk.kind == "two_mode_random":
        mom = tr.call("twomode.TwoModeMoments", twomode.TwoModeMoments, p["n1"], p["n2"], p["m1"], p["m2"], p["ms"], p["mc"])
        return tr.call("twomode.build_C2", twomode.build_C2, mom), None
    if chk.kind == "epr_band":
        return tr.call("states.mixed_epr", states.mixed_epr, p["n"], p["mc"]), None
    return tr.call("twomode.product_thermal_kernel", twomode.product_thermal_kernel, p["g1"], p["g2"]), None


def oracle_op(tr, chk: OracleCheck) -> dict:
    """The closed-form verdict and the Fock oracle on one kernel."""
    k, mom = _oracle_kernel(tr, chk)
    # the per-layer fock rows are two-mode timings; one-mode spans carry their own tag
    tag = f"c{chk.cutoff}" if chk.two_mode else f"c{chk.cutoff}.one_mode"
    out = {"separable": None, "min_ppt": None}
    if mom is not None:
        out["positive"] = tr.call("onemode.classify", onemode.classify, mom).positive
    else:
        out["positive"] = tr.call("twomode.positivity_by_q", twomode.positivity_by_q, k)
        if out["positive"]:
            out["separable"] = tr.call("twomode.ppt_separable", twomode.ppt_separable, k)
    op = tr.call("fock.from_kernel", fock.from_kernel, k, chk.cutoff, False, tag=tag)
    out["min_eig"] = float(tr.call("fock.spectrum", fock.spectrum, op, tag=tag)[-1])
    if chk.two_mode:
        pt = tr.call("fock.partial_transpose_fock", fock.partial_transpose_fock, op, tag=tag)
        out["min_ppt"] = float(tr.call("fock.spectrum", fock.spectrum, pt, tag="ppt." + tag)[-1])
    out["moments"] = tr.call("fock.reconstructed_moments", fock.reconstructed_moments, op, tag=tag)
    out["op"] = op
    return out


def score_oracle(out: dict) -> tuple[str | None, int, int]:
    """(failure reason, decisive comparisons, comparisons); a check that loses
    more than LOSS_LIMIT of the trace to truncation is not compared."""
    if out["op"].truncation_loss > ref.LOSS_LIMIT:
        return None, 0, 0
    if not all(np.isfinite(complex(x)) for x in out["moments"].values()):
        return "non-finite moments", 0, 0
    min_ppt = out["min_ppt"] if out["positive"] else None
    agree, decisive, compared = ref.oracle_agrees(out["min_eig"], out["positive"], min_ppt, out["separable"])
    return (None if agree else "oracle disagreement"), decisive, compared
