"""Tests of the benchmark itself: every reference rejects a deliberately wrong
answer, and a seed fixes the inputs and the exact counts.

    python3 -m pytest perfbench -q
"""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from gausspair import cli  # noqa: E402
from calibrate import SpeedSampler  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

TR = NullTracer()


def _first(kind: str, seed: int = 5, where=lambda v: True) -> wl.Verdict:
    return next(v for v in wl.verdict_inputs(seed, 240) if v.kind == kind and where(v))


def _moderate(v: wl.Verdict) -> bool:
    """A moderate-scale input that the package builds and classifies."""
    return -1.0 < v.scale < 1.0 and wl.verdict_op(TR, v)["error"] is None


def _flipped(out: dict, key: str) -> dict:
    bad = dict(out, verdict=dict(out["verdict"]))
    bad["verdict"][key] = not bad["verdict"][key]
    return bad


@pytest.mark.parametrize("kind", ["mixed_epr", "anti_epr", "squeezed_epr", "general", "pure_d", "smoothed", "one_mode"])
@pytest.mark.parametrize("key", ["positive", "p_rep"])
def test_reference_flags_a_wrong_verdict(kind, key):
    v = _first(kind, where=_moderate)
    out = wl.verdict_op(TR, v)
    assert wl.score_verdict(v, out)[0] is None  # the package is right here
    assert wl.score_verdict(v, _flipped(out, key))[0] == f"wrong {key}"


@pytest.mark.parametrize("kind", ["mixed_epr", "anti_epr", "squeezed_epr", "general", "pure_d", "smoothed"])
def test_reference_flags_a_wrong_separability(kind):
    v = _first(kind, where=lambda v: _moderate(v) and wl.verdict_op(TR, v)["verdict"]["positive"])
    out = wl.verdict_op(TR, v)
    assert wl.score_verdict(v, out)[0] is None
    assert wl.score_verdict(v, _flipped(out, "separable"))[0] == "wrong separable"


def test_pure_d_separable_iff_gamma_zero():
    product = _first("pure_d", where=lambda v: v.params["gamma"] == 0.0)
    entangled = _first("pure_d", where=lambda v: v.params["gamma"] != 0.0)
    assert ref.two_mode_truth("pure_d", product.params, None)["separable"] is True
    assert ref.two_mode_truth("pure_d", entangled.params, None)["separable"] is False


def test_invariants_agree_with_family_margins():
    for v in wl.verdict_inputs(9, 600):
        if v.kind in wl.FAMILIES and _moderate(v):
            pos, sep, band = ref.family_margins(v.kind, v.params["n"], v.params["mc"], v.params["x"])
            want = ref.decide(pos, band)
            if want is not None and ref.invariant_verdict(v.c) is not None:
                assert ref.invariant_verdict(v.c) == want


def test_round_trip_reference_flags_a_perturbed_kernel():
    v = _first("general")
    out = wl.verdict_op(TR, v)
    assert out["back"] is not None and wl.score_verdict(v, out)[0] is None
    bad = dict(out, back=out["back"] + 1e-6 * np.abs(out["back"]).max())
    assert wl.score_verdict(v, bad)[0] == "round trip"


def test_undocumented_raise_is_a_failure_and_refusing_a_nonstate_is_not():
    v = _first("mixed_epr", where=_moderate)
    out = dict(wl.verdict_op(TR, v), error=("classify", "NoRealSolutionError"))
    assert wl.score_verdict(v, out)[0] == "NoRealSolutionError in classify"
    nonstate = wl.Verdict("mixed_epr", {"n": 0.5, "mc": 1.5, "x": 0.0}, ref.family_matrix("mixed_epr", 0.5, 1.5, 0.0), 0.0)
    out = wl.verdict_op(TR, nonstate)
    assert out["error"] == ("build", "NotAStateError")
    assert wl.score_verdict(nonstate, out)[0] is None


def _grid_data(cmd: wl.GridCommand) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        assert cli.main([*cmd.argv, "--out", str(path)]) == 0
        return path.read_bytes()


def test_wigner_reference_flags_a_wrong_value_and_a_malformed_file():
    cmd = wl._wigner(np.random.default_rng(1), 21)
    data = _grid_data(cmd)
    assert wl.score_grid(cmd, data) is None
    lines = data.decode().splitlines()
    q, p, w = lines[200].split(",")
    lines[200] = f"{q},{p},{float(w) * (1 + 1e-6):.12g}"
    assert wl.score_grid(cmd, ("\n".join(lines) + "\n").encode()) == "wrong wigner value"
    assert wl.score_grid(cmd, ("\n".join(lines[:-1]) + "\n").encode()) == "malformed csv"
    assert wl.score_grid(cmd, data.replace(b"\n", b"\r\n")) == "malformed csv"


def test_wavefunction_reference_flags_a_wrong_value():
    cmd = wl._wavefun(np.random.default_rng(1), 21)
    data = _grid_data(cmd)
    assert wl.score_grid(cmd, data) is None
    lines = data.decode().splitlines()
    q1, q2, psi = lines[220].split(",")
    lines[220] = f"{q1},{q2},{float(psi) * 1.001:.12g}"
    assert wl.score_grid(cmd, ("\n".join(lines) + "\n").encode()) == "wrong wavefun value"


@pytest.mark.parametrize("family,ratio", wl.SCAN_PAIRS)
def test_scan_reference_flags_a_wrong_flag(family, ratio):
    cmd = wl._scan(np.random.default_rng(2), family, ratio, 41)
    data = _grid_data(cmd)
    assert wl.score_grid(cmd, data) is None
    lines = data.decode().splitlines()
    for i in range(1, len(lines)):  # flip the positivity flag of a clearly decided point
        mc, n, pos, *rest = lines[i].split(",")
        if abs(float(n) * (float(n) + 1) - (1 + ratio) ** 2 * float(mc) ** 2) > 0.1:
            lines[i] = ",".join([mc, n, str(1 - int(pos)), *rest])
            break
    assert wl.score_grid(cmd, ("\n".join(lines) + "\n").encode()) == "wrong scan flag"


def test_oracle_rule_flags_a_decisive_wrong_sign():
    assert ref.oracle_agrees(0.01, True, None, None)[0]
    assert not ref.oracle_agrees(-0.01, True, None, None)[0]
    assert not ref.oracle_agrees(0.01, False, None, None)[0]
    assert ref.oracle_agrees(-1e-6, False, None, None) == (True, 0, 1)  # inside the dead band
    assert not ref.oracle_agrees(0.2, True, -0.01, True)[0]
    assert not ref.oracle_agrees(0.2, True, 0.01, False)[0]
    chk = wl.oracle_checks(3, [(16, "epr_band")])[0]
    out = wl.oracle_op(TR, chk)
    assert wl.score_oracle(out)[0] is None
    assert out["positive"] and out["separable"] is False and out["min_ppt"] < -ref.DEAD_BAND
    assert wl.score_oracle(dict(out, separable=True))[0] == "oracle disagreement"


def _round(seed: int) -> run.Stats:
    items = (
        wl.verdict_inputs(seed, 24),
        wl.grid_commands(seed, "mini"),
        wl.oracle_checks(seed, [(16, "one_mode_random"), (16, "two_mode_random")]),
    )
    st = run.Stats()
    with tempfile.TemporaryDirectory() as tmp:
        run.run_round(wl, items, NullTracer(), st, Path(tmp), False, SpeedSampler())
    return st


def test_same_seed_same_inputs_bytes_and_nonzero_counts():
    a, b = wl.verdict_inputs(7, 120), wl.verdict_inputs(7, 120)
    assert [(v.kind, v.params) for v in a] == [(v.kind, v.params) for v in b]
    assert [v.params for v in wl.verdict_inputs(8, 120)] != [v.params for v in a]
    assert wl.grid_commands(7, "full") == wl.grid_commands(7, "full")
    assert [(c.kind, c.params) for c in wl.oracle_checks(7, wl.ORACLE_FULL)] == [
        (c.kind, c.params) for c in wl.oracle_checks(7, wl.ORACLE_FULL)
    ]
    s1, s2 = _round(7), _round(7)
    assert s1.round_bytes == s2.round_bytes and s1.round_bytes[0] > 0
    assert (s1.nonzero, s1.entries) == (s2.nonzero, s2.entries) and 0 < s1.nonzero < s1.entries
    assert (s1.attempted, s1.failed) == (s2.attempted, s2.failed)


def test_census_covers_every_decade_of_scale():
    scales = [v.scale for v in wl.census_inputs(4) if v.kind in wl.FAMILIES]
    assert {math.floor(s) for s in scales} == set(range(-6, 6))


def test_timed_verdicts_keep_to_the_sound_scales_and_none_fails():
    lo, hi = wl.SOUND_SCALE
    vs = wl.verdict_inputs(4, 480, wl.SOUND_SCALE)
    assert all(lo <= v.scale <= hi for v in vs)
    assert min(v.scale for v in vs) < lo + 0.5 and max(v.scale for v in vs) > hi - 0.5
    assert [wl.score_verdict(v, wl.verdict_op(TR, v))[0] for v in vs] == [None] * len(vs)


def test_tracer_records_parents_and_self_time():
    tr = Tracer()
    tr.call("bench.verdict", lambda: tr.call("twomode.classify2", lambda: sum(range(10000))))
    assert tr.name == ["bench.verdict", "twomode.classify2"] and tr.parent == [-1, 0]
    selfs, total = tr.self_times(("bench.verdict",))
    assert total == pytest.approx(selfs["bench"] + selfs["twomode"])
