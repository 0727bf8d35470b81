import json
import math
import tracemalloc

import numpy as np
import pytest
from conftest import family_bounds, family_stack

from gausspair import cli, linalg, onemode, phasespace, states, twomode
from gausspair.cli import main
from gausspair.errors import NotAStateError
from gausspair.kernels import convert
from gausspair.linalg import band

FIGURE_PAIRS = [("mixed_epr", 0.0), ("anti_epr", 0.5), ("anti_epr", 1.0), ("squeezed_epr", 0.5), ("squeezed_epr", 1.0)]
# (family, ratio, mc range and steps, n range and steps): non-square grids, negative mc, 2 steps, 1e6;
# the CLI streams blocks of BLOCK_ROWS mc rows at 37 n steps: one row short of a block, and a partial last block
BLOCK_ROWS = cli._BLOCK_POINTS // 37
SCAN_CASES = [
    ("mixed_epr", 0.0, -1.5, 2.0, 33, 0.0, 3.0, 7),
    ("anti_epr", 0.5, -2.0, -0.1, 17, 0.0, 2.0, 29),
    ("anti_epr", 1.0, 0.0, 1e6, 41, 0.0, 1e6, 23),
    ("squeezed_epr", 0.5, -1e6, 1e6, 2, 1e-6, 1e6, 2),
    ("squeezed_epr", 1.0, 0.0, 2.0, 21, 0.0, 2.0, 21),
    ("anti_epr", 0.5, -1.0, 2.0, BLOCK_ROWS - 1, 0.0, 1.5, 37),
    ("mixed_epr", 0.0, -1.5, 2.0, 2 * BLOCK_ROWS + 5, 0.0, 3.0, 37),
]


def per_row_lines(header, row_format, table):
    """The CSV as formatted before the axis texts were shared: one ``%`` per row."""
    return [header, *(row_format % tuple(row) for row in table.tolist())]


def family_grid(case):
    """The request, the mc and n grids, the gathered C stack and the scan's closed-form
    invariants (eigenvalues ascending along the last axis, dA, dB, dX) on the grid."""
    family, ratio, mc_lo, mc_hi, mc_steps, n_lo, n_hi, n_steps = case
    mcs, ns = np.linspace(mc_lo, mc_hi, mc_steps), np.linspace(n_lo, n_hi, n_steps)
    mc, n = np.meshgrid(mcs, ns, indexing="ij")
    eig, da, db, dx = states.family_invariants(family, n, mc, ratio)
    return cli.ScanRequest(*case), mc, n, family_stack(family, n, mc, ratio), (np.stack(eig, axis=-1), da, db, dx)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_one_mode_thermal(self, capsys):
        code, out, _ = run(capsys, "classify", "--modes", "1", "--n", "1", "--m", "0")
        assert code == 0
        rep = json.loads(out)
        assert rep["positive"] is True
        assert rep["g"] == pytest.approx(0.5)
        assert rep["trace_g2"] == pytest.approx(1.0 / 3.0)
        assert rep["separable"] is None

    def test_two_mode_entangled(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--modes", "2", "--family", "mixed-epr",
            "--n", "0.8", "--mc", "1",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["positive"] is True and rep["separable"] is False

    @pytest.mark.parametrize("n1", ["1e12", "1e14", "1e15", "1e20", "1e30"])
    def test_thermal_times_vacuum_not_pure(self, capsys, n1):
        code, out, _ = run(capsys, "classify", "--modes", "2", "--n1", n1, "--n2", "0")
        assert code == 0 and json.loads(out)["pure"] is False

    def test_not_a_state(self, capsys):
        code, out, _ = run(capsys, "classify", "--modes", "1", "--n", "0", "--m", "2")
        assert code == 2
        assert json.loads(out)["exists"] is False

    def test_complex_m_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "--modes", "1", "--n", "1", "--m", "0.2+0.3j")
        assert code == 0
        assert json.loads(out)["positive"] is True

    def test_usage_error_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--bogus"])
        assert exc.value.code == 64

    def test_missing_subcommand_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64


class TestScan:
    def scan_lines(self, capsys, *extra):
        code, out, _ = run(
            capsys, "scan", "--family", "mixed-epr",
            "--mc-min", "0", "--mc-max", "2", "--mc-steps", "3",
            "--n-min", "0", "--n-max", "2", "--n-steps", "41", *extra,
        )
        assert code == 0
        return out.splitlines()

    def test_header(self, capsys):
        lines = self.scan_lines(capsys)
        assert lines[0] == "mc,n,positive,pure,separable,p_representable"
        assert len(lines) == 1 + 3 * 41

    def test_mixed_epr_boundary_flips_at_mc_one(self, capsys):
        lines = self.scan_lines(capsys)
        column = [l.split(",") for l in lines[1:] if l.startswith("1,")]
        ns = [float(r[1]) for r in column]
        pos = [int(r[2]) for r in column]
        sep = [int(r[4]) for r in column]
        step = ns[1] - ns[0]
        root = (math.sqrt(5.0) - 1.0) / 2.0
        pos_flip = ns[pos.index(1)]
        assert abs(pos_flip - root) <= step + 1e-12
        sep_flip = ns[sep.index(1)]
        assert abs(sep_flip - 1.0) <= step + 1e-12

    def test_deterministic_output(self, capsys):
        assert self.scan_lines(capsys) == self.scan_lines(capsys)

    def test_anti_epr_half_ratio_has_entangled_cells(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--family", "anti-epr", "--ratio", "0.5",
            "--mc-min", "0", "--mc-max", "2", "--mc-steps", "21",
            "--n-min", "0", "--n-max", "2", "--n-steps", "21",
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:]]
        entangled = [r for r in rows if r[2] == "1" and r[4] == "0"]
        assert entangled

    def test_anti_epr_unit_ratio_never_entangled(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--family", "anti-epr", "--ratio", "1",
            "--mc-min", "0", "--mc-max", "2", "--mc-steps", "21",
            "--n-min", "0", "--n-max", "2", "--n-steps", "21",
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:]]
        entangled = [r for r in rows if r[2] == "1" and r[4] == "0"]
        assert not entangled

    def test_file_output_lf_endings(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        self.scan_lines(capsys, "--out", str(out_file))
        raw = out_file.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    @pytest.mark.parametrize(
        "family, ratio",
        [("mixed_epr", 0.0), ("anti_epr", 0.5), ("anti_epr", 1.0), ("squeezed_epr", 0.5), ("squeezed_epr", 1.0)],
    )
    def test_pointwise_matches_classify2(self, family, ratio):
        # the five family/ratio pairs of scripts/reproduce_figures.py
        lines = "".join(cli.scan_blocks(cli.ScanRequest(family, ratio, 0.0, 2.0, 21, 0.0, 2.0, 21))).splitlines()
        for row in lines[1:]:
            mc, n, *flags = row.split(",")
            mc, n = float(mc), float(n)
            args = (n, mc) if family == "mixed_epr" else (n, mc, ratio * mc)
            try:
                v = twomode.classify2(getattr(states, family)(*args))
                want = [v.positive, v.pure, bool(v.ppt_separable), v.p_representable]
            except NotAStateError:
                want = [False] * 4
            assert [int(f) for f in flags] == [int(w) for w in want], row

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.7, 0.95])
    def test_family_kernels_decide_as_the_scan_at_the_boundaries(self, r):
        # each family kernel carries the scan's spectrum and block determinants, so at 1 and
        # 1 -+ 1e-15, 1e-12, 1e-9 times each boundary coupling both give the same four flags
        factors = (1.0, 1.0 - 1e-15, 1.0 + 1e-15, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-9, 1.0 + 1e-9)
        for family in ("mixed_epr", "anti_epr", "squeezed_epr"):
            ratio = 0.0 if family == "mixed_epr" else r
            points = [(n, f * b) for n in np.logspace(-6, 6, 61).tolist() for b in family_bounds(n, r)[family] for f in factors]
            ns, mcs = np.array(points).T
            scan = twomode.verdicts_from_invariants(*states.family_invariants(family, ns, mcs, ratio))
            for i, (n, mc) in enumerate(points):
                try:
                    v = twomode.classify2(getattr(states, family)(*((n, mc) if family == "mixed_epr" else (n, mc, ratio * mc))))
                    got = [v.positive, v.pure, bool(v.ppt_separable), v.p_representable]
                except NotAStateError:  # past C > 0 at large n
                    got = [False] * 4
                want = [bool(scan.positive[i]), bool(scan.pure[i]), bool(scan.ppt_separable[i]), bool(scan.p_representable[i])]
                assert got == want, (family, r, n, mc)

    @pytest.mark.parametrize("case", SCAN_CASES)
    def test_closed_form_flags_match_eigvalsh(self, case):
        _, _, _, c, (eig, da, db, dx) = family_grid(case)
        closed = twomode.verdicts_from_invariants(np.moveaxis(eig, -1, 0), da, db, dx)
        numeric = twomode.invariant_verdicts(c)
        for field in ("positive", "pure", "ppt_separable", "p_representable"):
            assert np.array_equal(getattr(closed, field), getattr(numeric, field)), field

    @pytest.mark.parametrize("family, ratio", FIGURE_PAIRS)
    @pytest.mark.parametrize(
        "grid", [(0.0, 2.0, 201, 0.0, 2.0, 201), (-1e6, 1e6, 101, 0.0, 1e6, 77), (-2.0, -0.1, 17, 1e-6, 3.0, 29)],
        ids=["figure", "1e6", "negative-mc"],
    )
    def test_closed_form_invariants_equal_the_block_determinants(self, family, ratio, grid):
        # the scan reads dA, dB, dX as closed forms: the same floats block_det takes from the
        # gathered stack, so the core decides exactly as invariant_verdicts does on it
        _, _, _, c, (eig, da, db, dx) = family_grid((family, ratio, *grid))
        for got, (row, col) in zip((da, db, dx), ((0, 0), (2, 2), (0, 2))):
            want = linalg.block_det(c, row, col)
            assert np.array_equal(np.broadcast_to(got, want.shape), want)
        core = twomode.verdicts_from_invariants(np.moveaxis(eig, -1, 0), da, db, dx)
        stack = twomode.invariant_verdicts(c, eig)
        for field in ("positive", "pure", "ppt_separable", "p_representable"):
            assert np.array_equal(getattr(core, field), getattr(stack, field)), field

    @pytest.mark.parametrize("family, ratio", FIGURE_PAIRS)
    @pytest.mark.parametrize("top", [2.0, 1e3, 1e6])
    def test_closed_form_spectrum_matches_eigvalsh(self, family, ratio, top):
        _, _, _, c, (eig, _, _, _) = family_grid((family, ratio, -top, top, 41, 0.0, top, 37))
        want = np.linalg.eigvalsh(c)
        # sum |eigenvalue| is tr C wherever C is a state
        assert np.all(np.abs(eig - want) <= band(np.abs(want).sum(-1, keepdims=True), 1))

    def test_an_unknown_family_is_refused(self):
        with pytest.raises(ValueError, match="unknown family 'cat_state'"):
            cli.ScanRequest("cat_state", 0.0, 0.0, 1.0, 3, 0.0, 1.0, 3)

    def test_overflowing_moments_are_refused(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            "".join(cli.scan_blocks(cli.ScanRequest("anti_epr", 1e300, 0.0, 1e10, 3, 0.0, 1.0, 2)))

    def test_overflow_is_refused_before_any_output(self, capsys, tmp_path):
        argv = ["--ratio", "1e300", "--mc-min", "0", "--mc-max", "1e10", "--mc-steps", "3",
                "--n-min", "0", "--n-max", "1", "--n-steps", "2", "--out", str(tmp_path / "s.csv")]
        code, _, err = run(capsys, "scan", "--family", "anti-epr", *argv)
        assert code == 64 and "overflow" in err and not (tmp_path / "s.csv").exists()

    def test_grid_at_the_verdict_range_runs_without_overflow(self):
        # the largest eigenvalue bound the scan admits: every margin stays finite, and
        # RuntimeWarning is an error under pytest
        t = 0.5 * (linalg.MAX_SCALE - 2e6)
        lines = "".join(cli.scan_blocks(cli.ScanRequest("anti_epr", 1.0, -t, t, 3, 0.0, 1e6, 2))).splitlines()
        assert len(lines) == 7 and lines[3] == "0,0,1,1,1,0"

    @pytest.mark.parametrize("case", SCAN_CASES)
    def test_scan_bytes_match_per_row_formatting(self, case, capsys):
        req, mc, n, c, _ = family_grid(case)
        v = twomode.invariant_verdicts(c)
        flags = (v.positive, v.pure, v.ppt_separable, v.p_representable)
        table = np.column_stack([mc.ravel(), n.ravel(), *(f.ravel() for f in flags)])
        want = per_row_lines("mc,n,positive,pure,separable,p_representable", "%.10g,%.10g,%d,%d,%d,%d", table)
        assert "".join(cli.scan_blocks(req)) == "\n".join(want) + "\n"
        argv = [f"--mc-min={req.mc_lo}", f"--mc-max={req.mc_hi}", f"--mc-steps={req.mc_steps}",
                f"--n-min={req.n_lo}", f"--n-max={req.n_hi}", f"--n-steps={req.n_steps}"]
        code, out, _ = run(capsys, "scan", "--family", req.family.replace("_", "-"), "--ratio", str(req.ratio), *argv)
        assert code == 0 and out == "\n".join(want) + "\n"

    def test_scan_memory_is_bounded(self, tmp_path):
        # the whole 401^2 grid is never held: neither its matrix stack (20.6 MB) nor its text
        argv = ["scan", "--family", "squeezed-epr", "--ratio", "0.5", "--mc-min", "0", "--mc-max", "2", "--mc-steps",
                "401", "--n-min", "0", "--n-max", "2", "--n-steps", "401", "--out", str(tmp_path / "s.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, peak


class TestConvert:
    def write_kernel(self, tmp_path, kernel, name="k.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cli.kernel_to_json(kernel)))
        return str(path)

    def test_vacuum_c_to_w_doubles(self, capsys, tmp_path):
        src = self.write_kernel(
            tmp_path, onemode.build_C(onemode.OneModeMoments(0.0, 0.0))
        )
        code, out, _ = run(capsys, "convert", "--in", src, "--to", "W")
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == "W"
        assert rep["matrix"][0] == [2.0, 0.0] and rep["matrix"][3] == [2.0, 0.0]

    def test_round_trip_via_files(self, capsys, tmp_path):
        k = states.anti_epr(1.0, 0.4, 0.2)
        src = self.write_kernel(tmp_path, k)
        mid = tmp_path / "q.json"
        code, _, _ = run(capsys, "convert", "--in", src, "--to", "Q", "--out", str(mid))
        assert code == 0
        code, out, _ = run(capsys, "convert", "--in", str(mid), "--to", "C")
        assert code == 0
        got = np.array(
            [complex(re, im) for re, im in json.loads(out)["matrix"]]
        ).reshape(4, 4)
        assert np.allclose(got, k.matrix, atol=1e-12)

    def test_not_p_representable_exit_4(self, capsys, tmp_path):
        pure = onemode.build_C(onemode.OneModeMoments(1.0, math.sqrt(2.0)))
        src = self.write_kernel(tmp_path, pure)
        code, _, err = run(capsys, "convert", "--in", src, "--to", "P")
        assert code == 4

    def test_near_vacuum_thermal_to_p_exit_0(self, capsys, tmp_path):
        # P-representable by classify2, so convert must not call it singular
        src = self.write_kernel(tmp_path, twomode.build_C2(twomode.TwoModeMoments(1e-4, 1e-4)))
        code, out, _ = run(capsys, "convert", "--in", src, "--to", "P")
        assert code == 0
        assert json.loads(out)["matrix"][0] == pytest.approx([1e4, 0.0], rel=1e-12)

    @pytest.mark.parametrize("target", ["W", "Q", "P"])
    def test_output_is_the_formed_matrix_bitwise(self, capsys, tmp_path, target):
        # every entry is V diag(x) V^dag of the converted pair, hermitized and in normal form
        for k in (states.anti_epr(1.3, 0.4, 0.2), states.squeezed_epr(0.9, 0.3, 0.2),
                  onemode.build_C(onemode.OneModeMoments(1.1, 0.3 + 0.4j))):
            src = self.write_kernel(tmp_path, k)
            code, out, _ = run(capsys, "convert", "--in", src, "--to", target)
            with open(src) as fh:
                x, v = convert(cli.kernel_from_json(json.load(fh)), target).eig
            m = (v * x) @ v.conj().T
            want = linalg.normal_form(0.5 * (m + m.conj().T))
            flat = [[float(z.real), float(z.imag)] for z in want.ravel()]
            assert code == 0 and out == json.dumps({"modes": k.modes, "kind": target, "matrix": flat}) + "\n"

    def test_singular_exit_3(self, capsys, tmp_path):
        boundary = states.mixed_epr(0.5, 1.0)  # det C = 0 exactly
        src = self.write_kernel(tmp_path, boundary)
        code, _, err = run(capsys, "convert", "--in", src, "--to", "W")
        assert code == 3


def _kernel_file(kind: str, rows) -> dict:
    """The JSON of a kernel file of ``kind`` holding the matrix ``rows``."""
    m = np.asarray(rows, dtype=complex)
    return {"modes": len(m) // 2, "kind": kind, "matrix": [[x.real, x.imag] for x in m.ravel().tolist()]}


class TestConvertExitDependsOnTheFile:
    """A kernel file is refused where its kernel is built, so ``convert`` exits with one code for
    every ``--to``: it exited 0 for some targets on each of these files."""

    @pytest.mark.parametrize("target", ["W", "Q", "C", "P"])
    @pytest.mark.parametrize(
        "obj, code, says",
        [
            # lam = -2 and 2/3: no operator
            (_kernel_file("W", [[0.5, 1.0], [1.0, 0.5]]), 2, "negative eigenvalue"),
            (_kernel_file("W", np.diag([0.0, 0.0, 1.0, 1.0])), 3, "min|eigenvalue|"),
            # lam - 1/2 = 1e-15, well within band(tr C, 1) = 7e-15
            (_kernel_file("P", 1e15 * np.eye(4)), 4, "C - I/2"),
            (_kernel_file("W", np.full((2, 2), math.nan)), 64, "non-finite"),
        ],
        ids=["no-operator-w", "singular-w", "p-band", "nan-w"],
    )
    def test_one_exit_code_for_every_target(self, capsys, tmp_path, obj, code, says, target):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(obj))
        got, out, err = run(capsys, "convert", "--in", str(path), "--to", target)
        assert (got, out) == (code, "") and says in err and "Traceback" not in err


class TestConvertedFileReadsBack:
    """A W file that ``convert`` writes is read back by the rule ``convert`` applied: the singularity of
    C, on the lam the file implies.  C = a I + m (X + Y + XY) has eigenvalues 1, e, e, e, e = 30 eps; read
    on the W's own eigenvalues 1, 1/e, 1/e, 1/e, the W file was refused as singular (exit 3) for every ``--to``."""

    @pytest.mark.parametrize("target, code", [("C", 0), ("W", 0), ("Q", 0), ("P", 4)])
    def test_triple_cluster_w(self, capsys, tmp_path, target, code):
        e = 30.0 * np.finfo(float).eps
        a, m = (1.0 + 3.0 * e) / 4.0, (1.0 - e) / 4.0
        c_path, w_path = tmp_path / "c.json", tmp_path / "w.json"
        c_path.write_text(json.dumps(_kernel_file("C", [[(a, m, m, m)[i ^ j] for j in range(4)] for i in range(4)])))
        assert run(capsys, "convert", "--in", str(c_path), "--to", "W", "--out", str(w_path))[0] == 0
        got, _, err = run(capsys, "convert", "--in", str(w_path), "--to", target)
        assert got == code and "Traceback" not in err


class TestOracle:
    def test_thermal_agreement(self, capsys):
        code, out, _ = run(capsys, "oracle", "--modes", "1", "--n", "0.5", "--m", "0")
        assert code == 0
        rep = json.loads(out)
        assert rep["agree"] is True
        assert rep["oracle"]["trace_g2"] == pytest.approx(0.5, abs=1e-6)

    def test_entangled_mixed_epr(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--modes", "2", "--family", "mixed-epr",
            "--n", "0.8", "--mc", "1",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["agree"] is True
        assert rep["analytic"]["separable"] is False
        assert rep["oracle"]["min_ppt_eig"] < -1e-4

    def test_not_a_state_exit_2(self, capsys):
        code, _, _ = run(capsys, "oracle", "--modes", "1", "--n", "0", "--m", "2")
        assert code == 2

    def test_cutoff_exit_6(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--modes", "1", "--n", "3", "--m", "0", "--cutoff", "5"
        )
        assert code == 6


class TestGrids:
    def test_wigner_vacuum_peak(self, capsys):
        code, out, _ = run(
            capsys, "wigner", "--n", "0", "--lo", "-2", "--hi", "2", "--samples", "5"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q,p,w"
        values = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[2]) for r in lines[1:]}
        assert values[("0", "0")] == pytest.approx(2.0)

    def test_wavefun_symmetries(self, capsys):
        def grid(nbar):
            _, out, _ = run(
                capsys, "wavefun", "--nbar", str(nbar),
                "--lo", "-1", "--hi", "1", "--samples", "3",
            )
            rows = [l.split(",") for l in out.splitlines()[1:]]
            return {(r[0], r[1]): float(r[2]) for r in rows}

        flat = grid(0.0)
        assert flat[("1", "1")] == pytest.approx(flat[("1", "-1")])
        ridge = grid(1.0)
        assert ridge[("1", "1")] == pytest.approx(ridge[("-1", "-1")])
        assert ridge[("1", "1")] > ridge[("1", "-1")]

    @pytest.mark.parametrize("lo, hi, samples", [(-4.0, 4.0, 33), (-1e6, 1e6, 7), (-3.0, 5.0, 2)])
    @pytest.mark.parametrize("command", ["wigner", "wavefun"])
    def test_bytes_match_per_row_formatting(self, capsys, tmp_path, command, lo, hi, samples):
        grid = phasespace.GridSpec(lo, hi, samples)
        if command == "wigner":
            w = convert(onemode.build_C(onemode.OneModeMoments(0.7, 0.2 + 0.3j)), "W")
            header, values, flags = "q,p,w", phasespace.wigner_grid(w, grid), ["--n", "0.7", "--m", "0.2+0.3j"]
        else:
            values = phasespace.scan_wavefunction(states.SmoothedEprParam(0.4), grid)
            header, flags = "q1,q2,psi", ["--nbar", "0.4"]
        x, y = np.meshgrid(grid.axis, grid.axis, indexing="ij")
        table = np.column_stack([x.ravel(), y.ravel(), values.ravel()])
        want = "\n".join(per_row_lines(header, "%.10g,%.10g,%.12g", table)) + "\n"
        argv = [command, *flags, f"--lo={lo}", f"--hi={hi}", "--samples", str(samples)]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == want
        assert main([*argv, "--out", str(tmp_path / "grid.csv")]) == 0
        assert (tmp_path / "grid.csv").read_bytes() == want.encode()

    def test_wigner_not_a_state_exit_2(self, capsys):
        code, _, _ = run(capsys, "wigner", "--n", "0", "--m", "2")
        assert code == 2


class TestVerdictRange:
    SCAN = ["scan", "--family", "mixed-epr", "--mc-min", "0", "--mc-max", "1", "--mc-steps", "2", "--n-steps", "2"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--modes", "2", "--n", "1e100", "--mc", "0"],
            ["classify", "--modes", "1", "--n", "1e160", "--m", "0"],
            ["oracle", "--modes", "2", "--n1", "1", "--n2", "1", "--ms", "1e80"],
            [*SCAN, "--n-min", "1e100", "--n-max", "1e100"],
        ],
        ids=["two-mode-n-1e100", "one-mode-n-1e160", "oracle-ms-1e80", "scan-n-1e100"],
    )
    def test_input_past_the_range_is_refused_before_any_output(self, capsys, tmp_path, argv):
        # past it det C, the band's scale or Delta^2 overflow: the engine printed "pure": true
        # with NaN g, the scan wrote pure = 1 for thermal states, one mode raised OverflowError
        out_file = tmp_path / "out.csv"
        try:
            got = main([*argv, "--out", str(out_file)] if argv[0] == "scan" else argv)
        except SystemExit as exc:  # argparse rejects the value itself
            got = exc.code
        out = capsys.readouterr()
        assert got == 64 and out.out == "" and not out_file.exists()
        assert "error:" in out.err and "Traceback" not in out.err

    @pytest.mark.parametrize("modes", [1, 2])
    def test_largest_admitted_moments_give_finite_verdicts(self, capsys, modes):
        # a well-conditioned C with its largest |eigenvalue| near linalg.MAX_SCALE
        top, m = str(cli._MOMENT_BOUND), str(0.25 * cli._MOMENT_BOUND)
        extra = ["--n", top, "--m", m] if modes == 1 else ["--n1", top, "--n2", top, "--mc", m, "--ms", m, "--m1", m, "--m2", m]
        code, out, _ = run(capsys, "classify", "--modes", str(modes), *extra)
        rep = json.loads(out)  # RuntimeWarning is an error under pytest
        assert code == 0 and np.all(np.isfinite(rep["g"])) and rep["trace_g2"] is not None

    @pytest.mark.parametrize(
        "flags",
        [["wavefun", "--nbar", "0"], ["wavefun", "--nbar", "{top}"], ["wigner", "--n", "0"],
         ["wigner", "--n", "0", "--m", repr(0.5 - 1e-13)], ["wigner", "--n", "{top}", "--m", "{half}j"]],
        ids=["wavefun-vacuum", "wavefun-top", "wigner-vacuum", "wigner-lam-min-1e-13", "wigner-top"],
    )
    def test_largest_admitted_window_gives_finite_cells(self, capsys, flags):
        # a window of +-2.3e74 squares to 5e148; past the bound the cells were nan, with
        # RuntimeWarnings, which are errors under pytest
        top = cli._MOMENT_BOUND
        argv = [f.format(top=repr(top), half=repr(0.5 * top)) for f in flags]
        code, out, _ = run(capsys, *argv, f"--lo={-top!r}", f"--hi={top!r}", "--samples", "9")
        cells = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert code == 0 and len(cells) == 81 and all(map(math.isfinite, cells))


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, code, says",
        [
            (["classify", "--modes", "1", "--n", "nan", "--m", "0"], 64, "--n"),
            (["classify", "--modes", "1", "--n", "inf", "--m", "0"], 64, "--n"),
            (["classify", "--modes", "2", "--family", "mixed-epr", "--n", "0.8", "--mc", "nan"], 64, "--mc"),
            (["wigner", "--n", "nan"], 64, "--n"),
            (["scan", "--family", "mixed-epr", "--mc-min", "0", "--mc-max", "2", "--mc-steps", "1",
              "--n-min", "0", "--n-max", "2", "--n-steps", "3"], 64, "steps"),
            (["convert", "--in", "{no_matrix}", "--to", "W"], 64, "matrix"),
            (["convert", "--in", "{missing}", "--to", "W"], 64, "No such file"),
            (["convert", "--in", "{not_a_state}", "--to", "W"], 2, "negative eigenvalue"),
            # entries past half the largest float: the normal form overflowed to nan, with RuntimeWarnings
            (["convert", "--in", "{huge_c}", "--to", "C"], 64, "an eigenvalue overflows it"),
            (["classify", "--modes", "2", "--mc", "1"], 64, "needs --n or both --n1 and --n2"),
            (["classify", "--modes", "2", "--n1", "1", "--mc", "0.5"], 64, "needs --n or both --n1 and --n2"),
            (["classify", "--modes", "2", "--family", "mixed-epr", "--n", "1"], 64, "--family needs --n and --mc"),
            (["oracle", "--modes", "2", "--ms", "0.1"], 64, "needs --n or both --n1 and --n2"),
            # C -> Q of a C whose eigenvalues span more than 1/(16 eps) is singular within its band
            (["oracle", "--modes", "2", "--n1", "1e17", "--n2", "0"], 3, "min|eigenvalue|"),
            # 201^4 amplitudes are refused before the oracle allocates them
            (["oracle", "--modes", "2", "--n1", "0.5", "--n2", "0.5", "--cutoff", "200"], 64, "cutoff"),
            (["wavefun", "--nbar", "-1"], 2, "nbar must be non-negative"),
            # nbar (nbar + 1) would overflow to inf and nan cells
            (["wavefun", "--nbar", "1e200"], 64, "--nbar"),
            # an admitted one-mode C at the edge |m| = n + 1/2, lam_min = 5.6e-17, has no W
            (["wigner", "--n", "0", "--m", "0.49999999999999994"], 3, "min|eigenvalue|"),
            (["convert", "--in", "{three_modes}", "--to", "W"], 64, "2x2 or 4x4"),
            (["convert", "--in", "{no_modes}", "--to", "W"], 64, "2x2 or 4x4"),
            # --family takes only its own couplings, and only real ones
            (["classify", "--modes", "2", "--family", "squeezed-epr", "--n", "1", "--mc", "0.5", "--m", "0.3+0.9j"], 64, "takes a real --m"),
            (["classify", "--modes", "2", "--family", "mixed-epr", "--n", "1", "--mc", "0.5+1.2j"], 64, "takes a real --mc"),
            (["classify", "--modes", "2", "--family", "mixed-epr", "--n", "0.8", "--mc", "1", "--ms", "0.5"], 64, "takes no --ms"),
            (["classify", "--modes", "2", "--family", "mixed-epr", "--n", "0.8", "--mc", "1", "--n1", "3"], 64, "takes no --n1"),
            (["oracle", "--modes", "2", "--family", "squeezed-epr", "--n", "1", "--mc", "0.5", "--m", "0.3+0.9j"], 64, "takes a real --m"),
            (["oracle", "--modes", "2", "--family", "mixed-epr", "--n", "1", "--mc", "0.5+1.2j"], 64, "takes a real --mc"),
            (["oracle", "--modes", "2", "--family", "anti-epr", "--n", "0.8", "--mc", "1", "--m", "0.5"], 64, "takes no --m"),
            # every input takes only its own moment flags: these printed a verdict without them
            (["classify", "--modes", "2", "--n", "1", "--m", "0.3"], 64, "two-mode input takes no --m"),
            (["classify", "--modes", "1", "--n", "1", "--m", "0.3", "--mc", "5"], 64, "one-mode input takes no --mc"),
            (["classify", "--modes", "1", "--n", "1", "--m", "0.3", "--family", "mixed-epr"], 64,
             "one-mode input takes no --family"),
            (["oracle", "--modes", "2", "--n", "1", "--m", "0.3"], 64, "two-mode input takes no --m"),
            (["oracle", "--modes", "1", "--n", "1", "--m", "0.3", "--mc", "5"], 64, "one-mode input takes no --mc"),
            (["oracle", "--modes", "1", "--n", "1", "--m", "0.3", "--family", "mixed-epr"], 64,
             "one-mode input takes no --family"),
            # mixed-epr has no second coupling for the ratio to set
            (["scan", "--family", "mixed-epr", "--ratio", "7", "--mc-min", "0", "--mc-max", "2", "--mc-steps", "3",
              "--n-min", "0", "--n-max", "2", "--n-steps", "3"], 64, "ratio must be 0"),
            # grid moments and windows take the moment bound: det W underflowed to a zero peak, and
            # the window's squares to nan cells
            (["wigner", "--n", "1e300"], 64, "--n"),
            (["wavefun", "--nbar", "1", "--lo", "-1e300"], 64, "--lo"),
            # an axis past phasespace.MAX_SAMPLES is refused before it is built: numpy raised
            # _ArrayMemoryError from linspace, a traceback with exit 1
            (["scan", "--family", "anti-epr", "--mc-min", "0", "--mc-max", "1", "--mc-steps", "100000000000",
              "--n-min", "0", "--n-max", "1", "--n-steps", "2"], 64, "steps must be at most 16384"),
            (["scan", "--family", "anti-epr", "--mc-min", "0", "--mc-max", "1", "--mc-steps", "2",
              "--n-min", "0", "--n-max", "1", "--n-steps", "16385"], 64, "steps must be at most 16384"),
            (["wigner", "--n", "1", "--samples", "100000000000"], 64, "at most 16384 samples"),
            (["wavefun", "--nbar", "1", "--samples", "16385"], 64, "at most 16384 samples"),
            # --n fills only a missing --n1 or --n2: beside both it was dropped without a word
            (["classify", "--modes", "2", "--n", "0.8", "--n1", "1", "--n2", "1"], 64,
             "two-mode input takes --n only for a missing --n1 or --n2"),
            (["oracle", "--modes", "2", "--n", "0.8", "--n1", "1", "--n2", "1"], 64,
             "two-mode input takes --n only for a missing --n1 or --n2"),
            (["classify", "--modes", "1", "--n", "1"], 64, "one-mode input needs --n and --m"),
            (["classify", "--modes", "1", "--n", "abc", "--m", "0"], 64, "not a float number"),
        ],
        ids=["n-nan", "n-inf", "mc-nan", "wigner-nan", "one-step", "no-matrix", "missing-file",
             "not-a-state-file", "huge-c-file", "two-mode-no-n", "two-mode-no-n2", "family-no-mc", "oracle-no-n", "oracle-singular",
             "oracle-cutoff-too-large", "wavefun-negative-nbar", "wavefun-nbar-past-bound", "wigner-singular-edge",
             "three-mode-file", "zero-mode-file", "family-complex-m", "family-complex-mc", "family-foreign-ms",
             "family-foreign-n1", "oracle-family-complex-m", "oracle-family-complex-mc", "oracle-family-foreign-m",
             "two-mode-foreign-m", "one-mode-foreign-mc", "one-mode-family", "oracle-two-mode-foreign-m",
             "oracle-one-mode-foreign-mc", "oracle-one-mode-family", "scan-mixed-ratio", "wigner-n-past-bound",
             "wavefun-lo-past-bound", "scan-mc-steps-past-bound", "scan-n-steps-past-bound", "wigner-samples-past-bound",
             "wavefun-samples-past-bound", "two-mode-n-beside-n1-n2", "oracle-two-mode-n-beside-n1-n2",
             "one-mode-no-m", "n-not-a-number"],
    )
    def test_documented_exit_without_traceback(self, capsys, tmp_path, argv, code, says):
        names = ("no_matrix", "missing", "not_a_state", "three_modes", "no_modes", "huge_c")
        paths = {name: tmp_path / f"{name}.json" for name in names}
        paths["no_matrix"].write_text(json.dumps({"modes": 1, "kind": "C"}))
        negative = {"modes": 1, "kind": "C", "matrix": [[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]}
        paths["not_a_state"].write_text(json.dumps(negative))
        paths["three_modes"].write_text(json.dumps({"modes": 3, "kind": "C", "matrix": [[1.0, 0.0]] * 36}))
        paths["no_modes"].write_text(json.dumps({"modes": 0, "kind": "C", "matrix": []}))
        huge = {"modes": 1, "kind": "C", "matrix": [[1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [1e308, 0.0]]}
        paths["huge_c"].write_text(json.dumps(huge))
        try:
            got = main([a.format(**paths) for a in argv])
        except SystemExit as exc:  # argparse rejects the value itself
            got = exc.code
        err = capsys.readouterr().err
        assert got == code
        assert "error:" in err and "Traceback" not in err
        assert says in err

    @pytest.mark.parametrize("command", ["classify", "oracle"])
    def test_one_mode_singular_edge_gets_a_verdict(self, capsys, command):
        # an admitted C at the edge |m| = n + 1/2, lam_min = 5.6e-17, has no W: its Tr G^2 is
        # not finite and prints as null, as the two-mode verdict prints it where det C <= 0
        code, out, err = run(capsys, command, "--modes", "1", "--n", "0", "--m", "0.49999999999999994")
        rep = json.loads(out)
        rep = rep.get("analytic", rep)
        assert code == 0 and err == ""
        assert rep["exists"] is True and rep["positive"] is False and rep["trace_g2"] is None

    def test_one_mode_edge_at_lam_zero_gets_a_verdict(self, capsys):
        # lam = n + 1/2 -+ |m| = 0 and 2: the kernel rule admits it, so classify and oracle answer
        # (they printed {"exists": false} with exit 2) and wigner finds no W (it exited 2)
        code, out, err = run(capsys, "classify", "--modes", "1", "--n", "0.5", "--m", "1")
        rep = json.loads(out)
        assert code == 0 and err == ""
        assert rep["exists"] is True and rep["positive"] is False and rep["trace_g2"] is None
        code, out, err = run(capsys, "oracle", "--modes", "1", "--n", "0.5", "--m", "1")
        assert code == 0 and err == "" and json.loads(out)["analytic"] == rep
        code, _, err = run(capsys, "wigner", "--n", "0.5", "--m", "1")
        assert code == 3 and "min|eigenvalue|" in err and "Traceback" not in err


class TestNegativeValues:
    """A value that starts with "-" and a digit or "." is a value with or without "=": argparse
    alone reads only -N and -N.N as numbers, and took -1e-10 or -0.2+0.1j for a flag."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--modes", "2", "--n1", "1e-6", "--n2", "-1e-10"],
            ["classify", "--modes", "2", "--n", "0.8", "--mc", "-0.2+0.1j"],
            ["classify", "--modes", "1", "--n", "1", "--m", "-.3"],
            ["oracle", "--modes", "2", "--n1", "0.5", "--n2", "0.4", "--mc", "-0.2+0.1j"],
            ["scan", "--family", "mixed-epr", "--mc-min", "-1e-3", "--mc-max", "1", "--mc-steps", "3",
             "--n-min", "0", "--n-max", "1", "--n-steps", "3"],
        ],
        ids=["classify-exponent", "classify-complex", "classify-leading-dot", "oracle-complex", "scan-exponent"],
    )
    def test_space_form_reads_as_the_equals_form(self, capsys, argv):
        at = next(i for i, a in enumerate(argv) if a[0] == "-" and (a[1].isdigit() or a[1] == "."))
        joined = [*argv[: at - 1], f"{argv[at - 1]}={argv[at]}", *argv[at + 1 :]]
        got, want = run(capsys, *argv), run(capsys, *joined)
        assert got == want and got[0] == 0 and got[1]


class TestParserCache:
    """``build_parser`` is built once per process, and no call may see another call's flags."""

    def _argvs(self, out):
        scan = ["scan", "--family", "anti-epr", "--mc-min", "0", "--mc-max", "1", "--mc-steps", "3",
                "--n-min", "0", "--n-max", "1", "--n-steps", "4"]
        return [
            [*scan, "--ratio", "0.5", "--out", out],
            scan,  # the default ratio, to stdout
            ["wigner", "--n", "0.3", "--m", "0.2+0.1j", "--lo", "-2", "--samples", "5", "--out", out],
            ["wigner", "--n", "0.3", "--samples", "5"],  # the default m and lo, to stdout
            ["wavefun", "--nbar", "0.5", "--lo", "-1", "--samples", "4"],
            ["wavefun", "--nbar", "0.5", "--samples", "4"],
            ["classify", "--modes", "2", "--n", "0.8", "--mc", "0.5", "--m1", "0.1j"],
            ["classify", "--modes", "2", "--n", "0.8", "--mc", "0.5"],
            ["classify", "--modes", "1", "--n", "0.8", "--m", "0.3"],
            ["classify", "--modes", "2", "--n", "nan"],
            ["oracle", "--modes", "1", "--n", "0.3", "--m", "0.1", "--cutoff", "8"],
            ["convert", "--to", "W"],
        ]

    def _run(self, capsys, path, argv, fresh):
        if fresh:  # a new parser, as in a new process
            cli.build_parser.cache_clear()
        path.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err, path.read_bytes() if path.exists() else None

    def test_consecutive_calls_match_fresh_parsers(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        argvs = self._argvs(str(path))
        fresh = [self._run(capsys, path, argv, True) for argv in argvs]
        cached = [self._run(capsys, path, argv, False) for argv in argvs]
        assert cli.build_parser() is cli.build_parser()
        assert cached == fresh
        # the defaults differ from the flags given one call before, so a carried-over flag would show
        assert fresh[0][3].decode() != fresh[1][1] and fresh[2][3].decode() != fresh[3][1]
        assert fresh[4][1] != fresh[5][1] and fresh[6][1] != fresh[7][1]
        assert [r[0] for r in fresh] == [0] * 9 + [64, 0, 64]
