"""Command-line surface: classify states, convert kernel files, run region scans,
emit wave-function / Wigner grids, and compare against the Fock oracle.

Exit codes: 0 ok, 2 not-a-state, 3 singular matrix, 4 not P-representable, 5 oracle disagreement,
6 cutoff too small, 64 usage error (including a non-finite number, a moment or grid window past
``linalg.MAX_SCALE`` / 8 or a scan past ``linalg.MAX_SCALE``, a grid or scan axis of more than
``phasespace.MAX_SAMPLES`` points, a moment flag its input does not take, two-mode --n beside both
--n1 and --n2, a non-real ``--family`` coupling, a nonzero mixed-epr ``--ratio``, an unreadable or
malformed file).  A kernel file refused where its kernel is built exits with one code for every
``convert --to``; only what a target adds (3 singular for W, Q, P; 4 for P) depends on ``--to``.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import math
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import fock, linalg, onemode, phasespace, states, twomode
from .errors import (
    CutoffTooSmallError,
    DimensionMismatchError,
    NotAStateError,
    NotPRepresentableError,
    SingularMatrixError,
)
from .kernels import GaussianKernel, convert

EXIT_OK = 0
EXIT_NOT_A_STATE = 2
EXIT_SINGULAR = 3
EXIT_NOT_P_REP = 4
EXIT_DISAGREEMENT = 5
EXIT_CUTOFF = 6
EXIT_USAGE = 64
_EXITS = {NotAStateError: EXIT_NOT_A_STATE, SingularMatrixError: EXIT_SINGULAR,
          NotPRepresentableError: EXIT_NOT_P_REP, CutoffTooSmallError: EXIT_CUTOFF}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1e-10 or -0.2+0.1j is a number, not a flag: no flag starts with "-" and a digit or "."
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


@dataclass(frozen=True)
class ScanRequest:
    family: str  # a key of states.FAMILIES
    ratio: float  # the family's second coupling, ms (anti) or m (squeezed), as ratio * mc
    mc_lo: float
    mc_hi: float
    mc_steps: int
    n_lo: float
    n_hi: float
    n_steps: int

    def __post_init__(self):
        if self.family not in states.FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.ratio and len(states.FAMILIES[self.family]) == 1:
            raise ValueError(f"{self.family} has no second coupling, so its ratio must be 0")
        if self.mc_steps < 2 or self.n_steps < 2:
            raise ValueError("steps must be at least 2")
        if max(self.mc_steps, self.n_steps) > phasespace.MAX_SAMPLES:
            raise ValueError(f"steps must be at most {phasespace.MAX_SAMPLES}")
        n_top, mc_top = np.abs([[self.n_lo, self.n_hi], [self.mc_lo, self.mc_hi]]).max(axis=1).tolist()  # keeps a NaN end
        if not n_top + 0.5 + (1.0 + abs(self.ratio)) * mc_top <= linalg.MAX_SCALE:
            raise ValueError(f"scan moments overflow the verdict range |eigenvalue| <= {linalg.MAX_SCALE:.3g}")


# grid commands evaluate, format and write this many points at a time, in whole outer rows
_BLOCK_POINTS = 6144
# the text of the scan flags (positive, pure, separable, p_representable) of code 8p + 4u + 2s + r
_FLAGS = [",".join(f"{code:04b}") for code in range(16)]


def scan_blocks(req: ScanRequest) -> Iterator[str]:
    """The CSV text of a family region scan, one block of mc rows at a time (``_grid_text``):
    ``classify2``'s engine on ``states.family_invariants``, each point's text looked up by its
    flag code in a table of 16 per n column.  ``ScanRequest`` bounded every |eigenvalue| on the grid by
    ``linalg.MAX_SCALE`` from the axes' ends, where an axis takes its largest |value|, so no axis overflows."""
    mcs, ns = np.linspace(req.mc_lo, req.mc_hi, req.mc_steps), np.linspace(req.n_lo, req.n_hi, req.n_steps)
    cells = np.array([["," + y + "," + f + "\n" for f in _FLAGS] for y in _axis_texts(ns)], dtype=object).ravel()
    column = 16 * np.arange(len(ns))

    def rows_text(rows: slice, heads: list[str]) -> str:
        v = twomode.verdicts_from_invariants(*states.family_invariants(req.family, ns, mcs[rows, None], req.ratio))
        code = 8 * v.positive + 4 * v.pure + 2 * v.ppt_separable + v.p_representable
        return "".join(head + head.join(row) for head, row in zip(heads, cells[code + column].tolist()))

    return _grid_text("mc,n,positive,pure,separable,p_representable", mcs, len(ns), rows_text)


def run_scan(req: ScanRequest) -> list[str]:
    """CSV lines (header included) of ``scan_blocks``.  Nothing in the package calls it; it is
    kept for the traced probe in perfbench/workloads.py."""
    return [line for block in scan_blocks(req) for line in block.split("\n")[:-1]]


def _axis_texts(axis: np.ndarray) -> list[str]:
    return ["%.10g" % x for x in axis.tolist()]


def _grid_text(header: str, outer: np.ndarray, width: int, rows_text: Callable[[slice, list[str]], str]) -> Iterator[str]:
    """CSV text, one block of whole outer rows (about ``_BLOCK_POINTS`` points of ``width``
    columns) at a time: the header line first, then ``rows_text(rows, heads)`` for each slice
    ``rows`` of outer rows, with ``heads`` their values, each formatted once with %.10g."""
    yield header + "\n"
    step = max(1, _BLOCK_POINTS // width)
    for lo in range(0, len(outer), step):
        rows = slice(lo, lo + step)
        yield rows_text(rows, _axis_texts(outer[rows]))


def grid_blocks(header: str, axis: np.ndarray, cell: str, values: Callable[[slice], np.ndarray]) -> Iterator[str]:
    """CSV text as ``_grid_text`` yields it, the line "axis[i],axis[j],cell % v[i, j]" for
    every point of the square grid, with ``values(rows)`` the v of the slice ``rows`` of outer rows.  Each
    outer row is one ``%`` on a template of the whole row; no text or value of the whole grid is held."""
    tails = ["," + y + "," + cell + "\n" for y in _axis_texts(axis)]

    def rows_text(rows: slice, heads: list[str]) -> str:
        block = values(rows).reshape(len(heads), -1).tolist()
        return "".join((head + head.join(tails)) % tuple(row) for head, row in zip(heads, block))

    return _grid_text(header, axis, len(axis), rows_text)


def write_blocks(blocks: Iterable[str], out: str | None):
    """Write text blocks in order to the file ``out``, or to stdout."""
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(blocks)


def verdict_report(obj) -> tuple[dict, GaussianKernel]:
    """The closed-form verdict bundle of one-mode moments or of a two-mode C kernel, as ``classify``
    prints it, and the C kernel it describes."""
    if isinstance(obj, onemode.OneModeMoments):
        k, v = onemode.build_C(obj), onemode.classify(obj)
        g, separable, tg2 = v.g, None, math.inf  # inf where C, at the edge |m| = n + 1/2, has no W
        with contextlib.suppress(SingularMatrixError):
            tg2 = onemode.purity_from_wigner(convert(k, "W"))
    else:
        k, v, tg2 = obj, twomode.classify2(obj), twomode.trace_g2(obj)
        g, separable = [v.thermal.g1, v.thermal.g2] if v.thermal is not None else None, v.ppt_separable
    return {"exists": True, "modes": k.modes, "positive": v.positive, "pure": v.pure, "p_representable": v.p_representable,
            "separable": separable, "g": g, "trace_g2": tg2 if np.isfinite(tg2) else None}, k


def oracle_report(obj, cutoff: int = fock.DEFAULT_CUTOFF, strict: bool = True) -> dict:
    """``verdict_report`` as "analytic", and ``fock.compare`` of its kernel against its verdicts, as
    ``oracle`` prints them.  ``SingularMatrixError`` (exit 3) from C -> Q where |C| is past 1/eps."""
    analytic, k = verdict_report(obj)
    return {"analytic": analytic, **fock.compare(k, analytic["positive"], analytic["separable"], cutoff, strict)}


def _finite(kind, bound: float = math.inf):
    """argparse type that parses ``kind`` (float or complex) and rejects NaN, infinity and
    magnitudes above ``bound``."""

    def parse(text: str):
        try:
            x = kind(text.replace(" ", ""))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a {kind.__name__} number: {text!r}")
        if not cmath.isfinite(x):
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
        if abs(x) > bound:
            raise argparse.ArgumentTypeError(f"{text!r} exceeds {bound:.3g}, the largest moment or window the CLI resolves")
        return x

    return parse


# a moment's C has |eigenvalue| <= n + 1/2 + |m1| + |ms| + |mc|, so this keeps it within MAX_SCALE;
# grid windows take it too, so that the Wigner and wave-function exponents stay finite
_MOMENT_BOUND = linalg.MAX_SCALE / 8
_finite_float = _finite(float)
_moment_float, _moment_complex = _finite(float, _MOMENT_BOUND), _finite(complex, _MOMENT_BOUND)
_MOMENT_FLAGS = ("n", "m", "n1", "n2", "m1", "m2", "ms", "mc")  # occupations real, couplings complex
_FAMILY_CHOICES = [family.replace("_", "-") for family in states.FAMILIES]


def _moments_from_args(args):
    """``OneModeMoments`` or a two-mode C kernel from the moment flags, each input taking only its own:
    one mode --n and --m; two modes --n (for a missing --n1 or --n2), --n1, --n2, --m1, --m2, --ms and
    --mc; a --family --n and its real couplings in ``states.FAMILIES``.  Any other flag exits 64."""
    family = args.family and args.family.replace("-", "_")
    if args.modes == 1:
        source, takes = "one-mode input", ("n", "m")
        if args.n is None or args.m is None:
            raise SystemExit(_usage_error("one-mode input needs --n and --m"))
    elif family:
        source, takes = f"--family {args.family}", ("family", "n", *states.FAMILIES[family])
        if args.n is None or args.mc is None:
            raise SystemExit(_usage_error("--family needs --n and --mc"))
    else:
        source, takes = "two-mode input", _MOMENT_FLAGS[:1] + _MOMENT_FLAGS[2:]
        missing = args.n1 is None or args.n2 is None
        if missing == (args.n is None):  # --n stands for a missing --n1 or --n2, and only for one
            raise SystemExit(_usage_error("two-mode input needs --n or both --n1 and --n2" if missing
                                          else "two-mode input takes --n only for a missing --n1 or --n2"))
    for name in ("family", *_MOMENT_FLAGS):  # only its own flags, and for a family only real couplings
        x = getattr(args, name)
        if x is not None and (name not in takes or family and name != "family" and x.imag):
            raise SystemExit(_usage_error(f"{source} takes {'a real' if name in takes else 'no'} --{name}"))
    if args.modes == 1:
        return onemode.OneModeMoments(n=args.n, m=args.m)
    if family:  # the couplings in the builder's order
        return getattr(states, family)(args.n, *((getattr(args, name) or 0.0).real for name in takes[2:]))
    n1, n2 = (args.n if x is None else x for x in (args.n1, args.n2))
    couplings = (x or 0.0 for x in (args.m1, args.m2, args.ms, args.mc))
    return twomode.build_C2(twomode.TwoModeMoments(n1, n2, *couplings))


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _add_moment_flags(p: _Parser):
    p.add_argument("--modes", type=int, choices=(1, 2), required=True)
    p.add_argument("--family", choices=_FAMILY_CHOICES)
    for name in _MOMENT_FLAGS:
        p.add_argument(f"--{name}", type=_moment_float if name[0] == "n" else _moment_complex)


def kernel_to_json(k: GaussianKernel) -> dict:
    flat = [[float(x.real), float(x.imag)] for x in k.matrix.ravel()]
    return {"modes": k.modes, "kind": k.kind, "matrix": flat}


def kernel_from_json(obj: dict) -> GaussianKernel:
    dim = 2 * int(obj["modes"])
    entries = np.array([complex(re, im) for re, im in obj["matrix"]]).reshape(dim, dim)
    return GaussianKernel(str(obj["kind"]), entries)


def _cmd_classify(args) -> int:
    print(json.dumps(verdict_report(_moments_from_args(args))[0]))
    return EXIT_OK


def _cmd_scan(args) -> int:
    req = ScanRequest(args.family.replace("-", "_"), args.ratio, args.mc_min, args.mc_max, args.mc_steps,
                      args.n_min, args.n_max, args.n_steps)
    write_blocks(scan_blocks(req), args.out)
    return EXIT_OK


def _cmd_convert(args) -> int:
    with open(args.infile) as fh:
        out = convert(kernel_from_json(json.load(fh)), args.to)
    write_blocks([json.dumps(kernel_to_json(out)) + "\n"], args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    report = oracle_report(_moments_from_args(args), args.cutoff)
    print(json.dumps(report))
    return EXIT_OK if report["agree"] else EXIT_DISAGREEMENT


def _cmd_wavefun(args) -> int:
    grid = phasespace.GridSpec(lo=args.lo, hi=args.hi, samples=args.samples)
    p = states.SmoothedEprParam(args.nbar)
    values = functools.partial(phasespace.scan_wavefunction, p, grid)
    write_blocks(grid_blocks("q1,q2,psi", grid.axis, "%.12g", values), args.out)
    return EXIT_OK


def _cmd_wigner(args) -> int:
    # SingularMatrixError (exit 3) where C, at the edge |m| = n + 1/2, has no W
    w = convert(onemode.build_C(onemode.OneModeMoments(n=args.n, m=args.m)), "W")
    grid = phasespace.GridSpec(lo=args.lo, hi=args.hi, samples=args.samples)
    values = functools.partial(phasespace.wigner_grid, w, grid)
    write_blocks(grid_blocks("q,p,w", grid.axis, "%.12g", values), args.out)
    return EXIT_OK


@functools.cache  # built once per process: each parse_args starts from a fresh namespace
def build_parser() -> _Parser:
    parser = _Parser(prog="gausspair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("classify", help="closed-form verdict bundle as JSON")
    _add_moment_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scan", help="region scan over (mc, n) as CSV")
    p.add_argument("--family", required=True, choices=_FAMILY_CHOICES)
    p.add_argument("--ratio", type=_finite_float, default=0.0, help="ms (anti) or m (squeezed) as ratio * mc")
    for axis in ("mc", "n"):
        p.add_argument(f"--{axis}-min", type=_finite_float, required=True)
        p.add_argument(f"--{axis}-max", type=_finite_float, required=True)
        p.add_argument(f"--{axis}-steps", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("convert", help="convert a kernel JSON file between representations")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--to", required=True, choices=("C", "W", "Q", "P"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("oracle", help="compare analytic verdicts with the Fock oracle")
    _add_moment_flags(p)
    p.add_argument("--cutoff", type=int, default=fock.DEFAULT_CUTOFF)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("wavefun", help="smoothed EPR wave function grid as CSV")
    p.add_argument("--nbar", type=_moment_float, required=True)
    p.add_argument("--lo", type=_moment_float, default=-4.0)
    p.add_argument("--hi", type=_moment_float, default=4.0)
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_wavefun)

    p = sub.add_parser("wigner", help="one-mode Wigner function grid as CSV")
    p.add_argument("--n", type=_moment_float, required=True)
    p.add_argument("--m", type=_moment_complex, default=0j)
    p.add_argument("--lo", type=_moment_float, default=-4.0)
    p.add_argument("--hi", type=_moment_float, default=4.0)
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_wigner)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXITS) as exc:  # a refusal: the documented exit code of its kind
        if type(exc) is NotAStateError and args.command in ("classify", "oracle"):  # moments of no state
            print(json.dumps({"exists": False, "reason": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return _EXITS[type(exc)]
    except (KeyError, ValueError, TypeError, OSError, DimensionMismatchError) as exc:
        return _usage_error(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
