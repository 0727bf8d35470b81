#!/usr/bin/env python3
"""Cross-check closed-form verdicts against the truncated Fock-space oracle.

Runs a batch of random one-mode moments and two-mode kernels (with complex
couplings) plus a few hand-picked boundary cases through ``cli.oracle_report``,
the report of ``gausspair oracle``, and prints one line per input:

    <label>  analytic: pos=… sep=…  oracle: min_eig=… min_ppt=…  <verdict>

Exits non-zero if any decisive oracle sign contradicts the analytic verdict.
"""

import argparse
import math
import sys

import numpy as np

from gausspair import cli, states, twomode
from gausspair.onemode import OneModeMoments


def check(label: str, obj, cutoff: int) -> bool:
    """``gausspair oracle``'s report on one-mode moments or a two-mode C kernel, as one line."""
    report = cli.oracle_report(obj, cutoff, strict=False)
    pos, sep = report["analytic"]["positive"], report["analytic"]["separable"]
    oracle, ok = report["oracle"], report["agree"]

    sep_txt = "n/a" if sep is None else str(sep)
    ppt_txt = "n/a" if sep is None else f"{oracle['min_ppt_eig']:+.2e}"
    verdict = "ok" if ok else "DISAGREE"
    print(
        f"{label:<28s} analytic: pos={pos!s:<5} sep={sep_txt:<5} "
        f"oracle: min_eig={oracle['min_eig']:+.2e} min_ppt={ppt_txt:<9} {verdict}"
    )
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=20, help="random kernels to draw")
    ap.add_argument("--cutoff", type=int, default=16, help="Fock-space cutoff")
    ap.add_argument("--seed", type=int, default=0, help="RNG seed")
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    all_ok = True
    fixed = [
        ("thermal n=0.5", OneModeMoments(0.5, 0.0)),
        ("pure squeezed n=1", OneModeMoments(1.0, math.sqrt(2.0))),
        ("mixed EPR entangled", states.mixed_epr(0.8, 1.0)),
        ("mixed EPR separable", states.mixed_epr(1.2, 1.0)),
        ("footnote counterexample", twomode.product_thermal_kernel(1.0 / 3.0, -1.0 / 3.0)),
    ]
    for label, obj in fixed:
        all_ok &= check(label, obj, args.cutoff)

    for i in range(args.count):
        n = rng.uniform(0.1, 1.2)
        r = rng.uniform(0.0, 1.3)  # past 1.0 crosses the positivity border
        mag = min(r * math.sqrt(n * (n + 1.0)), 0.98 * (n + 0.5))  # keep the state existent
        m = mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
        all_ok &= check(f"random one-mode #{i}", OneModeMoments(n=n, m=m), args.cutoff)

    for i in range(args.count):
        while True:  # complex couplings, redrawn until C is positive definite
            couplings = rng.uniform(0.0, 0.6, 4) * np.exp(2j * np.pi * rng.random(4))
            p = twomode.TwoModeMoments(*rng.uniform(0.1, 1.2, 2), *couplings)
            if np.linalg.eigvalsh(twomode.assemble_c(p))[0] > 0:
                break
        all_ok &= check(f"random two-mode #{i}", twomode.build_C2(p), args.cutoff)

    if not all_ok:
        print("oracle disagreement found", file=sys.stderr)
        return 1
    print("all verdicts agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
