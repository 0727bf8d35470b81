#!/usr/bin/env python3
"""Emit the region-scan CSVs behind the package's standard state-family plots.

Produces, under --out-dir:
  mixed_epr.csv           positivity/separability regions over (mc, n)
  anti_epr_half.csv       anti-EPR family at ms = mc/2
  anti_epr_unit.csv       anti-EPR family at ms = mc (entangled region vanishes)
  squeezed_epr_half.csv   squeezed family at m = mc/2
  squeezed_epr_unit.csv   squeezed family at m = mc
  epr_wavefunction.csv    |psi|^2 grid of the smoothed EPR state at nbar = 1
"""

import argparse
import pathlib

from gausspair import states
from gausspair.cli import ScanRequest, grid_blocks, scan_blocks, write_blocks
from gausspair.phasespace import GridSpec, scan_wavefunction


def write_scan(path: pathlib.Path, family: str, ratio: float, steps: int) -> None:
    req = ScanRequest(family, ratio, 0.0, 2.0, steps, 0.0, 2.0, steps)
    write_blocks(scan_blocks(req), str(path))
    print(f"wrote {path} ({steps}x{steps})")


def write_wavefunction(path: pathlib.Path, nbar: float, steps: int) -> None:
    grid = GridSpec(-3.0, 3.0, steps)
    p = states.SmoothedEprParam(nbar)
    density = grid_blocks("q1,q2,density", grid.axis, "%.10g", lambda r: scan_wavefunction(p, grid, r) ** 2)
    write_blocks(density, str(path))
    print(f"wrote {path} ({steps}x{steps})")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="figures", help="output directory")
    ap.add_argument("--steps", type=int, default=201, help="grid points per axis")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_scan(out / "mixed_epr.csv", "mixed_epr", 0.0, args.steps)
    write_scan(out / "anti_epr_half.csv", "anti_epr", 0.5, args.steps)
    write_scan(out / "anti_epr_unit.csv", "anti_epr", 1.0, args.steps)
    write_scan(out / "squeezed_epr_half.csv", "squeezed_epr", 0.5, args.steps)
    write_scan(out / "squeezed_epr_unit.csv", "squeezed_epr", 1.0, args.steps)
    write_wavefunction(out / "epr_wavefunction.csv", nbar=1.0, steps=121)


if __name__ == "__main__":
    main()
