"""Numeric evaluation of Gaussian phase-space functions on grids."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import GaussianKernel
from .states import SmoothedEprParam, epr_wavefunction


@dataclass(frozen=True)
class PhasePoint:
    """Phase-space point, one (q, p) pair per mode."""

    coords: tuple[tuple[float, float], ...]

    @classmethod
    def one_mode(cls, q: float, p: float) -> "PhasePoint":
        return cls(coords=((q, p),))

    @classmethod
    def two_mode(cls, q1: float, p1: float, q2: float, p2: float) -> "PhasePoint":
        return cls(coords=((q1, p1), (q2, p2)))

    @property
    def zvector(self) -> np.ndarray:
        """Column (z, z*) per mode with z = (q + i p) / sqrt(2)."""
        out = []
        for q, p in self.coords:
            z = (q + 1j * p) / math.sqrt(2.0)
            out.extend([z, np.conj(z)])
        return np.array(out)


# the most points one grid axis takes, here and in ``cli``'s scans, checked before any axis is built:
# a scan holds 16 cell texts per n value, 2**18 at this bound, and peaks near 60 MB RSS
MAX_SAMPLES = 2**14


@dataclass(frozen=True)
class GridSpec:
    """Uniform per-axis sampling [lo, hi] with ``samples`` points, 2 to ``MAX_SAMPLES``."""

    lo: float
    hi: float
    samples: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("grid requires lo < hi")
        if self.samples < 2:
            raise ValueError("grid requires at least 2 samples")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"grid requires at most {MAX_SAMPLES} samples")

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.samples)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.samples - 1)


def _quadratic_form(k: GaussianKernel, pt: PhasePoint, kind: str) -> complex:
    """z^dag M z of the kernel M, which must be of ``kind``, at the phase point."""
    if k.kind != kind:
        raise ValueError(f"expected a {kind} kernel")
    z = pt.zvector
    if z.size != k.dim:
        raise ValueError("phase point does not match kernel mode count")
    return np.conj(z) @ k.matrix @ z


def wigner_value(k: GaussianKernel, pt: PhasePoint) -> float:
    """W(z) = sqrt(det W) exp(-z^dag W z / 2); real and positive for valid kernels."""
    return math.sqrt(k.det) * math.exp(-0.5 * np.real(_quadratic_form(k, pt, "W")))


def characteristic_value(k: GaussianKernel, pt: PhasePoint) -> complex:
    """C(z) = exp(-z^dag C z / 2); equals 1 at the origin (unit trace)."""
    return complex(np.exp(-0.5 * _quadratic_form(k, pt, "C")))


def wigner_grid(k: GaussianKernel, grid: GridSpec, rows: slice = slice(None)) -> np.ndarray:
    """W(q, p) of a one-mode W kernel on the grid, indexed [q, p]; only the q rows ``rows``
    when given.  The same W(z) as ``wigner_value``, evaluated on the whole array at once.
    """
    if k.modes != 1 or k.kind != "W":
        raise ValueError("wigner_grid evaluates one-mode W kernels")
    q, p = np.meshgrid(grid.axis[rows], grid.axis, indexing="ij")
    z = (q + 1j * p) / math.sqrt(2.0)
    v = np.stack([z, np.conj(z)])
    quad = np.real(np.einsum("i...,ij,j...->...", np.conj(v), k.matrix, v))
    return math.sqrt(k.det) * np.exp(-0.5 * quad)


def scan_wavefunction(p: SmoothedEprParam, grid: GridSpec, rows: slice = slice(None)) -> np.ndarray:
    """The smoothed EPR wave function on the grid, indexed [q1, q2]; only the q1 rows
    ``rows`` when given."""
    return epr_wavefunction(p, *np.meshgrid(grid.axis[rows], grid.axis, indexing="ij"))
