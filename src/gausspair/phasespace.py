"""Gaussian phase-space functions from one z^dag M z, at a point of float coordinates or on a grid taken as one point
of array coordinates: ``wigner_grid`` is ``wigner_value`` on arrays.  ``kernels.require`` checks each kernel's kind."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import GaussianKernel, require
from .states import SmoothedEprParam, epr_wavefunction


@dataclass(frozen=True)
class PhasePoint:
    """Phase-space point, one (q, p) pair per mode: floats, or arrays of one shape for a grid of points."""

    coords: tuple[tuple[float, float], ...]

    @classmethod
    def one_mode(cls, q: float, p: float) -> "PhasePoint":
        return cls(coords=((q, p),))

    @classmethod
    def two_mode(cls, q1: float, p1: float, q2: float, p2: float) -> "PhasePoint":
        return cls(coords=((q1, p1), (q2, p2)))

    @property
    def zvector(self) -> np.ndarray:
        """(z, z*) per mode on axis 0, z = (q + i p) / sqrt(2) in numpy's arithmetic for floats as for arrays."""
        out = []
        for q, p in self.coords:
            z = (np.asarray(q) + 1j * np.asarray(p)) / math.sqrt(2.0)
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


def _quadratic_form(k: GaussianKernel, z: np.ndarray, kind: str):
    """z^dag M z of the kernel M, which must be of ``kind``, for a ``zvector`` (of a point or of a grid)."""
    require(k, kind)
    if len(z) != k.dim:
        raise ValueError("phase point does not match kernel mode count")
    return np.einsum("i...,ij,j...->...", np.conj(z), k.matrix, z)


def wigner_value(k: GaussianKernel, pt: PhasePoint) -> float | np.ndarray:
    """W(z) = sqrt(det W) exp(-z^dag W z / 2); real and positive for valid kernels, an array for a grid of points."""
    return math.sqrt(k.det) * np.exp(-0.5 * np.real(_quadratic_form(k, pt.zvector, "W")))


def characteristic_value(k: GaussianKernel, pt: PhasePoint) -> complex:
    """C(z) = exp(-z^dag C z / 2); equals 1 at the origin (unit trace)."""
    return complex(np.exp(-0.5 * _quadratic_form(k, pt.zvector, "C")))


def wigner_grid(k: GaussianKernel, grid: GridSpec, rows: slice = slice(None)) -> np.ndarray:
    """W(q, p) of a one-mode W kernel on the grid, indexed [q, p]; only the q rows ``rows`` when
    given.  ``wigner_value`` on arrays: numpy's vector loops may round a lone point differently."""
    return wigner_value(k, PhasePoint.one_mode(*np.meshgrid(grid.axis[rows], grid.axis, indexing="ij")))


def scan_wavefunction(p: SmoothedEprParam, grid: GridSpec, rows: slice = slice(None)) -> np.ndarray:
    """The smoothed EPR wave function on the grid, indexed [q1, q2]; only the q1 rows
    ``rows`` when given."""
    return epr_wavefunction(p, *np.meshgrid(grid.axis[rows], grid.axis, indexing="ij"))
