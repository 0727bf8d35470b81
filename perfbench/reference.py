"""Independent references that the benchmark scores gausspair's outputs against.

Nothing here imports gausspair.  Every verdict is recomputed with numpy alone,
from the raw C matrix or from the family parameters, so a defect in the
package cannot hide in its own reference.

A reference verdict is three-valued: True, False, or None when the deciding
margin lies inside a band that scales with the kernel.  Round-off in a
determinant of a 4x4 matrix with entries of size s grows like eps * s**4, so
a margin closer to zero than that decides nothing and is not scored.
"""

from __future__ import annotations

import io
import math

import numpy as np

EPS = float(np.finfo(float).eps)
BAND_K = 64.0  # margins within BAND_K * eps * scale**degree of zero are boundary cases
ROUND_TRIP_K = 1e3  # round-trip error allowed, in units of eps * condition number
DEAD_BAND = 1e-5  # Fock eigenvalues this close to zero decide nothing
LOSS_LIMIT = 1e-3  # Fock checks losing more trace weight than this are not scored


def decide(margin: float, band: float) -> bool | None:
    """True if margin > band, False if margin < -band, else None (boundary)."""
    if margin > band:
        return True
    if margin < -band:
        return False
    return None


def assemble_c2(n1, n2, m1=0j, m2=0j, ms=0j, mc=0j) -> np.ndarray:
    """Two-mode C matrix in the (z1, z1*, z2, z2*) ordering."""
    a, b = n1 + 0.5, n2 + 0.5
    cj = np.conj
    return np.array(
        [
            [a, m1, ms, mc],
            [cj(m1), a, cj(mc), cj(ms)],
            [cj(ms), mc, b, m2],
            [cj(mc), ms, cj(m2), b],
        ],
        dtype=complex,
    )


def _det2(m: np.ndarray) -> float:
    return float((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real)


def invariant_margins(c: np.ndarray, transpose: bool = False) -> tuple[float, float, float]:
    """(det C - 1/16, 1/4 + 4 det C - (dA + dB +- 2 dX), band) for a two-mode C.

    These are the local symplectic invariants (Simon, PRL 84, 2726 (2000)) in
    the normalization where vacuum is C = I/2.  Both margins are >= 0 iff the
    state is positive; with ``transpose`` the sign of dX flips and the same
    test decides PPT separability.
    """
    d = float(np.linalg.det(c).real)
    da, db, dx = _det2(c[:2, :2]), _det2(c[2:, 2:]), _det2(c[:2, 2:])
    sign = -1.0 if transpose else 1.0
    band = BAND_K * EPS * float(np.trace(c).real) ** 4
    return d - 1.0 / 16.0, 0.25 + 4.0 * d - (da + db + sign * 2.0 * dx), band


def invariant_verdict(c: np.ndarray, transpose: bool = False) -> bool | None:
    m1, m2, band = invariant_margins(c, transpose)
    return _both(decide(m1, band), decide(m2, band))


def _both(a: bool | None, b: bool | None) -> bool | None:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


# Closed-form family margins (the state is positive, or separable given
# positivity, iff the margin is >= 0); the same formulas as gausspair.states.

def family_margins(family: str, n, mc, x):
    """(positivity margin, separability margin, band) of an EPR family member,
    for floats or, elementwise, for arrays.

    ``x`` is ms for the anti-EPR family, m for the squeezed one, and unused for
    the mixed one.
    """
    nn = n * (n + 1.0)
    if family == "mixed_epr":
        pos, sep = nn - mc * mc, n - abs(mc)
    elif family == "anti_epr":
        pos = nn - 2.0 * x * (n + 0.5) + x * x - mc * mc
        sep = nn - 2.0 * mc * (n + 0.5) + mc * mc - x * x
    elif family == "squeezed_epr":
        pos = nn - (mc + x) ** 2
        sep = nn - 2.0 * mc * (n + 0.5) + mc * mc - x * x
    else:
        raise ValueError(f"unknown family {family!r}")
    band = BAND_K * EPS * (n + 1.0 + abs(mc) + abs(x)) ** 2
    return pos, sep, band


def family_matrix(family: str, n: float, mc: float, x: float) -> np.ndarray:
    if family == "mixed_epr":
        return assemble_c2(n, n, mc=mc)
    if family == "anti_epr":
        return assemble_c2(n, n, mc=mc, ms=x)
    return assemble_c2(n, n, m1=x, m2=x, mc=mc)


def hermitian_floor(c: np.ndarray, shift: float = 0.0) -> bool | None:
    """Sign of the smallest eigenvalue of C - shift*I, with a band ~ eps*||C||."""
    eig = np.linalg.eigvalsh(c)
    return decide(float(eig[0]) - shift, BAND_K * EPS * max(1.0, float(np.max(np.abs(eig)))))


def two_mode_truth(kind: str, params: dict, c: np.ndarray) -> dict:
    """Reference verdicts for a two-mode input: keys exists, positive,
    separable, pure, p_rep (each True, False or None)."""
    if kind in ("pure_d", "smoothed"):
        # pure states exist and are positive and pure by construction; they are
        # separable iff the cross term gamma of D vanishes, and a pure state other
        # than a coherent one is never P-representable
        return {
            "exists": True,
            "positive": True,
            "pure": True,
            "separable": params["gamma"] == 0.0,
            "p_rep": False,
        }
    if kind in ("mixed_epr", "anti_epr", "squeezed_epr"):
        pos, sep, band = family_margins(kind, params["n"], params["mc"], params["x"])
        positive, separable = decide(pos, band), decide(sep, band)
    else:
        positive = invariant_verdict(c)
        separable = invariant_verdict(c, transpose=True)
    d_margin, _, band = invariant_margins(c)
    return {
        "exists": hermitian_floor(c),
        "positive": positive,
        "separable": separable,
        "pure": False if decide(abs(d_margin), band) else None,
        "p_rep": hermitian_floor(c, 0.5),
    }


def one_mode_truth(n: float, m: complex, exact_pure: bool) -> dict:
    am = abs(m)
    scale = BAND_K * EPS * (n + 1.0) ** 2
    exists = decide(n + 0.5 - am, BAND_K * EPS * (n + 1.0))
    if exact_pure:
        positive, pure = True, True
    else:
        margin = n * (n + 1.0) - am * am
        positive = decide(margin, scale)
        pure = False if decide(abs(margin), scale) else None
    p_rep = decide(n - am, BAND_K * EPS * (n + 1.0))
    return {"exists": exists, "positive": positive, "separable": None, "pure": pure, "p_rep": p_rep}


def round_trip_ok(c_in: np.ndarray, c_out: np.ndarray, through_p: bool) -> bool:
    """C -> W -> Q (-> P) -> C must return C within eps times the condition
    numbers of the matrices inverted on the way, relative to ||C||."""
    eig = np.linalg.eigvalsh(c_in)
    cond = eig[-1] / eig[0] * (eig[-1] + 0.5) / (eig[0] + 0.5)
    if through_p:
        cond *= (eig[-1] - 0.5) / (eig[0] - 0.5)
    scale = float(np.max(np.abs(c_in)))
    err = float(np.max(np.abs(c_out - c_in)))
    return err <= ROUND_TRIP_K * EPS * cond * scale


# ---- grids -----------------------------------------------------------------

def parse_csv(data: bytes, header: str, ncols: int, nrows: int) -> np.ndarray | None:
    """Parse an LF-terminated numeric CSV; None if it is malformed."""
    if b"\r" in data or not data.endswith(b"\n"):
        return None
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return None
    first, _, body = text.partition("\n")
    if first != header:
        return None
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError:
        return None
    if table.shape != (nrows, ncols) or not np.all(np.isfinite(table)):
        return None
    return table


def scan_reference(family: str, ratio: float, mcs: np.ndarray, ns: np.ndarray):
    """Reference flags (positive, pure, separable, p_rep) over a scan grid, row-major
    over mc then n, as float arrays holding 1, 0, or nan for boundary points."""
    mc, n = (g.ravel() for g in np.meshgrid(mcs, ns, indexing="ij"))
    x = ratio * mc
    pos, sep, band2 = family_margins(family, n, mc, x)
    zero = np.zeros_like(n)
    m1, ms = {"mixed_epr": (zero, zero), "anti_epr": (zero, x), "squeezed_epr": (x, zero)}[family]
    a = n + 0.5
    c = np.stack(
        [np.stack(r, axis=-1) for r in ([a, m1, ms, mc], [m1, a, mc, ms], [ms, mc, a, m1], [mc, ms, m1, a])],
        axis=-2,
    )
    eig = np.linalg.eigvalsh(c)
    scale = np.maximum(1.0, np.abs(eig).max(axis=1))
    band4 = BAND_K * EPS * (4.0 * a) ** 4

    def tri(margin, band):
        out = np.full(margin.shape, np.nan)
        out[margin > band] = 1.0
        out[margin < -band] = 0.0
        return out

    exists = tri(eig[:, 0], BAND_K * EPS * scale)
    positive = np.where(exists == 0.0, 0.0, tri(pos, band2))
    positive[np.isnan(exists) & (positive == 1.0)] = np.nan
    separable = np.where(positive == 0.0, 0.0, np.where(positive == 1.0, tri(sep, band2), np.nan))
    d_margin = np.abs(np.linalg.det(c) - 1.0 / 16.0)
    pure = np.where(positive == 0.0, 0.0, np.where(d_margin > band4, 0.0, np.nan))
    p_rep = np.where(exists == 0.0, 0.0, tri(eig[:, 0] - 0.5, BAND_K * EPS * scale))
    return mc, n, np.column_stack([positive, pure, separable, p_rep])


def flags_agree(got: np.ndarray, want: np.ndarray) -> bool:
    scored = ~np.isnan(want)
    return bool(np.all(got[scored] == want[scored]))


def wigner_reference(n: float, m: complex, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Closed-form one-mode Wigner function in the package's normalization,
    W(z) = exp(-(a|z|^2 + Re(m conj(z)^2)) / det C) / sqrt(det C) with
    a = n + 1/2, det C = a^2 - |m|^2 and z = (q + i p)/sqrt(2)."""
    a = n + 0.5
    det = a * a - abs(m) ** 2
    z = (q + 1j * p) / math.sqrt(2.0)
    quad = a * np.abs(z) ** 2 + np.real(m * np.conj(z) ** 2)
    return np.exp(-quad / det) / math.sqrt(det)


def wavefunction_reference(nbar: float, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Smoothed-EPR wave function pi^-1/2 exp(-(nbar+1/2)(q1^2+q2^2) + 2 sqrt(nbar(nbar+1)) q1 q2)."""
    return math.pi**-0.5 * np.exp(
        -(nbar + 0.5) * (q1**2 + q2**2) + 2.0 * math.sqrt(nbar * (nbar + 1.0)) * q1 * q2
    )


# ---- oracle ----------------------------------------------------------------

def oracle_agrees(min_eig: float, positive: bool, min_ppt: float | None, separable: bool | None) -> tuple[bool, int, int]:
    """The agreement rule of the package's acceptance test: a Fock eigenvalue
    outside DEAD_BAND must carry the closed form's sign, and one inside it may
    not contradict a positive (separable) verdict by more than the band.

    Returns (agree, decisive comparisons, comparisons).
    """
    ok, decisive, compared = True, 0, 1
    if abs(min_eig) > DEAD_BAND:
        decisive += 1
        ok &= (min_eig > 0) == positive
    elif positive:
        ok &= min_eig > -DEAD_BAND
    if min_ppt is not None:
        compared += 1
        if abs(min_ppt) > DEAD_BAND:
            decisive += 1
            ok &= (min_ppt > 0) == separable
        elif separable:
            ok &= min_ppt > -DEAD_BAND
    return bool(ok), decisive, compared
