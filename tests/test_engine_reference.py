"""The verdict engine takes det C as the product of the eigenvalues it is given.  A
test-local copy of its margins takes det C from LU instead, and the two must decide
alike on the scan families' grids, except within round-off of a boundary."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import family_stack

from gausspair import linalg, states, twomode

FIGURE_PAIRS = [("mixed_epr", 0.0), ("anti_epr", 0.5), ("anti_epr", 1.0), ("squeezed_epr", 0.5), ("squeezed_epr", 1.0)]
FLAGS = ("positive", "pure", "ppt_separable", "p_representable")


def margins(c, eig, det_c):
    """The engine's det-dependent margins (det C - 1/16, base - 2dX, base + 2dX) and
    their band, for a given det C; the same arithmetic as the engine."""

    def det2(r, s):
        return c[..., r, s] * c[..., r + 1, s + 1] - c[..., r, s + 1] * c[..., r + 1, s]

    da, db, dx = det2(0, 0), det2(2, 2), det2(0, 2)
    base = 0.25 + 4.0 * det_c - (da + db)
    a0, a1, a2, a3 = np.moveaxis(np.abs(eig), -1, 0)
    top = np.maximum(a0, a3)
    adj = a0 * a1 * (a2 + a3) + a2 * a3 * (a0 + a1)
    return det_c - 1.0 / 16.0, base - 2.0 * dx, base + 2.0 * dx, linalg.band(np.sqrt(top * (top + adj)), 2)


def decisions(m):
    """(det C >= 1/16, positive margin, PPT margin, det C = 1/16) within the band."""
    d, neg, pos, tol = m
    return d >= -tol, neg >= -tol, pos >= -tol, np.abs(d) <= tol


def lu_flags(c, eig):
    """The engine's four flags, with det C from ``np.linalg.det``."""
    d_ok, neg_ok, pos_ok, pure = decisions(margins(c, eig, np.linalg.det(c)))
    tol_lam = linalg.band(eig[..., 0] + eig[..., 1] + eig[..., 2] + eig[..., 3], 1)
    positive = (eig[..., 0] >= -tol_lam) & d_ok & neg_ok
    return positive, positive & pure, positive & pos_ok, eig[..., 0] - 0.5 > tol_lam


def scan_grid(family, ratio, mc_lo, mc_hi, n_hi, steps):
    """Family stack (gathered here) and closed-form spectrum over mc in [mc_lo, mc_hi],
    n in [0, n_hi], and the flags of the scan's engine on its closed-form invariants and of
    the LU copy, stacked in the order of ``FLAGS``."""
    mc, n = np.meshgrid(np.linspace(mc_lo, mc_hi, steps), np.linspace(0.0, n_hi, steps), indexing="ij")
    invariants = states.family_invariants(family, n, mc, ratio)
    c, eig = family_stack(family, n, mc, ratio), np.stack(invariants[0], axis=-1)
    v = twomode.verdicts_from_invariants(*invariants)
    return c, eig, np.stack([getattr(v, f) for f in FLAGS]), np.stack(lu_flags(c, eig))


def exact_det(m):
    """Determinant of a square list of Fractions by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    minors = ([row[:j] + row[j + 1 :] for row in m[1:]] for j in range(len(m)))
    return sum((-1) ** j * m[0][j] * exact_det(minor) for j, minor in enumerate(minors) if m[0][j])


def exact_inverse(m):
    """Inverse of a square list of Fractions: the adjugate over the determinant."""
    det = exact_det(m)

    def minor(i, j):
        return [row[:j] + row[j + 1 :] for k, row in enumerate(m) if k != i]

    return [[(-1) ** (i + j) * exact_det(minor(j, i)) / det for j in range(len(m))] for i in range(len(m))]


def exact_entries(c):
    """One real C's float entries as Fractions."""
    return [[Fraction(float(x.real)) for x in row] for row in c]


def exact_q_margins(c):
    """(nu1 + nu2, nu1 nu2 - |mus|^2) of one real C, exactly: the Q route's margins,
    with Q = E (C + I/2)^-1 E, nu1 = 1 - Q11, nu2 = 1 - Q22 and mus = Q13."""
    m = exact_entries(c)
    q = exact_inverse([[x + (Fraction(1, 2) if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(m)])
    nu1, nu2, mus = 1 - q[0][0], 1 - q[2][2], q[0][2]  # E's signs cancel on these entries
    return nu1 + nu2, nu1 * nu2 - mus * mus


def exact_det_margin_squares(c):
    """The determinant route's margins a - b, b = 4 sqrt(det C det Cbar), of one real C,
    as the pairs (a, a^2 - b^2): a is 1/16 + 3 det C and 1/8 + 2 det C, and the
    squared kernel is Cbar = C/2 + E C^-1 E / 8."""
    m = exact_entries(c)
    sign = [1, -1, 1, -1]
    w = [[sign[i] * x * sign[j] for j, x in enumerate(row)] for i, row in enumerate(exact_inverse(m))]
    det_c = exact_det(m)
    cross = 16 * det_c * exact_det([[x / 2 + y / 8 for x, y in zip(a, b)] for a, b in zip(m, w)])
    return [(a, a * a - cross) for a in (Fraction(1, 16) + 3 * det_c, Fraction(1, 8) + 2 * det_c)]


def exact_margins(c):
    """(det C - 1/16, base - 2dX, base + 2dX) of one real C, exactly, from its float entries."""
    m = exact_entries(c)

    def det2(r, s):
        return m[r][s] * m[r + 1][s + 1] - m[r][s + 1] * m[r + 1][s]

    det_c, dx = exact_det(m), det2(0, 2)
    base = Fraction(1, 4) + 4 * det_c - (det2(0, 0) + det2(2, 2))
    return det_c - Fraction(1, 16), base - 2 * dx, base + 2 * dx


@pytest.mark.parametrize("family, ratio", FIGURE_PAIRS)
@pytest.mark.parametrize("steps", [201, 401])
def test_figure_grids_match_lu(family, ratio, steps):
    # the grids of scripts/reproduce_figures.py
    _, _, product, lu = scan_grid(family, ratio, 0.0, 2.0, 2.0, steps)
    assert np.array_equal(product, lu)


@pytest.mark.parametrize("family, ratio", FIGURE_PAIRS)
@pytest.mark.parametrize("t", [1e3, 1e6])
def test_large_grids_match_lu(family, ratio, t):
    _, _, product, lu = scan_grid(family, ratio, -t, t, t, 201)
    assert np.array_equal(product, lu)


@pytest.mark.parametrize("family, ratio", FIGURE_PAIRS)
def test_near_half_grids_differ_only_within_two_bands(family, ratio):
    # at t = 1e-6 both symplectic eigenvalues lie near 1/2, where the margins are of the
    # order of their own round-off; a flag may differ between the two routes only where
    # the exact margin of a decision they take differently lies within 2 bands of zero
    c, eig, product, lu = scan_grid(family, ratio, -1e-6, 1e-6, 1e-6, 301)
    det_product = eig[..., 0] * eig[..., 1] * eig[..., 2] * eig[..., 3]
    m_product, m_lu = margins(c, eig, det_product), margins(c, eig, np.linalg.det(c))
    split = [a != b for a, b in zip(decisions(m_product), decisions(m_lu))]
    differs = (product != lu).any(axis=0)
    assert not (differs & ~np.any(split, axis=0)).any()  # only det C separates the routes
    tol = m_product[3]
    for idx in zip(*np.nonzero(differs)):
        exact = exact_margins(c[idx])
        for k, margin in enumerate((*exact, exact[0])):  # the purity test reads det C - 1/16
            if split[k][idx]:
                assert abs(margin) <= 2 * Fraction(float(tol[idx])), (idx, k, float(margin), tol[idx])
