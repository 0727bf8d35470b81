"""Known defects, each held at or below the count its probe (``probes``) gave when it was written.
A bound is lowered when a fix lowers the count, down to 0, and is never raised."""

import probes


def test_ppt_split_at_the_anti_epr_separability_boundary():
    # classify2 of a fresh partial transpose against classify2's PPT flag on carried invariants
    split, kernels = probes.ppt_split()
    assert kernels == 4000 and split <= 8


def test_p_file_round_trip_near_the_p_edge():
    # a P file that convert writes is refused when read back
    refused, written = probes.p_file_round_trip()
    assert written == 2989 and refused <= 8


def test_near_half_product_signs():
    # the engine cannot resolve second-order margins where both symplectic eigenvalues lie near 1/2
    wrong, margins = probes.near_half_product_signs()
    assert margins == 195 and wrong <= 40
