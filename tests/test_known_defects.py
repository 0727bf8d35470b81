"""Known defects, each held at or below the count its probe (``probes``) gave when it was written.
A bound is lowered when a fix lowers the count, down to 0, and is never raised."""

import probes


def test_ppt_split_at_the_anti_epr_separability_boundary():
    # classify2 of the partial transpose against classify2's PPT flag on carried invariants
    split, kernels = probes.ppt_split()
    assert kernels == 4000 and split <= 0


def test_p_file_round_trip_near_the_p_edge():
    # a P file that convert writes is refused when read back
    refused, written = probes.p_file_round_trip()
    assert written == 2989 and refused <= 8


def test_wq_file_round_trip_near_a_singular_c():
    # a W or Q file that convert writes is refused when read back: W within eigh's round-off of the
    # reader, Q as no state where lam = 1/x - 1/2 carries more round-off than tr C's existence band
    counts = probes.wq_file_round_trip()
    assert counts["W"][1] == 2048 and counts["W"][0] <= 15
    assert counts["Q"][1] == 3000 and counts["Q"][0] <= 338


def test_converted_pair_residual_of_an_eigh_built_c():
    # eigh's V of a C with clustered eigenvalues errs by about eps |C| / gap, and not T-symmetrically: the normal form
    # removes that error from a converted kernel's matrix but not from its carried pair (V, x), which for P, whose
    # x = 1/(lam - 1/2) spread widest, misses the matrix by more than a closed-form pair's band(max|x|, 1)
    counts = probes.converted_pair_residual()
    assert counts["W"][1] == counts["Q"][1] == 300 and counts["W"][0] <= 0 and counts["Q"][0] <= 0
    assert counts["P"][1] == 299 and counts["P"][0] <= 138


def test_near_half_product_signs():
    # the engine cannot resolve second-order margins where both symplectic eigenvalues lie near 1/2
    wrong, margins = probes.near_half_product_signs()
    assert margins == 195 and wrong <= 40


def test_wigner_point_grid_split():
    # wigner_value at one point and wigner_grid on arrays share z, z^dag W z and np.exp; einsum reduces a (2,)
    # operand in another order than a (2, R, C) one, so a lone point can still differ in the last bit
    split, points = probes.wigner_point_grid_split()
    assert points == 2116 and split <= 5


def test_family_boundary_signs():
    # the engine cannot resolve det C - 1/16 or the positivity margin within its band of the boundary
    wrong, margins = probes.family_boundary_signs()
    assert margins == 1200 and wrong <= 201


def test_q_route_boundary_split():
    # at classify2's positivity boundary the Q route, whose band is narrower than the engine's band(s, 2), calls
    # the kernel not positive, so ppt_separable raises on a kernel that classify2 calls positive
    refused, kernels = probes.q_route_boundary_split()
    assert kernels == 500 and refused <= 476


def test_one_mode_returned_c_p_edge():
    # the C that C -> P -> C returns carries n + 1/2 -+ |m| unchanged, but its formed matrix's moments,
    # which onemode.classify reads, can lose the P edge in the last bits where m is complex
    counts = probes.one_mode_returned_c_p_edge()
    assert counts["arg m = 0.0"][1] == 1437 and counts["arg m = 0.0"][0] <= 0
    assert counts["arg m = 0.7"][1] == 1430 and counts["arg m = 0.7"][0] <= 8


def test_negative_truncation_loss():
    # the oracle's cutoff gate is one-sided: a non-positive operator's truncated trace can exceed 1, and its
    # negative loss passes the gate loss > LOSS_THRESHOLD however large it is
    negative, builds = probes.negative_truncation_loss()
    assert builds == 200 and negative <= 102
