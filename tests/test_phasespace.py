import math

import numpy as np
import pytest

from conftest import assert_close
from gausspair import onemode, phasespace, states
from gausspair.kernels import convert
from gausspair.onemode import OneModeMoments
from gausspair.phasespace import GridSpec, PhasePoint


def wigner_kernel(n, m=0.0):
    return convert(onemode.build_C(OneModeMoments(n, m)), "W")


class TestPhasePoint:
    def test_zvector_convention(self):
        z = PhasePoint.one_mode(1.0, 1.0).zvector
        want = (1.0 + 1.0j) / math.sqrt(2.0)
        assert z[0] == pytest.approx(want)
        assert z[1] == pytest.approx(np.conj(want))

    def test_two_mode_layout(self):
        z = PhasePoint.two_mode(1.0, 0.0, 0.0, 2.0).zvector
        assert z.shape == (4,)
        assert z[2] == pytest.approx(2.0j / math.sqrt(2.0))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="16384"):
            GridSpec(0.0, 1.0, phasespace.MAX_SAMPLES + 1)
        assert GridSpec(0.0, 1.0, phasespace.MAX_SAMPLES).step == 1.0 / (phasespace.MAX_SAMPLES - 1)

    def test_axis_and_step(self):
        g = GridSpec(-1.0, 1.0, 5)
        assert_close(g.axis, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert g.step == pytest.approx(0.5)


class TestWignerValue:
    def test_vacuum_origin(self):
        assert phasespace.wigner_value(
            wigner_kernel(0.0), PhasePoint.one_mode(0.0, 0.0)
        ) == pytest.approx(2.0)

    def test_thermal_origin(self):
        assert phasespace.wigner_value(
            wigner_kernel(1.0), PhasePoint.one_mode(0.0, 0.0)
        ) == pytest.approx(2.0 / 3.0)

    def test_peak_at_origin(self):
        k = wigner_kernel(0.5, 0.3)
        origin = phasespace.wigner_value(k, PhasePoint.one_mode(0.0, 0.0))
        rng = np.random.default_rng(7)
        for _ in range(50):
            q, p = rng.uniform(-3, 3, size=2)
            assert phasespace.wigner_value(k, PhasePoint.one_mode(q, p)) <= origin

    def test_normalization_on_grid(self):
        for n in (0.0, 1.0):
            k = wigner_kernel(n)
            sigma = math.sqrt(n + 0.5)
            grid = GridSpec(-6 * sigma, 6 * sigma, 201)
            total = np.sum(phasespace.wigner_grid(k, grid)) * grid.step**2 / (2 * math.pi)
            assert 0.999 <= total <= 1.001

    def test_requires_w_kernel(self):
        c = onemode.build_C(OneModeMoments(0.0, 0.0))
        with pytest.raises(ValueError):
            phasespace.wigner_value(c, PhasePoint.one_mode(0.0, 0.0))

    def test_grid_rows_match_wigner_value(self):
        # complex m makes W asymmetric under q <-> p, so the row order shows
        k = wigner_kernel(0.7, 0.3 + 0.4j)
        grid = GridSpec(-3.0, 2.0, 9)
        want = [[phasespace.wigner_value(k, PhasePoint.one_mode(q, p)) for p in grid.axis] for q in grid.axis]
        np.testing.assert_allclose(phasespace.wigner_grid(k, grid), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rows", [slice(0, 7), slice(7, 14), slice(28, None)])
    def test_row_blocks_equal_the_whole_grid(self, rows):
        # the CLI evaluates the grid one block of q rows at a time; its bytes need the same floats
        k = wigner_kernel(0.7, 0.2 + 0.3j)
        grid = GridSpec(-4.0, 4.0, 33)
        assert np.array_equal(phasespace.wigner_grid(k, grid, rows), phasespace.wigner_grid(k, grid)[rows])
        p = states.SmoothedEprParam(0.4)
        assert np.array_equal(phasespace.scan_wavefunction(p, grid, rows), phasespace.scan_wavefunction(p, grid)[rows])

    def test_grid_requires_one_mode_w_kernel(self):
        grid = GridSpec(-1.0, 1.0, 3)
        with pytest.raises(ValueError):
            phasespace.wigner_grid(onemode.build_C(OneModeMoments(0.0, 0.0)), grid)
        with pytest.raises(ValueError):
            phasespace.wigner_grid(convert(states.mixed_epr(0.5, 0.2), "W"), grid)


class TestCharacteristicValue:
    def test_unit_trace_at_origin(self):
        c = onemode.build_C(OneModeMoments(1.3, 0.4j))
        assert phasespace.characteristic_value(
            c, PhasePoint.one_mode(0.0, 0.0)
        ) == pytest.approx(1.0)

    def test_vacuum_at_unit_q(self):
        c = onemode.build_C(OneModeMoments(0.0, 0.0))
        # q' = sqrt(2), p' = 0 gives z = 1 and z^dag C z = 1
        got = phasespace.characteristic_value(c, PhasePoint.one_mode(math.sqrt(2.0), 0.0))
        assert got == pytest.approx(math.exp(-0.5))

    def test_reflection_symmetry(self):
        c = onemode.build_C(OneModeMoments(0.7, 0.2 + 0.1j))
        for q, p in [(0.3, -1.2), (1.1, 0.4)]:
            plus = phasespace.characteristic_value(c, PhasePoint.one_mode(q, p))
            minus = phasespace.characteristic_value(c, PhasePoint.one_mode(-q, -p))
            assert minus == pytest.approx(np.conj(plus))


class TestScanWavefunction:
    def test_ground_state_rotationally_symmetric(self):
        psi = phasespace.scan_wavefunction(states.SmoothedEprParam(0.0), GridSpec(-2.0, 2.0, 21))
        for i in range(21):
            assert psi[i, i] == pytest.approx(psi[i, 20 - i], abs=1e-12)

    def test_entangled_ridge_ratio(self):
        p = states.SmoothedEprParam(1.0)
        psi = phasespace.scan_wavefunction(p, GridSpec(-1.0, 1.0, 3))  # q = -1, 0, 1
        assert psi[2, 2] / psi[2, 0] == pytest.approx(
            math.exp(4.0 * math.sqrt(2.0)), rel=1e-9
        )

    def test_maximum_at_origin(self):
        psi = phasespace.scan_wavefunction(states.SmoothedEprParam(1.0), GridSpec(-3.0, 3.0, 31))
        assert np.unravel_index(np.argmax(psi), psi.shape) == (15, 15)

    def test_row_major_order(self):
        p = states.SmoothedEprParam(0.7)
        psi = phasespace.scan_wavefunction(p, GridSpec(0.0, 1.0, 2))  # indexed [q1, q2]
        want = [[states.epr_wavefunction(p, q1, q2) for q2 in (0.0, 1.0)] for q1 in (0.0, 1.0)]
        assert_close(psi, want)
