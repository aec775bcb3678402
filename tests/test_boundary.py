import math

import numpy as np
import pytest

from fraclap.errors import ConfigError, ShapeError
from fraclap.grid import Domain, make_grid, sample
from fraclap.kernels import FracParams
from fraclap.mollifier import _ramp, _strip, _strip_rows, energy_gap, mollify
from fraclap.solver import solve_frac_system
from helpers import (
    build_w,
    check_strip_closeness,
    check_strip_l2,
    dist_to_complement,
    fit_slope,
    holder_seminorm_grid,
)

DOM = Domain(-1.0, 1.0, -2.0, 2.0)


def zero(n: int):
    return np.zeros(n)


def solved(grid, s: float):
    f = sample(grid, lambda x: 1.0)
    return solve_frac_system(grid, f, FracParams(s=s))[0]


class TestStripWidth:
    def test_validation(self):
        # r must be finite, positive and below half of |Omega| = 2, for the
        # competitor, its objective gap and the strip rows alike
        grid, u, g, p = make_grid(DOM, 17), zero(17), zero(17), FracParams(s=0.5)
        for r in (0.0, 1.0, math.nan):
            with pytest.raises(ConfigError):
                build_w(grid, u, g, p, r)
            with pytest.raises(ConfigError):
                energy_gap(grid, u, g, g, p, r)
            with pytest.raises(ConfigError, match="strip width"):
                _strip_rows(grid, np.zeros((2, 17)), p, r, 1.0, _strip(grid, r))
        build_w(grid, u, g, p, 0.3)


class TestRamp:
    @pytest.mark.parametrize("n", [33, 130])
    def test_matches_distance_oracle(self, n):
        # lam is the clipped quotient dist_to_complement / r bit for bit
        grid = make_grid(DOM, n)
        x = grid.nodes
        dist = dist_to_complement(DOM, x)
        for r in (0.5 * grid.h, 0.3, 0.999):
            assert np.array_equal(_ramp(DOM, x, r), np.clip(dist / r, 0.0, 1.0))


class TestDistance:
    def test_pointwise_values(self):
        assert dist_to_complement(DOM, -1.5) == 0.0
        assert dist_to_complement(DOM, 1.0) == 0.0
        assert dist_to_complement(DOM, 0.0) == 1.0
        assert dist_to_complement(DOM, 0.9) == pytest.approx(0.1, rel=1e-14)

    def test_vectorized(self):
        out = dist_to_complement(DOM, np.array([-2.0, -0.5, 0.25, 2.0]))
        assert np.allclose(out, [0.0, 0.5, 0.75, 0.0])


class TestBuildW:
    def test_matches_data_outside(self):
        grid = make_grid(DOM, 129)
        u = solved(grid, 0.7)
        g = sample(grid, lambda x: 0.3 * np.cos(x))
        w = build_w(grid, u, g, FracParams(s=0.7), 0.2)
        outside = dist_to_complement(DOM, grid.nodes) == 0.0
        assert np.array_equal(w[outside], g[outside])

    def test_matches_smoothed_solution_deep_inside(self):
        grid = make_grid(DOM, 129)
        p = FracParams(s=0.7)
        u = solved(grid, 0.7)
        g = zero(grid.n)
        w = build_w(grid, u, g, p, 0.25)
        sm = mollify(grid, u, p)
        deep = dist_to_complement(DOM, grid.nodes) >= 0.25 - 1e-12
        assert np.allclose(w[deep], sm[deep], atol=1e-14)

    def test_between_endpoints_on_strip(self):
        grid = make_grid(DOM, 129)
        p = FracParams(s=0.6)
        u = solved(grid, 0.6)
        g = zero(grid.n)
        w = build_w(grid, u, g, p, 0.3)
        sm = mollify(grid, u, p)
        lo = np.minimum(g, sm) - 1e-14
        hi = np.maximum(g, sm) + 1e-14
        assert np.all((w >= lo) & (w <= hi))

    def test_validation(self):
        grid = make_grid(DOM, 65)
        u = solved(grid, 0.5)
        with pytest.raises(ShapeError):
            build_w(grid, u, zero(33), FracParams(s=0.5), 0.1)
        with pytest.raises(ConfigError):
            build_w(grid, u, zero(65), FracParams(s=0.5), 1.0)


class TestStripCloseness:
    def test_zero_inputs(self):
        lhs, rhs = check_strip_closeness(
            make_grid(DOM, 65), zero(65), zero(65), FracParams(s=0.5), 0.2, 0.0, 0.0
        )
        assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("s", [0.5, 0.7, 0.9])
    def test_bound_on_solved_state(self, s):
        grid = make_grid(DOM, 513)
        u = solved(grid, s)
        hold = holder_seminorm_grid(grid, u, s)
        for r in (0.2, 0.1, 0.05):
            lhs, rhs = check_strip_closeness(grid, u, zero(grid.n), FracParams(s=s), r, hold, 0.0)
            assert lhs <= rhs * (1.0 + 1e-4) + 1e-10

    def test_bound_shrinks_with_radius(self):
        grid = make_grid(DOM, 257)
        s = 0.7
        u = solved(grid, s)
        hold = holder_seminorm_grid(grid, u, s)
        out = [
            check_strip_closeness(grid, u, zero(grid.n), FracParams(s=s), r, hold, 0.0)
            for r in (0.3, 0.1, 0.03)
        ]
        rhs = [pair[1] for pair in out]
        assert rhs[0] > rhs[1] > rhs[2]


class TestStripL2:
    def test_zero_inputs(self):
        lhs, rhs = check_strip_l2(make_grid(DOM, 65), zero(65), zero(65), FracParams(s=0.5), 0.2, 0.0, 0.0)
        assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("s", [0.5, 0.7, 0.9])
    def test_bound_on_solved_state(self, s):
        grid = make_grid(DOM, 513)
        u = solved(grid, s)
        hold = holder_seminorm_grid(grid, u, s)
        for r in (0.2, 0.1, 0.05):
            lhs, rhs = check_strip_l2(grid, u, zero(grid.n), FracParams(s=s), r, hold, 0.0)
            assert lhs <= rhs * (1.0 + 1e-4) + 1e-10

    def test_squared_distance_decays_superlinearly(self):
        grid = make_grid(DOM, 513)
        s = 0.7
        u = solved(grid, s)
        hold = holder_seminorm_grid(grid, u, s)
        radii = (0.2, 0.1, 0.05, 0.025)
        lhs = [
            check_strip_l2(grid, u, zero(grid.n), FracParams(s=s), r, hold, 0.0)[0]
            for r in radii
        ]
        slope = fit_slope([math.log(r) for r in radii], [math.log(v) for v in lhs])
        assert slope >= 1.0


class TestEnergyGap:
    def test_zero_inputs(self):
        f = zero(65)
        assert energy_gap(make_grid(DOM, 65), zero(65), zero(65), f, FracParams(s=0.5), 0.2) == 0.0

    def test_decays_toward_local_limit(self):
        grid = make_grid(DOM, 257)
        f = sample(grid, lambda x: 1.0)
        gaps = []
        for s in (0.6, 0.8, 0.95):
            u = solve_frac_system(grid, f, FracParams(s=s))[0]
            r = (1.0 - s) ** (1.0 / s)
            gaps.append(energy_gap(grid, u, zero(grid.n), f, FracParams(s=s), r))
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_invariant_under_constant_shift_with_mean_free_load(self):
        # shifting both the state and the data by a constant changes the
        # objective of each candidate by the same amount when f integrates
        # to zero over Omega, so the gap is unchanged
        grid = make_grid(DOM, 257)
        s = 0.7
        f = sample(grid, lambda x: np.cos(np.pi * x))
        u = solved(grid, s)
        g = sample(grid, lambda x: 0.1 * x)
        base = energy_gap(grid, u, g, f, FracParams(s=s), 0.15)
        c = sample(grid, lambda x: 0.37)
        shifted = energy_gap(grid, u + c, g + c, f, FracParams(s=s), 0.15)
        assert shifted == pytest.approx(base, abs=1e-10)
