import math

import numpy as np
import pytest

from fraclap.energies import holder_seminorm_grid
from fraclap.errors import ConfigError, ShapeError
from fraclap.grid import Domain, dist_to_complement, sample
from fraclap.kernels import FracParams
from fraclap.mollifier import _ramp, _strip_rows, energy_gap, mollify
from fraclap.solver import solve_frac_dirichlet
from helpers import build_w, check_strip_closeness, check_strip_l2, fit_slope

DOM = Domain(-1.0, 1.0, -2.0, 2.0)


def zero(n: int):
    return sample(DOM, n, lambda x: 0.0)


def solved(n: int, s: float):
    f = sample(DOM, n, lambda x: 1.0)
    return solve_frac_dirichlet(f, FracParams(s=s))


class TestStripWidth:
    def test_validation(self):
        # r must be finite, positive and below half of |Omega| = 2, for the
        # competitor, its objective gap and the strip rows alike
        u, g, p = zero(17), zero(17), FracParams(s=0.5)
        for r in (0.0, 1.0, math.nan):
            with pytest.raises(ConfigError):
                build_w(u, g, p, r)
            with pytest.raises(ConfigError):
                energy_gap(u, g, g, p, r)
            with pytest.raises(ConfigError, match="strip width"):
                _strip_rows(u, np.zeros((2, 17)), p, r, 1.0)
        build_w(u, g, p, 0.3)


class TestRamp:
    @pytest.mark.parametrize("n", [33, 130])
    def test_matches_distance_oracle(self, n):
        # clipped at 0 the signed depth is dist_to_complement, negative
        # exactly outside Omega, and lam is the clipped quotient dist / r
        # bit for bit
        grid = zero(n)
        x = grid.nodes
        dist = dist_to_complement(DOM, x)
        for r in (0.5 * grid.h, 0.3, 0.999):
            depth, lam = _ramp(grid, r)
            assert np.array_equal(np.maximum(depth, 0.0), dist)
            assert np.array_equal(depth < 0.0, (x < DOM.omega_lo) | (x > DOM.omega_hi))
            assert np.array_equal(lam, np.clip(dist / r, 0.0, 1.0))


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
        n = 129
        u = solved(n, 0.7)
        g = sample(DOM, n, lambda x: 0.3 * math.cos(x))
        w = build_w(u, g, FracParams(s=0.7), 0.2)
        outside = dist_to_complement(DOM, w.nodes) == 0.0
        assert np.array_equal(w.values[outside], g.values[outside])

    def test_matches_smoothed_solution_deep_inside(self):
        n = 129
        p = FracParams(s=0.7)
        u = solved(n, 0.7)
        g = zero(n)
        w = build_w(u, g, p, 0.25)
        sm = mollify(u, p)
        deep = dist_to_complement(DOM, w.nodes) >= 0.25 - 1e-12
        assert np.allclose(w.values[deep], sm.values[deep], atol=1e-14)

    def test_between_endpoints_on_strip(self):
        n = 129
        p = FracParams(s=0.6)
        u = solved(n, 0.6)
        g = zero(n)
        w = build_w(u, g, p, 0.3)
        sm = mollify(u, p)
        lo = np.minimum(g.values, sm.values) - 1e-14
        hi = np.maximum(g.values, sm.values) + 1e-14
        assert np.all((w.values >= lo) & (w.values <= hi))

    def test_validation(self):
        u = solved(65, 0.5)
        with pytest.raises(ShapeError):
            build_w(u, zero(33), FracParams(s=0.5), 0.1)
        with pytest.raises(ConfigError):
            build_w(u, zero(65), FracParams(s=0.5), 1.0)


class TestStripCloseness:
    def test_zero_inputs(self):
        lhs, rhs = check_strip_closeness(
            zero(65), zero(65), FracParams(s=0.5), 0.2, 0.0, 0.0
        )
        assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("s", [0.5, 0.7, 0.9])
    def test_bound_on_solved_state(self, s):
        n = 513
        u = solved(n, s)
        hold = holder_seminorm_grid(u, s)
        for r in (0.2, 0.1, 0.05):
            lhs, rhs = check_strip_closeness(u, zero(n), FracParams(s=s), r, hold, 0.0)
            assert lhs <= rhs * (1.0 + 1e-4) + 1e-10

    def test_bound_shrinks_with_radius(self):
        n = 257
        s = 0.7
        u = solved(n, s)
        hold = holder_seminorm_grid(u, s)
        out = [
            check_strip_closeness(u, zero(n), FracParams(s=s), r, hold, 0.0)
            for r in (0.3, 0.1, 0.03)
        ]
        rhs = [pair[1] for pair in out]
        assert rhs[0] > rhs[1] > rhs[2]


class TestStripL2:
    def test_zero_inputs(self):
        lhs, rhs = check_strip_l2(zero(65), zero(65), FracParams(s=0.5), 0.2, 0.0, 0.0)
        assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("s", [0.5, 0.7, 0.9])
    def test_bound_on_solved_state(self, s):
        n = 513
        u = solved(n, s)
        hold = holder_seminorm_grid(u, s)
        for r in (0.2, 0.1, 0.05):
            lhs, rhs = check_strip_l2(u, zero(n), FracParams(s=s), r, hold, 0.0)
            assert lhs <= rhs * (1.0 + 1e-4) + 1e-10

    def test_squared_distance_decays_superlinearly(self):
        n = 513
        s = 0.7
        u = solved(n, s)
        hold = holder_seminorm_grid(u, s)
        radii = (0.2, 0.1, 0.05, 0.025)
        lhs = [
            check_strip_l2(u, zero(n), FracParams(s=s), r, hold, 0.0)[0]
            for r in radii
        ]
        slope = fit_slope([math.log(r) for r in radii], [math.log(v) for v in lhs])
        assert slope >= 1.0


class TestEnergyGap:
    def test_zero_inputs(self):
        f = zero(65)
        assert energy_gap(zero(65), zero(65), f, FracParams(s=0.5), 0.2) == 0.0

    def test_decays_toward_local_limit(self):
        n = 257
        f = sample(DOM, n, lambda x: 1.0)
        gaps = []
        for s in (0.6, 0.8, 0.95):
            u = solve_frac_dirichlet(f, FracParams(s=s))
            r = (1.0 - s) ** (1.0 / s)
            gaps.append(energy_gap(u, zero(n), f, FracParams(s=s), r))
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_invariant_under_constant_shift_with_mean_free_load(self):
        # shifting both the state and the data by a constant changes the
        # objective of each candidate by the same amount when f integrates
        # to zero over Omega, so the gap is unchanged
        n = 257
        s = 0.7
        f = sample(DOM, n, lambda x: math.cos(math.pi * x))
        u = solved(n, s)
        g = sample(DOM, n, lambda x: 0.1 * x)
        base = energy_gap(u, g, f, FracParams(s=s), 0.15)
        c = sample(DOM, n, lambda x: 0.37)
        shifted = energy_gap(u + c, g + c, f, FracParams(s=s), 0.15)
        assert shifted == pytest.approx(base, abs=1e-10)
