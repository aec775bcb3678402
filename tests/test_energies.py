import math

import numpy as np
import pytest

from fraclap import assembly, mollifier
from fraclap.grid import Domain, dirichlet_local, make_grid, objective_local, sample
from fraclap.kernels import FracParams, norm_const
from fraclap.mollifier import _holder_quotients
from fraclap.profiles import _random_bump_rows, make_profile
from helpers import (
    SupportError,
    assemble_frac,
    dirichlet_frac,
    dirichlet_frac_oracle,
    far_cross_quadrature,
    grid_eval,
    holder_loop,
    holder_quotient,
    holder_seminorm_grid,
    lag_maxima,
    mass_quadratic_form,
    objective_frac,
    random_bump,
    simpson_cells,
)

DOM = Domain(-1.0, 1.0, -2.0, 2.0)
G9, G17, G33, G65, G257 = (make_grid(DOM, n) for n in (9, 17, 33, 65, 257))


def hat(n: int, k: int) -> np.ndarray:
    vals = np.zeros(n)
    vals[k] = 1.0
    return vals


class TestDirichletLocal:
    def test_constant_is_flat(self):
        assert dirichlet_local(G9, sample(G9, lambda x: 3.0)) == 0.0

    def test_single_hat(self):
        # two cells with slope 1/h each: energy h * (1/h)^2 = 1/h
        assert dirichlet_local(G9, hat(9, 4)) == pytest.approx(1.0 / G9.h, rel=1e-14)

    def test_linear_profile(self):
        g = sample(G257, lambda x: x)
        assert dirichlet_local(G257, g) == pytest.approx(0.5 * DOM.box_measure, rel=1e-12)


class TestDirichletFrac:
    def test_zero_function(self):
        e = dirichlet_frac(G17, sample(G17, lambda x: 0.0), FracParams(s=0.5))
        assert e.d1 == 0.0 and e.d2 == 0.0 and e.total == 0.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(3)
        phi = random_bump(rng, G33)
        p = FracParams(s=0.6, eps=0.1)
        base = dirichlet_frac(G33, phi, p).total
        scaled = dirichlet_frac(G33, 2.5 * phi, p).total
        assert scaled == pytest.approx(2.5**2 * base, rel=1e-12)

    @pytest.mark.parametrize("s,eps", [(0.3, 0.0), (0.5, 0.0), (0.7, 0.2), (0.9, 0.0)])
    def test_against_radial_quadrature_oracle(self, s, eps):
        rng = np.random.default_rng(11)
        phi = random_bump(rng, G33)
        p = FracParams(s=s, eps=eps)
        want = dirichlet_frac_oracle(G33, phi, p)
        assert dirichlet_frac(G33, phi, p).total == pytest.approx(want, rel=1e-4)

    def test_nonzero_boundary_rejected(self):
        phi = sample(G17, lambda x: 1.0)
        with pytest.raises(SupportError):
            dirichlet_frac(G17, phi, FracParams(s=0.5))

    def test_far_routes_agree(self):
        # the closed-form far part against the independent quadrature route
        # d2 = (2 C / s) ||phi||_{L2}^2 - 2 * (far cross integral)
        rng = np.random.default_rng(5)
        phi = random_bump(rng, G65)
        for s in (0.3, 0.7):
            p = FracParams(s=s)
            mass = mass_quadratic_form(phi[1:-1], G65.h)
            cross = far_cross_quadrature(G65, phi, p)
            qua_d2 = (2.0 * norm_const(p) / s) * mass - 2.0 * cross
            assert dirichlet_frac(G65, phi, p).d2 == pytest.approx(qua_d2, rel=1e-6)

    def test_matches_assembled_quadratic_form(self):
        from scipy.linalg import toeplitz

        rng = np.random.default_rng(8)
        phi = random_bump(rng, G65)
        p = FracParams(s=0.45, eps=0.15)
        a = toeplitz(assemble_frac(DOM, 65, p).c)
        v = phi[assembly.interior_indices(G65)]
        quad_form = float(v @ (a @ v))
        assert 2.0 * dirichlet_frac(G65, phi, p).total == pytest.approx(quad_form, rel=1e-10)


    def test_one_full_kernel_per_split(self, monkeypatch):
        calls = []
        full_kernel = assembly.stiffness_kernel

        def counted(p, h, kmax):
            calls.append(kmax)
            return full_kernel(p, h, kmax)

        monkeypatch.setattr(assembly, "stiffness_kernel", counted)
        grid = make_grid(DOM, 129)
        phi = random_bump(np.random.default_rng(61), grid)
        for s in (0.3, 0.9):
            p = FracParams(s=s)
            split = dirichlet_frac(grid, phi, p)
            c_far = assembly.far_kernel(p, grid.h, full_kernel(p, grid.h, 126))
            assert split.d2 == 0.5 * assembly.ToeplitzOperator(c_far).quad_form(phi[1:-1])
        # one per dirichlet_frac call; the oracle's own is not counted
        assert calls == [126] * 2


class TestEnergySplitBounds:
    def test_near_part_below_local_energy(self):
        rng = np.random.default_rng(21)
        for s in (0.3, 0.5, 0.7, 0.9):
            p = FracParams(s=s)
            for _ in range(5):
                phi = random_bump(rng, G65)
                e = dirichlet_frac(G65, phi, p)
                assert e.d1 <= dirichlet_local(G65, phi) * (1.0 + 1e-10)

    def test_far_part_mass_bound(self):
        # diagonal term is (2C/s)||phi||^2 and the cross term is bounded by
        # half of it in absolute value, hence the factor 4C/s
        rng = np.random.default_rng(22)
        from fraclap.grid import l2_norm

        for s in (0.3, 0.5, 0.7, 0.9):
            p = FracParams(s=s)
            cap = 4.0 * norm_const(p) / s
            for _ in range(5):
                phi = random_bump(rng, G65)
                e = dirichlet_frac(G65, phi, p)
                assert e.d2 <= cap * l2_norm(G65, phi, "box") ** 2 * (1.0 + 1e-10)

    def test_objective_comparison_with_local(self):
        # with the same right-hand side the nonlocal objective never exceeds
        # the local one by more than the far-field mass term
        rng = np.random.default_rng(23)
        from fraclap.grid import l2_norm

        f = sample(G65, lambda x: np.cos(0.5 * np.pi * x))
        for s in (0.3, 0.5, 0.7, 0.9):
            p = FracParams(s=s)
            cap = 4.0 * norm_const(p) / s
            for _ in range(20):
                phi = random_bump(rng, G65)
                slack = cap * l2_norm(G65, phi, "box") ** 2
                lhs = objective_frac(G65, phi, f, p)
                rhs = objective_local(G65, phi, f) + slack
                assert lhs <= rhs + 1e-10


class TestSeminorm:
    def test_recovers_gradient_norm_near_local_limit(self):
        rng = np.random.default_rng(32)
        phi = random_bump(rng, G257)
        got = math.sqrt(2.0 * dirichlet_frac(G257, phi, FracParams(s=0.99)).total)
        want = math.sqrt(2.0 * dirichlet_local(G257, phi))
        assert got == pytest.approx(want, rel=0.1)


class TestObjectives:
    def test_zero_candidate(self):
        phi = sample(G33, lambda x: 0.0)
        f = sample(G33, lambda x: 1.0)
        assert objective_local(G33, phi, f) == 0.0
        assert objective_frac(G33, phi, f, FracParams(s=0.5)) == 0.0

    def test_load_term_restricted_to_omega(self):
        rng = np.random.default_rng(41)
        grid = make_grid(DOM, 129)
        phi = random_bump(rng, grid)
        f = sample(grid, lambda x: x * x - 0.3)
        xs = np.linspace(DOM.omega_lo, DOM.omega_hi, 4097)
        load = simpson_cells(lambda x: grid_eval(grid, phi, x) * grid_eval(grid, f, x), xs)
        got = objective_local(grid, phi, f)
        assert got == pytest.approx(dirichlet_local(grid, phi) - load, rel=1e-10)


class TestHolderSeminorm:
    def test_constant(self):
        assert holder_seminorm_grid(G33, sample(G33, lambda x: 2.0), 0.5) == 0.0

    def test_linear_with_exponent_one(self):
        assert holder_seminorm_grid(G33, sample(G33, lambda x: x), 1.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_square_root_profile(self):
        # |x|^(1/2) attains its 1/2-Holder quotient at pairs through the origin
        phi = sample(G65, lambda x: np.sqrt(np.abs(x)))
        assert holder_seminorm_grid(G65, phi, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_exponent_validation(self):
        phi = sample(G17, lambda x: x)
        for beta in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                holder_seminorm_grid(G17, phi, beta)

    @pytest.mark.parametrize("n", [3, 33, 129, 1025, 2049])
    def test_matches_lag_loop_exactly(self, n):
        # one row scans many lags per step; for the ramp and beta < 1 the
        # maximum sits at the largest lag, so no lag is skipped
        rng = np.random.default_rng(n)
        grid = make_grid(DOM, n)
        for phi in (rng.standard_normal(n), grid.nodes):
            for beta in (0.1, 0.5, 0.99, 1.0):
                assert holder_seminorm_grid(grid, phi, beta) == holder_loop(grid, phi, beta)


    @pytest.mark.parametrize("shape", [(4, 129), (2, 3, 33), (3, 4097)])
    def test_stack_matches_lag_loop_row_by_row(self, shape):
        # the rows of a stack share one lag set: at (3, 4097) each scanned lag is
        # one (3, n - k) slice, and a row is also scanned where only another needs it
        rng = np.random.default_rng(shape[-1] + 7)
        grid = make_grid(DOM, shape[-1])
        stack = rng.standard_normal(shape)
        got = _holder_quotients(stack, grid.h, (0.5, 1.0))
        assert got.shape == (2,) + shape[:-1]
        for j, beta in enumerate((0.5, 1.0)):
            for idx in np.ndindex(shape[:-1]):
                assert got[j][idx] == holder_loop(grid, stack[idx], beta)


_BETAS = (1e-3, 0.5, 0.9, 1.0)


def two_bumps(n: int) -> np.ndarray:
    """Rows of two bumps each, the second at half weight as in the random
    draws: apart, and overlapping with opposite signs."""
    x = make_grid(DOM, n).nodes
    pairs = (
        ("bump:amplitude=1.3,center=-0.45,width=0.4", "bump:amplitude=-1.8,center=0.5,width=0.35"),
        ("bump:amplitude=-0.7,center=0.1,width=0.5", "bump:amplitude=1.9,center=-0.05,width=0.25"),
    )
    return np.array([make_profile(a)(x) + 0.5 * make_profile(b)(x) for a, b in pairs])


def holder_stacks(n: int):
    """Stacks that end the pruned scan at different lags: seeded bumps,
    rows of two bumps, constant rows (osc = 0), a one-node spike, a few
    spikes on a flat row (some of their pairs near the ends cannot be
    extended by a later lag, where D(a) <= D(a + b) + D(b) fails), a
    monotone ramp (its maximum is at the last lag for beta < 1, so nothing
    is pruned) and a mix.  At n = 16385 the full scan's Python loop over
    every lag is slow, so only 2 seeded bumps and the two-bump rows run."""
    rng = np.random.default_rng(n + 3)
    grid = make_grid(DOM, n)
    if n > 4097:
        return {"bumps": _random_bump_rows(rng, grid, 2), "two_bumps": two_bumps(n)}
    bumps = _random_bump_rows(rng, grid, 20)
    constant = np.array([np.full(n, 1.5), np.zeros(n), np.full(n, -2.0)])
    spike = np.zeros((1, n))
    spike[0, n // 2] = 1.0
    spikes, draw = np.full((40, n), 0.5), np.random.default_rng(n)
    for row in spikes:
        row[draw.integers(0, n, 4)] = draw.uniform(-1.0, 2.0, 4)
    ramp = np.linspace(-1.0, 2.0, n)[None]
    mixed = np.concatenate((bumps[:4], constant[:1], spike, ramp, rng.standard_normal((2, n))))
    return {
        "bumps": bumps,
        "two_bumps": two_bumps(n),
        "constant": constant,
        "spike": spike,
        "spikes": spikes,
        "ramp": ramp,
        "mixed": mixed,
    }


class TestHolderQuotients:
    @pytest.mark.parametrize("n", [3, 65, 129, 513, 16385])
    def test_pruned_scan_equals_full_scan(self, n):
        # each exponent order: a stop decided by one exponent alone ends the
        # scan before the largest lag that another one needs; _BETAS holds
        # mollifier-check's 0.5 and 0.9.  At n = 16385 the scan refines
        # between every 16th lag at strides 8, 4, 2, 1 and skips most lags
        grid = make_grid(DOM, n)
        for name, stack in holder_stacks(n).items():
            lags = lag_maxima(stack)
            for betas in (_BETAS, _BETAS[::-1]):
                got = _holder_quotients(stack, grid.h, betas)
                want = np.array([holder_quotient(lags, grid.h, beta) for beta in betas])
                assert np.array_equal(got, want), name
            for row in stack[:2]:
                got = _holder_quotients(row, grid.h, _BETAS)
                assert got.shape == (len(_BETAS),)
                for beta, quotient in zip(_BETAS, got):
                    assert quotient == holder_loop(grid, row, beta), name

    def test_rounding_margin_keeps_a_lag_above_its_rounded_bound(self, monkeypatch):
        # a ramp through 0: D(21) exceeds the rounded sums D(20) + D(1) and
        # D(16) + D(5) that bound it by one ulp, and at beta = 1 - 3 * 2**-53
        # lag 21 holds the largest quotient, one ulp above the next.  Without
        # the margin of mollifier._ROUND the refinement prunes lag 21
        row = 1.85 * np.arange(-12.0, 12.0)
        beta = 1.0 - 3.0 * 2.0**-53
        lags = lag_maxima(row)
        assert lags[20] > lags[19] + lags[0] and lags[20] > lags[15] + lags[4]
        want = holder_quotient(lags, 1.0, beta)
        assert want == lags[20] / 21.0**beta
        assert _holder_quotients(row, 1.0, (beta,))[0] == want
        monkeypatch.setattr(mollifier, "_ROUND", 1.0)
        assert _holder_quotients(row, 1.0, (beta,))[0] < want

    def test_exponent_validation(self):
        stack = np.zeros((2, 9))
        for betas in ((0.5, 0.0), (1.5,), (0.5, -0.2)):
            with pytest.raises(ValueError):
                _holder_quotients(stack, 0.5, betas)

    @pytest.mark.parametrize("shape", [(0, 9), (3, 1), (2, 0, 5)])
    def test_no_lag_gives_zeros(self, shape):
        # a stack with no rows, or rows of one node, has no lag to scan:
        # every quotient is 0, in the shape of a stack with rows
        got = _holder_quotients(np.ones(shape), 0.5, (0.5, 1.0))
        assert got.shape == (2,) + shape[:-1]
        assert not np.any(got)
