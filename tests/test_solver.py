import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import toeplitz

from fraclap import solver
from fraclap.assembly import interior_indices
from fraclap.energies import dirichlet_local, objective_local
from fraclap.errors import ConfigError, DataError
from fraclap.grid import Domain, make_grid, sample
from fraclap.kernels import FracParams, norm_const
from fraclap.profiles import make_profile
from fraclap.solver import (
    exact_solution_ball,
    frac_laplacian_pointwise,
    solve_frac_dirichlet,
    solve_local_dirichlet,
)
from helpers import (
    assemble_frac,
    dirichlet_frac,
    gaussian_truncated_oracle,
    linf_distance,
    objective_frac,
    random_bump,
)

DOM = Domain(-1.0, 1.0, -2.0, 2.0)


def const_f(n: int, value: float = 1.0):
    return sample(DOM, n, lambda x: value)


class TestAssembly:
    def test_symmetric_positive_definite(self):
        op = assemble_frac(DOM, 65, FracParams(s=0.4, eps=0.2))
        a = toeplitz(op.c)
        assert a.shape == (31, 31)
        assert np.linalg.eigvalsh(a).min() > 0.0

    def test_near_one_warns(self):
        with pytest.warns(RuntimeWarning):
            assemble_frac(DOM, 33, FracParams(s=0.9995))

    def test_dimension_guard(self):
        with pytest.raises(ConfigError):
            assemble_frac(DOM, 33, FracParams(s=0.5, d=2))

    def test_no_interior_nodes(self):
        dom = Domain(0.3, 0.4, -0.7, 1.4)
        with pytest.raises(ConfigError):
            assemble_frac(dom, 4, FracParams(s=0.5))

    def test_local_tridiagonal_entries(self):
        # entries of the gradient-energy matrix by polarization of
        # dirichlet_local = 0.5 v^T A v over the hat basis
        grid = make_grid(DOM, 17)
        idx = interior_indices(grid)
        h = 0.25
        m = idx.size

        def energy(*nodes):
            values = np.zeros(grid.n)
            values[list(nodes)] = 1.0
            return dirichlet_local(grid.with_values(values))

        a = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                if i == j:
                    a[i, i] = 2.0 * energy(idx[i])
                else:
                    a[i, j] = energy(idx[i], idx[j]) - energy(idx[i]) - energy(idx[j])
        assert a.shape == (m, m) and m == 7
        assert np.allclose(np.diag(a), 2.0 / h)
        assert np.allclose(np.diag(a, 1), -1.0 / h)
        assert np.all(np.abs(np.triu(a, 2)) <= 1e-12 / h)

    def test_frac_approaches_local_tridiagonal(self):
        # kernel of the gradient-energy matrix: (2/h, -1/h, 0, ...)
        frac = assemble_frac(DOM, 33, FracParams(s=0.999)).c
        h = 0.125
        loc = np.zeros_like(frac)
        loc[0], loc[1] = 2.0 / h, -1.0 / h
        assert np.max(np.abs(frac - loc)) <= 0.05 * np.max(np.abs(loc))


class TestFracSolve:
    def test_zero_load(self):
        u = solve_frac_dirichlet(const_f(65, 0.0), FracParams(s=0.5))
        assert np.all(u.values == 0.0)

    def test_linearity(self):
        p = FracParams(s=0.6)
        rng = np.random.default_rng(61)
        f1 = random_bump(rng, DOM, 65)
        f2 = random_bump(rng, DOM, 65)
        u1 = solve_frac_dirichlet(f1, p)
        u2 = solve_frac_dirichlet(f2, p)
        u12 = solve_frac_dirichlet(f1 + f2, p)
        assert np.allclose(u12.values, u1.values + u2.values, rtol=1e-12, atol=1e-14)

    def test_zero_outside_omega(self):
        u = solve_frac_dirichlet(const_f(65), FracParams(s=0.5))
        outside = np.abs(u.nodes) >= 1.0 - 1e-12
        assert np.all(u.values[outside] == 0.0)

    def test_converges_to_closed_form_ball_solution(self):
        p = FracParams(s=0.6)
        errs = []
        for n in (129, 257, 513):
            u = solve_frac_dirichlet(const_f(n), p)
            ref = u.with_values(exact_solution_ball(p, u.nodes))
            errs.append(linf_distance(u, ref, "box"))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 1e-2

    @pytest.mark.parametrize("s", [0.9, 0.99])
    def test_converges_on_fine_meshes_near_the_local_limit(self, s):
        # needs the kernel exact to the last offset: kernels that lose
        # digits as n grows and s -> 1 make the error grow again here
        p = FracParams(s=s)
        errs = []
        for n in (1025, 4097, 16385):
            u = solve_frac_dirichlet(const_f(n), p)
            ref = u.with_values(exact_solution_ball(p, u.nodes))
            errs.append(linf_distance(u, ref, "box"))
        assert errs[0] > errs[1] > errs[2]

    def test_nonnegative_for_nonnegative_load(self):
        rng = np.random.default_rng(62)
        f = random_bump(rng, DOM, 129)
        f = f.with_values(np.abs(f.values))
        for s in (0.3, 0.7):
            u = solve_frac_dirichlet(f, FracParams(s=s))
            assert u.values.min() >= -1e-12

    def test_galerkin_minimality(self):
        p = FracParams(s=0.55)
        rng = np.random.default_rng(63)
        f = random_bump(rng, DOM, 65)
        u = solve_frac_dirichlet(f, p)
        base = objective_frac(u, f, p)
        for _ in range(5):
            w = random_bump(rng, DOM, 65)
            for t in (-0.1, -0.01, 0.01, 0.1):
                assert objective_frac(u + t * w, f, p) >= base - 1e-12


class TestLocalSolve:
    def test_parabola_nodal_exactness(self):
        u = solve_local_dirichlet(const_f(257, 2.0))
        want = np.clip(1.0 - u.nodes**2, 0.0, None)
        assert np.allclose(u.values, want, atol=1e-12)

    @pytest.mark.parametrize("n", [65, 4097, 65537])
    def test_parabola_nodal_exactness_on_fine_meshes(self, n):
        u = solve_local_dirichlet(const_f(n, 2.0))
        want = np.clip(1.0 - u.nodes**2, 0.0, None)
        assert np.max(np.abs(u.values - want)) <= 1e-14

    def test_zero_load(self):
        u = solve_local_dirichlet(const_f(65, 0.0))
        assert np.all(u.values == 0.0)


class TestStabilityIdentities:
    def test_frac_energy_gap_identity(self):
        p = FracParams(s=0.45, eps=0.1)
        n = 257
        rng = np.random.default_rng(71)
        f = random_bump(rng, DOM, n)
        u = solve_frac_dirichlet(f, p)
        base = objective_frac(u, f, p)
        for _ in range(5):
            phi = random_bump(rng, DOM, n)
            gap = objective_frac(phi, f, p) - base
            want = dirichlet_frac(phi - u, p).total
            assert gap == pytest.approx(want, rel=1e-10)

    def test_local_energy_gap_identity(self):
        n = 257
        rng = np.random.default_rng(72)
        f = random_bump(rng, DOM, n)
        u = solve_local_dirichlet(f)
        base = objective_local(u, f)
        for _ in range(5):
            phi = random_bump(rng, DOM, n)
            gap = objective_local(phi, f) - base
            want = dirichlet_local(phi - u)
            assert gap == pytest.approx(want, rel=1e-10)


class TestBallSolution:
    def test_vanishes_outside(self):
        p = FracParams(s=0.5)
        out = exact_solution_ball(p, np.array([[1.0, -3.7], [-2.0, 1.5]]))
        assert out.shape == (2, 2)
        assert np.all(out == 0.0)

    def test_local_limit_amplitude(self):
        got = exact_solution_ball(FracParams(s=0.999), np.array([0.0]))
        assert got[0] == pytest.approx(0.5, rel=0.02)

    def test_profile_satisfies_unit_source(self):
        p = FracParams(s=0.6)
        g = lambda t: exact_solution_ball(p, t)
        val = frac_laplacian_pointwise(g, p, np.array([0.0, 0.3]))
        assert val == pytest.approx(1.0, rel=2e-2)


class TestPointwiseOperator:
    def test_annihilates_constants(self):
        for s in (0.3, 0.5, 0.9):
            assert np.all(frac_laplacian_pointwise(lambda t: 4.0, FracParams(s=s), np.array([0.2, -0.7])) == 0.0)

    def test_annihilates_affine(self):
        # the symmetric second difference cancels affine terms; only the
        # rounding of g itself survives under the singular weight
        for s in (0.3, 0.5, 0.9):
            p = FracParams(s=s)
            got = frac_laplacian_pointwise(lambda t: 2.0 * t - 1.0, p, np.array([0.2, -0.7]))
            assert np.max(np.abs(got)) <= 1e-9

    def test_local_limit_matches_second_derivative(self):
        p = FracParams(s=0.99)
        g = lambda t: np.exp(-t * t)
        xs = np.array([0.0, 0.5])
        want = -(4.0 * xs * xs - 2.0) * np.exp(-xs * xs)
        assert frac_laplacian_pointwise(g, p, xs) == pytest.approx(want, abs=0.02)

    def test_error_bar(self):
        p = FracParams(s=0.7)
        g = lambda t: np.exp(-t * t)
        xs = np.array([0.0, 0.4])
        val, bar = frac_laplacian_pointwise(g, p, xs, full_output=True)
        assert np.all(bar > 0.0)
        assert np.all(bar < 1e-2)
        assert val == pytest.approx(frac_laplacian_pointwise(g, p, xs), rel=1e-14)

    @pytest.mark.parametrize("s", [0.6, 0.9, 0.99, 0.995])
    def test_consistency_points_match_gaussian_oracle(self, s):
        # all 101 points of the consistency experiment in one call, against
        # the closed form minus the dropped tail; 5e-8 is about twice the
        # largest gap left by freezing the quadratic profile below the near
        # cut (2.3e-8 at s = 0.995), which the quadrature cannot remove
        xs = np.linspace(-1.0, 1.0, 103)[1:-1]
        got = frac_laplacian_pointwise(make_profile("gaussian"), FracParams(s=s), xs)
        want = np.array([gaussian_truncated_oracle(s, float(x)) for x in xs])
        assert got.shape == xs.shape
        assert np.max(np.abs(got - want)) <= 5e-8

    def test_bump_value_within_its_error_bar(self):
        # outside its support the bump's second difference is -g(x+z) on
        # z in (0.088, 1.088); an adaptive rule over (1, 50) can return
        # 0 without sampling that window's last piece
        g = make_profile("bump:amplitude=8,center=0,width=0.5")
        p = FracParams(s=0.9)
        xs = np.linspace(-1.0, 1.0, 103)[21:22]
        x = float(xs[0])
        crossings = sorted(abs(x - edge) for edge in (-0.5, 0.5))
        body, _ = quad(
            lambda z: (2.0 * g(x) - g(x + z) - g(x - z)) * z ** (-1.0 - 2.0 * p.s),
            0.0,
            50.0,
            points=crossings,
            epsabs=1e-13,
            limit=400,
        )
        want = 4.0 * norm_const(p) * body
        val, bar = frac_laplacian_pointwise(g, p, xs, full_output=True)
        assert abs(val[0] - want) <= bar[0]

    def test_array_points_match_one_point_calls(self):
        g = make_profile("gaussian")
        p = FracParams(s=0.8)
        xs = np.array([[-0.4, 0.1], [0.3, 0.9]])
        vals, bars = frac_laplacian_pointwise(g, p, xs, full_output=True)
        assert vals.shape == bars.shape == xs.shape
        for x, val, bar in zip(xs.ravel(), vals.ravel(), bars.ravel()):
            one_val, one_bar = frac_laplacian_pointwise(g, p, np.array([x]), full_output=True)
            assert (one_val[0], one_bar[0]) == pytest.approx((val, bar), rel=1e-13)

    @pytest.mark.parametrize("full_output", [False, True])
    def test_point_blocks_bitwise_equal_one_block(self, monkeypatch, full_output):
        # the consistency experiment's 101 points span several blocks; one
        # block holding them all gives the same bits, and g sees no call
        # larger than one block
        g = make_profile("bump:amplitude=8,center=0,width=0.5")
        p = FracParams(s=0.9)
        xs = np.linspace(-1.0, 1.0, 103)[1:-1]
        sizes = []

        def counted(t):
            sizes.append(np.size(t))
            return g(t)

        blocked = frac_laplacian_pointwise(counted, p, xs, full_output=full_output)
        assert len(sizes) > 1
        assert max(sizes) <= solver._BLOCK_SAMPLES
        monkeypatch.setattr(solver, "_BLOCK_SAMPLES", 1 << 40)
        whole = frac_laplacian_pointwise(g, p, xs, full_output=full_output)
        assert np.array_equal(blocked, whole)

    def test_nonfinite_data_rejected(self):
        with pytest.raises(DataError):
            frac_laplacian_pointwise(lambda t: float("nan"), FracParams(s=0.5), np.array([0.0]))

    def test_nonfinite_sample_anywhere_rejected(self):
        # finite at x, x +- 1 and x +- 50; infinite only near x + 3
        g = lambda t: math.inf if 2.9 < t < 3.1 else math.exp(-t * t)
        with pytest.raises(DataError, match="x=0.0"):
            frac_laplacian_pointwise(g, FracParams(s=0.5), np.array([0.0]))

    def test_dimension_guard(self):
        with pytest.raises(ConfigError):
            frac_laplacian_pointwise(lambda t: 0.0, FracParams(s=0.5, d=2), np.array([0.0]))
