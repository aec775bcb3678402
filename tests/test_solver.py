import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import toeplitz

from fraclap import solver
from fraclap.assembly import ToeplitzOperator, interior_indices, stiffness_kernel
from fraclap.errors import ConfigError, DataError
from fraclap.grid import Domain, _mass_rows, dirichlet_local, make_grid, objective_local, sample
from fraclap.kernels import FracParams, const_ratio, norm_const
from fraclap.profiles import make_profile
from fraclap.solver import (
    exact_solution_ball,
    frac_laplacian_pointwise,
    solve_frac_system,
    solve_local_dirichlet,
)
from helpers import (
    assemble_frac,
    dirichlet_frac,
    exact_hat_load,
    gaussian_truncated_oracle,
    jacobi_energy,
    jacobi_solution,
    linf_distance,
    objective_frac,
    random_bump,
)

DOM = Domain(-1.0, 1.0, -2.0, 2.0)
G65 = make_grid(DOM, 65)


def const_f(grid, value: float = 1.0):
    return sample(grid, lambda x: value)


class TestAssembly:
    def test_symmetric_positive_definite(self):
        op = assemble_frac(DOM, 65, FracParams(s=0.4, eps=0.2))
        a = toeplitz(op.c)
        assert a.shape == (31, 31)
        assert np.linalg.eigvalsh(a).min() > 0.0

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
            return dirichlet_local(grid, values)

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
        u = solve_frac_system(G65, const_f(G65, 0.0), FracParams(s=0.5))[0]
        assert np.all(u == 0.0)

    def test_linearity(self):
        p = FracParams(s=0.6)
        rng = np.random.default_rng(61)
        f1 = random_bump(rng, G65)
        f2 = random_bump(rng, G65)
        u1 = solve_frac_system(G65, f1, p)[0]
        u2 = solve_frac_system(G65, f2, p)[0]
        u12 = solve_frac_system(G65, f1 + f2, p)[0]
        assert np.allclose(u12, u1 + u2, rtol=1e-12, atol=1e-14)

    def test_zero_outside_omega(self):
        u = solve_frac_system(G65, const_f(G65), FracParams(s=0.5))[0]
        outside = np.abs(G65.nodes) >= 1.0 - 1e-12
        assert np.all(u[outside] == 0.0)

    def test_converges_to_closed_form_ball_solution(self):
        p = FracParams(s=0.6)
        errs = []
        for n in (129, 257, 513):
            grid = make_grid(DOM, n)
            u = solve_frac_system(grid, const_f(grid), p)[0]
            errs.append(linf_distance(grid, u, exact_solution_ball(p, grid.nodes), "box"))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 1e-2

    @pytest.mark.parametrize("s", [0.9, 0.99])
    def test_converges_on_fine_meshes_near_the_local_limit(self, s):
        # needs the kernel exact to the last offset: kernels that lose
        # digits as n grows and s -> 1 make the error grow again here
        p = FracParams(s=s)
        errs = []
        for n in (1025, 4097, 16385):
            grid = make_grid(DOM, n)
            u = solve_frac_system(grid, const_f(grid), p)[0]
            errs.append(linf_distance(grid, u, exact_solution_ball(p, grid.nodes), "box"))
        assert errs[0] > errs[1] > errs[2]

    def test_nonnegative_for_nonnegative_load(self):
        rng = np.random.default_rng(62)
        grid = make_grid(DOM, 129)
        f = np.abs(random_bump(rng, grid))
        for s in (0.3, 0.7):
            u = solve_frac_system(grid, f, FracParams(s=s))[0]
            assert u.min() >= -1e-12

    def test_galerkin_minimality(self):
        p = FracParams(s=0.55)
        rng = np.random.default_rng(63)
        f = random_bump(rng, G65)
        u = solve_frac_system(G65, f, p)[0]
        base = objective_frac(G65, u, f, p)
        for _ in range(5):
            w = random_bump(rng, G65)
            for t in (-0.1, -0.01, 0.01, 0.1):
                assert objective_frac(G65, u + t * w, f, p) >= base - 1e-12


def interior_operator(s: float, n: int):
    grid = make_grid(DOM, n)
    idx = interior_indices(grid)
    return grid, idx, ToeplitzOperator(stiffness_kernel(FracParams(s=s), grid.h, idx.size - 1))


def first_eigenvalue(s: float, n: int) -> float:
    """Galerkin lambda_1 of (A, M) on the interior nodes, M the P1 mass
    matrix: 12 steps of inverse iteration from the ones vector, then the
    Rayleigh quotient."""
    grid, idx, A = interior_operator(s, n)

    def mass(v):
        full = np.zeros(n)
        full[idx] = v
        return _mass_rows(grid, full, "omega")[idx]

    x = np.ones(idx.size)
    for _ in range(12):
        x = A.solve(mass(x))
        x /= np.linalg.norm(x)
    return A.quad_form(x) / float(x @ mass(x))


class TestFirstEigenvalue:
    @pytest.mark.parametrize("s", [0.3, 0.6, 0.9, 0.99, 0.995])
    def test_nested_meshes_and_continuum_bracket(self, s):
        # the P1 spaces at n = 1025, 4097 and 16385 are nested, so by
        # min-max lambda_1 cannot rise under each refinement; the continuum
        # lambda_1 of the standard fractional Laplacian on (-1, 1) lies in
        # [1/2, 1] times (pi^2/4)^s (Chen & Song, J. Funct. Anal. 226
        # (2005)), and fraclap's operator is const_ratio times that one
        coarse, mid, fine = (first_eigenvalue(s, n) for n in (1025, 4097, 16385))
        assert fine <= mid <= coarse
        ratio = fine / (const_ratio(FracParams(s=s)) * (math.pi**2 / 4.0) ** s)
        assert 0.5 <= ratio <= 1.0


# asymmetric, non-polynomial sources on Omega = (-1, 1), smooth on [-1, 1]
JACOBI_SOURCES = (
    ("cos 2x + x", lambda x: np.cos(2.0 * x) + x),
    ("exp x", np.exp),
)


class TestJacobiEnergyOracle:
    @pytest.mark.parametrize("s", [0.1, 0.3, 0.6, 0.9, 0.99])
    def test_energy_error_is_nonnegative_and_falls_like_h(self, s):
        # Galerkin orthogonality gives E - b^T u_h = ||u - u_h||_s^2 >= 0,
        # which falls like h (Acosta & Borthagaray, SINUM 55 (2017)): a
        # factor 4 per 4x n for s <= 0.9, up to a next-order share of at
        # most 4% at these n (4.00-4.15 for both sources).  At s = 0.99 the
        # fall (11.6 and 9.8) is pre-asymptotic, so only its size is bounded
        # below.  The load is f's own, by Gauss on each cell: load_vector
        # integrates f's P1 interpolant, whose O(h^2) data error is not part
        # of this identity
        for name, f in JACOBI_SOURCES:
            energy = jacobi_energy(s, f)
            gaps = []
            for n in (1025, 4097):
                grid, idx, A = interior_operator(s, n)
                b = exact_hat_load(grid, f)[idx]
                gaps.append(energy - float(b @ A.solve(b)))
            assert min(gaps) >= 0.0, name
            if s <= 0.9:
                assert 3.5 <= gaps[0] / gaps[1] <= 4.5, name
            else:
                assert gaps[0] / gaps[1] >= 3.5, name

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.6, 0.9, 0.99])
    def test_point_values_converge_like_h_to_the_s(self, s):
        # the sup of u - u_h over the nodes is at most 0.013 h^s for
        # f = cos 2x + x and 0.036 h^s for f = e^x at n = 1025 and 4097, the
        # rate the (1 - x^2)^s behaviour at the boundary allows; it falls by
        # 4^s per 4x n to within 3% for s <= 0.9, while at s = 0.99 the
        # ratio is still pre-asymptotic, so only the h^s bound applies there
        for name, f in JACOBI_SOURCES:
            errs = []
            for n in (1025, 4097):
                grid = make_grid(DOM, n)
                u = solve_frac_system(grid, sample(grid, f), FracParams(s=s))[0]
                errs.append(float(np.max(np.abs(u - jacobi_solution(s, f, grid.nodes)))))
                assert errs[-1] <= 0.05 * grid.h**s, name
            if s <= 0.9:
                assert errs[0] / errs[1] == pytest.approx(4.0**s, rel=0.1), name


class TestLocalSolve:
    def test_parabola_nodal_exactness(self):
        grid = make_grid(DOM, 257)
        u = solve_local_dirichlet(grid, const_f(grid, 2.0))
        want = np.clip(1.0 - grid.nodes**2, 0.0, None)
        assert np.allclose(u, want, atol=1e-12)

    @pytest.mark.parametrize("n", [65, 4097, 65537])
    def test_parabola_nodal_exactness_on_fine_meshes(self, n):
        grid = make_grid(DOM, n)
        u = solve_local_dirichlet(grid, const_f(grid, 2.0))
        want = np.clip(1.0 - grid.nodes**2, 0.0, None)
        assert np.max(np.abs(u - want)) <= 1e-14

    def test_zero_load(self):
        u = solve_local_dirichlet(G65, const_f(G65, 0.0))
        assert np.all(u == 0.0)


class TestStabilityIdentities:
    def test_frac_energy_gap_identity(self):
        p = FracParams(s=0.45, eps=0.1)
        grid = make_grid(DOM, 257)
        rng = np.random.default_rng(71)
        f = random_bump(rng, grid)
        u = solve_frac_system(grid, f, p)[0]
        base = objective_frac(grid, u, f, p)
        for _ in range(5):
            phi = random_bump(rng, grid)
            gap = objective_frac(grid, phi, f, p) - base
            want = dirichlet_frac(grid, phi - u, p).total
            assert gap == pytest.approx(want, rel=1e-10)

    def test_local_energy_gap_identity(self):
        grid = make_grid(DOM, 257)
        rng = np.random.default_rng(72)
        f = random_bump(rng, grid)
        u = solve_local_dirichlet(grid, f)
        base = objective_local(grid, u, f)
        for _ in range(5):
            phi = random_bump(rng, grid)
            gap = objective_local(grid, phi, f) - base
            want = dirichlet_local(grid, phi - u)
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
        # block holding them all gives the same bits, and g sees one call
        # per block, on all its points' offsets, and none larger than one
        # block
        g = make_profile("bump:amplitude=8,center=0,width=0.5")
        p = FracParams(s=0.9)
        xs = np.linspace(-1.0, 1.0, 103)[1:-1]
        shapes = []

        def counted(t):
            shapes.append(t.shape)
            return g(t)

        blocked = frac_laplacian_pointwise(counted, p, xs, full_output=full_output)
        assert len(shapes) > 1 and sum(rows for rows, _ in shapes) == xs.size
        assert max(rows * offsets for rows, offsets in shapes) <= solver._BLOCK_SAMPLES
        monkeypatch.setattr(solver, "_BLOCK_SAMPLES", 1 << 40)
        whole = frac_laplacian_pointwise(g, p, xs, full_output=full_output)
        assert np.array_equal(blocked, whole)

    def test_own_error_propagates_after_one_call(self):
        calls = []

        def scalar_only(t):
            calls.append(t.shape)
            return float(t)  # TypeError on an array of more than one entry

        with pytest.raises(TypeError):
            frac_laplacian_pointwise(scalar_only, FracParams(s=0.5), np.array([0.0]))
        assert len(calls) == 1

    def test_nonfinite_data_rejected(self):
        with pytest.raises(DataError):
            frac_laplacian_pointwise(lambda t: float("nan"), FracParams(s=0.5), np.array([0.0]))

    def test_nonfinite_sample_anywhere_rejected(self):
        # finite at x, x +- 1 and x +- 50; infinite only near x + 3
        g = lambda t: np.where((2.9 < t) & (t < 3.1), np.inf, np.exp(-t * t))
        with pytest.raises(DataError, match="x=0.0"):
            frac_laplacian_pointwise(g, FracParams(s=0.5), np.array([0.0]))
