import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import toeplitz

from fraclap import assembly
from fraclap.assembly import (
    ToeplitzOperator,
    interior_indices,
    load_vector,
    near_kernel,
    slope_kernel,
)
from fraclap.errors import ConfigError, NumericalError, ShapeError
from fraclap.grid import Domain, dirichlet_local, l2_norm, make_grid, sample
from fraclap.kernels import FracParams
from fraclap.solver import solve_local_dirichlet
from helpers import (
    assemble_frac,
    autocorrelation,
    correlation_exact,
    dense_stiffness,
    dirichlet_frac_oracle,
    eta,
    far_cross_quadrature,
    far_pair_from_kernel,
    grid_eval,
    load_vector_all_cells,
    mass_quadratic_form,
    near_kernel_oracle,
    random_bump,
    refined_dense_solve,
    simpson_cells,
    slope_cholesky_solve,
    slope_kernel_oracle,
    stiffness_column,
    toeplitz_quadratic_form,
    trapezoid,
)

DOM = Domain(-1.0, 1.0, -2.0, 2.0)
G33 = make_grid(DOM, 33)


class TestStiffnessKernel:
    @pytest.mark.parametrize("s,eps", [(0.3, 0.0), (0.6, 0.2), (0.9, 0.0)])
    def test_quadratic_form_matches_energy_oracle(self, s, eps):
        rng = np.random.default_rng(17)
        grid = make_grid(DOM, 33)
        phi = random_bump(rng, grid)
        p = FracParams(s=s, eps=eps)
        v = phi[1:-1]
        got = ToeplitzOperator(slope_kernel(p, grid.h, len(v))).quad_form(v)
        assert got == pytest.approx(2.0 * dirichlet_frac_oracle(grid, phi, p), rel=1e-4)

    def test_local_limit_recovers_gradient_energy(self):
        rng = np.random.default_rng(18)
        grid = make_grid(DOM, 257)
        phi = random_bump(rng, grid)
        v = phi[1:-1]
        got = ToeplitzOperator(slope_kernel(FracParams(s=0.99), grid.h, len(v))).quad_form(v)
        assert got == pytest.approx(2.0 * dirichlet_local(grid, phi), rel=0.05)

    @pytest.mark.parametrize("h", [0.0, -0.1])
    def test_nonpositive_spacing_rejected(self, h):
        with pytest.raises(ConfigError, match="spacing must be positive"):
            slope_kernel(FracParams(s=0.5), h, 5)

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.5 - 1e-9, 0.5 + 1e-9, 0.9, 0.99, 0.999])
    def test_matches_mpmath_closed_form(self, s):
        # slope kernel entries, whose Q_k the library sums from closed forms
        # (k = 0, 1), Gauss-Legendre (up to 32) and the series (beyond), on
        # both sides of each switch, up to the largest offset of
        # n = 2**16 + 1, against the mpmath closed form.  Roundoff model: the
        # rounded exponent 1-2s costs up to eps (ln k + |ln h|), about 4e-15
        # relative here
        h = 1.0 / 256.0
        ks = (0, 1, 2, 3, 4, 31, 32, 33, 64, 1024, 4096, 16384, 65535)
        w = slope_kernel(FracParams(s=s), h, ks[-1])
        for k in ks:
            want = slope_kernel_oracle(s, h, k)
            assert abs(w[k] - want) <= 1e-14 * abs(want), k


class TestLocalStiffness:
    # the local solve is checked against the dense tridiagonal
    # (2/h, -1/h, 0, ...) stiffness built here
    def test_banded_pattern(self):
        grid = make_grid(DOM, 65)
        rng = np.random.default_rng(19)
        f = random_bump(rng, grid)
        u = solve_local_dirichlet(grid, f)
        idx = interior_indices(grid)
        h = grid.h
        kernel = np.zeros(idx.size)
        kernel[0], kernel[1] = 2.0 / h, -1.0 / h
        b = load_vector(grid, f)[idx]
        residual = toeplitz(kernel) @ u[idx] - b
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(b))

    def test_solves_poisson(self):
        grid = make_grid(DOM, 65)
        u = solve_local_dirichlet(grid, sample(grid, lambda x: 2.0))
        idx = interior_indices(grid)
        assert idx.size == 31 and grid.h == 0.0625
        x = grid.nodes[idx]
        assert np.allclose(u[idx], 1.0 - x * x, atol=1e-12)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 10, 12, 16, 64])
    def test_matches_numpy_rule(self, n):
        x, w = assembly._gauss_legendre(n)
        want_x, want_w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - want_x)) <= 1e-15
        assert np.max(np.abs(w - want_w)) <= 1e-14


class TestFarPairs:
    def test_zero_before_reach(self):
        # read back through a second difference of slope entries of size
        # about 1, so zero up to their roundoff; the far pairs from k + 2 on
        # are 3e-5 and more
        h = 0.05
        p = FracParams(s=0.4)
        k = int((1.0 - 2.0 * h) / h) - 1
        assert abs(far_pair_from_kernel(p, h, k)) <= 1e-15

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
    def test_matches_direct_quadrature(self, s):
        # compare against eta weighted by the numeric hat cross-correlation
        h = 0.125
        p = FracParams(s=s)
        for k in (8, 9, 12, 20):

            def hat_corr(u: float) -> float:
                tau = u - k * h
                ts = np.linspace(max(-2.0 * h, tau - 2.0 * h), min(2.0 * h, tau + 2.0 * h), 401)
                if ts[-1] <= ts[0]:
                    return 0.0
                hat0 = np.clip(1.0 - np.abs(ts) / h, 0.0, None)
                hatk = np.clip(1.0 - np.abs(ts - tau) / h, 0.0, None)
                return float(trapezoid(hat0 * hatk, ts))

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                want, _ = quad(
                    lambda u: eta(p, u) * hat_corr(u),
                    max(1.0, (k - 2) * h),
                    (k + 2) * h,
                    limit=200,
                    epsabs=1e-13,
                    epsrel=1e-10,
                )
            got = far_pair_from_kernel(p, h, k)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-14)

    def test_negative_offset_rejected(self):
        # near_kernel takes its offsets from a full kernel, which guards them
        with pytest.raises(ValueError):
            slope_kernel(FracParams(s=0.5), 0.1, -1)


class TestFarKernel:
    def test_far_plus_near_equals_full(self):
        rng = np.random.default_rng(19)
        grid = make_grid(DOM, 65)
        v = random_bump(rng, grid)[1:-1]
        p = FracParams(s=0.55, eps=0.1)
        w = slope_kernel(p, grid.h, len(v))
        w_near = near_kernel(p, grid.h, w)
        near = ToeplitzOperator(w_near).quad_form(v)
        far = ToeplitzOperator(w - w_near).quad_form(v)
        assert near + far == pytest.approx(ToeplitzOperator(w).quad_form(v), rel=1e-12)
        assert near >= 0.0 and far >= 0.0

    def test_matches_independent_cross_quadrature(self):
        rng = np.random.default_rng(20)
        grid = make_grid(DOM, 65)
        phi = random_bump(rng, grid)
        v = phi[1:-1]
        for s in (0.35, 0.75):
            p = FracParams(s=s)
            w = slope_kernel(p, grid.h, len(v))
            got = 0.5 * ToeplitzOperator(w - near_kernel(p, grid.h, w)).quad_form(v)
            from fraclap.kernels import norm_const

            mass = mass_quadratic_form(v, grid.h)
            want = 2.0 * (norm_const(p) / s) * mass - 2.0 * far_cross_quadrature(grid, phi, p)
            assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("n", [65, 257, 4097])
    def test_matches_mpmath_pair_quadrature(self, n):
        # near kernel entries at the head, the offsets around the cut at 1/h
        # and the tail, against mpmath.  Roundoff model: an entry is a sum
        # of terms no larger than |w_k| and (1-s)/s (1 + h m_k + |phi(h)|),
        # each good to a few eps; near the cut the entry itself is O(h**2)
        # of them
        h = 4.0 / (n - 1)
        kmax = n - 2
        reach = int(1.0 / h)
        ks = [0, 1, *range(reach - 3, reach + 4), kmax - 1, kmax]
        for s in (0.3, 0.5, 0.9, 0.99):
            p = FracParams(s=s)
            w = slope_kernel(p, h, kmax)
            near = near_kernel(p, h, w)
            a = 1.0 - 2.0 * s
            phi_h = np.expm1(a * np.log(h)) / a if a else np.log(h)
            for k in ks:
                want = near_kernel_oracle(s, h, k)
                size = abs(w[k]) + (1.0 - s) / s * (1.0 + h * max(k, 1.0 / 3.0) + abs(phi_h))
                assert abs(near[k] - want) <= 1e-14 * size, (s, k)
                assert (near[k] == 0.0) == (want == 0.0), (s, k)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.99])
    def test_near_kernel_vanishes_past_reach(self, s):
        # cells 1/h + 1 or more offsets apart have no pair closer than 1
        h = 4.0 / 4096.0
        p = FracParams(s=s)
        near = near_kernel(p, h, slope_kernel(p, h, 4095))
        k = np.arange(near.size)
        assert np.all(near[k >= 1.0 / h + 1.0] == 0.0)
        assert np.all(near[k < 1.0 / h + 1.0] != 0.0)


def frac_operator(n: int, s: float) -> ToeplitzOperator:
    return assemble_frac(DOM, n, FracParams(s=s))


class TestToeplitz:
    def test_matrix_matches_quadratic_form(self):
        rng = np.random.default_rng(23)
        v = rng.standard_normal(12)
        kernel = rng.standard_normal(13)
        op = ToeplitzOperator(kernel)
        m = dense_stiffness(kernel)
        slopes = np.diff(v, prepend=0.0, append=0.0)
        assert np.allclose(op.matvec(v), m @ v, rtol=1e-12, atol=0.0)
        assert op.quad_form(v) == pytest.approx(float(v @ m @ v), rel=1e-12)
        assert op.quad_form(v) == pytest.approx(toeplitz_quadratic_form(kernel, slopes), rel=1e-12)

    @pytest.mark.parametrize("s", [0.3, 0.99])
    def test_stiffness_products_match_dense_reference(self, s):
        rng = np.random.default_rng(24)
        grid = make_grid(DOM, 513)
        v = random_bump(rng, grid)[interior_indices(grid)]
        op = frac_operator(513, s)
        want = dense_stiffness(op.w) @ v
        slopes = np.diff(v, prepend=0.0, append=0.0)
        assert np.max(np.abs(op.matvec(v) - want)) <= 1e-12 * np.max(np.abs(want))
        assert op.quad_form(v) == pytest.approx(float(v @ want), rel=1e-12)
        assert op.quad_form(v) == pytest.approx(toeplitz_quadratic_form(op.w, slopes), rel=1e-12)

    @pytest.mark.parametrize("n", [65, 513, 2049])
    @pytest.mark.parametrize("s", [0.3, 0.6, 0.9, 0.99])
    def test_solve_matches_dense_cholesky(self, n, s):
        op = frac_operator(n, s)
        grid = make_grid(DOM, n)
        b = load_vector(grid, sample(grid, lambda x: 1.0 + 0.5 * np.sin(3.0 * x)))[interior_indices(grid)]
        want = slope_cholesky_solve(FracParams(s=s), grid.h, b)
        got = op.solve(b)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [513, 2049, 4097])
    @pytest.mark.parametrize("s", [0.3, 0.6, 0.9, 0.99, 0.999])
    def test_solve_matches_refined_dense_solve(self, n, s):
        op = frac_operator(n, s)
        grid = make_grid(DOM, n)
        b = load_vector(grid, sample(grid, lambda x: 1.0 + 0.5 * np.sin(3.0 * x)))[interior_indices(grid)]
        want = refined_dense_solve(op.w, b)
        got = op.solve(b)
        assert np.max(np.abs(got - want)) <= 5e-12 * np.max(np.abs(want))

    def test_cg_steps_stay_few(self, monkeypatch):
        # one product with W per CG step
        steps = []
        slopes = ToeplitzOperator._slopes

        def counted(self, v):
            steps[-1] += 1
            return slopes(self, v)

        monkeypatch.setattr(ToeplitzOperator, "_slopes", counted)
        for n in (33, 65, 513, 4097, 8193):
            b = np.ones(interior_indices(make_grid(DOM, n)).size)
            for s in (0.05, 0.3, 0.6, 0.9, 0.99, 0.999):
                op = frac_operator(n, s)
                steps.append(0)
                op.solve(b)
        assert 0 < min(steps) and max(steps) <= 15

    def test_singular_kernel_raises_numerical_error(self):
        # a slope kernel peaked off the diagonal gives T the diagonal
        # 2 (w[0] - w[1]) = -2, so T and its tau preconditioner are indefinite
        with pytest.raises(NumericalError):
            ToeplitzOperator(np.array([0.0, 1.0, 0.2])).solve(np.ones(2))

    def test_indefinite_tridiagonal_kernel_raises_numerical_error(self):
        # w = (0.6, 0.1, 0.2, 0.3, ...) is affine from k = 1 on, so T's first
        # column -Delta**2 w is (1, -0.6, 0, ...), with eigenvalues
        # 1 - 1.2 cos(pi j / 32) < 0 at j = 1
        kernel = 0.1 * np.arange(32.0)
        kernel[0] = 0.6
        assert np.allclose(stiffness_column(kernel), np.r_[1.0, -0.6, np.zeros(29)], rtol=0.0, atol=1e-15)
        with pytest.raises(NumericalError, match="tau"):
            ToeplitzOperator(kernel).solve(np.ones(31))

    def test_indefinite_kernel_with_definite_preconditioner_raises(self):
        # T's first column -Delta**2 w is (0.8, -0.1, -1.2): tau(T) is
        # positive definite here, so CG itself meets p^T T p < 0
        kernel = np.array([-0.2, -0.6, -0.9, 0.0])
        assert np.allclose(stiffness_column(kernel), (0.8, -0.1, -1.2), rtol=0.0, atol=1e-15)
        assert np.linalg.eigvalsh(dense_stiffness(kernel)).min() < 0.0
        with pytest.raises(NumericalError, match="curvature"):
            ToeplitzOperator(kernel).solve(np.ones(3))

    def test_step_cap_raises_numerical_error(self, monkeypatch):
        monkeypatch.setattr(assembly, "_CG_MAXITER", 2)
        with pytest.raises(NumericalError, match="converge"):
            frac_operator(513, 0.6).solve(np.ones(255))

    def test_matvec_on_stack_matches_rows(self):
        op = frac_operator(129, 0.7)
        stack = np.random.default_rng(43).standard_normal((2, 3, op.w.size - 1))
        got = op.matvec(stack)
        assert got.shape == stack.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], op.matvec(stack[idx]))
        with pytest.raises(ValueError):
            op.quad_form(stack[0])
        with pytest.raises(ValueError):
            op.solve(stack[0])

    def test_compares_and_hashes_by_identity(self):
        op = frac_operator(33, 0.7)
        twin = ToeplitzOperator(op.w)
        assert op == op and op != twin
        assert hash(op) != hash(twin) and len({op, twin, op}) == 2

    def test_solve_rejects_wrongly_shaped_right_hand_side(self):
        op = frac_operator(65, 0.6)
        for shape in ((30,), (32,), (31, 1), (1, 31)):
            with pytest.raises(ValueError):
                op.solve(np.ones(shape))

    def test_non_finite_right_hand_side_raises_numerical_error(self):
        b = np.ones(31)
        b[7] = np.nan
        with pytest.raises(NumericalError):
            frac_operator(65, 0.6).solve(b)

    def test_zero_right_hand_side_gives_zero(self):
        got = frac_operator(65, 0.6).solve(np.zeros(31))
        assert np.all(got == 0.0)

    def test_short_kernel_rejected(self):
        op = ToeplitzOperator(np.zeros(3))
        with pytest.raises(ValueError):
            op.matvec(np.zeros(5))
        with pytest.raises(ValueError):
            op.quad_form(np.zeros(5))
        with pytest.raises(ValueError):
            op.solve(np.ones(5))
        with pytest.raises(ValueError):
            toeplitz_quadratic_form(np.zeros(3), np.zeros(5))

    def test_wrong_length_is_a_shape_error(self):
        # the CLI maps the package's own error types to exit codes
        op = ToeplitzOperator(np.ones(6))
        for call in (op.matvec, op.quad_form, op.solve):
            with pytest.raises(ShapeError, match=r"vector of shape \(4,\) does not match a stiffness matrix of order 5"):
                call(np.ones(4))

    @pytest.mark.parametrize("m", [1, 2])
    def test_smallest_orders_match_dense(self, m):
        rng = np.random.default_rng(31 + m)
        kernel = rng.standard_normal(m + 1)
        v = rng.standard_normal(m)
        want = dense_stiffness(kernel) @ v
        got = ToeplitzOperator(kernel).matvec(v)
        assert got.shape == (m,)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_vector_shorter_than_kernel_rejected(self):
        op = ToeplitzOperator(np.ones(5))
        with pytest.raises(ValueError):
            op.matvec(np.zeros(3))
        with pytest.raises(ValueError):
            op.quad_form(np.zeros(3))
        with pytest.raises(ValueError):
            op.matvec(np.zeros((5, 1)))


class TestMassForm:
    def test_matches_l2_norm(self):
        rng = np.random.default_rng(29)
        grid = make_grid(DOM, 65)
        phi = random_bump(rng, grid)
        got = mass_quadratic_form(phi[1:-1], grid.h)
        assert got == pytest.approx(l2_norm(grid, phi, "box") ** 2, rel=1e-12)


class TestInteriorIndices:
    def test_strict_interior(self):
        g = make_grid(DOM, 9)
        # nodes -2,-1.5,...,2; indices 3,4,5 are -0.5, 0, 0.5
        assert list(interior_indices(g)) == [3, 4, 5]

    def test_boundary_nodes_excluded(self):
        g = make_grid(Domain(-1.0, 1.0, -3.0, 3.0), 13)
        x = g.nodes[interior_indices(g)]
        assert np.all(np.abs(x) < 1.0)
        assert x.size == 3

    def test_no_interior_node_rejected(self):
        # nodes -0.7, 0, 0.7, 1.4 miss (0.3, 0.4)
        with pytest.raises(ConfigError, match="no interior nodes"):
            interior_indices(make_grid(Domain(0.3, 0.4, -0.7, 1.4), 4))


class TestLoadVector:
    def test_against_per_hat_simpson(self):
        grid = make_grid(DOM, 17)
        f = sample(grid, lambda x: np.sin(1.3 * x) + 0.4)
        b = load_vector(grid, f)
        lo, hi = DOM.omega_lo, DOM.omega_hi
        for i, xi in enumerate(grid.nodes):
            a = max(xi - grid.h, lo)
            c = min(xi + grid.h, hi)
            if c <= a:
                assert b[i] == 0.0
                continue
            pts = np.unique(np.clip(np.array([a, xi, c]), a, c))

            def hat_i(x):
                return np.clip(1.0 - np.abs(np.asarray(x) - xi) / grid.h, 0.0, None)

            want = simpson_cells(lambda x: grid_eval(grid, f, x) * hat_i(x), pts)
            assert b[i] == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "dom,n",
        [
            (DOM, 3),
            (DOM, 4),
            (DOM, 5),
            (DOM, 33),
            (DOM, 4097),
            (Domain(-0.9, 0.93, -2.0, 2.0), 33),
            (Domain(-0.3, 0.7, -1.5, 2.2), 4097),
            (Domain(0.01, 0.11, -0.99, 1.11), 4),
        ],
    )
    def test_matches_all_cells_formula(self, dom, n):
        # whole cells take h where the all-cells formula takes the node
        # differences, which carry roundoff growing with max|x| / h
        grid = make_grid(dom, n)
        f = sample(grid, lambda x: np.cos(2.0 * x) + 0.3 * x)
        got = load_vector(grid, f)
        want = load_vector_all_cells(grid, f)
        scale = 8.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(grid.nodes)) / grid.h)
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= scale * grid.h * np.max(np.abs(f))

    def test_constant_function(self):
        grid = make_grid(DOM, 17)
        b = load_vector(grid, sample(grid, lambda x: 2.0))
        # interior hats integrate to h, hats straddling the boundary to less
        idx = interior_indices(grid)
        inner = idx[1:-1]
        assert np.allclose(b[inner], 2.0 * grid.h)
        assert b.sum() == pytest.approx(2.0 * DOM.omega_measure, rel=1e-13)


class TestAutocorrelation:
    def test_zero_shift_is_squared_norm(self):
        rng = np.random.default_rng(31)
        grid = make_grid(DOM, 65)
        phi = random_bump(rng, grid)
        assert autocorrelation(grid, phi, 0.0) == pytest.approx(
            l2_norm(grid, phi, "box") ** 2, rel=1e-12
        )

    def test_matches_breakpoint_oracle(self):
        rng = np.random.default_rng(32)
        phi = random_bump(rng, G33)
        for z in (0.07, 0.5, 1.31, 2.6):
            assert autocorrelation(G33, phi, z) == pytest.approx(
                correlation_exact(G33, phi, z), rel=1e-12, abs=1e-15
            )

    def test_beyond_span(self):
        rng = np.random.default_rng(33)
        phi = random_bump(rng, G33)
        assert autocorrelation(G33, phi, DOM.box_measure) == 0.0
        assert autocorrelation(G33, phi, 17.0) == 0.0

    def test_even_in_shift(self):
        rng = np.random.default_rng(34)
        phi = random_bump(rng, G33)
        assert autocorrelation(G33, phi, -0.4) == pytest.approx(
            autocorrelation(G33, phi, 0.4), rel=1e-14
        )
