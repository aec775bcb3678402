import numpy as np
import pytest

from fraclap.assembly import load_vector
from fraclap.errors import ConfigError, DataError, ShapeError
from fraclap.grid import (
    Domain,
    Grid,
    _mass_rows,
    dirichlet_local,
    l2_norm,
    make_grid,
    objective_local,
    product_integral,
    sample,
)
from fraclap.kernels import FracParams
from fraclap.mollifier import energy_gap, mollify
from fraclap.solver import solve_frac_system, solve_local_dirichlet
from helpers import grid_eval, linf_distance, product_integral_oracle, product_rows_all_cells

DOM = Domain(-1.0, 1.0, -2.0, 2.0)
G5, G9, G17, G33 = (make_grid(DOM, n) for n in (5, 9, 17, 33))


def random_values(n: int, seed: int = 42) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=n)


class TestDomain:
    def test_measures(self):
        assert DOM.omega_measure == 2.0
        assert DOM.box_measure == 4.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigError):
            Domain(1.0, -1.0, -3.0, 3.0)

    def test_thin_margin_rejected(self):
        with pytest.raises(ConfigError):
            Domain(-1.0, 1.0, -1.5, 1.5)

    def test_margin_exactly_one_accepted(self):
        Domain(-1.0, 1.0, -2.0, 2.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            Domain(-1.0, 1.0, -np.inf, 2.0)


class TestMakeGrid:
    def test_uniform_nodes_and_zero_values(self):
        g = make_grid(Domain(-1.0, 1.0, -3.0, 3.0), 7)
        assert isinstance(g, Grid) and g.n == 7
        assert np.array_equal(g.nodes, np.arange(-3.0, 4.0))
        assert np.array_equal(sample(g, lambda x: 0.0), np.zeros(7))
        assert g.h == 1.0

    def test_too_few_nodes(self):
        with pytest.raises(ConfigError):
            make_grid(DOM, 2)

    def test_nodes_are_one_read_only_array_per_grid(self):
        # every function on a grid shares its node array, so none may write it
        g = make_grid(DOM, 33)
        assert g.nodes is make_grid(DOM, 33).nodes
        assert np.array_equal(g.nodes, np.linspace(DOM.box_lo, DOM.box_hi, 33))
        assert make_grid(DOM, 65).nodes.shape == (65,)
        with pytest.raises(ValueError):
            g.nodes[0] = 1.0


class TestEval:
    def test_constant(self):
        for x in (-5.0, -2.0, 0.3, 1.9, 7.0):
            assert grid_eval(G9, np.full(9, 3.5), x) == 3.5

    def test_identity_samples_reproduce_midpoint(self):
        mid = G9.nodes[3] + 0.5 * G9.h
        assert grid_eval(G9, G9.nodes, mid) == pytest.approx(mid, abs=1e-15)

    def test_hat_is_nodal(self):
        vals = np.zeros(9)
        vals[4] = 1.0
        assert grid_eval(G9, vals, G9.nodes[4]) == 1.0
        assert grid_eval(G9, vals, G9.nodes[3]) == 0.0

    def test_constant_extension_outside_box(self):
        vals = np.linspace(2.0, 5.0, 9)
        assert grid_eval(G9, vals, -100.0) == 2.0
        assert grid_eval(G9, vals, 100.0) == 5.0

    def test_affine_cellwise_exact(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=17)
        x = G17.nodes[5] + 0.25 * G17.h
        expect = 0.75 * vals[5] + 0.25 * vals[6]
        assert grid_eval(G17, vals, x) == pytest.approx(expect, rel=1e-14)

    def test_array_argument(self):
        out = grid_eval(G9, np.ones(9), np.array([0.0, 0.5]))
        assert isinstance(out, np.ndarray)
        assert np.all(out == 1.0)


class TestSample:
    def test_square(self):
        g = sample(G5, lambda x: x**2)
        assert np.array_equal(g, np.array([4.0, 1.0, 0.0, 1.0, 4.0]))

    def test_indicator_pattern(self):
        g = sample(G9, lambda x: np.where((x > -1.0) & (x < 1.0), 1.0, 0.0))
        inside = (G9.nodes > -1.0) & (G9.nodes < 1.0)
        assert np.array_equal(g, inside.astype(float))

    def test_nonfinite_sample_names_node(self):
        with np.errstate(divide="ignore"), pytest.raises(DataError, match="node"):
            sample(G5, lambda x: 1.0 / x)

    def test_one_call_on_the_whole_array(self):
        # an array result is taken as it is, a 0-d one is broadcast
        for f, want in ((lambda x: x + 1.0, [-1.0, 0.0, 1.0, 2.0, 3.0]), (lambda x: 2.5, [2.5] * 5)):
            calls = []
            g = sample(G5, lambda x: calls.append(x.shape) or f(x))
            assert calls == [(5,)]
            assert np.array_equal(g, want)

    def test_scalar_only_callable(self):
        # f sees the whole node array once; its own error propagates, with
        # no retry per node
        calls = []

        def to_float(x):
            calls.append(x.shape)
            return float(x) + 1.0  # TypeError on an array of 5

        def branch(x):
            calls.append(x.shape)
            return 1.0 if x > 0.0 else 0.0  # ValueError: ambiguous truth value

        for f, error in ((to_float, TypeError), (branch, ValueError)):
            calls.clear()
            with pytest.raises(error):
                sample(G5, f)
            assert calls == [(5,)]

    def test_roundtrip_through_eval(self):
        g = sample(G33, np.cos)
        resampled = sample(G33, lambda x: grid_eval(G33, g, x))
        assert np.array_equal(g, resampled)

    def test_new_writable_array(self):
        # a broadcast constant comes back as an array of its own
        g = sample(G5, lambda x: 2.5)
        g[0] = 1.0
        assert np.array_equal(g, [1.0, 2.5, 2.5, 2.5, 2.5])


class TestArithmetic:
    """P1 functions are float arrays, combined by numpy's arithmetic; what
    reaches a public function is checked there by Grid.check."""

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            G5.check([0.0, np.nan, 0.0, 0.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            G5.check(np.zeros(4))

    def test_stacks_pass_as_float_arrays(self):
        v = G5.check(np.arange(10).reshape(2, 5))
        assert v.dtype == float and v.shape == (2, 5)

    @pytest.mark.parametrize("bad,error", [(np.zeros(8), ShapeError), (np.r_[0.0, np.inf, np.zeros(7)], DataError)])
    def test_every_public_function_checks_its_arrays(self, bad, error):
        good, p = np.zeros(9), FracParams(s=0.5)
        calls = [
            lambda: product_integral(G9, bad, good),
            lambda: product_integral(G9, good, bad),
            lambda: l2_norm(G9, bad),
            lambda: dirichlet_local(G9, bad),
            lambda: objective_local(G9, bad, good),
            lambda: objective_local(G9, good, bad),
            lambda: load_vector(G9, bad),
            lambda: solve_frac_system(G9, bad, p),
            lambda: solve_local_dirichlet(G9, bad),
            lambda: mollify(G9, bad, p),
            lambda: energy_gap(G9, bad, good, good, p, 0.3),
            lambda: energy_gap(G9, good, bad, good, p, 0.3),
            lambda: energy_gap(G9, good, good, bad, p, 0.3),
        ]
        for call in calls:
            with pytest.raises(error):
                call()

    def test_local_energy_of_a_stack_is_a_shape_error(self):
        # one function only: the BLAS dot of one difference vector keeps its bits
        with pytest.raises(ShapeError, match=r"values shape \(2, 9\) does not equal \(9,\)"):
            dirichlet_local(G9, np.zeros((2, 9)))

    def test_local_objective_of_a_stacked_load_is_a_shape_error(self):
        # documented as a number, so a stack of loads is refused, not broadcast
        with pytest.raises(ShapeError, match=r"values shape \(2, 9\) does not equal \(9,\)"):
            objective_local(G9, np.zeros(9), np.ones((2, 9)))


class TestL2Norm:
    def test_zero(self):
        assert l2_norm(G9, np.zeros(9)) == 0.0

    def test_constant_over_omega(self):
        assert l2_norm(G9, np.full(9, 3.0), region="omega") == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-14)

    def test_random_vs_simpson(self):
        g = random_values(33)
        for region, (lo, hi) in (("box", (-2.0, 2.0)), ("omega", (-1.0, 1.0))):
            oracle = product_integral_oracle(G33, g, g, lo, hi)
            assert l2_norm(G33, g, region) ** 2 == pytest.approx(oracle, rel=1e-10)

    def test_homogeneity(self):
        g = random_values(33, seed=1)
        for a in (-2.5, 0.0, 0.3):
            assert l2_norm(G33, a * g) == pytest.approx(abs(a) * l2_norm(G33, g), rel=1e-12, abs=1e-15)

    def test_unknown_region(self):
        with pytest.raises(ConfigError):
            l2_norm(G9, np.zeros(9), region="world")


class TestProductIntegral:
    def test_random_pair_vs_simpson(self):
        a = random_values(33, seed=2)
        b = random_values(33, seed=3)
        got = product_integral(G33, a, b, region="omega")
        want = product_integral_oracle(G33, a, b, -1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_omega_clipping_misaligned_cells(self):
        grid = make_grid(Domain(-0.9, 0.9, -2.0, 2.0), 17)
        a = random_values(17, seed=4)
        got = product_integral(grid, a, a, region="omega")
        want = product_integral_oracle(grid, a, a, -0.9, 0.9)
        assert got == pytest.approx(want, rel=1e-12)


# boundary of Omega on nodes (DOM at n = 5, 33, 4097), off nodes (DOM at
# n = 3, 4; the others), asymmetric, and inside a single cell (n = 4)
MASS_CASES = [
    (DOM, 3),
    (DOM, 4),
    (DOM, 5),
    (DOM, 33),
    (DOM, 4097),
    (Domain(-0.9, 0.93, -2.0, 2.0), 33),
    (Domain(-0.3, 0.7, -1.5, 2.2), 4097),
    (Domain(0.01, 0.11, -0.99, 1.11), 4),
]


def roundoff_scale(grid: Grid) -> float:
    """8 eps (1 + max|x| / h): the node positions carry roundoff relative
    to the grid spacing that grows with max|x| / h."""
    x = grid.nodes
    return 8.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(x)) / grid.h)


class TestMassRows:
    @pytest.mark.parametrize("dom,n", MASS_CASES)
    @pytest.mark.parametrize("region", ["omega", "box"])
    def test_products_match_all_cells_formula(self, dom, n, region):
        grid = make_grid(dom, n)
        rng = np.random.default_rng(n)
        p, q = rng.normal(size=(2, 3, 2, n))
        got = product_integral(grid, p, q, region)
        want = product_rows_all_cells(grid, p, q, region)
        assert got.shape == (3, 2)
        bound = roundoff_scale(grid) * grid.h * np.sum(np.abs(p) * np.abs(q), axis=-1)
        assert np.all(np.abs(got - want) <= bound)
        one = product_integral(grid, p[1, 0], q[1, 0], region)
        assert np.ndim(one) == 0
        assert abs(one - want[1, 0]) <= bound[1, 0]

    @pytest.mark.parametrize("dom,n", MASS_CASES)
    @pytest.mark.parametrize("region", ["omega", "box"])
    def test_stacked_rows_equal_row_by_row(self, dom, n, region):
        grid = make_grid(dom, n)
        q = np.random.default_rng(n + 1).normal(size=(2, 3, n))
        got = _mass_rows(grid, q, region)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], _mass_rows(grid, q[idx], region))

    @pytest.mark.parametrize("dom,n", MASS_CASES)
    def test_region_support_and_total(self, dom, n):
        # M 1 integrates each hat over the region: zero for hats that miss
        # Omega, summing to |Omega|
        grid = make_grid(dom, n)
        x, h = grid.nodes, grid.h
        m = _mass_rows(grid, np.ones(n), "omega")
        miss = (x + h <= dom.omega_lo) | (x - h >= dom.omega_hi)
        assert np.all(m[miss] == 0.0)
        assert np.sum(m) == pytest.approx(dom.omega_measure, rel=1e-13)
        assert np.sum(_mass_rows(grid, np.ones(n), "box")) == pytest.approx(dom.box_measure, rel=1e-14)

    def test_single_cell_interval_vs_simpson(self):
        grid = make_grid(Domain(0.01, 0.11, -0.99, 1.11), 4)
        a = random_values(4, seed=5)
        b = random_values(4, seed=6)
        got = product_integral(grid, a, b, region="omega")
        assert got == pytest.approx(product_integral_oracle(grid, a, b, 0.01, 0.11), rel=1e-12)


class TestLinfDistance:
    def test_equal(self):
        g = random_values(9)
        assert linf_distance(G9, g, g) == 0.0

    def test_hat_difference(self):
        vals = np.zeros(9)
        vals[4] = 0.3
        assert linf_distance(G9, vals, np.zeros(9), region="omega") == 0.3

    def test_omega_restriction_ignores_outside(self):
        vals = np.zeros(9)
        vals[0] = 5.0  # node at box corner, outside omega
        assert linf_distance(G9, vals, np.zeros(9), region="omega") == 0.0

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            linf_distance(G9, np.zeros(9), np.zeros(11))
