import numpy as np
import pytest

from fraclap.errors import ConfigError, DataError, ShapeError
from fraclap.grid import (
    Domain,
    GridFunction,
    _mass_rows,
    _product_rows,
    l2_norm,
    make_grid,
    product_integral,
    sample,
)
from helpers import grid_eval, linf_distance, product_integral_oracle, product_rows_all_cells

DOM = Domain(-1.0, 1.0, -2.0, 2.0)


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

    def test_equal_endpoints_compare_and_hash_equal(self):
        # grid functions built from separately constructed domains share a grid
        assert Domain(-1.0, 1.0, -2.0, 2.0) == DOM
        assert hash(Domain(-1.0, 1.0, -2.0, 2.0)) == hash(DOM)
        assert Domain(-1.0, 1.0, -2.0, 2.5) != DOM
        a = make_grid(Domain(-1.0, 1.0, -2.0, 2.0), 5)
        assert np.array_equal((a + make_grid(DOM, 5)).values, np.zeros(5))


class TestMakeGrid:
    def test_uniform_nodes_and_zero_values(self):
        g = make_grid(Domain(-1.0, 1.0, -3.0, 3.0), 7)
        assert np.array_equal(g.nodes, np.arange(-3.0, 4.0))
        assert np.all(g.values == 0.0)
        assert g.h == 1.0

    def test_too_few_nodes(self):
        with pytest.raises(ConfigError):
            make_grid(DOM, 2)

    def test_values_are_immutable(self):
        g = make_grid(DOM, 5)
        with pytest.raises(ValueError):
            g.values[0] = 1.0

    def test_nodes_are_one_read_only_array_per_grid(self):
        # every function on a grid shares its node array, so none may write it
        g = make_grid(DOM, 33)
        assert g.nodes is g.with_values(np.ones(33)).nodes
        assert np.array_equal(g.nodes, np.linspace(DOM.box_lo, DOM.box_hi, 33))
        assert make_grid(DOM, 65).nodes.shape == (65,)
        with pytest.raises(ValueError):
            g.nodes[0] = 1.0


class TestEval:
    def test_constant(self):
        g = make_grid(DOM, 9).with_values(np.full(9, 3.5))
        for x in (-5.0, -2.0, 0.3, 1.9, 7.0):
            assert grid_eval(g, x) == 3.5

    def test_identity_samples_reproduce_midpoint(self):
        g = make_grid(DOM, 9)
        g = g.with_values(g.nodes)
        mid = g.nodes[3] + 0.5 * g.h
        assert grid_eval(g, mid) == pytest.approx(mid, abs=1e-15)

    def test_hat_is_nodal(self):
        vals = np.zeros(9)
        vals[4] = 1.0
        g = make_grid(DOM, 9).with_values(vals)
        assert grid_eval(g, g.nodes[4]) == 1.0
        assert grid_eval(g, g.nodes[3]) == 0.0

    def test_constant_extension_outside_box(self):
        vals = np.linspace(2.0, 5.0, 9)
        g = make_grid(DOM, 9).with_values(vals)
        assert grid_eval(g, -100.0) == 2.0
        assert grid_eval(g, 100.0) == 5.0

    def test_affine_cellwise_exact(self):
        rng = np.random.default_rng(0)
        g = make_grid(DOM, 17).with_values(rng.normal(size=17))
        x = g.nodes[5] + 0.25 * g.h
        expect = 0.75 * g.values[5] + 0.25 * g.values[6]
        assert grid_eval(g, x) == pytest.approx(expect, rel=1e-14)

    def test_array_argument(self):
        g = make_grid(DOM, 9).with_values(np.ones(9))
        out = grid_eval(g, np.array([0.0, 0.5]))
        assert isinstance(out, np.ndarray)
        assert np.all(out == 1.0)


class TestSample:
    def test_square(self):
        g = sample(DOM, 5, lambda x: x**2)
        assert np.array_equal(g.values, np.array([4.0, 1.0, 0.0, 1.0, 4.0]))

    def test_indicator_pattern(self):
        g = sample(DOM, 9, lambda x: np.where((x > -1.0) & (x < 1.0), 1.0, 0.0))
        inside = (g.nodes > -1.0) & (g.nodes < 1.0)
        assert np.array_equal(g.values, inside.astype(float))

    def test_nonfinite_sample_names_node(self):
        with np.errstate(divide="ignore"), pytest.raises(DataError, match="node"):
            sample(DOM, 5, lambda x: 1.0 / x)

    def test_one_call_on_the_whole_array(self):
        # an array result is taken as it is, a 0-d one is broadcast
        for f, want in ((lambda x: x + 1.0, [-1.0, 0.0, 1.0, 2.0, 3.0]), (lambda x: 2.5, [2.5] * 5)):
            calls = []
            g = sample(DOM, 5, lambda x: calls.append(x.shape) or f(x))
            assert calls == [(5,)]
            assert np.array_equal(g.values, want)

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
                sample(DOM, 5, f)
            assert calls == [(5,)]

    def test_roundtrip_through_eval(self):
        g = sample(DOM, 33, np.cos)
        resampled = sample(DOM, 33, lambda x: grid_eval(g, x))
        assert np.array_equal(g.values, resampled.values)


class TestArithmetic:
    def test_add_sub_scale(self):
        a = make_grid(DOM, 5).with_values(np.arange(5.0))
        b = make_grid(DOM, 5).with_values(np.ones(5))
        assert np.array_equal((a + b).values, np.arange(5.0) + 1.0)
        assert np.array_equal((a - b).values, np.arange(5.0) - 1.0)
        assert np.array_equal((2.0 * a).values, 2.0 * np.arange(5.0))

    def test_grid_mismatch(self):
        a = make_grid(DOM, 5)
        b = make_grid(DOM, 7)
        with pytest.raises(ShapeError):
            _ = a + b

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            make_grid(DOM, 5).with_values([0.0, np.nan, 0.0, 0.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            GridFunction(DOM, 5, np.zeros(4))

    def test_compares_and_hashes_by_identity(self):
        a = make_grid(DOM, 5).with_values(np.arange(5.0))
        b = a.with_values(a.values)
        assert a == a and a != b
        assert hash(a) != hash(b) and len({a, b, a}) == 2


class TestL2Norm:
    def test_zero(self):
        assert l2_norm(make_grid(DOM, 9)) == 0.0

    def test_constant_over_omega(self):
        g = make_grid(DOM, 9).with_values(np.full(9, 3.0))
        assert l2_norm(g, region="omega") == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-14)

    def test_random_vs_simpson(self):
        g = make_grid(DOM, 33).with_values(random_values(33))
        for region, (lo, hi) in (("box", (-2.0, 2.0)), ("omega", (-1.0, 1.0))):
            oracle = product_integral_oracle(g, g, lo, hi)
            assert l2_norm(g, region) ** 2 == pytest.approx(oracle, rel=1e-10)

    def test_homogeneity(self):
        g = make_grid(DOM, 33).with_values(random_values(33, seed=1))
        for a in (-2.5, 0.0, 0.3):
            assert l2_norm(a * g) == pytest.approx(abs(a) * l2_norm(g), rel=1e-12, abs=1e-15)

    def test_unknown_region(self):
        with pytest.raises(ConfigError):
            l2_norm(make_grid(DOM, 9), region="world")


class TestProductIntegral:
    def test_random_pair_vs_simpson(self):
        a = make_grid(DOM, 33).with_values(random_values(33, seed=2))
        b = make_grid(DOM, 33).with_values(random_values(33, seed=3))
        got = product_integral(a, b, region="omega")
        want = product_integral_oracle(a, b, -1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_omega_clipping_misaligned_cells(self):
        dom = Domain(-0.9, 0.9, -2.0, 2.0)
        a = make_grid(dom, 17).with_values(random_values(17, seed=4))
        got = product_integral(a, a, region="omega")
        want = product_integral_oracle(a, a, -0.9, 0.9)
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


def roundoff_scale(grid: GridFunction) -> float:
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
        got = _product_rows(grid, p, q, region)
        want = product_rows_all_cells(grid, p, q, region)
        assert got.shape == (3, 2)
        bound = roundoff_scale(grid) * grid.h * np.sum(np.abs(p) * np.abs(q), axis=-1)
        assert np.all(np.abs(got - want) <= bound)
        one = _product_rows(grid, p[1, 0], q[1, 0], region)
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
        dom = Domain(0.01, 0.11, -0.99, 1.11)
        a = make_grid(dom, 4).with_values(random_values(4, seed=5))
        b = make_grid(dom, 4).with_values(random_values(4, seed=6))
        got = product_integral(a, b, region="omega")
        assert got == pytest.approx(product_integral_oracle(a, b, 0.01, 0.11), rel=1e-12)


class TestLinfDistance:
    def test_equal(self):
        g = make_grid(DOM, 9).with_values(random_values(9))
        assert linf_distance(g, g) == 0.0

    def test_hat_difference(self):
        base = make_grid(DOM, 9)
        vals = np.zeros(9)
        vals[4] = 0.3
        assert linf_distance(base.with_values(vals), base, region="omega") == 0.3

    def test_omega_restriction_ignores_outside(self):
        base = make_grid(DOM, 9)
        vals = np.zeros(9)
        vals[0] = 5.0  # node at box corner, outside omega
        assert linf_distance(base.with_values(vals), base, region="omega") == 0.0

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            linf_distance(make_grid(DOM, 9), make_grid(DOM, 11))
