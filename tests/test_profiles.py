import math
import random

import numpy as np
import pytest

from fraclap import profiles
from fraclap.errors import ConfigError, DataError
from fraclap.grid import Domain, make_grid
from fraclap.profiles import _random_bump_rows, make_profile, profile_names
from helpers import bump_derivative, central_diff, random_bump, random_bump_loop

DOM = Domain(-1.0, 1.0, -2.0, 2.0)
G65, G129 = make_grid(DOM, 65), make_grid(DOM, 129)


def _gaussian_formulas(x, a, c, w):
    u = (x - c) / w
    return a * np.exp(-u * u), a * np.exp(-u * u) * (4.0 * u * u - 2.0) / (w * w)


def _bump_formulas(x, a, c, w):
    u = (x - c) / w
    inside = np.abs(u) < 1.0
    us = np.where(inside, u, 0.0)
    core = np.where(inside, np.exp(1.0 - 1.0 / (1.0 - us * us)), 0.0)
    q = np.where(1.0 - us * us > 0.0, 1.0 - us * us, 1.0)
    u2 = us * us
    poly = 4.0 * u2 / q**4 - 2.0 / q**2 - 8.0 * u2 / q**3
    return a * core, a * core * poly / (w * w)


# profile text -> (value, second derivative or None) at the points x
CATALOG_FORMULAS = {
    "constant:-2.5": lambda x: (np.full_like(x, -2.5), np.zeros_like(x)),
    "gaussian:1.7,0.3,0.45": lambda x: _gaussian_formulas(x, 1.7, 0.3, 0.45),
    "cosine:0.8,3.5,-0.2": lambda x: (
        0.8 * np.cos(3.5 * (x - -0.2)),
        -0.8 * 3.5 * 3.5 * np.cos(3.5 * (x - -0.2)),
    ),
    "bump:-1.5,0.2,0.7": lambda x: _bump_formulas(x, -1.5, 0.2, 0.7),
    "abspow:1.3,0.15,0.75": lambda x: (1.3 * np.abs(x - 0.15) ** 0.75, None),
}


class TestCatalog:
    def test_names_sorted(self):
        names = profile_names()
        assert names == tuple(sorted(names))
        assert {"constant", "gaussian", "cosine", "bump", "abspow"} <= set(names)

    @pytest.mark.parametrize("text", sorted(CATALOG_FORMULAS))
    def test_values_equal_written_out_formulas(self, text):
        # every profile at non-default parameters on a 65-node grid, bit for
        # bit against its formula and, where it has one, its second derivative
        x = G65.nodes
        value, second = CATALOG_FORMULAS[text](x)
        p = make_profile(text)
        assert np.array_equal(p(x), value)
        if second is not None:
            assert np.array_equal(p.second_derivative(x), second)

    def test_constant(self):
        p = make_profile("constant:3.5")
        x = np.array([0.0, 1.2, -0.4])
        assert np.all(p(x) == 3.5)
        assert np.all(p.second_derivative(x) == 0.0)

    def test_gaussian_values(self):
        p = make_profile("gaussian:2,0.5,width=0.7")
        u = (0.9 - 0.5) / 0.7
        assert p(np.array([0.9, 0.5])) == pytest.approx([2.0 * math.exp(-u * u), 2.0], rel=1e-14)

    def test_cosine_values(self):
        p = make_profile("cosine:amplitude=1.5,freq=2.0,center=0.25")
        x = np.array([0.25])
        assert p(x) == pytest.approx(1.5, rel=1e-14)
        assert p.second_derivative(x) == pytest.approx(-1.5 * 4.0, rel=1e-14)

    def test_bump_compact_support(self):
        p = make_profile("bump:amplitude=2,center=0.1,width=0.5")
        assert p(np.array([0.1])) == pytest.approx(2.0, rel=1e-14)
        x = np.array([0.6, -0.4, 3.0])
        assert np.all(p(x) == 0.0)
        assert np.all(bump_derivative(2.0, 0.1, 0.5)(x) == 0.0)
        assert np.all(p.second_derivative(x) == 0.0)
        assert p(np.array([0.599]))[0] > 0.0

    @pytest.mark.parametrize(
        "text",
        [
            "gaussian:1.3,-0.2,0.8",
            "cosine:0.7,2.5,0.1",
            "bump:1.1,0.05,0.6",
        ],
    )
    def test_derivatives_match_finite_differences(self, text):
        # the second derivative against a second difference of the values
        # (roundoff about 1e-16 / 4e-8, truncation 4e-8 / 12 times the fourth
        # derivative), and the bump's first derivative oracle against a
        # first difference
        p = make_profile(text)
        x = np.array([-0.3, 0.0, 0.21, 0.4])
        d2 = central_diff(lambda t: central_diff(p, t, 1e-4), x, 1e-4)
        assert p.second_derivative(x) == pytest.approx(d2, rel=1e-5, abs=1e-6)
        if text.startswith("bump:"):
            der = bump_derivative(*p.params.values())
            assert der(x) == pytest.approx(central_diff(p, x, 1e-6), rel=1e-6, abs=1e-8)

    def test_abspow_is_not_differentiable(self):
        p = make_profile("abspow:1,0,0.5")
        assert p(np.array([0.25])) == pytest.approx(0.5, rel=1e-14)
        assert p.second_derivative is None

    def test_vectorized_call(self):
        # arrays in, arrays of the same shape out, for every profile
        x = np.array([[0.0, 1.0], [-0.5, 0.25]])
        for name in profile_names():
            p = make_profile(name)
            assert p(x).shape == x.shape
            if p.second_derivative is not None:
                assert p.second_derivative(x).shape == x.shape
        assert make_profile("gaussian")(x)[0, 0] == pytest.approx(1.0)


class TestParsing:
    def test_defaults(self):
        p = make_profile("gaussian")
        assert p.params == {"amplitude": 1.0, "center": 0.0, "width": 1.0}

    def test_positional_then_named(self):
        p = make_profile("gaussian:2,0.5,width=0.7")
        assert p.params == {"amplitude": 2.0, "center": 0.5, "width": 0.7}

    def test_unknown_profile_lists_catalog(self):
        with pytest.raises(ConfigError, match="abspow"):
            make_profile("sine")

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            make_profile("gaussian:sigma=2")

    def test_positional_after_named(self):
        with pytest.raises(ConfigError):
            make_profile("gaussian:width=0.5,2")

    def test_too_many_positional(self):
        with pytest.raises(ConfigError):
            make_profile("constant:1,2")

    @pytest.mark.parametrize("text", ["bump:amplitude=1,,width=0.5", "gaussian:1, ,0.5", "constant:2,"])
    def test_empty_parameter(self, text):
        with pytest.raises(ConfigError, match="empty parameter"):
            make_profile(text)

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            make_profile("gaussian:abc")

    def test_invalid_width(self):
        with pytest.raises(ConfigError):
            make_profile("gaussian:1,0,-0.5")
        with pytest.raises(ConfigError):
            make_profile("bump:width=0")
        with pytest.raises(ConfigError):
            make_profile("abspow:exponent=-1")


class TestRandomBump:
    def test_supported_inside_omega(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            phi = random_bump(rng, G129)
            outside = np.abs(G129.nodes) >= 0.999
            assert np.all(phi[outside] == 0.0)
            assert np.any(phi != 0.0)

    def test_seed_reproducibility(self):
        a = random_bump(np.random.default_rng(5), G65)
        b = random_bump(np.random.default_rng(5), G65)
        assert np.array_equal(a, b)

    def test_draws_vary(self):
        rng = np.random.default_rng(9)
        draws = [random_bump(rng, G65) for _ in range(10)]
        distinct = {tuple(d) for d in draws}
        assert len(distinct) == 10

    @pytest.mark.parametrize("seed", [1, 2, 7, 11, 101])
    @pytest.mark.parametrize("dom,n", [(DOM, 129), (Domain(-0.3, 0.7, -1.5, 2.2), 513)])
    def test_stacked_rows_equal_one_row_calls(self, seed, dom, n):
        # one row at a time and stacked both equal, bit for bit and in the
        # generator state left behind, the draws made one profile at a time
        rng = np.random.default_rng(seed)
        grid = make_grid(dom, n)
        want = np.stack([random_bump_loop(rng, grid) for _ in range(100)])
        for make in (
            lambda other: np.stack([random_bump(other, grid) for _ in range(100)]),
            lambda other: _random_bump_rows(other, grid, 100),
        ):
            other = np.random.default_rng(seed)
            assert np.array_equal(make(other), want)
            assert other.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("seed", [1, 2, 11])
    @pytest.mark.parametrize("sizes", [(50, 50), (15,) * 6 + (10,), (2,) * 50, (1,) * 100, (3, 40, 1, 56)])
    def test_consecutive_calls_equal_one_call(self, seed, sizes):
        # mollifier-check draws its bumps one chunk of rows at a time on one
        # generator: the rows, bit for bit, and the generator state left
        # behind are those of one call for all of them
        one = random.Random(seed)
        want = _random_bump_rows(one, G129, 100)
        rng = random.Random(seed)
        got = np.concatenate([_random_bump_rows(rng, G129, rows) for rows in sizes])
        assert np.array_equal(got, want)
        assert rng.getstate() == one.getstate()
        assert [rng.random() for _ in range(5)] == [one.random() for _ in range(5)]

    def test_stacked_rows_name_non_finite_row_and_node(self, monkeypatch):
        pieces = profiles._bump_pieces

        def poisoned(x, c, w):
            us, core = pieces(x, c, w)
            core[3, 7] = np.nan  # the first bump of row 3
            return us, core

        monkeypatch.setattr(profiles, "_bump_pieces", poisoned)
        with pytest.raises(DataError, match="bump 3 at node 7"):
            _random_bump_rows(np.random.default_rng(1), G65, 10)


class TestBumpStream:
    @pytest.mark.parametrize(
        "seed,want",
        [
            (0, [0.8444218515250481, 0.7579544029403025, 0.420571580830845]),
            (42, [0.6394267984578837, 0.025010755222666936, 0.27502931836911926]),
            (2**128 + 3, [0.707691495967557, 0.9222346957592326, 0.7457195782334577]),
        ],
    )
    def test_first_draws_are_pinned(self, seed, want):
        # mollifier-check draws its bumps from random.Random(seed), whose
        # random() sequence Python keeps across versions; seeds of one and
        # of five 32-bit words
        rng = random.Random(seed)
        assert [rng.random() for _ in want] == want
