import math

import numpy as np
import pytest

from fraclap.errors import ConfigError
from fraclap.grid import Domain, l2_norm, make_grid, sample
from fraclap.kernels import FracParams, psi_moment
from fraclap.mollifier import (
    _apply,
    _bump_suite_rows,
    _chunk_rows,
    _kernel,
    _partition,
    _ramp,
    _stencil,
    _strip,
    _strip_rows,
    full_coverage_mask,
    mollify,
)
from fraclap.profiles import _PCG64, _random_bump_rows, make_profile
from helpers import (
    build_w,
    bump_derivative,
    check_energy_consistency,
    check_identity_l2,
    check_lipschitz,
    check_strip_closeness,
    check_strip_l2,
    check_tail_bound,
    correlate_apply,
    dirichlet_frac,
    dist_to_complement,
    gradient_loop,
    gradient_values,
    grid_eval,
    holder_quotient,
    holder_restricted,
    holder_seminorm_grid,
    lag_maxima,
    mollify_gradient,
    mollify_loop,
    random_bump,
    stencil_weight_oracle,
    strip_sup_loop,
    strip_sup_sampled,
)

DOM = Domain(-1.0, 1.0, -2.0, 2.0)
WIDE = Domain(-1.0, 1.0, -2.5, 2.5)


def bumps(seed: int, n: int, count: int):
    rng = np.random.default_rng(seed)
    return [random_bump(rng, DOM, n) for _ in range(count)]


class TestCoverageMask:
    def test_unit_margin(self):
        g = sample(DOM, 9, lambda x: 0.0)
        mask = full_coverage_mask(g)
        assert list(np.where(mask)[0]) == [2, 3, 4, 5, 6]
        assert np.all(np.abs(g.nodes[mask]) <= 1.0 + 1e-12)


class TestMollifyExactness:
    def test_constant_preserved_everywhere(self):
        g = sample(DOM, 33, lambda x: 3.5)
        for s, eps in ((0.3, 0.0), (0.7, 0.4)):
            out = mollify(g, FracParams(s=s, eps=eps))
            assert np.allclose(out.values, 3.5, atol=1e-12)

    def test_affine_preserved_on_covered_nodes(self):
        g = sample(DOM, 65, lambda x: 2.0 * x + 0.3)
        mask = full_coverage_mask(g)
        for s, eps in ((0.4, 0.0), (0.8, 0.25)):
            out = mollify(g, FracParams(s=s, eps=eps))
            assert np.allclose(out.values[mask], g.values[mask], atol=1e-10)

    def test_dimension_guard(self):
        g = sample(DOM, 17, lambda x: 0.0)
        with pytest.raises(ConfigError):
            mollify(g, FracParams(s=0.5, d=2))
        with pytest.raises(ConfigError):
            mollify_gradient(g, FracParams(s=0.5, d=3))


class TestPointwiseCloseness:
    @pytest.mark.parametrize("s,eps", [(0.7, 0.0), (0.7, 0.4), (0.3, 0.0)])
    def test_holder_profile_sup_distance(self, s, eps):
        # |x|^a has Hoelder-a seminorm exactly 1, so the sup distance over
        # covered nodes is controlled by the a-th kernel moment plus the
        # piecewise-linear sampling error of order h^a
        a = 0.7
        phi = sample(WIDE, 1025, lambda x: abs(x) ** a)
        p = FracParams(s=s, eps=eps)
        mask = full_coverage_mask(phi)
        lhs = float(np.max(np.abs((mollify(phi, p) - phi).values[mask])))
        assert lhs <= psi_moment(p, a) + phi.h**a
        # the moment itself sits below the plateau-normalized closeness scale
        assert psi_moment(p, a) <= (1.0 - p.s) * p.plateau_scale / 2.0 + 1e-12


class TestIdentityL2:
    def test_bound_holds_on_random_bumps(self):
        for phi in bumps(seed=101, n=129, count=15):
            for s in (0.3, 0.5, 0.7, 0.9):
                for eps in (0.0, 0.3):
                    lhs, rhs = check_identity_l2(phi, FracParams(s=s, eps=eps))
                    assert lhs <= rhs * (1.0 + 1e-4) + 1e-10

    def test_distance_shrinks_toward_local_limit(self):
        for phi in bumps(seed=102, n=129, count=5):
            lo, _ = check_identity_l2(phi, FracParams(s=0.3))
            hi, _ = check_identity_l2(phi, FracParams(s=0.9))
            assert hi < lo

    def test_near_energy_shortcut_matches(self):
        phi = bumps(seed=103, n=65, count=1)[0]
        p = FracParams(s=0.6, eps=0.2)
        d1 = dirichlet_frac(phi, p).d1
        assert check_identity_l2(phi, p, near_energy=d1) == check_identity_l2(phi, p)


class TestEnergyConsistency:
    def test_bound_holds_on_random_bumps(self):
        for phi in bumps(seed=111, n=129, count=20):
            for s in (0.3, 0.6, 0.9):
                for eps in (0.0, 0.3):
                    lhs, rhs = check_energy_consistency(phi, FracParams(s=s, eps=eps))
                    assert lhs <= rhs * (1.0 + 1e-4) + 1e-10

    def test_zero_eps_bound_is_near_energy(self):
        phi = bumps(seed=112, n=129, count=1)[0]
        p = FracParams(s=0.5)
        lhs, rhs = check_energy_consistency(phi, p)
        assert rhs == pytest.approx(dirichlet_frac(phi, p).d1, rel=1e-14)
        assert lhs <= rhs


class TestLipschitz:
    def test_constant_gives_zero_pair(self):
        g = sample(DOM, 33, lambda x: 1.25)
        lhs, rhs = check_lipschitz(g, FracParams(s=0.5), s_holder=0.5)
        assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("s,eps", [(0.6, 0.0), (0.6, 0.2), (0.35, 0.0)])
    def test_holder_profile(self, s, eps):
        phi = sample(WIDE, 513, lambda x: abs(x) ** s)
        p = FracParams(s=s, eps=eps)
        lhs, rhs = check_lipschitz(phi, p, s_holder=s, holder_est=1.0)
        assert 0.0 < lhs <= rhs

    def test_random_bumps_with_grid_estimate(self):
        for phi in bumps(seed=121, n=129, count=10):
            for s in (0.4, 0.8):
                lhs, rhs = check_lipschitz(phi, FracParams(s=s), s_holder=s)
                assert lhs <= rhs * (1.0 + 1e-4) + 1e-10


class TestTailBound:
    def test_full_radius_pair_is_zero(self):
        phi = bumps(seed=131, n=65, count=1)[0]
        lhs, rhs = check_tail_bound(phi, FracParams(s=0.5), rho=1.0, alpha=0.5)
        assert lhs == 0.0
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_bound_holds(self):
        for phi in bumps(seed=132, n=129, count=10):
            lhs, rhs = check_tail_bound(
                phi, FracParams(s=0.6, eps=0.2), rho=0.3, alpha=0.6
            )
            assert lhs <= rhs * (1.0 + 1e-4) + 1e-10

    def test_log_branch_continuity(self):
        # alpha + 1 = 2s switches the closed form to the logarithmic limit
        phi = bumps(seed=133, n=65, count=1)[0]
        s = 0.6
        rho = 0.4
        crit = 2.0 * s - 1.0
        _, mid = check_tail_bound(phi, FracParams(s=s), rho=rho, alpha=crit)
        _, lo = check_tail_bound(phi, FracParams(s=s), rho=rho, alpha=crit - 1e-7)
        _, hi = check_tail_bound(phi, FracParams(s=s), rho=rho, alpha=crit + 1e-7)
        assert mid > 0.0
        assert lo == pytest.approx(mid, rel=1e-4)
        assert hi == pytest.approx(mid, rel=1e-4)

    def test_validation(self):
        phi = bumps(seed=134, n=65, count=1)[0]
        with pytest.raises(ValueError):
            check_tail_bound(phi, FracParams(s=0.5, eps=0.3), rho=0.2, alpha=0.5)
        with pytest.raises(ValueError):
            check_tail_bound(phi, FracParams(s=0.5), rho=0.0, alpha=0.5)
        with pytest.raises(ValueError):
            check_tail_bound(phi, FracParams(s=0.5), rho=0.5, alpha=1.5)


class TestSmoothingInvariants:
    def test_sup_norm_nonexpansive(self):
        for phi in bumps(seed=141, n=129, count=10):
            cap = float(np.max(np.abs(phi.values)))
            for s, eps in ((0.3, 0.0), (0.7, 0.3)):
                out = mollify(phi, FracParams(s=s, eps=eps))
                assert float(np.max(np.abs(out.values))) <= cap + 1e-12

    def test_l2_norm_nonexpansive(self):
        # support in Omega keeps every unit translate inside the box, so the
        # averaged function cannot gain mass; the tolerance absorbs the P1
        # resampling of the smoothed values
        for phi in bumps(seed=142, n=257, count=5):
            base = l2_norm(phi, "box")
            out = mollify(phi, FracParams(s=0.5))
            assert l2_norm(out, "box") <= base * (1.0 + 1e-3) + 1e-9

    def test_holder_constant_not_amplified(self):
        a = 0.6
        phi = sample(WIDE, 513, lambda x: abs(x) ** a)
        out = mollify(phi, FracParams(s=0.5))
        mask = full_coverage_mask(phi)
        got = holder_restricted(out.values, out.nodes, mask, a)
        assert got <= 1.0


class TestGradient:
    def test_matches_smoothed_derivative(self):
        prof = make_profile("bump:amplitude=1.5,center=0.1,width=0.6")
        phi = sample(DOM, 1025, prof)
        dphi = sample(DOM, 1025, bump_derivative(1.5, 0.1, 0.6))
        p = FracParams(s=0.5, eps=0.2)
        got = mollify_gradient(phi, p)
        want = mollify(dphi, p)
        mask = full_coverage_mask(phi)
        scale = float(np.max(np.abs(want.values[mask])))
        err = float(np.max(np.abs(got.values[mask] - want.values[mask])))
        assert err <= 1e-3 * scale

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_matches_finite_difference_of_smoothed_values(self, eps):
        prof = make_profile("bump:amplitude=2.0,center=-0.2,width=0.55")
        phi = sample(DOM, 1025, prof)
        p = FracParams(s=0.5, eps=eps)
        sm = mollify(phi, p).values
        grad = mollify_gradient(phi, p).values
        fd = (sm[2:] - sm[:-2]) / (2.0 * phi.h)
        inner = full_coverage_mask(phi)[1:-1]
        scale = float(np.max(np.abs(grad)))
        err = float(np.max(np.abs(grad[1:-1][inner] - fd[inner])))
        # the mismatch halves like h^2 under refinement, so it is the
        # centered difference that limits the comparison, not the quadrature
        assert err <= 2e-4 * scale

    def test_constant_has_zero_gradient(self):
        g = sample(DOM, 65, lambda x: 2.0)
        out = mollify_gradient(g, FracParams(s=0.6, eps=0.1))
        assert np.allclose(out.values, 0.0, atol=1e-13)

    @pytest.mark.parametrize("s,eps", [(0.3, 0.0), (0.6, 0.1), (0.99, 0.5)])
    def test_constant_gradient_is_exactly_zero(self, s, eps):
        g = sample(DOM, 129, lambda x: -0.7)
        p = FracParams(s=s, eps=eps)
        assert np.all(mollify_gradient(g, p).values == 0.0)
        assert np.all(gradient_values(g.values, g.h, p, 0.6, 1.0) == 0.0)


def sup_rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def partition_by_sort(h, t_lo, t_hi, plateau=None):
    """_partition's breakpoints by sorting every candidate: the construction
    it replaced, kept as its oracle."""
    if t_hi <= t_lo:
        empty = np.empty(0)
        return empty, empty, np.empty(0, dtype=int)
    j0 = int(math.floor(t_lo / h + 1e-12)) + 1
    j1 = int(math.ceil(t_hi / h - 1e-12))
    pts = [[t_lo, t_hi], np.arange(j0, j1) * h]
    if plateau is not None and t_lo < plateau < t_hi:
        pts.append([plateau])
    pts = np.sort(np.concatenate(pts))
    keep = np.concatenate([[True], np.diff(pts) > 1e-12 * h])
    pts = pts[keep]
    pts[0], pts[-1] = t_lo, t_hi
    a, b = pts[:-1], pts[1:]
    return a, b, np.floor(0.5 * (a + b) / h).astype(int)


class TestPartition:
    @staticmethod
    def assert_bitwise(h, t_lo, t_hi, plateau):
        got = _partition(h, t_lo, t_hi, plateau)
        want = partition_by_sort(h, t_lo, t_hi, plateau)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes(), (h, t_lo, t_hi, plateau)

    def test_random_intervals_and_plateaus(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            h = 4.0 / (int(rng.integers(32, 65537)))
            t_lo, t_hi = np.sort(rng.uniform(0.0, 1.0, 2)) if rng.random() < 0.5 else (0.0, rng.uniform(0.0, 1.0))
            plateau = rng.uniform(-0.1, 1.1) if rng.random() < 0.8 else None
            self.assert_bitwise(h, float(t_lo), float(t_hi), plateau)

    @pytest.mark.parametrize("n", [33, 129, 4097, 65537])
    def test_near_cell_multiples(self, n):
        # a plateau, t_lo or t_hi exactly on a cell multiple k h or within
        # 1e-12 h of one, on either side, where the duplicate test decides
        # which of two near-equal breakpoints survives
        h = 4.0 / (n - 1)
        offsets = [0.0, 1e-12 * h, 0.5e-12 * h, 2e-12 * h, math.ulp(h)]
        for k in (1, 2, (n - 1) // 8, (n - 1) // 4 - 1):
            for d in offsets + [-o for o in offsets]:
                x = k * h + d
                for plateau in (None, x, 0.1, 0.5):
                    self.assert_bitwise(h, x, 1.0, plateau)
                    self.assert_bitwise(h, 0.0, x, plateau)
                    self.assert_bitwise(h, 0.6, 1.0, x)
                    self.assert_bitwise(h, 0.0, 1.0, x)
                    self.assert_bitwise(h, x, x + 1e-13 * h, plateau)

    def test_empty_and_degenerate(self):
        h = 1.0 / 32
        for t_lo, t_hi in ((0.5, 0.5), (0.6, 0.5), (1.0, 0.0)):
            a, b, j = _partition(h, t_lo, t_hi, 0.55)
            assert a.size == b.size == j.size == 0
            self.assert_bitwise(h, t_lo, t_hi, 0.55)
        for plateau in (None, 0.0, 1.0, -0.5, 2.0):  # absent or not strictly inside
            self.assert_bitwise(h, 0.0, 1.0, plateau)
        a, b, j = _partition(h, 0.0, 1.0, 0.1)
        assert a[0] == 0.0 and b[-1] == 1.0 and 0.1 in b
        assert np.all(b > a) and np.array_equal(a[1:], b[:-1])


class TestStencil:
    @pytest.mark.parametrize("n", [65, 129, 513, 4097])
    def test_matches_piecewise_loop(self, n):
        # rough values up to the box ends, so the edge clipping is exercised
        rng = np.random.default_rng(n)
        phi = sample(DOM, n, lambda x: 0.0).with_values(rng.standard_normal(n) + 0.5)
        for s in (0.3, 0.5, 0.9, 0.99):
            for eps in (0.0, 0.1, 0.5):
                p = FracParams(s=s, eps=eps)
                assert sup_rel(mollify(phi, p).values, mollify_loop(phi, p)) <= 1e-13
                assert sup_rel(
                    mollify_gradient(phi, p).values, gradient_loop(phi, p, eps, 1.0)
                ) <= 1e-13
                assert sup_rel(
                    gradient_values(phi.values, phi.h, p, 0.6, 1.0), gradient_loop(phi, p, 0.6, 1.0)
                ) <= 1e-13

    @pytest.mark.parametrize("s", [0.5, 0.99])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_weights_match_mpmath(self, s, eps):
        # roundoff model: splitting a kernel piece of cell j onto offsets j
        # and j+1 cancels up to j <= 1/h, and the closed-form moments of eta
        # lose a further 1/(2-2s) near s = 1; errors are measured against
        # the l1 norm of the stencil, the operator's sup-norm gain
        h = DOM.box_measure / 128
        p = FracParams(s=s, eps=eps)
        tol = 8.0 * np.finfo(float).eps / (h * (2.0 - 2.0 * s))
        for t_lo, odd in ((0.0, False), (eps, True), (0.6, True)):
            w = _stencil(p, h, t_lo, 1.0, odd)
            offsets = range(1 if odd else 0, w.size)
            ref = np.array([stencil_weight_oracle(p, h, t_lo, 1.0, odd, o) for o in offsets])
            assert w.size == 33  # offsets 0 .. 1/h
            assert np.max(np.abs(w[offsets.start :] - ref)) <= tol * np.sum(np.abs(ref))
            if odd:
                assert w[0] == 0.0

    def test_distinct_keys_give_distinct_stencils(self):
        p = FracParams(s=0.6, eps=0.1)
        keys = [
            (p, 1.0 / 32, 0.1, 1.0, True),
            (FracParams(s=0.6, eps=0.2), 1.0 / 32, 0.2, 1.0, True),
            (FracParams(s=0.6, eps=0.2), 1.0 / 32, 0.1, 1.0, True),
            (p, 1.0 / 64, 0.1, 1.0, True),
            (p, 1.0 / 32, 0.6, 1.0, True),
            (p, 1.0 / 32, 0.0, 1.0, False),
            (FracParams(s=0.6, eps=0.3), 1.0 / 32, 0.0, 1.0, False),
        ]
        built = [_stencil(*k) for k in keys]
        for i in range(len(keys)):
            for j in range(i):
                assert built[i].shape != built[j].shape or not np.array_equal(built[i], built[j])


class TestFFTApply:
    @pytest.mark.parametrize("n", [33, 129, 4097, 16385])
    def test_matches_direct_correlation(self, n):
        # roundoff model of a correlation through an FFT of power-of-two
        # length p: every output is off by at most about log2(p) eps_mach
        # ||k||_1 max|x|, with k the mirrored stencil (the tail sums for the
        # odd one) and x the padded values (their first differences for the
        # odd one); the factor 16 covers the direct correlation's own
        # rounding.  A shifted or wrapped-around output is off by O(1).
        h = DOM.box_measure / (n - 1)
        v = np.random.default_rng(n).standard_normal(n) + 0.5
        for s in (0.5, 0.99):
            for eps in (0.0, 0.1):
                p = FracParams(s=s, eps=eps)
                for t_lo, odd in ((0.0, False), (eps, True), (0.6, True)):
                    w = _stencil(p, h, t_lo, 1.0, odd)
                    if odd:
                        k_l1 = 2.0 * np.sum(np.abs(np.cumsum(w[:0:-1])))
                        x_max = np.max(np.abs(np.diff(v)))
                    else:
                        k_l1 = abs(w[0]) + 2.0 * np.sum(np.abs(w[1:]))
                        x_max = np.max(np.abs(v))
                    pow2 = 1 << (n + 2 * (w.size - 1) - 1).bit_length()
                    tol = 16.0 * math.log2(pow2) * np.finfo(float).eps * k_l1 * x_max
                    err = np.max(np.abs(_apply(v, _kernel(w, odd, n), odd, {}) - correlate_apply(v, w, odd)))
                    assert err <= tol

    @pytest.mark.parametrize("n", [65, 4097])
    def test_stack_rows_match_one_vector(self, n):
        h = DOM.box_measure / (n - 1)
        stack = np.random.default_rng(n + 1).standard_normal((2, 3, n))
        p = FracParams(s=0.7, eps=0.1)
        for t_lo, odd in ((0.0, False), (0.1, True), (0.6, True), (1.0, True)):
            w = _kernel(_stencil(p, h, t_lo, 1.0, odd), odd, n)
            got = _apply(stack, w, odd, {})
            assert got.shape == stack.shape
            assert got.base is None  # not a view that keeps the transform buffer alive
            for idx in np.ndindex(2, 3):
                one = _apply(stack[idx], w, odd, {})
                assert np.max(np.abs(got[idx] - one)) <= 1e-15 * np.max(np.abs(one))


class TestBumpSuite:
    @pytest.mark.parametrize("n", [65, 513])
    @pytest.mark.parametrize("s", [0.5, 0.99])
    def test_public_checks_return_their_row(self, n, s):
        # each check_* on one bump reproduces that bump's row of the batched
        # suite; d1 and the Hoelder seminorm are recomputed per bump here
        phis = bumps(seed=n, n=n, count=10)
        stack = np.stack([phi.values for phi in phis])
        eps_list, rho, r = (0.0, 0.1, 0.5), 0.6, (1.0 - s) ** (1.0 / s)
        zero = make_grid(DOM, n)
        rows = list(_bump_suite_rows(zero, [stack], ((s, r),), eps_list, rho))
        per_eps = ["closeness_l2", "energy_consistency", "lipschitz_gradient", "tail_bound"]
        per_eps += ["strip_closeness", "strip_l2"]
        assert [row[0] for row in rows] == per_eps[:2] + ["energy_consistency_eps0"] + per_eps[2:] + per_eps * 2
        eps_of = iter(eps_list)
        for name, lhs, rhs in rows:
            if name == "closeness_l2":
                p = FracParams(s=s, eps=next(eps_of))
            assert lhs.shape == rhs.shape == (10,)
            for i, phi in enumerate(phis):
                if name == "closeness_l2":
                    one = check_identity_l2(phi, p)
                elif name.startswith("energy_consistency"):
                    one = check_energy_consistency(phi, p)
                elif name == "lipschitz_gradient":
                    one = check_lipschitz(phi, p, s)
                elif name == "tail_bound":
                    one = check_tail_bound(phi, p, rho, s)
                else:
                    check = check_strip_closeness if name == "strip_closeness" else check_strip_l2
                    one = check(phi, zero, p, r, holder_seminorm_grid(phi, s), 0.0)
                assert one == pytest.approx((lhs[i], rhs[i]), rel=1e-14, abs=0.0)


    @pytest.mark.parametrize("n", [129, 513])
    def test_chunks_give_the_rows_of_one_stack(self, n):
        # mollifier-check's chunks (2 at n = 129, 7 at 513), each drawn on
        # one generator as the suite asks for it, yield every row of the
        # suite run on all 100 bumps at once, in the same order; only the
        # FFTs see stacks of other heights, which may round differently
        grid = make_grid(DOM, n)
        sizes = _chunk_rows(grid, 100)
        assert len(sizes) > 1 and sum(sizes) == 100
        strips, eps_list = ((0.5, 0.25), (0.9, 0.1 ** (1.0 / 0.9))), (0.0, 0.1, 0.5)
        rng = _PCG64(1)
        chunks = (_random_bump_rows(rng, DOM, n, rows) for rows in sizes)
        chunked = list(_bump_suite_rows(grid, chunks, strips, eps_list, 0.6))
        one = list(_bump_suite_rows(grid, [_random_bump_rows(_PCG64(1), DOM, n, 100)], strips, eps_list, 0.6))
        assert len(chunked) == len(one) * len(sizes)
        for i, (name, lhs, rhs) in enumerate(one):
            parts = chunked[i :: len(one)]
            assert [part[0] for part in parts] == [name] * len(sizes)
            for k, want in ((1, lhs), (2, rhs)):
                got = np.concatenate([part[k] for part in parts])
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestStripRows:
    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("s", [0.5, 0.9])
    def test_stack_matches_one_row_competitor(self, n, s):
        # the independent route: per bump, the exact sup of the distance
        # over the strip by helpers.strip_sup_loop on mollify's values, at
        # least its max over the nodes of Omega's closure at dist <= r for
        # the competitor w built by mollifier._blend, and the L2(Omega)
        # distance of w by l2_norm; the bounds are written out again from
        # the paper
        phis = bumps(seed=n + 1, n=n, count=10)
        stack = np.stack([phi.values for phi in phis])
        zero = make_grid(DOM, n)
        holder = holder_quotient(lag_maxima(stack), zero.h, s)
        x, tol = zero.nodes, 1e-9 * zero.h
        closure = (x >= DOM.omega_lo - tol) & (x <= DOM.omega_hi + tol)
        dist = dist_to_complement(DOM, x)
        for r in ((1.0 - s) ** (1.0 / s), 0.3):
            strip = closure & (dist <= r + tol)
            assert np.count_nonzero(strip & (dist > tol)) > 0
            for eps in (0.0, 0.1, 0.5):
                p = FracParams(s=s, eps=eps)
                smoothed = _apply(stack, _kernel(_stencil(p, zero.h, 0.0, 1.0, False), False, n), False, {})
                (sup, sup_rhs), (l2, l2_rhs) = _strip_rows(zero, smoothed, p, r, holder, _strip(zero, r))
                near = (1.0 - s) / (1.0 - eps ** (2.0 - 2.0 * s))
                for i, phi in enumerate(phis):
                    sm = mollify(phi, p)
                    w = build_w(phi, zero, p, r)
                    hold = holder_seminorm_grid(phi, s)
                    want = (
                        strip_sup_loop(zero, sm.values, r),
                        2.0 * hold * (r**s + near),
                        l2_norm(sm - w, region="omega") ** 2,
                        8.0 * hold**2 * (r ** (1.0 + 2.0 * s) + near**2 * r),
                    )
                    got = (sup[i], sup_rhs[i], l2[i], l2_rhs[i])
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                    assert sup[i] >= float(np.max(np.abs(sm.values - w.values)[strip]))

    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("s", [0.5, 0.9])
    def test_sup_is_the_exact_in_cell_max(self, n, s):
        # mollifier-check's seed-1 bumps: (1 - lam) times the smoothed P1
        # row is quadratic on each strip piece, so its max over the nodes
        # can sit up to 4.1% (n = 65) below the peak inside a cell.  The
        # stacked sup equals the scalar vertex loop, which no 200,001-point
        # sampling of Omega exceeds and which beats it by at most the
        # sampling's miss at a vertex: |q''| (delta/2)**2 / 2 with
        # |q''| <= 2 max|v'| / r and delta the sample spacing
        grid = make_grid(DOM, n)
        stack = _random_bump_rows(_PCG64(1), DOM, n, 100)
        p = FracParams(s=s)
        r = (1.0 - s) ** (1.0 / s)
        smoothed = _apply(stack, _kernel(_stencil(p, grid.h, 0.0, 1.0, False), False, n), False, {})
        (sup, _), _ = _strip_rows(grid, smoothed, p, r, 1.0, _strip(grid, r))
        loop = np.array([strip_sup_loop(grid, row, r) for row in smoothed])
        sampled = np.array([strip_sup_sampled(grid, row, r) for row in smoothed])
        assert sup == pytest.approx(loop, rel=1e-14, abs=0.0)
        assert np.all(sampled <= loop * (1.0 + 1e-15))
        slope = np.max(np.abs(np.diff(smoothed, axis=-1)), axis=-1) / grid.h
        assert np.all(loop - sampled <= slope / r * (2.0 / 200_000) ** 2 / 4.0)
        depth, lam = _ramp(grid, r)
        nodal = np.max(np.abs((1.0 - lam) * smoothed)[:, (depth >= 0.0) & (depth <= r)], axis=-1)
        assert np.max(sup / nodal) > 1.01

    def test_narrow_strip_checks_boundary_nodes(self):
        # a strip narrower than one cell holds no node inside Omega, but w
        # meets the zero exterior data on the boundary of Omega, where the
        # distance is the smoothed value itself
        phis = bumps(seed=7, n=33, count=3)
        grid = make_grid(DOM, 33)
        p = FracParams(s=0.9)
        smoothed = np.stack([mollify(phi, p).values for phi in phis])
        (sup, _), _ = _strip_rows(grid, smoothed, p, 0.5 * grid.h, 1.0, _strip(grid, 0.5 * grid.h))
        edge = np.isin(grid.nodes, (DOM.omega_lo, DOM.omega_hi))
        assert np.count_nonzero(edge) == 2
        assert np.array_equal(sup, np.max(np.abs(smoothed[:, edge]), axis=-1))
        assert np.all(sup > 0.0)

    @pytest.mark.parametrize("s", [0.99, 0.999])
    def test_off_node_boundary_is_checked(self, s):
        # at n = 130 the boundary of Omega falls between nodes, 0.023 from the
        # nearest node inside, and the strip r = (1-s)**(1/s) is narrower than
        # that gap: no node is in the strip, and the row is the smoothed
        # interpolant at the ends of Omega, where w meets the zero exterior data
        phis = bumps(seed=1, n=130, count=5)
        grid = make_grid(DOM, 130)
        p = FracParams(s=s)
        r = (1.0 - s) ** (1.0 / s)
        dist = dist_to_complement(DOM, grid.nodes)
        assert not np.any((dist > 0.0) & (dist <= r))
        assert not np.any(np.isin(grid.nodes, (DOM.omega_lo, DOM.omega_hi)))
        smoothed = [mollify(phi, p) for phi in phis]
        (sup, _), _ = _strip_rows(grid, np.stack([sm.values for sm in smoothed]), p, r, 1.0, _strip(grid, r))
        want = [max(abs(grid_eval(sm, DOM.omega_lo)), abs(grid_eval(sm, DOM.omega_hi))) for sm in smoothed]
        assert sup == pytest.approx(want, rel=1e-14, abs=0.0)
        assert np.all(sup > 0.0)
