import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from fraclap.errors import ConfigError
from fraclap.kernels import (
    FracParams,
    classical_const,
    const_ratio,
    eta_t_integrals,
    norm_const,
    psi,
    psi_integrals,
    psi_moment,
    sphere_measure,
)
from fraclap.mollifier import _partition
from helpers import cell_integrals_oracle, eta

S_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def radial_moment_quad(p: FracParams, alpha: float, d: int = 1) -> float:
    """Independent evaluation of the psi moment in R^d by adaptive quadrature."""
    pts = [p.eps] if p.eps > 0.0 else None
    val, _ = quad(
        lambda t: psi(p, t, d) * t ** (alpha + d - 1.0),
        0.0,
        1.0,
        points=pts,
        limit=200,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    return sphere_measure(d) * val


class TestSphereMeasure:
    def test_values(self):
        assert sphere_measure(1) == 2.0
        assert sphere_measure(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert sphere_measure(3) == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_invalid_dimension(self):
        with pytest.raises(ConfigError):
            sphere_measure(0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FracParams(s=1.0)
        with pytest.raises(ConfigError):
            FracParams(s=0.5, eps=1.0)

    def test_dimension_is_no_parameter(self):
        # every operator is 1-D; d is an argument only of the R^d formulas,
        # each of which takes only an integer d >= 1
        assert FracParams.__slots__ == ("s", "eps")
        with pytest.raises(TypeError):
            FracParams(s=0.5, d=2)
        p = FracParams(s=0.5, eps=0.2)
        formulas = (
            norm_const,
            classical_const,
            const_ratio,
            lambda p, d: psi(p, 0.5, d),
            lambda p, d: psi_moment(p, 1.0, d),
        )
        for formula in formulas:
            for d in (0, 1.5):
                with pytest.raises(ConfigError, match="dimension"):
                    formula(p, d)

    def test_plateau_scale(self):
        assert FracParams(s=0.5).plateau_scale == 2.0
        p = FracParams(s=0.5, eps=0.3)
        assert p.plateau_scale == pytest.approx(2.0 / (1.0 - 0.3), rel=1e-14)


class TestNormConst:
    def test_half_line_value(self):
        assert norm_const(FracParams(s=0.5)) == pytest.approx(0.25, rel=1e-15)

    def test_two_dimensional_value(self):
        want = (2.0 / (2.0 * math.pi)) * 0.5
        assert norm_const(FracParams(s=0.5), 2) == pytest.approx(want, rel=1e-15)

    def test_vanishes_at_local_limit(self):
        for d in (1, 2, 3):
            bound = 1e-2 * d / sphere_measure(d)
            assert norm_const(FracParams(s=0.999), d) < bound


class TestClassicalConst:
    def test_direct_gamma_oracle(self):
        for d in (1, 2, 3):
            for s in S_GRID:
                want = (
                    4.0 ** (s - 1.0)
                    * math.gamma(s + d / 2.0)
                    * s
                    * (1.0 - s)
                    / (math.pi ** (d / 2.0) * math.gamma(2.0 - s))
                )
                got = classical_const(FracParams(s=s), d)
                assert got == pytest.approx(want, rel=1e-13)

    def test_vanishes_at_endpoints(self):
        assert classical_const(FracParams(s=0.999)) < 1e-3
        assert classical_const(FracParams(s=0.001)) < 1e-3


class TestConstRatio:
    def test_agreement_of_independent_routes(self):
        for d in (1, 2, 3):
            for s in S_GRID + (0.99, 0.999):
                p = FracParams(s=s)
                via_parts = norm_const(p, d) / classical_const(p, d)
                assert const_ratio(p, d) == pytest.approx(via_parts, rel=1e-10)

    def test_local_limit_is_one(self):
        for d in (1, 2, 3):
            assert const_ratio(FracParams(s=0.999), d) == pytest.approx(1.0, abs=0.02)

    def test_defect_monotone_and_linearly_bounded(self):
        for d in (1, 2, 3):
            defects = [
                abs(1.0 - 1.0 / const_ratio(FracParams(s=s), d))
                for s in (0.9, 0.99, 0.999)
            ]
            assert defects[0] > defects[1] > defects[2] > 0.0
        # d=1 defect stays below twice the distance to the local limit
        for s in (0.9, 0.99, 0.999):
            defect = abs(1.0 - 1.0 / const_ratio(FracParams(s=s)))
            assert defect <= 2.0 * (1.0 - s)

    def test_reciprocal_defect_superlinear(self):
        ladder = (0.9, 0.99, 0.999)
        xs = [math.log(1.0 - s) for s in ladder]
        ys = [math.log(abs(1.0 - const_ratio(FracParams(s=s)))) for s in ladder]
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope >= 1.0


class TestEta:
    def test_unit_distance(self):
        p = FracParams(s=0.7)
        assert eta(p, 1.0, 2) == pytest.approx(norm_const(p, 2), rel=1e-15)

    def test_singularity_rejected(self):
        with pytest.raises(ValueError):
            eta(FracParams(s=0.5), 0.0)

    def test_power_law(self):
        assert eta(FracParams(s=0.5), 2.0) == pytest.approx(0.0625, rel=1e-14)


class TestPsi:
    def test_vanishes_beyond_unit_radius(self):
        p = FracParams(s=0.3, eps=0.2)
        assert psi(p, 1.0) == 0.0
        assert psi(p, 7.3) == 0.0

    def test_plateau(self):
        p = FracParams(s=0.7, eps=0.3)
        level = psi(p, 0.3)
        for t in (0.0, 0.1, 0.29):
            assert psi(p, t) == level

    def test_midpoint_vs_quadrature(self):
        p = FracParams(s=0.5, eps=0.0)
        want, _ = quad(lambda u: eta(p, u) * u, 0.5, 1.0, epsabs=1e-14, epsrel=1e-13)
        assert psi(p, 0.5) == pytest.approx(2.0 * want, rel=1e-8)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            psi(FracParams(s=0.5), -0.1)

    def test_nonnegative_nonincreasing_supported(self):
        for s in S_GRID:
            for eps in (0.0, 0.3):
                p = FracParams(s=s, eps=eps)
                ts = np.linspace(0.01, 1.5, 200)
                vals = [psi(p, float(t)) for t in ts]
                assert all(v >= 0.0 for v in vals)
                assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
                assert all(v == 0.0 for t, v in zip(ts, vals) if t >= 1.0)


class TestPsiArrays:
    # radii that cross every branch: 0, the plateau, the tail, 1 and beyond
    T = np.concatenate(([0.0, 0.3, 1.0, 2.5, np.inf], np.linspace(1e-3, 1.2, 235))).reshape(4, 60)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_array_gives_elementwise_bits_in_its_shape(self, d):
        for s in S_GRID:
            for eps in (0.0, 0.3):
                p = FracParams(s=s, eps=eps)
                out = psi(p, self.T, d)
                assert out.shape == self.T.shape
                each = np.array([psi(p, float(t), d) for t in self.T.flat]).reshape(self.T.shape)
                assert out.tobytes() == each.tobytes()

    def test_value_at_zero(self):
        # d + 2s > 2: the integrable blowup; d + 2s < 2: the finite limit
        # plateau_scale C / (2 - d - 2s) of the tail integral, here at d = 1
        for p, d in ((FracParams(s=0.9), 1), (FracParams(s=0.3), 2), (FracParams(s=0.1), 3)):
            assert psi(p, 0.0, d) == math.inf
        for s in (0.1, 0.3, 0.45):
            p = FracParams(s=s)
            want = p.plateau_scale * norm_const(p) / (1.0 - 2.0 * p.s)
            assert psi(p, np.zeros(3)) == pytest.approx(np.full(3, want), rel=1e-15)

    def test_log_branch_at_s_half(self):
        p = FracParams(s=0.5)
        t = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
        want = [math.inf] + [2.0 * norm_const(p) * math.log(1.0 / v) for v in t[1:-1]] + [0.0]
        assert psi(p, t) == pytest.approx(want, rel=1e-15)

    def test_zero_from_radius_one_and_flat_plateau(self):
        for s in S_GRID:
            p = FracParams(s=s, eps=0.3)
            assert np.all(psi(p, np.array([1.0, 1.0 + 1e-12, 7.3, np.inf])) == 0.0)
            assert np.all(psi(p, np.linspace(0.0, 0.3, 7)) == psi(p, 0.3))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="-1e-300"):
            psi(FracParams(s=0.5), np.array([0.2, -1e-300, 0.5]))

    def test_nan_radius_gives_nan(self):
        # a NaN entry stays NaN and leaves its neighbours alone
        p = FracParams(s=0.9)
        assert math.isnan(psi(p, math.nan))
        out = psi(p, np.array([0.5, np.nan, 2.0]))
        assert math.isnan(out[1]) and out[0] == psi(p, 0.5) and out[2] == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_relative_accuracy_as_radius_tends_to_one(self, d):
        # C (a**-q - 1) / q cancels as a -> 1, its relative error growing
        # like eps / (1 - t); against 40-digit mpmath, with C and q exact
        # for the float s, the tail stays at roundoff up to 1 - t = 1e-15
        mp.mp.dps = 40
        t = 1.0 - np.array([1e-4, 1e-8, 1e-12, 1e-15])
        for s in (0.3, 0.6, 0.9, 0.99):
            p = FracParams(s=s)
            q = d + 2 * mp.mpf(s) - 2
            c = 2 * d * (1 - mp.mpf(s)) * mp.gamma(mp.mpf(d) / 2) / (2 * mp.pi ** (mp.mpf(d) / 2))
            want = np.array([float(c * (mp.mpf(v) ** -q - 1) / q) for v in t])
            assert np.max(np.abs(psi(p, t, d) / want - 1.0)) <= 1e-14, s

    def test_no_runtime_warning(self):
        # 0 and tiny radii divide by zero or overflow inside the power; the
        # result is the inf of the blowup, without a warning
        t = np.array([0.0, 1e-300, 5e-324, 0.5, 1.0, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (1, 2, 3):
                for s in S_GRID + (0.99,):
                    for eps in (0.0, 0.3):
                        psi(FracParams(s=s, eps=eps), t, d)
                        psi(FracParams(s=s, eps=eps), 0.0, d)


class TestPsiMoment:
    def test_unit_mass_everywhere(self):
        for d in (1, 2, 3):
            for s in S_GRID:
                for eps in (0.0, 0.3, 0.9):
                    assert psi_moment(FracParams(s=s, eps=eps), 0.0, d) == 1.0

    def test_closed_form_value(self):
        got = psi_moment(FracParams(s=0.5, eps=0.0), 2.0)
        assert got == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_moment_grid_vs_quadrature(self):
        for d in (1, 2, 3):
            for s in S_GRID:
                for eps in (0.0, 0.3):
                    p = FracParams(s=s, eps=eps)
                    for alpha in (0.0, 1.0, 2.0, s):
                        want = radial_moment_quad(p, alpha, d)
                        assert psi_moment(p, alpha, d) == pytest.approx(want, rel=1e-8)

    def test_continuity_in_eps_near_one(self):
        p1 = FracParams(s=0.4, eps=0.99)
        p2 = FracParams(s=0.4, eps=0.999)
        assert psi_moment(p1, 1.0) == pytest.approx(psi_moment(p2, 1.0), abs=5e-3)
        for p in (p1, p2):
            assert psi_moment(p, 1.0) == pytest.approx(radial_moment_quad(p, 1.0), rel=1e-8)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            psi_moment(FracParams(s=0.5), -0.5)


class TestSecondMomentConstant:
    def test_truncated_second_moment_is_half(self):
        # angular average of |z_1|^2 over the sphere is 1/d, so the moment
        # reduces to (omega_d/d) C int_0^1 r^(1-2s) dr
        for d in (1, 2, 3):
            for s in S_GRID:
                p = FracParams(s=s)
                radial, _ = quad(
                    lambda r: r ** (1.0 - 2.0 * s), 0.0, 1.0, epsabs=1e-14, epsrel=1e-13
                )
                got = sphere_measure(d) / d * norm_const(p, d) * radial
                assert got == pytest.approx(0.5, abs=1e-8)


def _worst_rel_err(integrals, p: FracParams, a, b, odd: bool) -> float:
    """Largest relative error of both integrals over the subintervals [a, b]
    against cell_integrals_oracle."""
    got = np.array(integrals(p, a, b))
    want = np.array([cell_integrals_oracle(p, x, y, odd) for x, y in zip(a, b)]).T
    return float(np.max(np.abs(got - want) / np.abs(want)))


class TestCellIntegrals:
    @pytest.mark.parametrize("s,eps", [(0.3, 0.0), (0.5, 0.0), (0.5, 0.25), (0.9, 0.4), (0.5000000001, 0.0)])
    def test_psi_integrals_vs_quadrature(self, s, eps):
        p = FracParams(s=s, eps=eps)
        bounds = [(0.0, 0.1), (0.05, 0.3), (0.2, 0.95), (0.9, 1.3), (1.1, 2.0)]
        a = np.array([ab[0] for ab in bounds])
        b = np.array([ab[1] for ab in bounds])
        k0, k1 = psi_integrals(p, a, b)
        for j, (lo, hi) in enumerate(bounds):
            pts = [x for x in (eps, 1.0) if lo < x < hi] or None
            want0, _ = quad(lambda t: psi(p, t), lo, hi, points=pts, epsabs=1e-13, epsrel=1e-11)
            want1, _ = quad(lambda t: psi(p, t) * t, lo, hi, points=pts, epsabs=1e-13, epsrel=1e-11)
            assert k0[j] == pytest.approx(want0, rel=1e-9, abs=1e-13)
            assert k1[j] == pytest.approx(want1, rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.5000000001, 0.9])
    def test_eta_t_integrals_vs_quadrature(self, s):
        p = FracParams(s=s)
        bounds = [(0.01, 0.1), (0.1, 1.0), (0.5, 2.5)]
        a = np.array([ab[0] for ab in bounds])
        b = np.array([ab[1] for ab in bounds])
        g0, g1 = eta_t_integrals(p, a, b)
        for j, (lo, hi) in enumerate(bounds):
            want0, _ = quad(lambda t: eta(p, t) * t, lo, hi, epsabs=1e-13, epsrel=1e-11)
            want1, _ = quad(lambda t: eta(p, t) * t * t, lo, hi, epsabs=1e-13, epsrel=1e-11)
            assert g0[j] == pytest.approx(want0, rel=1e-9)
            assert g1[j] == pytest.approx(want1, rel=1e-9)

    @pytest.mark.parametrize("n", [129, 4097])
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.9, 0.99, 0.999])
    def test_stencil_subintervals_vs_mpmath(self, s, n):
        # every subinterval the smoothing and gradient stencils integrate over
        # on a box of width 4 (gradient from radius eps and from the 0.6 tail
        # radius; its piece from radius 0 is not an eta_t_integrals call),
        # against antiderivatives at 50 digits.  Differences of powers would
        # cancel by up to 1/(2-2s) and 1/h on these.
        h = 4.0 / (n - 1)
        for eps in (0.0, 0.1):
            p = FracParams(s=s, eps=eps)
            a, b, _ = _partition(h, 0.0, 1.0, eps or None)
            assert _worst_rel_err(psi_integrals, p, a, b, False) <= 1e-13
            for t_lo in (eps, 0.6):
                a, b, _ = _partition(h, t_lo, 1.0)
                pos = a > 0.0
                assert _worst_rel_err(eta_t_integrals, p, a[pos], b[pos], True) <= 1e-13

    def test_bound_validation(self):
        p = FracParams(s=0.5)
        with pytest.raises(ValueError):
            psi_integrals(p, [0.2], [0.1])
        with pytest.raises(ValueError):
            eta_t_integrals(p, [0.0], [0.5])

    def test_mismatched_bound_shapes_rejected(self):
        p = FracParams(s=0.5)
        for integrals in (psi_integrals, eta_t_integrals):
            with pytest.raises(ValueError, match="matching shapes"):
                integrals(p, [0.1, 0.2], [0.5])
