"""End-to-end acceptance gate.

One test per headline guarantee of the package, each asserting its stated
tolerance and runtime budget and printing a one-line summary with the
measured margin (visible with -s, or in the -v pass/fail listing).
"""

import math
import time

import numpy as np
import pytest

from fraclap.config import ExperimentConfig
from fraclap.experiments import (
    run_consistency,
    run_kernel_check,
    run_mollifier_check,
    run_rates,
)
from fraclap.grid import Domain, dirichlet_local, make_grid, objective_local, sample
from fraclap.kernels import FracParams, classical_const, const_ratio, norm_const
from fraclap.mollifier import energy_gap
from fraclap.profiles import make_profile
from fraclap.report import fit_line
from fraclap.solver import (
    exact_solution_ball,
    frac_laplacian_pointwise,
    solve_frac_system,
    solve_local_dirichlet,
)
from helpers import (
    check_strip_closeness,
    csv_text,
    check_strip_l2,
    dirichlet_frac,
    holder_seminorm_grid,
    linf_distance,
    objective_frac,
    random_bump,
    trapezoid,
)

DOM = Domain(-1.0, 1.0, -2.0, 2.0)
RATE_S = (0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
PERT_BUMP = "bump:amplitude=8,center=0,width=0.5"


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def row(report, name: str):
    for r in report.rows:
        if r.name == name:
            return r
    raise AssertionError(f"check report has no row named {name}")


@pytest.fixture(scope="module")
def kernel_result():
    cfg = ExperimentConfig(experiment="kernel_check", s_list=(0.5,))
    return timed(run_kernel_check, cfg)


@pytest.fixture(scope="module")
def rates_1025():
    cfg = ExperimentConfig(experiment="rates", s_list=RATE_S, n=1025)
    return timed(run_rates, cfg)


class TestAcceptance:
    def test_a01_kernel_moment_identities(self, kernel_result):
        report, seconds = kernel_result
        quad_row = row(report, "psi_moment_vs_quadrature")
        mass_row = row(report, "psi_moment_unit_mass")
        assert quad_row.passed and quad_row.value <= 1e-8
        assert mass_row.passed and mass_row.value <= 1e-10
        assert seconds < 5.0
        print(
            f"criterion 01 PASS: kernel moments, worst rel {quad_row.value:.3e} "
            f"(tol 1e-8), unit mass off by {mass_row.value:.3e} (tol 1e-10), "
            f"{seconds:.2f} s"
        )

    def test_a02_second_moment_constant(self, kernel_result):
        report, seconds = kernel_result
        half_row = row(report, "eta_second_moment_half")
        assert half_row.passed and half_row.value <= 1e-8
        assert seconds < 5.0
        print(
            f"criterion 02 PASS: truncated second moment = 0.5 within "
            f"{half_row.value:.3e} (tol 1e-8), {seconds:.2f} s"
        )

    def test_a03_smoothing_inequality_suite(self):
        cfg = ExperimentConfig(
            experiment="mollifier_check", s_list=(0.3, 0.5, 0.7, 0.9), n=129
        )
        report, seconds = timed(run_mollifier_check, cfg)
        from fraclap.experiments import _MOLL_BUMPS, _MOLL_EPS

        assert _MOLL_BUMPS >= 100
        assert report.passed, csv_text(report)
        worst = max(r.value / r.bound for r in report.rows)
        assert seconds < 60.0
        print(
            f"criterion 03 PASS: {_MOLL_BUMPS} seeded bumps x {len(cfg.s_list)} s "
            f"x {len(_MOLL_EPS)} eps, worst margin {worst:.3f} of bound, "
            f"{seconds:.1f} s"
        )

    def test_a04_discrete_stability_identities(self):
        grid = make_grid(DOM, 257)
        t0 = time.perf_counter()
        f = sample(grid, lambda x: 1.0)
        rng = np.random.default_rng(42)
        trials = [random_bump(rng, grid) for _ in range(20)]

        worst = 0.0
        u_loc = solve_local_dirichlet(grid, f)
        base_loc = objective_local(grid, u_loc, f)
        for phi in trials:
            gap = objective_local(grid, phi, f) - base_loc
            target = dirichlet_local(grid, phi - u_loc)
            scale = max(abs(gap), abs(target), 1e-300)
            worst = max(worst, abs(gap - target) / scale)

        for s in (0.35, 0.6):
            p = FracParams(s=s)
            u_s = solve_frac_system(grid, f, p)[0]
            base = objective_frac(grid, u_s, f, p)
            for phi in trials:
                gap = objective_frac(grid, phi, f, p) - base
                target = dirichlet_frac(grid, phi - u_s, p).total
                scale = max(abs(gap), abs(target), 1e-300)
                worst = max(worst, abs(gap - target) / scale)
        seconds = time.perf_counter() - t0
        assert worst <= 1e-10
        assert seconds < 30.0
        print(
            f"criterion 04 PASS: local and nonlocal energy-gap identities, "
            f"worst rel {worst:.3e} (tol 1e-10) over 20 candidates x 3 solves, "
            f"{seconds:.1f} s"
        )

    def test_a05_solver_against_closed_form_profile(self):
        t0 = time.perf_counter()
        ladder = (129, 257, 513, 1025)
        final_errs = {}
        for s in (0.3, 0.6, 0.9):
            p = FracParams(s=s)
            errs = []
            for n in ladder:
                grid = make_grid(DOM, n)
                u = solve_frac_system(grid, sample(grid, lambda x: 1.0), p)[0]
                errs.append(linf_distance(grid, u, exact_solution_ball(p, grid.nodes), "box"))
            assert all(a > b for a, b in zip(errs, errs[1:])), (s, errs)
            assert errs[-1] < 2e-2, (s, errs)
            final_errs[s] = errs[-1]
        seconds = time.perf_counter() - t0
        assert seconds < 120.0
        shown = ", ".join(f"s={s}: {e:.2e}" for s, e in final_errs.items())
        print(
            f"criterion 05 PASS: sup error vs closed-form profile strictly "
            f"decreasing over n={ladder}, final {shown} (tol 2e-2), {seconds:.1f} s"
        )

    def test_a06_convergence_rate_in_one_minus_s(self, rates_1025):
        report, seconds = rates_1025
        refined_cfg = ExperimentConfig(experiment="rates", s_list=RATE_S, n=2049)
        refined, refined_seconds = timed(run_rates, refined_cfg)
        assert 0.8 <= report.slope <= 1.2, report.slope
        assert abs(refined.slope - report.slope) < 0.1
        assert seconds + refined_seconds < 600.0
        print(
            f"criterion 06 PASS: error slope {report.slope:.4f} in [0.8, 1.2] "
            f"at n=1025, {refined.slope:.4f} at n=2049 (drift "
            f"{abs(refined.slope - report.slope):.4f} < 0.1); empirical "
            f"constant {report.c_emp:.3f} reported, not asserted; "
            f"{seconds + refined_seconds:.0f} s"
        )

    def test_a07_source_perturbation_term(self, rates_1025):
        base_report, _ = rates_1025
        t0 = time.perf_counter()
        shrink_cfg = ExperimentConfig(
            experiment="rates",
            s_list=RATE_S,
            n=1025,
            pert_mode="shrinking",
            pert_profile=PERT_BUMP,
        )
        shrink = run_rates(shrink_cfg)
        assert 0.8 <= shrink.slope <= 1.2, shrink.slope

        fixed_cfg = ExperimentConfig(
            experiment="rates",
            s_list=RATE_S,
            n=1025,
            pert_mode="fixed",
            pert_scale=0.1,
            pert_profile=PERT_BUMP,
        )
        fixed = run_rates(fixed_cfg)
        bump = make_profile(PERT_BUMP)
        xs = np.linspace(-0.5, 0.5, 20001)
        bump_l1 = float(trapezoid(np.abs(bump(xs)), xs))
        floor = fixed.rows[-1].total_ws2_err ** 2
        c_sq = base_report.c_emp**2
        needed = c_sq * 0.1 * bump_l1 / 10.0
        assert fixed.rows[-1].s == max(RATE_S)
        assert floor >= needed, (floor, needed)
        seconds = time.perf_counter() - t0
        assert seconds < 600.0
        print(
            f"criterion 07 PASS: shrinking-source slope {shrink.slope:.4f} in "
            f"[0.8, 1.2]; fixed 0.1-source squared-error floor {floor:.4f} >= "
            f"{needed:.4f} (= C_emp^2 * 0.1 * {bump_l1:.3f} / 10), {seconds:.0f} s"
        )

    def test_a08_pointwise_operator_consistency(self):
        # The sweep starts at s=0.5 but the fit uses the default window
        # (s >= 0.6): the error order is (1-s)/s, so the lowest point carries
        # a higher-order contribution that a straight line cannot absorb.
        cfg = ExperimentConfig(
            experiment="consistency", s_list=(0.5, 0.7, 0.9, 0.95, 0.99)
        )
        report, seconds = timed(run_consistency, cfg)
        errs = [r.max_abs_err for r in report.rows]
        assert all(a > b > 0.0 for a, b in zip(errs, errs[1:])), errs
        assert 0.8 <= report.slope <= 1.2, report.slope

        worst_affine = 0.0
        g = lambda t: 2.0 * t - 1.0
        for s in (0.6, 0.75, 0.9):
            got = frac_laplacian_pointwise(g, FracParams(s=s), np.array([-0.5, 0.0, 0.7]))
            worst_affine = max(worst_affine, float(np.max(np.abs(got))))
        assert worst_affine < 1e-6
        assert seconds < 60.0
        print(
            f"criterion 08 PASS: gaussian consistency-error slope "
            f"{report.slope:.4f} in [0.8, 1.2] (fit window s >= "
            f"{cfg.fit_min_s}); affine residual {worst_affine:.2e} < 1e-6, "
            f"{seconds:.1f} s"
        )

    def test_a09_normalization_ratio_defect(self, kernel_result):
        report, _ = kernel_result
        t0 = time.perf_counter()
        ladder = (0.9, 0.99, 0.999)
        agree = 0.0
        ratios = []
        for s in ladder:
            p = FracParams(s=s)
            r = const_ratio(p)
            via_parts = norm_const(p) / classical_const(p)
            agree = max(agree, abs(r - via_parts) / abs(r))
            ratios.append(r)
        defects = [abs(1.0 - r) for r in ratios]
        assert defects[0] > defects[1] > defects[2] > 0.0
        slope, _, _ = fit_line(
            [math.log(1.0 - s) for s in ladder], [math.log(v) for v in defects]
        )
        seconds = time.perf_counter() - t0
        assert agree <= 1e-10
        assert slope >= 1.0
        assert row(report, "const_ratio_defect_decreasing").passed
        assert row(report, "const_ratio_defect_slope").passed
        assert row(report, "const_ratio_two_routes").passed
        assert seconds < 1.0
        print(
            f"criterion 09 PASS: ratio defect decreasing over s={ladder} with "
            f"slope {slope:.4f} >= 1, independent routes agree to {agree:.2e} "
            f"(tol 1e-10), {seconds:.3f} s"
        )

    def test_a10_boundary_competitor_suite(self):
        t0 = time.perf_counter()
        grid = make_grid(DOM, 513)
        f = sample(grid, lambda x: 1.0)
        g = sample(grid, lambda x: 0.0)
        worst_margin = 0.0
        for s in (0.5, 0.7, 0.9):
            p = FracParams(s=s)
            u = solve_frac_system(grid, f, p)[0]
            hold = holder_seminorm_grid(grid, u, s)
            for r in (0.2, 0.1, 0.05):
                for check in (check_strip_closeness, check_strip_l2):
                    lhs, rhs = check(grid, u, g, p, r, hold, 0.0)
                    assert lhs <= rhs * (1.0 + 1e-4) + 1e-10, (check.__name__, s, r)
                    worst_margin = max(worst_margin, lhs / max(rhs, 1e-300))

        gaps = []
        for s in RATE_S:
            p = FracParams(s=s)
            u = solve_frac_system(grid, f, p)[0]
            r = (1.0 - s) ** (1.0 / s)
            gaps.append(energy_gap(grid, u, g, f, p, r))
        slope, _, _ = fit_line(
            [math.log(1.0 - s) for s in RATE_S], [math.log(v) for v in gaps]
        )
        seconds = time.perf_counter() - t0
        assert slope > 0.0
        assert seconds < 120.0
        print(
            f"criterion 10 PASS: strip bounds hold for s in (0.5, 0.7, 0.9) x "
            f"r in (0.2, 0.1, 0.05), worst margin {worst_margin:.3f} of bound; "
            f"objective gap decays with order {slope:.2f} > 0 under the "
            f"shrinking-strip rule, {seconds:.1f} s"
        )
