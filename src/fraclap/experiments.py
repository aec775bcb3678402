"""Experiment drivers behind the CLI subcommands.

Each runner consumes a validated ExperimentConfig and returns a report
object; writing CSV/SVG is the caller's concern.  Runners are deterministic
for a fixed config and seed.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .assembly import ToeplitzOperator, _log_panels, interior_indices
from .config import ExperimentConfig
from .errors import ConfigError, NumericalError
from .grid import Grid, l2_norm, make_grid, sample
from .kernels import FracParams, classical_const, const_ratio, norm_const, psi, psi_moment, sphere_measure
# the bump suite's constants _MOLL_EPS and _TAIL_RHO stay importable from here
from .mollifier import _MOLL_EPS, _TAIL_RHO, _bump_suite_rows, _chunk_rows, energy_gap  # noqa: F401
from .profiles import _random_bump_rows
from .report import (
    CheckReport,
    CheckRow,
    ConsistencyRow,
    RateRow,
    SolveReport,
    SweepReport,
    _fit_loglog,
    build_sweep_report,
)
from .solver import frac_laplacian_pointwise, solve_frac_system, solve_local_dirichlet


def _sources(cfg: ExperimentConfig, grid: Grid, f: np.ndarray) -> Iterator[Tuple[float, np.ndarray]]:
    """(s, the nonlocal source at s) for each s of cfg: f plus pert_coeff(s)
    times the perturbation sampled on grid, or f itself when pert_mode is
    none, whose coefficient is always 0."""
    if cfg.pert_mode == "none":
        return ((s, f) for s in cfg.s_list)
    pert = sample(grid, cfg.pert())
    return ((s, f + cfg.pert_coeff(s) * pert) for s in cfg.s_list)


def _roundoff(A: ToeplitzOperator) -> float:
    """8 log2(2m) eps ||A||_1: the FFT matvec roundoff model, per unit 2-norm
    of each of the two vectors in a product x^T A y."""
    return 8.0 * math.log2(2 * A.c.size) * np.finfo(float).eps * A.norm1


def _check_optimality_identity(
    A: ToeplitzOperator, b: np.ndarray, v: np.ndarray, u: np.ndarray, s: float
) -> None:
    """The objective gap of any feasible vector v equals half its squared
    energy distance to the minimizer u; a violation flags an assembly or
    solve defect, so it is fatal.

    With e = v - u the identity reads gap - e^T A e / 2 = e^T (A u - b), and
    the right side is checked directly: differencing the two objectives
    instead cancels them down to roundoff as s -> 1.  The bound is the FFT
    matvec roundoff model _roundoff(A) ||u||_2 ||e||_2: accurate solves read
    below 1e-2 of it, and a solve with one kernel entry off by 1e-8
    relative exceeds it 1e5-fold."""
    e = v - u
    defect = float(e @ (A.matvec(u) - b))
    bound = _roundoff(A) * math.sqrt(u @ u) * math.sqrt(e @ e)
    if not abs(defect) <= bound:
        raise NumericalError(
            f"optimality identity violated at s={s}: e^T(Au - b)={defect!r} exceeds {bound!r}"
        )


def run_rates(cfg: ExperimentConfig) -> SweepReport:
    """Sweep s, solving the nonlocal and local problems on one mesh, and fit
    the decay of the error norm against 1-s.

    The same stiffness operator is used for the solve and for the error
    seminorm, which makes the exact optimality identity available as a
    per-point cross-check."""
    grid = make_grid(cfg.domain, cfg.n)
    idx = interior_indices(grid)
    f = sample(grid, cfg.f_profile())
    u_loc = solve_local_dirichlet(grid, f)
    v_loc = u_loc[idx]
    g = np.zeros(grid.n)  # the exterior data of energy_gap

    rows: List[RateRow] = []
    for s, f_s in _sources(cfg, grid, f):
        p = FracParams(s=s)
        u_s, A, b = solve_frac_system(grid, f_s, p)
        u_int = u_s[idx]

        e = v_loc - u_int
        semi2 = A.quad_form(e)
        floor = _roundoff(A) * float(e @ e)
        if semi2 < -floor:  # below roundoff: the operator is not positive definite here
            raise NumericalError(f"negative seminorm at s={s}: e^T A e={semi2!r} is below -{floor!r}")
        err_l2 = l2_norm(grid, u_loc - u_s, region="box")
        _check_optimality_identity(A, b, v_loc, u_int, s)
        gap = energy_gap(grid, u_s, g, f, p, cfg.r_value(s))
        rows.append(
            RateRow(s=s, l2_err=err_l2, total_ws2_err=math.sqrt(max(semi2, 0.0) + err_l2**2), energy_gap=gap)
        )
    return build_sweep_report(rows, cfg.fit_min_s)


def run_consistency(cfg: ExperimentConfig) -> SweepReport:
    """Max deviation of the pointwise nonlocal operator from the negative
    second derivative over interior sample points, per s."""
    g = cfg.g_profile()
    if g.second_derivative is None:
        raise ConfigError(
            f"consistency needs a twice-differentiable profile, got '{g.name}'"
        )
    xs = np.linspace(cfg.omega_lo, cfg.omega_hi, 103)[1:-1]
    minus_g2 = -g.second_derivative(xs)
    rows: List[ConsistencyRow] = []
    for s in cfg.s_list:
        worst = np.max(np.abs(frac_laplacian_pointwise(g, FracParams(s=s), xs) - minus_g2))
        rows.append(ConsistencyRow(s=s, max_abs_err=float(worst)))
    return build_sweep_report(rows, cfg.fit_min_s)


_PSI_S = (0.1, 0.3, 0.5, 0.7, 0.9)
_PSI_EPS = (0.0, 0.3)
_PSI_ALPHA = (0.0, 1.0, 2.0)
_RATIO_S = (0.9, 0.99, 0.999)


def _radial_rule(a: float, b: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals over (a, b) in u = -log((t - a) / (b - a)):
    48 geometric u-panels up to u = 200, where a singularity (t - a)**beta
    with beta >= -0.8, the worst on the check grid, has decayed to e**-40."""
    u = np.concatenate(([0.0], np.geomspace(0.1, 200.0, 48)))
    return _log_panels(a, math.log(b - a) - u[::-1])


def _psi_moment_quadrature(p: FracParams, alpha: float, d: int) -> float:
    """The radial moment of psi in R^d by _radial_rule, split at eps."""
    total = 0.0
    for a, b in ((0.0, p.eps), (p.eps, 1.0)) if p.eps > 0.0 else ((0.0, 1.0),):
        t, w = _radial_rule(a, b)
        total += float(np.sum(w * psi(p, t, d) * t ** (alpha + d - 1.0)))
    return sphere_measure(d) * total


def run_kernel_check(cfg: ExperimentConfig) -> CheckReport:
    """Closed-form kernel quantities against a log-panel Gauss rule, the
    unit-mass and second-moment identities, and the normalization-ratio
    defect."""
    del cfg  # the check grid is fixed; config only selects the experiment
    rows: List[CheckRow] = []

    worst_rel = 0.0
    worst_mass = 0.0
    for d in (1, 2, 3):
        for s in _PSI_S:
            for eps in _PSI_EPS:
                p = FracParams(s=s, eps=eps)
                for alpha in _PSI_ALPHA:
                    closed = psi_moment(p, alpha, d)
                    via_quad = _psi_moment_quadrature(p, alpha, d)
                    worst_rel = max(worst_rel, abs(closed - via_quad) / abs(closed))
                    if alpha == 0.0:
                        worst_mass = max(worst_mass, abs(closed - 1.0))
    rows.append(CheckRow("psi_moment_vs_quadrature", worst_rel, 1e-8, worst_rel <= 1e-8))
    rows.append(CheckRow("psi_moment_unit_mass", worst_mass, 1e-10, worst_mass <= 1e-10))

    worst_half = 0.0
    r, w = _radial_rule(0.0, 1.0)
    for d in (1, 2, 3):
        for s in _PSI_S:
            radial = float(np.sum(w * r ** (1.0 - 2.0 * s)))
            val = sphere_measure(d) / d * norm_const(FracParams(s=s), d) * radial
            worst_half = max(worst_half, abs(val - 0.5))
    rows.append(CheckRow("eta_second_moment_half", worst_half, 1e-8, worst_half <= 1e-8))

    worst_agree = 0.0
    for d in (1, 2, 3):
        for s in (0.5, 0.9, 0.99, 0.999):
            p = FracParams(s=s)
            a = const_ratio(p, d)
            worst_agree = max(worst_agree, abs(a - norm_const(p, d) / classical_const(p, d)) / abs(a))
    rows.append(CheckRow("const_ratio_two_routes", worst_agree, 1e-10, worst_agree <= 1e-10))

    # defect of the normalization ratio along the s ladder, d = 1
    ratios = [const_ratio(FracParams(s=s)) for s in _RATIO_S]
    defect_classic = [abs(1.0 - 1.0 / r) for r in ratios]
    defect_inverse = [abs(1.0 - r) for r in ratios]
    worst_step = max(b / a for a, b in zip(defect_classic, defect_classic[1:]))
    rows.append(
        CheckRow("const_ratio_defect_decreasing", worst_step, 1.0, worst_step < 1.0)
    )
    worst_linear = max(v / (1.0 - s) for v, s in zip(defect_classic, _RATIO_S))
    rows.append(
        CheckRow("const_ratio_defect_linear", worst_linear, 2.0, worst_linear <= 2.0)
    )
    slope, _, _ = _fit_loglog([(1.0 - s, v) for s, v in zip(_RATIO_S, defect_inverse)])
    rows.append(CheckRow("const_ratio_defect_slope", slope, 1.0, slope >= 1.0))

    return CheckReport(rows=tuple(rows))


_MOLL_BUMPS = 100
_SLACK_REL = 1e-4
_SLACK_ABS = 1e-10


def run_mollifier_check(cfg: ExperimentConfig) -> CheckReport:
    """Seeded random-bump suite for the smoothing-operator inequalities.

    Reports the worst lhs/rhs ratio per inequality over all draws and
    (s, eps) combinations; a row passes when the worst ratio stays within
    the relative slack after the absolute floor is discounted.  The bumps
    are drawn one chunk of rows at a time, as the suite asks for them, from
    one generator: the same rows as one draw of all of them."""
    grid = make_grid(cfg.domain, cfg.n)
    strips = tuple((s, cfg.r_value(s)) for s in cfg.s_list)
    rng = random.Random(cfg.seed)
    chunks = (_random_bump_rows(rng, grid, rows) for rows in _chunk_rows(grid, _MOLL_BUMPS))

    worst: Dict[str, float] = {}  # rows in the order the suite yields them
    for name, lhs, rhs in _bump_suite_rows(grid, chunks, strips):
        ratio = (lhs - _SLACK_ABS) / np.maximum(rhs, 1e-300)
        worst[name] = max(worst.get(name, 0.0), float(np.max(ratio)))

    bound = 1.0 + _SLACK_REL
    rows = tuple(
        CheckRow(name, value, bound, value <= bound) for name, value in worst.items()
    )
    return CheckReport(rows=rows)


def run_solve(cfg: ExperimentConfig) -> SolveReport:
    """Solve the nonlocal problem for each s and collect nodal values."""
    grid = make_grid(cfg.domain, cfg.n)
    blocks: List[Tuple[float, np.ndarray]] = []
    for s, f_s in _sources(cfg, grid, sample(grid, cfg.f_profile())):
        blocks.append((s, solve_frac_system(grid, f_s, FracParams(s=s))[0]))
    return SolveReport(x=grid.nodes, blocks=tuple(blocks))
