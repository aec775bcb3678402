"""Finite element toolkit for the integral fractional Laplacian near s = 1.

The package solves one-dimensional nonlocal Dirichlet problems with P1
elements, smooths discrete functions with an operator adapted to the
nonlocal kernel, and measures how solutions, energies, and pointwise
operator values approach their classical counterparts as s approaches 1.
"""

from .assembly import ToeplitzOperator
from .config import EXPERIMENTS, ExperimentConfig, parse_config, with_overrides
from .energies import (
    EnergyBreakdown,
    dirichlet_frac,
    dirichlet_local,
    holder_seminorm_grid,
    objective_local,
)
from .errors import ConfigError, DataError, NumericalError, ShapeError, SupportError
from .experiments import (
    run_consistency,
    run_kernel_check,
    run_mollifier_check,
    run_rates,
    run_solve,
)
from .grid import (
    Domain,
    GridFunction,
    dist_to_complement,
    l2_norm,
    make_grid,
    product_integral,
    sample,
)
from .kernels import (
    FracParams,
    classical_const,
    const_ratio,
    eta,
    norm_const,
    psi,
    psi_moment,
    sphere_measure,
)
from .mollifier import energy_gap, full_coverage_mask, mollify, mollify_gradient
from .profiles import Profile, make_profile, random_bump
from .report import (
    CheckReport,
    CheckRow,
    ConsistencyRow,
    RateRow,
    SolveReport,
    SweepReport,
    emit_csv,
    emit_svg,
    fit_line,
)
from .solver import (
    assemble_frac,
    exact_solution_ball,
    frac_laplacian_pointwise,
    solve_frac_dirichlet,
    solve_local_dirichlet,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "CheckRow",
    "ConfigError",
    "ConsistencyRow",
    "DataError",
    "Domain",
    "EXPERIMENTS",
    "EnergyBreakdown",
    "ExperimentConfig",
    "FracParams",
    "GridFunction",
    "NumericalError",
    "Profile",
    "RateRow",
    "ShapeError",
    "SolveReport",
    "SupportError",
    "SweepReport",
    "ToeplitzOperator",
    "assemble_frac",
    "classical_const",
    "const_ratio",
    "dirichlet_frac",
    "dirichlet_local",
    "dist_to_complement",
    "emit_csv",
    "emit_svg",
    "energy_gap",
    "eta",
    "exact_solution_ball",
    "fit_line",
    "frac_laplacian_pointwise",
    "full_coverage_mask",
    "holder_seminorm_grid",
    "l2_norm",
    "make_grid",
    "make_profile",
    "mollify",
    "mollify_gradient",
    "norm_const",
    "objective_local",
    "parse_config",
    "product_integral",
    "psi",
    "psi_moment",
    "random_bump",
    "run_consistency",
    "run_kernel_check",
    "run_mollifier_check",
    "run_rates",
    "run_solve",
    "sample",
    "solve_frac_dirichlet",
    "solve_local_dirichlet",
    "sphere_measure",
    "with_overrides",
]
