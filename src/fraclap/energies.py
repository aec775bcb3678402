"""Local and nonlocal Dirichlet energies, objectives, and a Hoelder seminorm
estimator for P1 grid functions.

The nonlocal energy of a compactly supported P1 function is evaluated through
the exact Toeplitz interaction form (see assembly); d1/d2 split it into the
interactions at distance below / above 1.  The far part can alternatively be
evaluated through an independent quadrature route so that consistency of the
two can be tested rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .errors import ConfigError, SupportError
from .grid import GridFunction, product_integral
from .kernels import FracParams, norm_const


@dataclass(frozen=True)
class EnergyBreakdown:
    """Near part d1 (distance < 1) and far part d2 (distance > 1)."""

    d1: float
    d2: float

    @property
    def total(self) -> float:
        """Full interaction energy d1 + d2."""
        return self.d1 + self.d2


def dirichlet_local(phi: GridFunction) -> float:
    """Half the integral of the squared gradient of the interpolant:
    (1/2) sum over cells of h (dv/h)^2."""
    dv = np.diff(phi.values)
    return 0.5 * float(dv @ dv) / phi.h


def _require_compact_support(phi: GridFunction) -> None:
    if phi.values[0] != 0.0 or phi.values[-1] != 0.0:
        raise SupportError(
            "nonzero box boundary samples: the whole-line energy of the "
            "constant extension would be infinite"
        )


def dirichlet_frac(
    phi: GridFunction, p: FracParams, far_route: str = "analytic"
) -> EnergyBreakdown:
    """Nonlocal interaction energy of the zero-extended interpolant, split
    into near (distance < 1) and far (distance > 1) parts.

    The near part always comes from the exact Toeplitz form.  far_route
    "analytic" evaluates the far part from the closed-form far kernel;
    "quadrature" uses the identity

        d2 = (2 C / s) ||phi||_{L2}^2 - 2 * (far cross integral)

    with the cross integral computed by independent numeric quadrature, so
    the two routes can be compared in tests.
    """
    if far_route not in ("analytic", "quadrature"):
        raise ConfigError(f"unknown far_route {far_route!r}")
    _require_compact_support(phi)
    v = phi.values[1:-1]
    h = phi.h
    kmax = len(v) - 1
    c_full = assembly.stiffness_kernel(p, h, kmax)
    c_far = assembly._far_from_full(p, h, c_full)
    d1 = 0.5 * assembly.ToeplitzOperator(c_full - c_far).quad_form(v)
    if far_route == "analytic":
        d2 = 0.5 * assembly.ToeplitzOperator(c_far).quad_form(v)
    else:
        C = norm_const(p)
        mass = assembly.mass_quadratic_form(v, h)
        cross = assembly.far_cross_quadrature(phi, p)
        d2 = (2.0 * C / p.s) * mass - 2.0 * cross
    return EnergyBreakdown(d1=d1, d2=d2)


def objective_local(phi: GridFunction, f: GridFunction) -> float:
    """Local objective: gradient energy minus the exact load over the
    interval."""
    return dirichlet_local(phi) - product_integral(phi, f, region="omega")


def objective_frac(phi: GridFunction, f_s: GridFunction, p: FracParams) -> float:
    """Nonlocal objective: interaction energy minus the exact load over the
    interval."""
    load = product_integral(phi, f_s, region="omega")
    return dirichlet_frac(phi, p).total - load


def holder_seminorm_grid(phi: GridFunction, beta: float) -> float:
    """Grid Hoelder estimator: max over node pairs of |dv| / |dx|**beta.

    A lower bound for the seminorm of the interpolant; exact at beta = 1
    where the max is attained by adjacent nodes.
    """
    return float(_holder_rows(phi.values, phi.h, beta))


def _holder_rows(values: np.ndarray, h: float, beta: float) -> np.ndarray:
    """holder_seminorm_grid of each row of values (..., n) on spacing h."""
    return _holder_quotient(_lag_maxima(values), h, beta)


def _lag_maxima(values: np.ndarray) -> np.ndarray:
    """max_i |v[i+k] - v[i]| of each row of values (..., n) for every lag
    k = 1..n-1, as (..., n-1); independent of the Hoelder exponent."""
    n = values.shape[-1]
    diffs = np.empty(values.shape[:-1] + (n - 1,))
    for k in range(1, n):
        diffs[..., k - 1] = np.max(np.abs(values[..., k:] - values[..., :-k]), axis=-1)
    return diffs


def _holder_quotient(lags: np.ndarray, h: float, beta: float) -> np.ndarray:
    """Max over k of lags[..., k-1] / (k h)**beta, from _lag_maxima."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    # scalar powers, as the quotient has always been formed
    scale = np.array([(k * h) ** beta for k in range(1, lags.shape[-1] + 1)])
    return np.max(lags / scale, axis=-1)
