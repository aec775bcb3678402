"""Local and nonlocal Dirichlet energies, objectives, and a Hoelder seminorm
estimator for P1 grid functions.

The nonlocal energy of a compactly supported P1 function is evaluated through
the exact Toeplitz interaction form (see assembly); d1/d2 split it into the
interactions at distance below / above 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .errors import SupportError
from .grid import GridFunction, product_integral
from .kernels import FracParams


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


def dirichlet_frac(phi: GridFunction, p: FracParams) -> EnergyBreakdown:
    """Nonlocal interaction energy of the zero-extended interpolant, split
    into near (distance < 1) and far (distance > 1) parts, both exact
    Toeplitz forms: the far part from the closed-form far kernel."""
    _require_compact_support(phi)
    v = phi.values[1:-1]
    h = phi.h
    c_full = assembly.stiffness_kernel(p, h, len(v) - 1)
    c_far = assembly._far_from_full(p, h, c_full)
    d1 = 0.5 * assembly.ToeplitzOperator(c_full - c_far).quad_form(v)
    d2 = 0.5 * assembly.ToeplitzOperator(c_far).quad_form(v)
    return EnergyBreakdown(d1=d1, d2=d2)


def objective_local(phi: GridFunction, f: GridFunction) -> float:
    """Local objective: gradient energy minus the exact load over the
    interval."""
    return dirichlet_local(phi) - product_integral(phi, f, region="omega")


def holder_seminorm_grid(phi: GridFunction, beta: float) -> float:
    """Grid Hoelder estimator: max over node pairs of |dv| / |dx|**beta.

    A lower bound for the seminorm of the interpolant; exact at beta = 1
    where the max is attained by adjacent nodes.
    """
    return float(_holder_quotient(_lag_maxima(phi.values), phi.h, beta))


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
