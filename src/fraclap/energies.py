"""Local and nonlocal Dirichlet energies, objectives, and a Hoelder seminorm
estimator for stacks of P1 grid functions whose lag scan stops early.

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
    c_far = assembly.far_kernel(p, h, c_full)
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
    return float(_holder_quotients(phi.values, phi.h, (beta,))[0])


def _holder_quotients(values: np.ndarray, h: float, betas) -> np.ndarray:
    """Max over lags k of max_i |v[i+k] - v[i]| / (k h)**beta per beta and row
    of values (..., n), as (len(betas), ...).  Lags go in increasing k, a few
    per step; a row stops once (max - min) / (k h)**beta, which bounds every
    later quotient, is at most its best for every beta: the full scan's bits."""
    if not all(0.0 < beta <= 1.0 for beta in betas):
        raise ValueError(f"beta must lie in (0, 1], got {betas}")
    n = values.shape[-1]
    v = values.reshape(-1, n)
    # scalar powers as always; their suffix minima keep pow rounding from stopping early
    scale = np.array([[(k * h) ** beta for k in range(1, n)] for beta in betas])
    floor = np.minimum.accumulate(scale[:, ::-1], axis=-1)[:, ::-1]
    osc, best, rows = np.ptp(v, axis=-1), np.zeros((len(betas), v.shape[0])), np.arange(v.shape[0])
    padded = np.concatenate((v, np.full(v.shape, np.nan)), axis=-1)  # fmax skips pairs past the end
    k = 1
    while k < n:
        live = np.any(osc[rows] / floor[:, k - 1, None] > best[:, rows], axis=0)
        if not live.all():
            rows, padded = rows[live], padded[live]
            if not rows.size:
                break
        m = min(max(1, (1 << 15) // (rows.size * n)), n - k)  # at most 256 KB of differences
        windows = np.lib.stride_tricks.sliding_window_view(padded[:, k : n + m - 1], m, -1).transpose(0, 2, 1)
        diffs = windows - padded[:, None, : n - k]  # [row, j, i] = v[i+k+j] - v[i]
        lags = np.fmax.reduce(np.abs(diffs, out=diffs), axis=-1)
        best[:, rows] = np.maximum(best[:, rows], np.max(lags / scale[:, None, k - 1 : k - 1 + m], axis=-1))
        k += m
    return best.reshape((len(betas),) + values.shape[:-1])
