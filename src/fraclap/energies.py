"""Local and nonlocal Dirichlet energies, objectives, and seminorm estimators
for P1 grid functions.

The nonlocal energy of a compactly supported P1 function is evaluated through
the exact Toeplitz interaction form (see assembly); d1/d2 split it into the
interactions at distance below / above 1.  The far part can alternatively be
evaluated through an independent quadrature route so that consistency of the
two can be tested rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly
from .errors import ConfigError, SupportError
from .grid import GridFunction, product_integral
from .kernels import FracParams, norm_const


@dataclass(frozen=True)
class EnergyBreakdown:
    """Near part d1 (distance < 1), far part d2 (distance > 1), and load."""

    d1: float
    d2: float
    load: float = 0.0

    @property
    def total(self) -> float:
        """Full interaction energy d1 + d2."""
        return self.d1 + self.d2

    @property
    def objective(self) -> float:
        """Energy minus load."""
        return self.d1 + self.d2 - self.load


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


def seminorm_ws2(phi: GridFunction, p: FracParams) -> float:
    """Normalized fractional seminorm of the zero-extended interpolant:
    sqrt(2 * dirichlet_frac(phi).total)."""
    return math.sqrt(max(0.0, 2.0 * dirichlet_frac(phi, p).total))


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
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    n = values.shape[-1]
    # per-lag maxima of |v[i+k] - v[i]| over all rows at once: O(B n) memory
    diffs = np.empty(values.shape[:-1] + (n - 1,))
    for k in range(1, n):
        diffs[..., k - 1] = np.max(np.abs(values[..., k:] - values[..., :-k]), axis=-1)
    # scalar powers, as the quotient has always been formed
    scale = np.array([(k * h) ** beta for k in range(1, n)])
    return np.max(diffs / scale, axis=-1)


def _abs_linear_integral(c0: float, c1: float, lo: float, hi: float) -> float:
    """Integral of |c0 + c1 u| over [lo, hi], exact."""

    def anti(u: float) -> float:
        val = c0 + c1 * u
        return val * abs(val) / (2.0 * c1) if c1 != 0.0 else abs(c0) * u

    if c1 == 0.0:
        return abs(c0) * (hi - lo)
    root = -c0 / c1
    if lo < root < hi:
        return abs(anti(root) - anti(lo)) + abs(anti(hi) - anti(root))
    return abs(anti(hi) - anti(lo))


def _adjacent_pair_integral(bk: float, bl: float, h: float, beta: float) -> float:
    """Integral over (0,h)^2 in (u, w) of |bk u + bl w| / (u + w)**(1+beta).

    Split along sigma = u + w: the sigma <= h part is exact by homogeneity;
    the rest is smooth and integrated by Gauss after exact inner integrals.
    """
    if bk == 0.0 and bl == 0.0:
        return 0.0
    # sigma in (0, h]: inner integral is q * sigma^2 with a constant q
    if bk * bl >= 0.0:
        q = (abs(bk) + abs(bl)) / 2.0
    else:
        q = (bk * bk + bl * bl) / (2.0 * abs(bk - bl))
    total = q * h ** (2.0 - beta) / (2.0 - beta)
    # sigma in [h, 2h]: u ranges over (sigma - h, h)
    t, w = np.polynomial.legendre.leggauss(16)
    mid, half = 1.5 * h, 0.5 * h
    for ti, wi in zip(t, w):
        sigma = mid + half * ti
        inner = _abs_linear_integral(bl * sigma, bk - bl, sigma - h, h)
        total += wi * half * sigma ** (-1.0 - beta) * inner
    return total


def w_beta1_seminorm_grid(phi: GridFunction, beta: float) -> float:
    """Grid estimator of the window-restricted first-order seminorm: the
    double integral of |phi(x) - phi(y)| / |x-y|**(1+beta) over pairs in the
    box at distance < 1.

    Same-cell and adjacent-cell contributions are handled analytically to
    integrate through the diagonal singularity; separated pairs use tensor
    Gauss quadrature with the distance window clipped exactly.  Returns inf
    at beta = 1 for any nonconstant function (the diagonal diverges).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    h = phi.h
    v = phi.values
    slopes = np.diff(v) / h
    if beta == 1.0:
        return math.inf if np.any(slopes != 0.0) else 0.0
    if 2.0 * h >= 1.0:
        raise ConfigError("grid too coarse: need 2h < 1 for the window split")
    ncell = phi.n - 1
    xl = phi.nodes[:-1]

    total = float(np.sum(np.abs(slopes))) * 2.0 * h ** (2.0 - beta) / (
        (1.0 - beta) * (2.0 - beta)
    )
    for j in range(ncell - 1):
        total += 2.0 * _adjacent_pair_integral(slopes[j], slopes[j + 1], h, beta)

    gl_t, gl_w = np.polynomial.legendre.leggauss(8)
    max_lag = min(ncell - 1, int(math.ceil(1.0 / h)) + 1)
    for lag in range(2, max_lag + 1):
        if (lag - 1) * h >= 1.0:
            break
        npair = ncell - lag
        if npair <= 0:
            break
        jx = np.arange(npair)
        x0 = xl[jx]
        # x Gauss nodes per pair: (npair, 8)
        xg = x0[:, None] + h * (0.5 + 0.5 * gl_t)[None, :]
        fx = v[jx][:, None] + slopes[jx][:, None] * (xg - x0[:, None])
        ylo = xl[jx + lag][:, None] + np.zeros_like(xg)
        yhi = np.minimum(ylo + h, xg + 1.0)
        width = np.maximum(yhi - ylo, 0.0)
        # y Gauss nodes per (pair, x-node): (npair, 8, 8)
        yg = ylo[:, :, None] + width[:, :, None] * (0.5 + 0.5 * gl_t)[None, None, :]
        fy = v[jx + lag][:, None, None] + slopes[jx + lag][:, None, None] * (
            yg - xl[jx + lag][:, None, None]
        )
        integrand = np.abs(fx[:, :, None] - fy) * (yg - xg[:, :, None]) ** (-1.0 - beta)
        wx = (0.5 * gl_w * h)[None, :, None]
        wy = 0.5 * gl_w[None, None, :] * width[:, :, None]
        total += 2.0 * float(np.sum(integrand * wx * wy))
    return total
