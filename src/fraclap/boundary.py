"""Boundary strips and the interpolated competitor for the local problem.

Given a nonlocal solution with complement data g, the competitor equals g
outside Omega, equals the smoothed solution deep inside, and ramps linearly
between the two across an inner strip of width r.  The checks here bound how
far the competitor sits from the smoothed solution, in sup and L2 senses,
and measure the induced gap in the local objective.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

from .energies import objective_local
from .errors import ConfigError, ShapeError
from .grid import Domain, GridFunction, l2_norm
from .kernels import FracParams
from .mollifier import mollify


def dist_to_complement(dom: Domain, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Distance from x to the complement of Omega; zero outside."""
    xx = np.asarray(x, dtype=float)
    out = np.clip(np.minimum(xx - dom.omega_lo, dom.omega_hi - xx), 0.0, None)
    if np.isscalar(x) or xx.ndim == 0:
        return float(out)
    return out


def _check_pair(u_s: GridFunction, g: GridFunction) -> None:
    if u_s.domain != g.domain or u_s.n != g.n:
        raise ShapeError("u_s and g must live on the same grid")


def _blend(g: GridFunction, smoothed: GridFunction, r: float) -> GridFunction:
    """Ramp from g outside Omega to the already smoothed solution at depth
    >= r inside; the strip width r must lie in (0, |Omega|/2)."""
    half = smoothed.domain.omega_measure / 2.0
    if not (math.isfinite(r) and 0.0 < r < half):
        raise ConfigError(f"strip width r={r} must lie in (0, |Omega|/2={half})")
    lam = np.clip(dist_to_complement(smoothed.domain, smoothed.nodes) / r, 0.0, 1.0)
    return smoothed.with_values((1.0 - lam) * g.values + lam * smoothed.values)


def build_w(u_s: GridFunction, g: GridFunction, p: FracParams, r: float) -> GridFunction:
    """Competitor equal to g outside Omega, to the smoothed u_s at depth
    >= r inside, with a linear ramp across the strip."""
    _check_pair(u_s, g)
    return _blend(g, mollify(u_s, p), r)


def check_strip_closeness(
    u_s: GridFunction,
    g: GridFunction,
    p: FracParams,
    r: float,
    hold_us: float,
    hold_g: float,
) -> Tuple[float, float]:
    """Sup distance between the smoothed solution and the competitor over the
    inner strip, versus 2 (hold_us + hold_g) (r^s + (1-s)/(1-eps^(2-2s))).

    hold_us and hold_g are Holder seminorms of exponent s for the two data
    functions (analytic if known, otherwise grid estimates)."""
    _check_pair(u_s, g)
    smoothed = mollify(u_s, p)
    w = _blend(g, smoothed, r)
    dist = dist_to_complement(u_s.domain, u_s.nodes)
    tol = 1e-9 * u_s.h
    strip = (dist > tol) & (dist <= r + tol)
    diff = np.abs(smoothed.values - w.values)
    lhs = float(np.max(diff[strip])) if np.any(strip) else 0.0
    rhs = 2.0 * (hold_us + hold_g) * (r**p.s + (1.0 - p.s) * p.plateau_scale / 2.0)
    return lhs, rhs


def check_strip_l2(
    u_s: GridFunction,
    g: GridFunction,
    p: FracParams,
    r: float,
    hold_us: float,
    hold_g: float,
) -> Tuple[float, float]:
    """Squared L2(Omega) distance between the smoothed solution and the
    competitor, versus
    8 (hold_us^2 + hold_g^2) (r^(1+2s) + ((1-s)/(1-eps^(2-2s)))^2 r)."""
    _check_pair(u_s, g)
    smoothed = mollify(u_s, p)
    w = _blend(g, smoothed, r)
    lhs = l2_norm(smoothed - w, region="omega") ** 2
    near = (1.0 - p.s) * p.plateau_scale / 2.0
    rhs = 8.0 * (hold_us**2 + hold_g**2) * (r ** (1.0 + 2.0 * p.s) + near**2 * r)
    return lhs, rhs


def energy_gap(
    u_s: GridFunction,
    g: GridFunction,
    f: GridFunction,
    p: FracParams,
    r: float,
) -> float:
    """Absolute difference of the local objective between the competitor and
    the smoothed solution."""
    _check_pair(u_s, g)
    smoothed = mollify(u_s, p)
    w = _blend(g, smoothed, r)
    return abs(objective_local(w, f) - objective_local(smoothed, f))
