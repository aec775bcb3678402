"""Boundary strips and the interpolated competitor for the local problem.

Given a nonlocal solution with complement data g, the competitor equals g
outside Omega, equals the smoothed solution deep inside, and ramps linearly
between the two across an inner strip of width r.  The objective gap here
measures what the competitor costs in the local objective; the strip's sup
and L2 distances to the smoothed solution are rows of the mollifier suite
(mollifier._strip_rows).
"""

from __future__ import annotations

import math

import numpy as np

from .energies import objective_local
from .errors import ConfigError, ShapeError
from .grid import GridFunction, dist_to_complement
from .kernels import FracParams
from .mollifier import mollify


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
