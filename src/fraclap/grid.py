"""Uniform grids on a truncation box around an open interval.

The computational domain is an open interval (omega_lo, omega_hi) embedded in
a larger box [box_lo, box_hi] on which all piecewise-linear (P1) functions
live.  The box must leave a margin of at least 1 on each side of the interval
so that every unit-radius neighborhood of an interval point stays inside the
box; several operators in this package integrate over such neighborhoods.

A P1 function is an array of its values at the uniform nodes of a Grid,
linear in between and extended by its boundary value outside the box
(constant extension).  A function that vanishes at the box ends is therefore
extended by zero.  Products, L2 norms and local Dirichlet energy of P1
functions are integrated exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from .errors import ConfigError, DataError, ShapeError


class Domain:
    """Open interval (omega_lo, omega_hi) inside the box [box_lo, box_hi]."""

    __slots__ = ("omega_lo", "omega_hi", "box_lo", "box_hi")

    def __init__(self, omega_lo: float, omega_hi: float, box_lo: float, box_hi: float) -> None:
        vals = (omega_lo, omega_hi, box_lo, box_hi)
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"domain endpoints must be finite, got {vals}")
        if not omega_lo < omega_hi:
            raise ConfigError(f"empty interval: omega_lo={omega_lo} >= omega_hi={omega_hi}")
        # margin >= 1 on both sides, up to a rounding allowance
        tol = 1e-12 * max(1.0, abs(omega_lo), abs(omega_hi))
        if box_lo > omega_lo - 1 + tol or box_hi < omega_hi + 1 - tol:
            raise ConfigError(
                "box must extend at least 1 beyond the interval on each side: "
                f"interval ({omega_lo}, {omega_hi}), box [{box_lo}, {box_hi}]"
            )
        self.omega_lo, self.omega_hi, self.box_lo, self.box_hi = vals

    @property
    def omega_measure(self) -> float:
        return self.omega_hi - self.omega_lo

    @property
    def box_measure(self) -> float:
        return self.box_hi - self.box_lo


class Grid:
    """n uniform nodes spanning the domain's box: nodes, the read-only
    np.linspace over the box, and the spacing h.  A P1 function on it is a
    float array whose last axis holds its n nodal values; a stack (..., n)
    holds one function per row."""

    __slots__ = ("domain", "n", "nodes", "h")

    def __init__(self, domain: Domain, n: int) -> None:
        if n < 3:
            raise ConfigError(f"need at least 3 nodes, got n={n}")
        self.domain, self.n = domain, n
        self.nodes = np.linspace(domain.box_lo, domain.box_hi, n)
        self.nodes.flags.writeable = False
        self.h = (domain.box_hi - domain.box_lo) / (n - 1)

    def check(self, v, stacked: bool = True) -> np.ndarray:
        """v as a float array of P1 functions on this grid: ShapeError unless
        its last axis has n entries (and it has no other axis, unless
        stacked), DataError on a non-finite value."""
        v = np.asarray(v, dtype=float)
        if (v.shape[-1:] if stacked else v.shape) != (self.n,):
            raise ShapeError(f"values shape {v.shape} does not {'end in' if stacked else 'equal'} ({self.n},)")
        if not np.all(np.isfinite(v)):
            raise DataError("P1 function values must be finite")
        return v


def make_grid(domain: Domain, n: int) -> Grid:
    """n uniform nodes over the domain's box; ConfigError when n < 3."""
    return Grid(domain, n)


def _call_on(f: Callable, x: np.ndarray) -> np.ndarray:
    """f at every entry of the array x by one call on the whole array, its
    result broadcast to x's shape (so a constant such as lambda x: 1.0
    serves)."""
    return np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)


def sample(grid: Grid, f: Callable) -> np.ndarray:
    """The callable f at the nodes, as a new array.  Non-finite samples
    raise DataError naming the first offending node."""
    x = grid.nodes
    vals = _call_on(f, x)
    bad = np.where(~np.isfinite(vals))[0]
    if bad.size:
        raise DataError(
            f"non-finite sample {vals[bad[0]]!r} at node {bad[0]} (x={x[bad[0]]})"
        )
    return vals.copy()


def _clip_bounds(domain: Domain, region: str) -> Tuple[float, float]:
    if region == "omega":
        return domain.omega_lo, domain.omega_hi
    if region == "box":
        return domain.box_lo, domain.box_hi
    raise ConfigError(f"unknown region {region!r}, expected one of ('omega', 'box')")


def product_integral(grid: Grid, p: np.ndarray, q: np.ndarray, region: str = "box") -> float | np.ndarray:
    """Exact integral of the product of the P1 functions p and q on grid,
    restricted to the region (cells clipped exactly): a number for two
    functions, an array for each pair of rows of two stacks (..., n)."""
    return np.sum(grid.check(p) * _mass_rows(grid, grid.check(q), region), axis=-1)


def dirichlet_local(grid: Grid, v: np.ndarray) -> float:
    """Half the integral of the squared gradient of the interpolant:
    (1/2) sum over cells of h (dv/h)^2; v is one function."""
    dv = np.diff(grid.check(v, stacked=False))
    return 0.5 * float(dv @ dv) / grid.h


def objective_local(grid: Grid, v: np.ndarray, f: np.ndarray) -> float:
    """Local objective: gradient energy minus the exact load over the
    interval; v and f are one function each."""
    return dirichlet_local(grid, v) - product_integral(grid, v, grid.check(f, stacked=False), region="omega")


def _mass_rows(grid: Grid, q: np.ndarray, region: str) -> np.ndarray:
    """M q for each row of q (..., n): entry i is the exact integral over the
    region of hat_i times the interpolant of the row.

    Whole cells inside the region give the P1 mass stencil h/6 (1, 4, 1),
    with (2, 1) and (1, 2) at the ends of their run.  The boundary of the
    region cuts at most two cells (both cuts may fall in one); only those
    are integrated clipped, on the reference cell t in [0, 1] where the
    row is q0 + dq t and the hats are 1 - t and t.
    """
    lo, hi = _clip_bounds(grid.domain, region)
    x = grid.nodes
    h = grid.h
    i0 = int(np.searchsorted(x, lo, "left"))  # first node in the region
    i1 = int(np.searchsorted(x, hi, "right")) - 1  # last node in the region
    out = np.zeros(q.shape)
    if i1 > i0:
        run, m = q[..., i0 : i1 + 1], out[..., i0 : i1 + 1]
        np.multiply(run, 4.0, out=m)
        m[..., 0] *= 0.5
        m[..., -1] *= 0.5
        m[..., 1:] += run[..., :-1]
        m[..., :-1] += run[..., 1:]
        m *= h / 6.0
    for j in sorted({i0 - 1, i1} - {-1, grid.n - 1}):  # the cut cells
        a = max(float(x[j]), lo)
        b = min(float(x[j + 1]), hi)
        if not b > a:
            continue
        ta, tb = (a - x[j]) / h, (b - x[j]) / h
        q0, dq = q[..., j], q[..., j + 1] - q[..., j]
        d1 = tb - ta
        d2 = (tb**2 - ta**2) / 2.0
        d3 = (tb**3 - ta**3) / 3.0
        out[..., j] += h * (q0 * (d1 - d2) + dq * (d2 - d3))
        out[..., j + 1] += h * (q0 * d2 + dq * d3)
    return out


def l2_norm(grid: Grid, v: np.ndarray, region: str = "box") -> float:
    """Exact L2 norm of the interpolant over the region."""
    return math.sqrt(max(0.0, product_integral(grid, v, v, region)))

