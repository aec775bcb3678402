"""Uniform grids on a truncation box around an open interval.

The computational domain is an open interval (omega_lo, omega_hi) embedded in
a larger box [box_lo, box_hi] on which all piecewise-linear (P1) functions
live.  The box must leave a margin of at least 1 on each side of the interval
so that every unit-radius neighborhood of an interval point stays inside the
box; several operators in this package integrate over such neighborhoods.

Grid functions are P1: values at the uniform nodes, linear in between, and
extended by their boundary value outside the box (constant extension).  A
function that vanishes at the box ends is therefore extended by zero.
Their products, L2 norms and local Dirichlet energy are integrated exactly.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Tuple

import numpy as np

from .errors import ConfigError, DataError, ShapeError


class Domain:
    """Open interval (omega_lo, omega_hi) inside the box [box_lo, box_hi].
    Domains with equal endpoints compare and hash equal."""

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

    def _ends(self) -> Tuple[float, float, float, float]:
        return (self.omega_lo, self.omega_hi, self.box_lo, self.box_hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return self._ends() == other._ends()

    def __hash__(self) -> int:
        return hash(self._ends())

    @property
    def omega_measure(self) -> float:
        return self.omega_hi - self.omega_lo

    @property
    def box_measure(self) -> float:
        return self.box_hi - self.box_lo


@functools.lru_cache(maxsize=8)  # one read-only node array per grid, shared by its functions
def _nodes(lo: float, hi: float, n: int) -> np.ndarray:
    x = np.linspace(lo, hi, n)
    x.flags.writeable = False
    return x


class GridFunction:
    """P1 function: values at n uniform nodes spanning the box.

    Outside the box the function takes its boundary node value (constant
    extension).  Instances are immutable; arithmetic returns new instances.
    They compare and hash by identity.
    """

    __slots__ = ("domain", "n", "values")

    def __init__(self, domain: Domain, n: int, values: np.ndarray) -> None:
        if n < 3:
            raise ConfigError(f"need at least 3 nodes, got n={n}")
        vals = np.asarray(values, dtype=float)
        if vals.shape != (n,):
            raise ShapeError(f"values shape {vals.shape} != ({n},)")
        if not np.all(np.isfinite(vals)):
            raise DataError("grid function values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        self.domain, self.n, self.values = domain, n, vals

    @property
    def nodes(self) -> np.ndarray:
        return _nodes(self.domain.box_lo, self.domain.box_hi, self.n)

    @property
    def h(self) -> float:
        return (self.domain.box_hi - self.domain.box_lo) / (self.n - 1)

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.domain, self.n, np.asarray(values, dtype=float))

    def _check_same_grid(self, other: "GridFunction") -> None:
        if self.domain != other.domain or self.n != other.n:
            raise ShapeError("grid functions live on different grids")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return self.with_values(self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return self.with_values(self.values * float(c))

    __rmul__ = __mul__


def make_grid(domain: Domain, n: int) -> GridFunction:
    """Zero grid function on n uniform nodes over the domain's box."""
    return GridFunction(domain, n, np.zeros(n))


def _call_on(f: Callable, x: np.ndarray) -> np.ndarray:
    """f at every entry of the array x by one call on the whole array, its
    result broadcast to x's shape (so a constant such as lambda x: 1.0
    serves)."""
    return np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)


def sample(domain: Domain, n: int, f: Callable) -> GridFunction:
    """Sample the callable f at the nodes.  Non-finite samples raise DataError
    naming the first offending node."""
    phi = make_grid(domain, n)
    x = phi.nodes
    vals = _call_on(f, x)
    bad = np.where(~np.isfinite(vals))[0]
    if bad.size:
        raise DataError(
            f"non-finite sample {vals[bad[0]]!r} at node {bad[0]} (x={x[bad[0]]})"
        )
    return phi.with_values(vals)


def _clip_bounds(domain: Domain, region: str) -> Tuple[float, float]:
    if region == "omega":
        return domain.omega_lo, domain.omega_hi
    if region == "box":
        return domain.box_lo, domain.box_hi
    raise ConfigError(f"unknown region {region!r}, expected one of ('omega', 'box')")


def product_integral(phi: GridFunction, psi: GridFunction, region: str = "box") -> float:
    """Exact integral of the product of two P1 functions on the same grid,
    restricted to the region (cells clipped exactly)."""
    phi._check_same_grid(psi)
    return float(_product_rows(phi, phi.values, psi.values, region))


def dirichlet_local(phi: GridFunction) -> float:
    """Half the integral of the squared gradient of the interpolant:
    (1/2) sum over cells of h (dv/h)^2."""
    dv = np.diff(phi.values)
    return 0.5 * float(dv @ dv) / phi.h


def objective_local(phi: GridFunction, f: GridFunction) -> float:
    """Local objective: gradient energy minus the exact load over the
    interval."""
    return dirichlet_local(phi) - product_integral(phi, f, region="omega")


def _product_rows(grid: GridFunction, p: np.ndarray, q: np.ndarray, region: str) -> np.ndarray:
    """product_integral of each pair of rows of p and q (..., n), values on
    grid's nodes."""
    return np.sum(p * _mass_rows(grid, q, region), axis=-1)


def _mass_rows(grid: GridFunction, q: np.ndarray, region: str) -> np.ndarray:
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


def l2_norm(phi: GridFunction, region: str = "box") -> float:
    """Exact L2 norm of the interpolant over the region."""
    return math.sqrt(max(0.0, product_integral(phi, phi, region)))

