"""The local Dirichlet energy and objective, and the Hoelder quotients of
stacks of P1 grid functions by a pruned lag scan."""

from __future__ import annotations

import functools
import math
from typing import Tuple

import numpy as np

from .grid import GridFunction, product_integral


def dirichlet_local(phi: GridFunction) -> float:
    """Half the integral of the squared gradient of the interpolant:
    (1/2) sum over cells of h (dv/h)^2."""
    dv = np.diff(phi.values)
    return 0.5 * float(dv @ dv) / phi.h


def objective_local(phi: GridFunction, f: GridFunction) -> float:
    """Local objective: gradient energy minus the exact load over the
    interval."""
    return dirichlet_local(phi) - product_integral(phi, f, region="omega")


# D is exact at lags 1.._LAG_STEP and every _LAG_STEP-th lag; the lags in
# between are bounded from their scanned neighbours and scanned only where
# the bound can beat a row's best
_LAG_STEP = 16
# |x - y| <= |x - z| + |z - y| holds for the rounded differences up to
# 3 ulp, and their sum rounds once more: raising a bound by 8 ulp keeps it
# above the D it bounds
_ROUND = 1.0 + 4.0 * np.finfo(float).eps


@functools.lru_cache(maxsize=1)
def _lag_scale(n: int, h: float, betas: Tuple[float, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """(k h)**beta per beta for lags k = 0..n-1, as (len(betas), n), and its
    suffix minima over the lags >= k.  The powers are scalar, as the
    quotient has always been formed; the minima keep pow's rounding from
    stopping a scan early.  Lag 0 reads inf.  The chunks of one bump suite
    share the table."""
    scale = np.array([[math.inf] + [(k * h) ** beta for k in range(1, n)] for beta in betas])
    floor = np.minimum.accumulate(scale[:, ::-1], axis=-1)[:, ::-1]
    scale.flags.writeable = floor.flags.writeable = False
    return scale, floor


def _holder_quotients(values: np.ndarray, h: float, betas) -> np.ndarray:
    """Max over lags k of D(k) / (k h)**beta per beta and row of values
    (..., n), as (len(betas), ...), where D(k) = max_i |v[i+k] - v[i]|: the
    full scan's bits, from a fraction of its lags.

    D is subadditive, D(a + b) <= D(a) + D(b), and D(a) <= D(a + b) + D(b)
    when a + 2b <= n (a pair near the end then extends backwards instead).
    Every row is scanned at the same lags: D is exact at lags 1..step and
    at every step-th lag in increasing k, while (max - min) / (k h)**beta,
    which bounds every later quotient, can still beat some row's best for
    some beta.  The lags in between are refined at strides step/2,
    step/4, ..., 1: a lag is scanned if, for some row and beta,
    min(D(a) + D(k - a), D(b) + D(b - k), max - min) / (k h)**beta beats
    the row's best, with a and b its nearest scanned lags below and above.
    A lag pruned once stays pruned: its bound only tightens and the best
    only grows."""
    if not all(0.0 < beta <= 1.0 for beta in betas):
        raise ValueError(f"beta must lie in (0, 1], got {betas}")
    n = values.shape[-1]
    v = values.reshape(-1, n)
    best = np.zeros((len(betas), v.shape[0]))
    if n < 2 or not v.shape[0]:
        return best.reshape((len(betas),) + values.shape[:-1])
    scale, floor = _lag_scale(n, h, tuple(betas))
    osc = np.ptp(v, axis=-1)
    d = np.zeros(v.shape)  # D per row and lag, where seen
    seen = np.zeros(n, dtype=bool)
    seen[0] = True

    def scan(lags: np.ndarray) -> None:
        for k in lags:
            d[:, k] = np.max(np.abs(v[:, k:] - v[:, : n - k]), axis=-1)
        seen[lags] = True
        np.maximum(best, np.max(d[:, lags] / scale[:, None, lags], axis=-1, initial=0.0), out=best)

    step = min(_LAG_STEP, n - 1)
    scan(np.arange(1, step + 1))
    # the coarse lags; every lag from stop on is pruned for every row
    stop = 2 * step
    while stop < n and np.any(osc / floor[:, stop, None] > best):
        scan(np.array([stop]))
        stop += step
    # every lag scanned so far past step is a multiple of 2 stride, so the
    # nearest scanned lags of an odd multiple of stride lie on its grid
    stride = step // 2
    while stride:
        on_grid = np.arange(0, n, stride)
        known = seen[::stride]
        a = np.maximum.accumulate(np.where(known, on_grid, 0))[1::2]
        b = np.minimum.accumulate(np.where(known, on_grid, n)[::-1])[::-1][1::2]
        lags = on_grid[1::2]
        todo = ~known[1::2] & (lags < stop)
        lags, a, b = lags[todo], a[todo], b[todo]
        above = (b - lags <= step) & (2 * b - lags <= n)
        b, jb = np.where(above, b, 0), np.where(above, b - lags, 0)
        bound = np.minimum(d[:, a] + d[:, lags - a], np.where(above, d[:, b] + d[:, jb], np.inf))
        bound = np.minimum(bound * _ROUND, osc[:, None])
        hit = np.any(bound / scale[:, None, lags] > best[:, :, None], axis=(0, 1))
        scan(lags[hit])
        stride //= 2
    return best.reshape((len(betas),) + values.shape[:-1])
