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
# differences in flight per batch of (row, lag) pairs: 128 KiB, as in one
# chunk of the bump suite
_LAG_VALUES = 1 << 14
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


def _scan_lags(windows: np.ndarray, v: np.ndarray, d: np.ndarray, rows: np.ndarray, lags: np.ndarray) -> None:
    """d[r, k] = max_i |v[r, i+k] - v[r, i]| for each pair (r, k) of rows
    and lags; windows[r, k] is row r from i = k on, NaN past its end, which
    fmax skips."""
    per = max(1, _LAG_VALUES // v.shape[-1])
    for a in range(0, rows.size, per):
        r, k = rows[a : a + per], lags[a : a + per]
        diffs = windows[r, k]
        diffs -= v[r]
        d[r, k] = np.fmax.reduce(np.abs(diffs, out=diffs), axis=-1)


def _holder_quotients(values: np.ndarray, h: float, betas) -> np.ndarray:
    """Max over lags k of D(k) / (k h)**beta per beta and row of values
    (..., n), as (len(betas), ...), where D(k) = max_i |v[i+k] - v[i]|: the
    full scan's bits, from a fraction of its lags.

    D is subadditive, D(a + b) <= D(a) + D(b), and D(a) <= D(a + b) + D(b)
    when a + 2b <= n (a pair near the end then extends backwards instead).
    D is exact at lags 1..step and at every step-th lag in increasing k,
    while (max - min) / (k h)**beta, which bounds every later quotient, can
    still beat a row's best for some beta.  The lags in between are refined
    at strides step/2, step/4, ..., 1: a lag is scanned only if
    min(D(a) + D(k - a), D(b) + D(b - k), max - min) / (k h)**beta, with a
    and b its nearest scanned lags below and above, beats the row's best for
    some beta.  A lag pruned once stays pruned: its bound only tightens and
    the best only grows."""
    if not all(0.0 < beta <= 1.0 for beta in betas):
        raise ValueError(f"beta must lie in (0, 1], got {betas}")
    n = values.shape[-1]
    v = values.reshape(-1, n)
    best = np.zeros((len(betas), v.shape[0]))
    if n < 2 or not v.shape[0]:
        return best.reshape((len(betas),) + values.shape[:-1])
    scale, floor = _lag_scale(n, h, tuple(betas))
    osc = np.ptp(v, axis=-1)
    d = np.full(v.shape, np.nan)  # D per row and lag once scanned
    d[:, 0] = 0.0
    padded = np.concatenate((v, np.full(v.shape, np.nan)), axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, n, axis=-1)

    def scan(rows: np.ndarray, lags: np.ndarray) -> None:
        _scan_lags(windows, v, d, rows, lags)
        np.maximum.at(best, (slice(None), rows), d[rows, lags] / scale[:, lags])

    step = min(_LAG_STEP, n - 1)
    every = np.arange(v.shape[0])
    scan(np.repeat(every, step), np.tile(np.arange(1, step + 1), every.size))
    # the coarse lags, several per batch on short rows; lags from stop on are pruned
    stop, live, k = np.full(v.shape[0], n), every, 2 * step
    while k < n:
        keep = np.any(osc[live] / floor[:, k, None] > best[:, live], axis=0)
        stop[live[~keep]] = k
        live = live[keep]
        if not live.size:
            break
        m = min(max(1, _LAG_VALUES // (live.size * n)), (n - 1 - k) // step + 1)
        scan(np.repeat(live, m), np.tile(k + step * np.arange(m), live.size))
        k += m * step
    # every lag scanned so far past step is a multiple of 2 stride, so the
    # nearest scanned lags of an odd multiple of stride lie on its grid
    stride = step // 2
    while stride:
        on_grid = np.arange(0, n, stride)
        known = ~np.isnan(d[:, ::stride])
        rows, cols = np.nonzero(~known[:, 1::2] & (on_grid[1::2] < stop[:, None]))
        lags = on_grid[2 * cols + 1]
        a = np.maximum.accumulate(np.where(known, on_grid, 0), axis=-1)[rows, 2 * cols + 1]
        b = np.minimum.accumulate(np.where(known, on_grid, n)[:, ::-1], axis=-1)[:, ::-1][rows, 2 * cols + 1]
        above = (b - lags <= step) & (2 * b - lags <= n)
        b, jb = np.where(above, b, 0), np.where(above, b - lags, 0)
        bound = np.minimum(d[rows, a] + d[rows, lags - a], np.where(above, d[rows, b] + d[rows, jb], np.inf))
        bound = np.minimum(bound * _ROUND, osc[rows])
        hit = np.any(bound / scale[:, lags] > best[:, rows], axis=0)
        scan(rows[hit], lags[hit])
        stride //= 2
    return best.reshape((len(betas),) + values.shape[:-1])
