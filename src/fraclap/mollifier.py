"""Smoothing operator driven by the plateau kernel, its gradient, and
executable closeness/consistency checks.

The operator averages a grid function against the radial kernel psi over the
unit ball:  out(x) = integral of psi(|x - y|) phi(y) dy.  On a uniform grid
with P1 data the integrand is piecewise linear between kernel breakpoints, so
every nodal value is a finite sum of closed-form kernel integrals; no sampled
quadrature is involved, and the singular/plateau region near 0 is exact.

Those sums are the same at every node, so each operator is one fixed
stencil: the integral of the kernel against the P1 hat function at each grid
offset.  Smoothing uses a symmetric stencil, the gradient (and its radial
tail) an antisymmetric one.  A stencil depends only on (s, eps, h, radii);
it is built from vectorised kernel integrals and applied to a whole stack
of edge-padded rows (..., n) at once, by one correlation through numpy's
real FFT along the last axis; stencils of one reach and parity share the
forward transform of a stack.

Nodes whose unit ball leaves the box are evaluated with the constant
extension; full_coverage_mask identifies the nodes free of that artifact, and
the checks only assert over those.  Each inequality is one row function from
stacked operator outputs to per-row (lhs, rhs).  _bump_suite_rows runs them
all on the bumps of mollifier-check one chunk of rows at a time, each
chunk's transform buffers at most _CHUNK_VALUES values, so its memory is
O(n) operators plus one chunk, not O(B n).  What does not depend on the
rows (stencils and their transforms, the near-energy operators, the strip
geometry, the coverage mask) is built once per run; each chunk gets one
Hoelder lag scan (_holder_quotients, pruned by subadditivity) and one transform per parity.

The boundary competitor w of the local problem lives here too: w equals the
exterior data g outside Omega, the smoothed solution at depth >= r inside,
and is linear in the depth in between (_ramp, _blend).  energy_gap is what
w costs in the local objective, and the strip rows are its distances to the
smoothed function.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import numpy.fft  # noqa: F401  numpy imports it lazily; load it with the package

from .assembly import ToeplitzOperator, near_kernel, slope_kernel
from .errors import ConfigError
from .grid import Domain, Grid, objective_local, product_integral
from .kernels import FracParams, eta_t_integrals, norm_const, psi_integrals

_LIMIT_TOL = 1e-9
# Values per (rows, p) transform buffer of the bump suite, one row at
# least: 2**14 float64, 128 KiB, glibc's default mmap threshold, so a
# chunk's buffers are reused from the heap instead of being mapped and
# faulted in again
_CHUNK_VALUES = 1 << 14

_Rows = Tuple[np.ndarray, np.ndarray]  # per-row (lhs, rhs) of one inequality


def full_coverage_mask(grid: Grid) -> np.ndarray:
    """True for nodes whose unit ball stays inside the box."""
    x = grid.nodes
    tol = 1e-9 * grid.h
    return (x - 1.0 >= grid.domain.box_lo - tol) & (x + 1.0 <= grid.domain.box_hi + tol)


def _partition(h: float, t_lo: float, t_hi: float, plateau: Optional[float] = None):
    """Breakpoints of [t_lo, t_hi] at cell multiples of h and, if given, at
    the plateau radius.

    Returns (a, b, j) arrays with [a_k, b_k] inside grid cell j_k.
    """
    if t_hi <= t_lo:
        empty = np.empty(0)
        return empty, empty, np.empty(0, dtype=int)
    j0 = int(math.floor(t_lo / h + 1e-12)) + 1
    j1 = int(math.ceil(t_hi / h - 1e-12))
    # ascending, since t_lo < j0 h and (j1 - 1) h < t_hi up to ties within
    # 1e-12 h, which the duplicate test drops as it would after a sort
    pts = np.concatenate(([t_lo], np.arange(j0, j1) * h, [t_hi]))
    if plateau is not None and t_lo < plateau < t_hi:
        k = int(np.searchsorted(pts, plateau))
        pts = np.concatenate((pts[:k], [plateau], pts[k:]))
    keep = np.concatenate([[True], np.diff(pts) > 1e-12 * h])  # drops duplicates
    pts = pts[keep]
    pts[0], pts[-1] = t_lo, t_hi
    a, b = pts[:-1], pts[1:]
    j = np.floor(0.5 * (a + b) / h).astype(int)
    return a, b, j


def _stencil(p: FracParams, h: float, t_lo: float, t_hi: float, odd: bool) -> np.ndarray:
    """One-sided weights w[o], o = 0..L, of the kernel against the P1 hat
    function at grid offset o, over radii [t_lo, t_hi].

    odd=False: psi(|t|); the centre weight covers both signs of t, so it is
    doubled.  odd=True: plateau_scale * eta(t) * t, the antisymmetric
    gradient stencil; offset 0 carries no weight there.  Each kernel piece
    [a, b] in cell j is linear in t, so it splits onto offsets j and j+1.
    """
    a, b, js = _partition(h, t_lo, t_hi, None if odd else p.eps)
    if odd:
        G0 = np.zeros_like(a)
        G1 = np.zeros_like(a)
        pos = a > 0.0
        G0[pos], G1[pos] = eta_t_integrals(p, a[pos], b[pos])
        # the piece from radius 0 has j = 0, where the antisymmetric
        # difference vanishes and only the second moment of eta enters
        b0 = b[~pos]
        g = 1.0 - 2.0 * p.s
        G1[~pos] = norm_const(p) * b0 * (1.0 + np.expm1(g * np.log(b0))) / (2.0 - 2.0 * p.s)
        K0, K1 = p.plateau_scale * G0, p.plateau_scale * G1
    else:
        K0, K1 = psi_integrals(p, a, b)
    upper = (K1 - js * h * K0) / h
    w = np.zeros(int(js.max()) + 2 if js.size else 1)
    np.add.at(w, js, K0 - upper)
    np.add.at(w, js + 1, upper)
    if odd:
        w[0] = 0.0
    else:
        w[0] *= 2.0
    return w


def _transform_length(n: int, L: int, odd: bool) -> int:
    """Power of two >= the n + 2L edge-padded values of a row (their
    n + 2L - 1 first differences if odd): _apply's transform length."""
    return 1 << (n + 2 * L - odd - 1).bit_length()


def _spectrum(values: np.ndarray, L: int, odd: bool) -> np.ndarray:
    """Data step of _apply: rfft of the rows padded by L copies of their end
    values (differenced if odd)."""
    n = values.shape[-1]
    x = np.empty(values.shape[:-1] + (n + 2 * L,))
    x[..., :L] = values[..., :1]
    x[..., L : L + n] = values
    x[..., L + n :] = values[..., -1:]
    x = np.diff(x) if odd else x
    return np.fft.rfft(x, _transform_length(n, L, odd))


class _Kernel(NamedTuple):
    """A stencil's reach L, its parity, and the rfft of its mirrored kernel
    at _apply's transform length for rows of one length: the stencil step
    of _apply."""

    L: int
    odd: bool
    transfer: np.ndarray


def _kernel(w: np.ndarray, odd: bool, n: int) -> _Kernel:
    """_Kernel of the stencil w for rows of n values.  The antisymmetric
    stencil acts on first differences through tail sums of its weights,
    since v[i+o] - v[i-o] is the sum of the differences in between;
    constants then map to exactly zero."""
    L = w.size - 1
    if L == 0:  # no kernel piece: _apply maps every row to zeros
        return _Kernel(0, odd, np.zeros(0))
    if odd:
        tail = np.cumsum(w[:0:-1])[::-1]
        k = np.concatenate((tail[::-1], tail))
    else:
        k = np.concatenate((w[:0:-1], w))
    return _Kernel(L, odd, np.fft.rfft(k[::-1], _transform_length(n, L, odd)))


def _apply(values: np.ndarray, kernel: _Kernel, spectra: dict) -> np.ndarray:
    """Correlate each edge-padded row of values (..., n) with the mirrored
    stencil of kernel, its _kernel for rows of n values, by numpy's real
    FFT, keeping the n outputs that circular wraparound cannot reach, as an
    array of their own so the transform buffer (about 2n columns) goes at
    once.  spectra maps (L, odd) to _spectrum(values, L, odd), made on
    first use: stencils of one reach share one per stack."""
    n = values.shape[-1]
    L, odd, transfer = kernel
    if L == 0:
        return np.zeros(values.shape)
    if (L, odd) not in spectra:
        spectra[L, odd] = _spectrum(values, L, odd)
    full = np.fft.irfft(spectra[L, odd] * transfer, _transform_length(n, L, odd))
    start = 2 * L - odd  # the kernel's length less one: 2L + 1 weights, 2L tail sums
    return full[..., start : start + n].copy()


def mollify(grid: Grid, v: np.ndarray, p: FracParams) -> np.ndarray:
    """Average v, a P1 function or a stack of them on grid, against the
    radial kernel over the unit ball around every node.  Exact for the P1
    interpolant (closed-form kernel integrals per cell)."""
    return _apply(grid.check(v), _kernel(_stencil(p, grid.h, 0.0, 1.0, False), False, grid.n), {})


def _closeness_rows(grid: Grid, values: np.ndarray, smoothed: np.ndarray, p: FracParams, d1) -> _Rows:
    """Squared L2(box) distance of each smoothed row to its row of values
    versus the closeness bound plateau_scale**2 * (1-s) * d1."""
    diff = smoothed - values
    return product_integral(grid, diff, diff, "box"), p.plateau_scale**2 * (1.0 - p.s) * d1


def _consistency_rows(h: float, smoothed: np.ndarray, p: FracParams, d1) -> _Rows:
    """Gradient energy (1/2) sum h (dv/h)**2 of each smoothed row versus its
    near-part control d1 / (1 - eps**(2-2s))**2."""
    dv = np.diff(smoothed)
    return 0.5 * np.sum(dv * dv, axis=-1) / h, d1 * (p.plateau_scale / 2.0) ** 2


def _lipschitz_rows(grad: np.ndarray, mask: np.ndarray, p: FracParams, holder) -> _Rows:
    """Max of each gradient row over the covered nodes in mask versus the
    transfer bound 2 holder / (1 - eps**(2-2s))."""
    return np.max(np.abs(grad[..., mask]), axis=-1), p.plateau_scale * holder


def _tail_rows(tail: np.ndarray, mask: np.ndarray, p: FracParams, rho: float, alpha: float, holder) -> _Rows:
    """Max of each tail-gradient row (radii [rho, 1]) over the covered nodes
    in mask versus the tail bound
    2 holder (1-s) (1 - rho**(alpha+1-2s)) / ((alpha+1-2s)(1-eps**(2-2s))),
    with the logarithmic limit at alpha + 1 = 2s.  Requires rho > eps."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if rho <= p.eps:
        raise ValueError(f"need rho > eps, got rho={rho}, eps={p.eps}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    e = alpha + 1.0 - 2.0 * p.s
    factor = -math.log(rho) if abs(e) < _LIMIT_TOL else -math.expm1(e * math.log(rho)) / e
    return np.max(np.abs(tail[..., mask]), axis=-1), p.plateau_scale * holder * (1.0 - p.s) * factor


def _ramp(dom: Domain, x: np.ndarray, r: float) -> np.ndarray:
    """The competitor's ramp lam = clip(depth / r, 0, 1) at the points x,
    with depth their signed distance to Omega's complement (negative
    outside); the strip width r must lie in (0, |Omega|/2)."""
    half = dom.omega_measure / 2.0
    if not (math.isfinite(r) and 0.0 < r < half):
        raise ConfigError(f"strip width r={r} must lie in (0, |Omega|/2={half})")
    return np.clip(np.minimum(x - dom.omega_lo, dom.omega_hi - x) / r, 0.0, 1.0)


def _blend(grid: Grid, g: np.ndarray, smoothed: np.ndarray, r: float) -> np.ndarray:
    """The boundary competitor w: g outside Omega, the already smoothed
    solution at depth >= r inside, and linear in the depth in between."""
    lam = _ramp(grid.domain, grid.nodes, r)
    return (1.0 - lam) * g + lam * smoothed


def energy_gap(grid: Grid, u_s: np.ndarray, g: np.ndarray, f: np.ndarray, p: FracParams, r: float) -> float:
    """Absolute difference of the local objective between the competitor
    for exterior data g and the smoothed solution u_s."""
    smoothed = mollify(grid, u_s, p)
    w = _blend(grid, grid.check(g), smoothed, r)
    return abs(objective_local(grid, w, f) - objective_local(grid, smoothed, f))


def _strip(grid: Grid, r: float):
    """The row-independent part of _strip_rows for one (grid, r): 1 - lam
    at the nodes, and at the lower and upper ends of every piece of each
    side's strip cut at the nodes inside it, 1 - lam with the cells j and
    offsets t that interpolate a row there (t = 0 in cell [x_j, x_j+1] when
    an end is a node)."""
    x, dom = grid.nodes, grid.domain
    sides = ((dom.omega_lo, dom.omega_lo + r), (dom.omega_hi - r, dom.omega_hi))
    cuts = [np.concatenate(([a], x[(x > a) & (x < b)], [b])) for a, b in sides]
    ends = []
    for piece_end in (np.s_[:-1], np.s_[1:]):
        pts = np.concatenate([c[piece_end] for c in cuts])
        j = np.searchsorted(x, pts, "right") - 1
        ends.append((1.0 - _ramp(dom, pts, r), j, (pts - x[j]) / grid.h))
    return 1.0 - _ramp(dom, x, r), ends


def _strip_rows(
    grid: Grid, smoothed: np.ndarray, p: FracParams, r: float, holder, strip
) -> Tuple[_Rows, _Rows]:
    """Distances of each smoothed row (..., n) to its boundary competitor w
    for zero exterior data, so the difference is (1 - lam) smoothed with
    _ramp's lam and the P1 interpolant of the row.  Returns its exact max
    over Omega's closure at depth <= r, where it meets the zero data at the
    ends of Omega, versus 2 holder (r**s + (1-s)/(1-eps**(2-2s))).  Also its
    squared L2(Omega) norm versus
    8 holder**2 (r**(1+2s) + ((1-s)/(1-eps**(2-2s)))**2 r).  strip is
    _strip(grid, r)."""
    keep, ends = strip
    diff = keep * smoothed
    # on a strip piece [a, b] both factors are linear in t = (x - a) / (b - a),
    # so the difference q(t) = (m0 + dm t)(u0 + du t) peaks at t = 0, t = 1 or its vertex
    (m0, u0), (m1, u1) = ((m, (1.0 - t) * smoothed[..., j] + t * smoothed[..., j + 1]) for m, j, t in ends)
    dm, du = m1 - m0, u1 - u0
    curv = 2.0 * dm * du
    t = np.clip(np.divide(-(m0 * du + u0 * dm), curv, out=np.zeros_like(curv), where=curv != 0.0), 0.0, 1.0)
    q = np.concatenate((m0 * u0, m1 * u1, (m0 + dm * t) * (u0 + du * t)), axis=-1)
    sup = np.max(np.abs(q), axis=-1)
    near = (1.0 - p.s) * p.plateau_scale / 2.0
    l2 = product_integral(grid, diff, diff, "omega")
    return (sup, 2.0 * holder * (r**p.s + near)), (l2, 8.0 * holder**2 * (r ** (1.0 + 2.0 * p.s) + near**2 * r))


# D is exact at lags 1.._LAG_STEP and every _LAG_STEP-th lag; the lags in
# between are bounded from their scanned neighbours and scanned only where
# the bound can beat a row's best
_LAG_STEP = 16
# |x - y| <= |x - z| + |z - y| holds for the rounded differences up to
# 3 ulp, and their sum rounds once more: raising a bound by 8 ulp keeps it
# above the D it bounds
_ROUND = 1.0 + 4.0 * np.finfo(float).eps


def _lag_scale(n: int, h: float, betas: Tuple[float, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """(k h)**beta per beta for lags k = 0..n-1, as (len(betas), n), and its
    suffix minima over the lags >= k: the table that _holder_quotients
    takes.  The powers are scalar, as the quotient has always been formed;
    the minima keep pow's rounding from stopping a scan early.  Lag 0 reads
    inf.  ValueError unless every beta lies in (0, 1]."""
    if not all(0.0 < beta <= 1.0 for beta in betas):
        raise ValueError(f"beta must lie in (0, 1], got {betas}")
    scale = np.array([[math.inf] + [(k * h) ** beta for k in range(1, n)] for beta in betas])
    floor = np.minimum.accumulate(scale[:, ::-1], axis=-1)[:, ::-1]
    scale.flags.writeable = floor.flags.writeable = False
    return scale, floor


def _holder_quotients(values: np.ndarray, table: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Max over lags k of D(k) / (k h)**beta per beta and row of values
    (..., n), as (len(betas), ...), where D(k) = max_i |v[i+k] - v[i]| and
    table = _lag_scale(n, h, betas): the full scan's bits, from a fraction
    of its lags.

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
    scale, floor = table
    n = values.shape[-1]
    v = values.reshape(-1, n)
    best = np.zeros((len(scale), v.shape[0]))
    if n < 2 or not v.shape[0]:
        return best.reshape((len(scale),) + values.shape[:-1])
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
    return best.reshape((len(scale),) + values.shape[:-1])


def _chunk_rows(grid: Grid, count: int) -> List[int]:
    """Row counts of the chunks that split count bump rows on grid evenly
    for _bump_suite_rows: with p the transform length of a stencil of
    radius 1, ceil(count p / _CHUNK_VALUES) chunks of ceil(count / chunks)
    rows (the last one may be shorter), each at least one row."""
    reach = int(_partition(grid.h, 0.0, 1.0)[2].max()) + 1
    chunks = -(-count * _transform_length(grid.n, reach, False) // _CHUNK_VALUES)
    rows = -(-count // chunks)
    return [min(rows, count - start) for start in range(0, count, rows)]


_SuiteRow = Tuple[str, np.ndarray, np.ndarray]
# the plateau cutoffs of the bump suite, and the inner radius of its tail rows
_MOLL_EPS = (0.0, 0.1, 0.5)
_TAIL_RHO = 0.6


def _bump_suite_rows(
    grid: Grid, chunks: Iterable[np.ndarray], strips: Sequence[Tuple[float, float]]
) -> Iterator[_SuiteRow]:
    """(inequality, lhs, rhs), one entry per row of a (rows, n) stack of
    bumps on grid, for each stack in chunks, each (s, r) in strips and eps
    in _MOLL_EPS; r is the boundary strip width at s.  Every chunk yields the
    same inequalities in the same order, so a max over the rows of every
    chunk is the max over all bumps.

    The coverage mask, the Hoelder lag table of _lag_scale and, per s, the
    work of _rows_at_s are built once per run.  Each chunk is drawn only
    when the previous one is done; it gets one lag scan for its Hoelder
    quotients at every s and one transform per parity for every stencil,
    and each s runs in its own generator, so its arrays go before the next
    s."""
    mask = full_coverage_mask(grid)
    at_s = [_rows_at_s(grid, mask, s, r) for s, r in strips]
    lag_table = _lag_scale(grid.n, grid.h, tuple(s for s, _ in strips))
    for bumps in chunks:
        spectra: dict = {}  # the chunk's _apply transforms, shared by every s
        # every near energy before the chunk's transforms: no matvec buffer meets them
        d1s = [0.5 * np.sum(bumps[:, 1:-1] * near.matvec(bumps[:, 1:-1]), axis=-1) for near, _ in at_s]
        holders = _holder_quotients(bumps, lag_table)
        for (_, rows), holder, d1 in zip(at_s, holders, d1s):
            yield from rows(bumps, spectra, holder, d1)


def _rows_at_s(
    grid: Grid, mask: np.ndarray, s: float, r: float
) -> Tuple[ToeplitzOperator, Callable[[np.ndarray, dict, np.ndarray, np.ndarray], Iterator[_SuiteRow]]]:
    """_bump_suite_rows at one s: the near-energy operator, whose quadratic
    form is twice each bump's d1, and a generator function of one chunk,
    rows(bumps, spectra, holder, d1), with holder and d1 the chunk's
    Hoelder-s quotients and near energies.  The operator, the strip
    geometry and the three stencils per eps (the tail one from radius
    _TAIL_RHO) with their kernel transforms are built here, once per run;
    per chunk, each stencil is applied once.
    The strip rows are taken before the gradient stencils run, so at most
    one smoothed or gradient stack of an eps is alive at a time."""
    h, n = grid.h, grid.n
    p_near = FracParams(s=s, eps=0.0)
    strip = _strip(grid, r)
    stencils = []
    for eps in _MOLL_EPS:
        p = FracParams(s=s, eps=eps)
        radii = ((0.0, False), (eps, True), (_TAIL_RHO, True))  # smoothing, gradient, tail
        stencils.append((p, *(_kernel(_stencil(p, h, t_lo, 1.0, odd), odd, n) for t_lo, odd in radii)))

    def rows(bumps: np.ndarray, spectra: dict, holder: np.ndarray, d1: np.ndarray) -> Iterator[_SuiteRow]:
        for p, smooth, grad, tail in stencils:
            smoothed = _apply(bumps, smooth, spectra)
            yield ("closeness_l2", *_closeness_rows(grid, bumps, smoothed, p, d1))
            energy = _consistency_rows(h, smoothed, p, d1)
            yield ("energy_consistency", *energy)
            if p.eps == 0.0:
                yield ("energy_consistency_eps0", *energy)
            closeness, l2 = _strip_rows(grid, smoothed, p, r, holder, strip)
            del smoothed  # each gradient stack below lives only until its rows are taken
            yield ("lipschitz_gradient", *_lipschitz_rows(_apply(bumps, grad, spectra), mask, p, holder))
            yield ("tail_bound", *_tail_rows(_apply(bumps, tail, spectra), mask, p, _TAIL_RHO, s, holder))
            yield ("strip_closeness", *closeness)
            yield ("strip_l2", *l2)

    # the n - 1 slopes of a bump's n - 2 values inside the box
    return ToeplitzOperator(near_kernel(p_near, h, slope_kernel(p_near, h, n - 2))), rows
