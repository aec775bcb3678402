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
it is built from vectorised kernel integrals where it is used and applied
to a whole stack of edge-padded rows (..., n) at once, by one correlation
through numpy's real FFT along the last axis; stencils of one reach and
parity share the forward transform of a stack.

Nodes whose unit ball leaves the box are evaluated with the constant
extension; full_coverage_mask identifies the nodes free of that artifact, and
the checks only assert over those.  Each inequality is one row function from
stacked operator outputs to per-row (lhs, rhs), and _bump_suite_rows runs
them all on the stacked bumps of mollifier-check, with one Hoelder scan
and one transform of the stack per parity for the whole run.

The boundary competitor w of the local problem lives here too: w equals the
exterior data g outside Omega, the smoothed solution at depth >= r inside,
and is linear in the depth in between (_ramp, _blend).  energy_gap is what
w costs in the local objective, and the strip rows are its distances to the
smoothed function.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
import numpy.fft  # noqa: F401  numpy imports it lazily; load it with the package

from .assembly import ToeplitzOperator, far_kernel, stiffness_kernel
from .energies import _holder_quotients, objective_local
from .errors import ConfigError
from .grid import GridFunction, _product_rows
from .kernels import FracParams, eta_t_integrals, norm_const, psi_integrals

_LIMIT_TOL = 1e-9

_Rows = Tuple[np.ndarray, np.ndarray]  # per-row (lhs, rhs) of one inequality


def full_coverage_mask(phi: GridFunction) -> np.ndarray:
    """True for nodes whose unit ball stays inside the box."""
    x = phi.nodes
    tol = 1e-9 * phi.h
    return (x - 1.0 >= phi.domain.box_lo - tol) & (x + 1.0 <= phi.domain.box_hi + tol)


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
    pts = [[t_lo, t_hi], np.arange(j0, j1) * h]
    if plateau is not None and t_lo < plateau < t_hi:
        pts.append([plateau])
    pts = np.sort(np.concatenate(pts))  # the next line drops duplicates
    keep = np.concatenate([[True], np.diff(pts) > 1e-12 * h])
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


def _spectrum(values: np.ndarray, L: int, odd: bool) -> np.ndarray:
    """Data step of _apply: rfft at a power of two of the rows padded by L (differenced if odd)."""
    x = np.pad(values, [(0, 0)] * (values.ndim - 1) + [(L, L)], mode="edge")
    x = np.diff(x) if odd else x
    return np.fft.rfft(x, 1 << (x.shape[-1] - 1).bit_length())


def _apply(values: np.ndarray, w: np.ndarray, odd: bool, spectra: dict) -> np.ndarray:
    """Correlate each edge-padded row of values (..., n) with the mirrored
    stencil by numpy's real FFT, keeping the n outputs that circular
    wraparound cannot reach.  spectra maps (L, odd) to _spectrum(values, L,
    odd), made on first use: stencils of one reach share one per stack.

    The antisymmetric stencil acts on first differences through tail sums
    of its weights, since v[i+o] - v[i-o] is the sum of the differences in
    between; constants then map to exactly zero.
    """
    L = w.size - 1
    if L == 0:
        return np.zeros(values.shape)
    if (L, odd) not in spectra:
        spectra[L, odd] = _spectrum(values, L, odd)
    if odd:
        tail = np.cumsum(w[:0:-1])[::-1]
        k = np.concatenate((tail[::-1], tail))
    else:
        k = np.concatenate((w[:0:-1], w))
    p = 2 * (spectra[L, odd].shape[-1] - 1)
    full = np.fft.irfft(spectra[L, odd] * np.fft.rfft(k[::-1], p), p)
    return full[..., k.size - 1 : k.size - 1 + values.shape[-1]]


def mollify(phi: GridFunction, p: FracParams) -> GridFunction:
    """Average phi against the radial kernel over the unit ball around every
    node.  Exact for the P1 interpolant (closed-form kernel integrals per
    cell); only d = 1 is supported."""
    if p.d != 1:
        raise ConfigError(f"mollify supports d=1 only, got d={p.d}")
    return phi.with_values(_apply(phi.values, _stencil(p, phi.h, 0.0, 1.0, False), False, {}))


def mollify_gradient(phi: GridFunction, p: FracParams) -> GridFunction:
    """Gradient of the smoothed function, as the nonsingular radial integral
    of the antisymmetric difference over [eps, 1].

    For eps = 0 the same formula is the principal-value realization: the
    difference of P1 data vanishes linearly at radius 0, so the integrand
    stays integrable and the closed-form cell integrals remain exact.
    """
    if p.d != 1:
        raise ConfigError(f"mollify_gradient supports d=1 only, got d={p.d}")
    return phi.with_values(_apply(phi.values, _stencil(p, phi.h, p.eps, 1.0, True), True, {}))


def _closeness_rows(grid: GridFunction, values: np.ndarray, smoothed: np.ndarray, p: FracParams, d1) -> _Rows:
    """Squared L2(box) distance of each smoothed row to its row of values
    versus the closeness bound plateau_scale**2 * (1-s) * d1."""
    diff = smoothed - values
    return _product_rows(grid, diff, diff, "box"), p.plateau_scale**2 * (1.0 - p.s) * d1


def _consistency_rows(h: float, smoothed: np.ndarray, p: FracParams, d1) -> _Rows:
    """Gradient energy (1/2) sum h (dv/h)**2 of each smoothed row versus its
    near-part control d1 / (1 - eps**(2-2s))**2."""
    dv = np.diff(smoothed)
    return 0.5 * np.einsum("...i,...i->...", dv, dv) / h, d1 * (p.plateau_scale / 2.0) ** 2


def _lipschitz_rows(grad: np.ndarray, mask: np.ndarray, p: FracParams, holder) -> _Rows:
    """Max of each gradient row over the covered nodes in mask versus the
    transfer bound 2 d holder / (1 - eps**(2-2s))."""
    return np.max(np.abs(grad[..., mask]), axis=-1), p.d * p.plateau_scale * holder


def _tail_rows(tail: np.ndarray, mask: np.ndarray, p: FracParams, rho: float, alpha: float, holder) -> _Rows:
    """Max of each tail-gradient row (radii [rho, 1]) over the covered nodes
    in mask versus the tail bound
    2 d holder (1-s) (1 - rho**(alpha+1-2s)) / ((alpha+1-2s)(1-eps**(2-2s))),
    with the logarithmic limit at alpha + 1 = 2s.  Requires rho > eps."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if rho <= p.eps:
        raise ValueError(f"need rho > eps, got rho={rho}, eps={p.eps}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    e = alpha + 1.0 - 2.0 * p.s
    factor = -math.log(rho) if abs(e) < _LIMIT_TOL else -math.expm1(e * math.log(rho)) / e
    return np.max(np.abs(tail[..., mask]), axis=-1), p.d * p.plateau_scale * holder * (1.0 - p.s) * factor


def _ramp(grid: GridFunction, r: float) -> Tuple[np.ndarray, np.ndarray]:
    """Signed depth of each node of grid in Omega (negative outside) and the
    competitor's ramp lam = clip(depth / r, 0, 1); the strip width r must
    lie in (0, |Omega|/2)."""
    dom = grid.domain
    half = dom.omega_measure / 2.0
    if not (math.isfinite(r) and 0.0 < r < half):
        raise ConfigError(f"strip width r={r} must lie in (0, |Omega|/2={half})")
    depth = np.minimum(grid.nodes - dom.omega_lo, dom.omega_hi - grid.nodes)
    return depth, np.clip(depth / r, 0.0, 1.0)


def _blend(g: GridFunction, smoothed: GridFunction, r: float) -> GridFunction:
    """The boundary competitor w: g outside Omega, the already smoothed
    solution at depth >= r inside, and linear in the depth in between."""
    _, lam = _ramp(smoothed, r)
    return smoothed.with_values((1.0 - lam) * g.values + lam * smoothed.values)


def energy_gap(u_s: GridFunction, g: GridFunction, f: GridFunction, p: FracParams, r: float) -> float:
    """Absolute difference of the local objective between the competitor
    for exterior data g and the smoothed solution u_s."""
    u_s._check_same_grid(g)
    smoothed = mollify(u_s, p)
    w = _blend(g, smoothed, r)
    return abs(objective_local(w, f) - objective_local(smoothed, f))


def _strip_rows(grid: GridFunction, smoothed: np.ndarray, p: FracParams, r: float, holder) -> Tuple[_Rows, _Rows]:
    """Distances of each smoothed row (..., n) to its boundary competitor w
    for zero exterior data, so the difference is (1 - lam) smoothed with
    _ramp's lam.  Returns its max over the nodes of Omega's closure at
    depth <= r and over the two ends of Omega, where lam = 0 and it is the
    interpolated smoothed row, versus 2 holder (r**s + (1-s)/(1-eps**(2-2s)));
    the difference is piecewise quadratic, so it can peak between these
    samples.  Also its squared L2(Omega) norm versus
    8 holder**2 (r**(1+2s) + ((1-s)/(1-eps**(2-2s)))**2 r)."""
    x, tol, dom = grid.nodes, 1e-9 * grid.h, grid.domain
    depth, lam = _ramp(grid, r)
    strip = (depth >= -tol) & (depth <= r + tol)
    diff = (1.0 - lam) * smoothed
    # cell [x_j, x_j+1] of each end, t = 0 when the end is a node
    j = np.searchsorted(x, (dom.omega_lo, dom.omega_hi), "right") - 1
    t = (np.array([dom.omega_lo, dom.omega_hi]) - x[j]) / grid.h
    ends = (1.0 - t) * smoothed[..., j] + t * smoothed[..., j + 1]
    near = (1.0 - p.s) * p.plateau_scale / 2.0
    sup = np.max(np.abs(np.concatenate((diff[..., strip], ends), axis=-1)), axis=-1)
    l2 = _product_rows(grid, diff, diff, "omega")
    return (sup, 2.0 * holder * (r**p.s + near)), (l2, 8.0 * holder**2 * (r ** (1.0 + 2.0 * p.s) + near**2 * r))


def _bump_suite_rows(
    grid: GridFunction, bumps: np.ndarray, strips: Sequence[Tuple[float, float]], eps_list: Tuple[float, ...], rho: float
) -> Iterator[Tuple[str, np.ndarray, np.ndarray]]:
    """(inequality, lhs, rhs), one entry per row of the (B, n) stack bumps on
    grid, for each (s, r) in strips and eps in eps_list; r is the boundary
    strip width at s.  One lag scan gives the bumps' Hoelder quotients for
    every s, and the stack is transformed once per parity for every stencil;
    each s runs in its own generator, so its arrays go before the next s."""
    holders = _holder_quotients(bumps, grid.h, tuple(s for s, _ in strips))
    spectra: dict = {}  # the bumps' _apply transforms, shared by every s
    for (s, r), holder in zip(strips, holders):
        yield from _rows_at_s(grid, bumps, spectra, holder, s, eps_list, rho, r)


def _rows_at_s(
    grid: GridFunction, bumps: np.ndarray, spectra: dict, holder: np.ndarray,
    s: float, eps_list: Tuple[float, ...], rho: float, r: float,
) -> Iterator[Tuple[str, np.ndarray, np.ndarray]]:
    """_bump_suite_rows at one s, with the bumps' Hoelder-s quotients holder.
    d1 is computed once; each stencil is applied once per eps, and the strip
    rows reuse the smoothed stack."""
    h, mask = grid.h, full_coverage_mask(grid)
    p_near = FracParams(s=s, eps=0.0, d=1)
    full = stiffness_kernel(p_near, h, grid.n - 3)  # offsets of the n - 2 nodes inside the box
    inner = bumps[:, 1:-1]
    near = ToeplitzOperator(full - far_kernel(p_near, h, full))
    d1 = 0.5 * np.einsum("ij,ij->i", inner, near.matvec(inner))
    for eps in eps_list:
        p = FracParams(s=s, eps=eps, d=1)
        smoothed = _apply(bumps, _stencil(p, h, 0.0, 1.0, False), False, spectra)
        yield ("closeness_l2", *_closeness_rows(grid, bumps, smoothed, p, d1))
        energy = _consistency_rows(h, smoothed, p, d1)
        yield ("energy_consistency", *energy)
        if eps == 0.0:
            yield ("energy_consistency_eps0", *energy)
        grad = _apply(bumps, _stencil(p, h, eps, 1.0, True), True, spectra)
        yield ("lipschitz_gradient", *_lipschitz_rows(grad, mask, p, holder))
        tail = _apply(bumps, _stencil(p, h, rho, 1.0, True), True, spectra)
        yield ("tail_bound", *_tail_rows(tail, mask, p, rho, s, holder))
        closeness, l2 = _strip_rows(grid, smoothed, p, r, holder)
        yield ("strip_closeness", *closeness)
        yield ("strip_l2", *l2)
