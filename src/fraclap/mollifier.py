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
it is built once per key from vectorised kernel integrals, cached, and
applied by one correlation with the edge-padded vector.

Nodes whose unit ball leaves the box are evaluated with the constant
extension; full_coverage_mask identifies the nodes free of that artifact, and
the checks only assert over those.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Tuple

import numpy as np
import numpy.ma  # noqa: F401  np.unique imports it lazily; load it with the package

from .errors import ConfigError
from .grid import GridFunction, l2_norm
from .kernels import FracParams, eta_t_integrals, norm_const, psi_integrals
from .energies import dirichlet_frac, dirichlet_local, holder_seminorm_grid

_LIMIT_TOL = 1e-9


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
    pts = np.unique(np.concatenate(pts))
    keep = np.concatenate([[True], np.diff(pts) > 1e-12 * h])
    pts = pts[keep]
    pts[0], pts[-1] = t_lo, t_hi
    a, b = pts[:-1], pts[1:]
    j = np.floor(0.5 * (a + b) / h).astype(int)
    return a, b, j


@functools.lru_cache(maxsize=64)
def _stencil(p: FracParams, h: float, t_lo: float, t_hi: float, odd: bool) -> np.ndarray:
    """One-sided weights w[o], o = 0..L, of the kernel against the P1 hat
    function at grid offset o, over radii [t_lo, t_hi].

    odd=False: psi(|t|); the centre weight covers both signs of t, so it is
    doubled.  odd=True: plateau_scale * eta(t) * t, the antisymmetric
    gradient stencil; offset 0 carries no weight there.  Each kernel piece
    [a, b] in cell j is linear in t, so it splits onto offsets j and j+1.
    The returned array is read-only (it is shared through the cache).
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
    w.flags.writeable = False
    return w


def _apply(phi: GridFunction, w: np.ndarray, odd: bool) -> np.ndarray:
    """Correlate the edge-padded values of phi with the mirrored stencil.

    The antisymmetric stencil acts on first differences through tail sums
    of its weights, since v[i+o] - v[i-o] is the sum of the differences in
    between; constants then map to exactly zero.
    """
    L = w.size - 1
    if L == 0:
        return np.zeros(phi.n)
    v = phi.values
    vpad = np.concatenate((np.full(L, v[0]), v, np.full(L, v[-1])))
    if odd:
        tail = np.cumsum(w[:0:-1])[::-1]
        return np.correlate(np.diff(vpad), np.concatenate((tail[::-1], tail)), mode="valid")
    return np.correlate(vpad, np.concatenate((w[:0:-1], w)), mode="valid")


def mollify(phi: GridFunction, p: FracParams) -> GridFunction:
    """Average phi against the radial kernel over the unit ball around every
    node.  Exact for the P1 interpolant (closed-form kernel integrals per
    cell); only d = 1 is supported."""
    if p.d != 1:
        raise ConfigError(f"mollify supports d=1 only, got d={p.d}")
    return phi.with_values(_apply(phi, _stencil(p, phi.h, 0.0, 1.0, False), False))


def _gradient_values(phi: GridFunction, p: FracParams, t_lo: float, t_hi: float) -> np.ndarray:
    """Quadrature of the antisymmetric difference against eta * t over radii
    [t_lo, t_hi], times the plateau normalization; exact for P1 data."""
    w = _stencil(p, phi.h, max(t_lo, 0.0), min(t_hi, 1.0), True)
    return _apply(phi, w, True)


def mollify_gradient(phi: GridFunction, p: FracParams) -> GridFunction:
    """Gradient of the smoothed function, as the nonsingular radial integral
    of the antisymmetric difference over [eps, 1].

    For eps = 0 the same formula is the principal-value realization: the
    difference of P1 data vanishes linearly at radius 0, so the integrand
    stays integrable and the closed-form cell integrals remain exact.
    """
    if p.d != 1:
        raise ConfigError(f"mollify_gradient supports d=1 only, got d={p.d}")
    return phi.with_values(_gradient_values(phi, p, p.eps, 1.0))


def check_identity_l2(
    phi: GridFunction, p: FracParams, near_energy: Optional[float] = None
) -> Tuple[float, float]:
    """Squared L2 distance between the smoothed function and the original
    versus its closeness bound plateau_scale**2 * (1-s) * d1.

    near_energy short-circuits the d1 computation when the caller already
    has it (d1 does not depend on eps, so sweeps can reuse it)."""
    lhs = l2_norm(mollify(phi, p) - phi, region="box") ** 2
    d1 = dirichlet_frac(phi, p).d1 if near_energy is None else near_energy
    rhs = p.plateau_scale**2 * (1.0 - p.s) * d1
    return lhs, rhs


def check_energy_consistency(
    phi: GridFunction, p: FracParams, near_energy: Optional[float] = None
) -> Tuple[float, float]:
    """Gradient energy of the smoothed function versus its near-part control
    d1 / (1 - eps**(2-2s))**2; for eps = 0 the bound is d1 itself."""
    lhs = dirichlet_local(mollify(phi, p))
    d1 = dirichlet_frac(phi, p).d1 if near_energy is None else near_energy
    rhs = d1 * (p.plateau_scale / 2.0) ** 2
    return lhs, rhs


def check_lipschitz(
    phi: GridFunction,
    p: FracParams,
    s_holder: float,
    holder_est: Optional[float] = None,
) -> Tuple[float, float]:
    """Max gradient of the smoothed function over fully covered nodes versus
    the transfer bound 2 d [phi]_{C^{0,s_holder}} / (1 - eps**(2-2s)).

    holder_est overrides the grid estimator when the true seminorm of the
    profile is known analytically (the grid value is only a lower bound).
    """
    est = holder_seminorm_grid(phi, s_holder) if holder_est is None else holder_est
    grad = mollify_gradient(phi, p)
    lhs = float(np.max(np.abs(grad.values[full_coverage_mask(phi)])))
    rhs = p.d * p.plateau_scale * est
    return lhs, rhs


def check_tail_bound(
    phi: GridFunction,
    p: FracParams,
    rho: float,
    alpha: float,
    holder_est: Optional[float] = None,
) -> Tuple[float, float]:
    """Max over covered nodes of the gradient quadrature restricted to radii
    [rho, 1] versus the tail bound
    2 d [phi]_{C^{0,alpha}} (1-s) (1 - rho**(alpha+1-2s)) / ((alpha+1-2s)(1-eps**(2-2s))),
    with the logarithmic limit at alpha + 1 = 2s.  Requires rho > eps."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if rho <= p.eps:
        raise ValueError(f"need rho > eps, got rho={rho}, eps={p.eps}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    tail = _gradient_values(phi, p, rho, 1.0)
    lhs = float(np.max(np.abs(tail[full_coverage_mask(phi)])))
    est = holder_seminorm_grid(phi, alpha) if holder_est is None else holder_est
    e = alpha + 1.0 - 2.0 * p.s
    factor = -math.log(rho) if abs(e) < _LIMIT_TOL else -math.expm1(e * math.log(rho)) / e
    rhs = p.d * p.plateau_scale * est * (1.0 - p.s) * factor
    return lhs, rhs
