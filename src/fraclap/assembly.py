"""Shared P1 assembly primitives on uniform grids (internal module).

Everything here exploits translation invariance: on a uniform grid the
bilinear forms of this package have Toeplitz matrices, so a single kernel
vector c[k] = form(hat_i, hat_{i+k}) describes the whole matrix.

ToeplitzOperator holds such a kernel vector and is the only representation
of these matrices: products go through numpy's FFT on a circulant embedding
and solves through the Levinson recursion, so no dense matrix is ever
formed.

The full interaction form has an exact closed-form kernel.  Writing the
P1 hat-gradient autocorrelation through a double antiderivative of the
radial kernel collapses each entry to a fourth difference:

    c[k] = (1-s) h**(1-2s) / (s (2-2s)(3-2s)) * D4[V](k),
    V(m) = m**2 * expm1((1-2s) ln m) / (1-2s),  V(0) = V(1) = 0,

where D4 is the centered fourth difference over integer offsets.  The
expm1 form keeps the removable degeneracy at s = 1/2 finite, and the
fourth difference is accumulated in extended precision because V grows
like m**(3-2s) while c[k] decays like k**(-1-2s).  The formula includes
every exterior tail exactly; nothing is truncated at the box.

The far-field form (interactions at distance > 1 only) is also Toeplitz:
its kernel combines the P1 mass overlap with the integral of the radial
kernel against the hat cross-correlation, a piecewise cubic, integrated
analytically with the appropriate logarithmic branch at s = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solve_toeplitz

from .errors import ConfigError, NumericalError
from .grid import GridFunction
from .kernels import _LOG_BRANCH_TOL, FracParams, norm_const


@dataclass(frozen=True)
class ToeplitzOperator:
    """Symmetric Toeplitz matrix given by its first column c.

    Symmetry holds by construction.  matvec costs O(m log m): T is the
    leading m x m block of the circulant of size 2m-1 with first column
    (c[0], ..., c[m-1], c[m-1], ..., c[1]), which numpy's real FFT
    diagonalises.  solve runs the Levinson recursion in O(m**2) time and
    O(m) memory.  Vectors of any shape other than (len(c),) raise
    ValueError.
    """

    c: np.ndarray

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """T @ v, through the circulant of size 2m-1 that embeds T."""
        c = self.c
        v = np.asarray(v)
        if v.shape != c.shape:
            raise ValueError(f"vector of shape {v.shape} does not match a Toeplitz matrix of order {len(c)}")
        p = 2 * len(c) - 1
        col = np.concatenate((c, c[:0:-1]))
        return np.fft.irfft(np.fft.rfft(col) * np.fft.rfft(v, n=p), n=p)[: len(c)]

    def quad_form(self, v: np.ndarray) -> float:
        """v^T T v."""
        return float(v @ self.matvec(v))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution u of T u = b."""
        try:
            return solve_toeplitz(self.c, b)
        except LinAlgError as exc:
            raise NumericalError(f"Toeplitz solve failed: {exc}") from exc


def stiffness_kernel(p: FracParams, h: float, kmax: int) -> np.ndarray:
    """Toeplitz kernel of the full interaction form for hats with spacing h,
    offsets 0..kmax.  Exact closed form; d = 1 only."""
    if p.d != 1:
        raise ConfigError(f"stiffness_kernel supports d=1 only, got d={p.d}")
    if h <= 0.0:
        raise ConfigError(f"spacing must be positive, got h={h}")
    ld = np.longdouble
    s = ld(p.s)
    g = ld(1.0) - 2 * s  # exponent offset 1-2s
    m = np.arange(0, kmax + 3, dtype=ld)
    V = np.zeros_like(m)
    lnm = np.log(m[2:])
    u = g * lnm
    small = np.abs(u) < 1e-8
    phi1 = np.empty_like(u)
    phi1[small] = 1.0 + u[small] / 2.0 + u[small] ** 2 / 6.0
    phi1[~small] = np.expm1(u[~small]) / u[~small]
    V[2:] = m[2:] ** 2 * lnm * phi1
    # V(1) = 0 exactly (ln 1 = 0); V(0) = 0 by continuity of m^2 * ...
    # centered fourth difference with V even in m
    Vext = np.concatenate([V[2:0:-1], V])  # V(-2), V(-1), V(0), ..., V(kmax+2)

    def at(i: np.ndarray) -> np.ndarray:
        return Vext[i + 2]

    k = np.arange(0, kmax + 1)
    d4 = at(k + 2) - 4 * at(k + 1) + 6 * at(k) - 4 * at(k - 1) + at(k - 2)
    pref = (1 - s) * ld(h) ** (1 - 2 * s) / (s * (2 - 2 * s) * (3 - 2 * s))
    return np.asarray(pref * d4, dtype=np.float64)


def _hat_correlation_coeffs(h: float) -> list:
    """Coefficient rows (tau-polynomials) of the hat cross-correlation
    Lambda(tau) = integral of hat(x) hat(x + tau) dx on the four pieces
    [-2h,-h], [-h,0], [0,h], [h,2h]; Lambda is even, piecewise cubic."""
    pos_inner = (2.0 * h / 3.0, 0.0, -1.0 / h, 1.0 / (2.0 * h * h))  # [0, h]
    pos_outer = (4.0 * h / 3.0, -2.0, 1.0 / h, -1.0 / (6.0 * h * h))  # [h, 2h]
    # reflect tau -> -tau for the negative pieces
    neg_inner = tuple(c * (-1.0) ** j for j, c in enumerate(pos_inner))
    neg_outer = tuple(c * (-1.0) ** j for j, c in enumerate(pos_outer))
    return [
        (-2.0 * h, -1.0 * h, neg_outer),
        (-1.0 * h, 0.0, neg_inner),
        (0.0, 1.0 * h, pos_inner),
        (1.0 * h, 2.0 * h, pos_outer),
    ]


def _kernel_poly_integral(p: FracParams, coeffs_u: np.ndarray, lo: float, hi: float) -> float:
    """Integral of eta(u) * sum_m coeffs_u[m] u**m over [lo, hi], 0 < lo < hi."""
    C = norm_const(p)
    total = 0.0
    for mdeg, cm in enumerate(coeffs_u):
        if cm == 0.0:
            continue
        e = mdeg - 2.0 * p.s  # antiderivative exponent of u**(m-1-2s)
        if abs(e) < _LOG_BRANCH_TOL:
            term = math.log(hi / lo)
        else:
            term = (hi**e - lo**e) / e
        total += cm * term
    return C * total


def hat_pair_far_integral(p: FracParams, h: float, k: int) -> float:
    """Integral of eta(|x - y|) hat_0(x) hat_k(y) over pairs with |x-y| > 1.

    Zero unless (k+2) h > 1.  Evaluated piecewise-analytically from the
    cubic hat cross-correlation."""
    if k < 0:
        raise ValueError(f"offset must be >= 0, got {k}")
    center = k * h
    if center + 2.0 * h <= 1.0:
        return 0.0
    total = 0.0
    for t0, t1, coeffs in _hat_correlation_coeffs(h):
        lo = max(center + t0, 1.0)
        hi = center + t1
        if hi <= lo:
            continue
        # expand the tau-polynomial around u = tau + center into u-powers
        cu = np.zeros(4)
        for j, cj in enumerate(coeffs):
            if cj == 0.0:
                continue
            for mdeg in range(j + 1):
                cu[mdeg] += cj * math.comb(j, mdeg) * (-center) ** (j - mdeg)
        total += _kernel_poly_integral(p, cu, lo, hi)
    return total


def far_kernel(p: FracParams, h: float, kmax: int) -> np.ndarray:
    """Toeplitz kernel of the distance > 1 part of the interaction form:
    c2[k] = 4 ((C/s) mass[k] - far_pair[k]) with the P1 mass overlaps
    (2h/3, h/6, 0, ...)."""
    if p.d != 1:
        raise ConfigError(f"far_kernel supports d=1 only, got d={p.d}")
    C = norm_const(p)
    c2 = np.zeros(kmax + 1)
    c2[0] = 4.0 * (C / p.s) * (2.0 * h / 3.0)
    if kmax >= 1:
        c2[1] = 4.0 * (C / p.s) * (h / 6.0)
    kmin = max(0, int(math.floor((1.0 - 2.0 * h) / h)))
    for k in range(kmin, kmax + 1):
        c2[k] -= 4.0 * hat_pair_far_integral(p, h, k)
    return c2


def mass_quadratic_form(v: np.ndarray, h: float) -> float:
    """v^T M v with the P1 mass matrix (2h/3 diagonal, h/6 off-diagonal),
    i.e. the exact squared L2 norm of the zero-extended P1 function."""
    v = np.asarray(v, dtype=float)
    return float((2.0 * h / 3.0) * (v @ v) + 2.0 * (h / 6.0) * (v[1:] @ v[:-1]))


def interior_indices(phi: GridFunction) -> np.ndarray:
    """Indices of nodes strictly inside the interval (omega_lo, omega_hi)."""
    x = phi.nodes
    tol = 1e-9 * phi.h
    return np.where((x > phi.domain.omega_lo + tol) & (x < phi.domain.omega_hi - tol))[0]


def load_vector(f: GridFunction) -> np.ndarray:
    """Exact integrals of f's interpolant against every hat, restricted to
    the interval; returns a full-length vector (one entry per node)."""
    x = f.nodes
    h = f.h
    lo, hi = f.domain.omega_lo, f.domain.omega_hi
    a = np.maximum(x[:-1], lo)
    b = np.minimum(x[1:], hi)
    mask = b > a
    out = np.zeros(f.n)
    if not np.any(mask):
        return out
    idx = np.where(mask)[0]
    ta = (a[mask] - x[:-1][mask]) / h
    tb = (b[mask] - x[:-1][mask]) / h
    f0 = f.values[:-1][mask]
    f1 = f.values[1:][mask]
    df = f1 - f0
    # on the reference cell t in [0,1]: f = f0 + df t, hats (1-t) and t
    d1 = tb - ta
    d2 = (tb**2 - ta**2) / 2.0
    d3 = (tb**3 - ta**3) / 3.0
    left = f0 * (d1 - d2) + df * (d2 - d3)
    right = f0 * d2 + df * d3
    np.add.at(out, idx, h * left)
    np.add.at(out, idx + 1, h * right)
    return out


def autocorrelation(phi: GridFunction, z: float) -> float:
    """Exact integral of phi(x) phi(x+z) dx for the zero-extended interpolant
    (requires zero boundary samples to be meaningful as a whole-line value)."""
    if z < 0.0:
        z = -z
    nodes = phi.nodes
    lo = phi.domain.box_lo
    hi = phi.domain.box_hi - z
    if hi <= lo:
        return 0.0
    cuts = np.union1d(nodes, nodes - z)
    cuts = cuts[(cuts >= lo - 1e-15) & (cuts <= hi + 1e-15)]
    cuts[0], cuts[-1] = lo, hi
    a, b = cuts[:-1], cuts[1:]
    keep = b > a
    a, b = a[keep], b[keep]
    # two-point Gauss is exact for the piecewise-quadratic product
    r = 0.5 / math.sqrt(3.0)
    mids = 0.5 * (a + b)
    half = b - a
    total = 0.0
    for q in (mids - r * half, mids + r * half):
        total += 0.5 * float(np.sum(half * phi.eval(q) * phi.eval(q + z)))
    return total


def far_cross_quadrature(phi: GridFunction, p: FracParams, order: int = 10) -> float:
    """Integral of eta(|x-y|) phi(x) phi(y) over pairs with |x - y| > 1,
    by per-cell Gauss quadrature in the separation variable against exact
    autocorrelations.  Independent of the closed-form far kernel."""
    C = norm_const(p)
    h = phi.h
    zmax = phi.domain.box_measure
    t, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    z0 = 1.0
    while z0 < zmax:
        z1 = min(zmax, (math.floor(z0 / h + 1e-12) + 1) * h)
        if z1 <= z0:
            z1 = min(zmax, z0 + h)
        mid, half = 0.5 * (z0 + z1), 0.5 * (z1 - z0)
        for ti, wi in zip(t, w):
            z = mid + half * ti
            total += wi * half * C * z ** (-1.0 - 2.0 * p.s) * autocorrelation(phi, z)
        z0 = z1
    return 2.0 * total
