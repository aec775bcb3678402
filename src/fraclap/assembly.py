"""Shared P1 assembly primitives on uniform grids (internal module).

Everything here exploits translation invariance: on a uniform grid the
bilinear forms of this package have Toeplitz matrices, so a single kernel
vector c[k] = form(hat_i, hat_{i+k}) describes the whole matrix.

ToeplitzOperator holds such a kernel vector and is the only representation
of these matrices: products go through first differences and numpy's FFT on
a circulant embedding, and solves through conjugate gradients preconditioned
by the DST-diagonalised tau matrix of the kernel, so no dense matrix is ever
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
from functools import cached_property
from typing import Tuple

import numpy as np
import numpy.fft  # noqa: F401  numpy imports it lazily; load it with the package

from .errors import ConfigError, NumericalError
from .grid import GridFunction
from .kernels import _LOG_BRANCH_TOL, FracParams, norm_const

# CG steps allowed per solve; the tau-preconditioned stiffness systems take
# 4 to 11 for n from 33 to 65537 and s from 0.05 to 0.999
_CG_MAXITER = 100


def _dst1(x: np.ndarray) -> np.ndarray:
    """DST-I, y[j] = sum_k x[k] sin(pi (j+1)(k+1) / (m+1)), through the real
    FFT of the odd extension (0, x, 0, -reversed x) of length 2(m+1)."""
    m = x.size
    z = np.zeros(2 * (m + 1))
    z[1 : m + 1] = x
    z[m + 2 :] = -x[::-1]
    return -0.5 * np.fft.rfft(z).imag[1 : m + 1]


@dataclass(frozen=True)
class ToeplitzOperator:
    """Symmetric Toeplitz matrix given by its first column c.

    Symmetry holds by construction.  matvec costs O(m log m): c splits into
    a local part alpha (2, -1, 0, ...) with alpha = -c[1], applied through
    first differences, and the rest, applied through numpy's real FFT on a
    circulant embedding of power-of-two size whose transform is kept on the
    operator.  solve runs conjugate gradients preconditioned by tau(T), the
    Toeplitz-plus-Hankel matrix diagonalised by the DST-I (Chan & Ng, SIAM
    Review 38, 1996), which holds the local part exactly: O(m log m) time
    per step and O(m) memory.  Vectors of any shape other than (len(c),)
    raise ValueError.
    """

    c: np.ndarray

    @cached_property
    def _split(self) -> Tuple[float, int, np.ndarray]:
        """alpha = -c[1], and the size p and rfft of the circulant embedding
        of the rest c - alpha (2, -1, 0, ...)."""
        rest = np.array(self.c, dtype=float)
        alpha = -rest[1] if rest.size > 1 else 0.0
        rest[0] -= 2.0 * alpha
        rest[1:2] = 0.0
        m = rest.size
        p = 1 << (2 * m - 2).bit_length()  # power of two >= 2m - 1
        col = np.zeros(p)
        col[:m] = rest
        col[p - m + 1 :] = rest[:0:-1]
        return alpha, p, np.fft.rfft(col)

    @cached_property
    def _tau_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of tau(T), whose first column is c - (c[2], ..., c[m-1], 0, 0)."""
        col = np.array(self.c, dtype=float)
        m = col.size
        col[: m - 2] -= self.c[2:]
        return _dst1(col) / np.sin(np.pi * np.arange(1, m + 1) / (m + 1))

    def _check(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if v.shape != self.c.shape:
            raise ValueError(f"vector of shape {v.shape} does not match a Toeplitz matrix of order {len(self.c)}")
        return v

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """T @ v: the local part as the difference of zero-extended first
        differences, the rest through the kept circulant transform."""
        v = self._check(v)
        alpha, p, symbol = self._split
        d = np.diff(v, prepend=0.0, append=0.0)
        return np.fft.irfft(symbol * np.fft.rfft(v, n=p), n=p)[: v.size] + alpha * (d[:-1] - d[1:])

    def quad_form(self, v: np.ndarray) -> float:
        """v^T T v."""
        return float(v @ self.matvec(v))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution u of T u = b, by tau-preconditioned CG from u = 0.

        Stops once ||r||_2 <= eps ||T||_1 ||u||_2, the roundoff model of the
        rates self-check.  Raises NumericalError when tau(T) has an eigenvalue
        <= 0, when a search direction has curvature p^T T p <= 0, or when CG
        has not converged within _CG_MAXITER steps."""
        r = np.array(self._check(b), dtype=float)
        lam = self._tau_eigenvalues
        if not np.all(lam > 0.0):
            raise NumericalError(f"Toeplitz solve failed: tau(T) has eigenvalue {float(lam.min())!r}")
        m = r.size
        # DST-I is its own inverse up to the factor (m + 1) / 2
        inv = 2.0 / ((m + 1) * lam)
        c = self.c
        tol = np.finfo(float).eps * (abs(c[0]) + 2.0 * float(np.sum(np.abs(c[1:]))))
        x = np.zeros(m)
        p = np.zeros(m)
        rz_old = math.inf  # makes the first direction z itself
        steps = 0
        # written as "not <=" so that a NaN residual keeps iterating and fails
        while not np.linalg.norm(r) <= tol * np.linalg.norm(x):
            if steps == _CG_MAXITER:
                raise NumericalError(f"Toeplitz solve failed: CG did not converge in {_CG_MAXITER} steps")
            steps += 1
            z = _dst1(inv * _dst1(r))
            rz = float(r @ z)
            p = z + (rz / rz_old) * p
            tp = self.matvec(p)
            curvature = float(p @ tp)
            if not curvature > 0.0:
                raise NumericalError(f"Toeplitz solve failed: curvature p^T T p = {curvature!r}")
            step = rz / curvature
            x += step * p
            r -= step * tp
            rz_old = rz
        return x


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
