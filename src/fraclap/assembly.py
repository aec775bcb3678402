"""Shared P1 assembly primitives on uniform grids (internal module).

Since (-Delta)**s = -d I_(2-2s) d, with I the Riesz potential (Stein,
Singular Integrals, 1970, ch. V), the interaction form of a zero-extended
P1 function v is (Dv)^T W (Dv): D takes the first differences of its
nodal values, and the symmetric Toeplitz matrix W averages the potential
over pairs of cells,

    W_k = -((1-s)/s) h**a Q_k,  Q_k = int M2(t) phi(k + t) dt,

with a = 1 - 2s, phi(x) = (|x|**a - 1) / a (log|x| at s = 1/2) and M2 the
hat B-spline on [-1, 1].  The slopes of v sum to 0, so W matters only up
to a constant, and the -1/a keeps s = 1/2 finite.  As s -> 1, W tends to
I/h, the standard Dirichlet energy.  Every exterior tail is included;
nothing is truncated at the box.  Q_0 is closed, Q_1 closed on the piece
of M2 that reaches the origin, the rest summed by Gauss-Legendre on each
piece of M2 up to k = 32 and as the operator series (sinh(D/2) / (D/2))**2
applied to phi beyond: nothing cancels.  The near form (distances < 1
only) is a slope form too, of the Taylor remainder of the potential at
distance 1 (near_kernel).

ToeplitzOperator holds W and is the only representation of the stiffness
matrix T = D^T W D, so the low modes of T come from exact differences, not
from a first column whose row sum cancels.  No dense matrix is formed.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Tuple

import numpy as np
import numpy.fft  # noqa: F401  numpy imports it lazily; load it with the package

from .errors import ConfigError, NumericalError, ShapeError
from .grid import Grid, _mass_rows
from .kernels import FracParams

# CG steps allowed per solve; the tau-preconditioned stiffness systems take
# 4 to 13 for n from 33 to 262145, s from 0.05 to 0.999 and f = 1 or cos 2x + x
_CG_MAXITER = 100

# offsets past which Q_k is summed as the series (sinh(D/2) / (D/2))**2 =
# 1 + D**2/12 + D**4/360 + ... applied to phi, up to D**8; the first
# omitted term is below 1e-18 relative from k = 33 on
_SERIES_FROM = 32
_SERIES_TERMS = 4


def _dst1(x: np.ndarray) -> np.ndarray:
    """DST-I, y[j] = sum_k x[k] sin(pi (j+1)(k+1) / (m+1)), through the real
    FFT of the odd extension (0, x, 0, -reversed x) of length 2(m+1)."""
    m = x.size
    z = np.zeros(2 * (m + 1))
    z[1 : m + 1] = x
    z[m + 2 :] = -x[::-1]
    return -0.5 * np.fft.rfft(z).imag[1 : m + 1]


class ToeplitzOperator:
    """The stiffness matrix T = D^T W D of order m, from the first column w
    (m + 1 entries) of the slope kernel W.

    It keeps w - w[-1]: a constant matrix acts as zero on slopes, which sum
    to 0, and W's constant tail would otherwise dominate ||W||_1 and every
    roundoff bound built on it.  Products take exact first differences and
    one real FFT pair on a power-of-two circulant embedding of W, whose
    transform is kept.  solve runs conjugate gradients preconditioned by
    tau(T), the Toeplitz-plus-Hankel matrix diagonalised by the DST-I (Chan
    & Ng, SIAM Review 38, 1996), from T's first column c = -Delta**2 w:
    O(m log m) time per step, O(m) memory.  matvec takes a stack (..., m)
    row by row; solve and quad_form take one vector (m,); other shapes raise
    ValueError.  Operators compare and hash by identity.
    """

    def __init__(self, w: np.ndarray) -> None:
        self.w = w - w[-1]

    @cached_property
    def norm1(self) -> float:
        """||W||_1 = |w[0]| + 2 sum_(k >= 1) |w[k]|."""
        return abs(self.w[0]) + 2.0 * float(np.sum(np.abs(self.w[1:])))

    def roundoff(self, x: np.ndarray, y: np.ndarray) -> float:
        """8 log2(2m) eps ||W||_1 ||Dx||_2 ||Dy||_2: the FFT roundoff model of
        a form (Dx)^T W (Dy)."""
        dx, dy = (np.diff(v, prepend=0.0, append=0.0) for v in (x, y))
        scale = 8.0 * math.log2(2 * (self.w.size - 1)) * np.finfo(float).eps * self.norm1
        return scale * math.sqrt(dx @ dx) * math.sqrt(dy @ dy)

    @cached_property
    def _transform(self) -> Tuple[int, np.ndarray]:
        """The size p, a power of two >= 2m, and the rfft of a circulant
        embedding of -W: room for the m + 1 slopes and W's m - 1 offsets
        that are not 0 (its last entry is)."""
        m = self.w.size - 1
        p = 1 << (2 * m - 1).bit_length()
        col = np.zeros(p)
        col[:m] = -self.w[:m]
        col[p - m + 1 :] = -self.w[m - 1 : 0 : -1]
        return p, np.fft.rfft(col)

    def _check(self, v: np.ndarray, stacked: bool = False) -> np.ndarray:
        v = np.asarray(v)
        m = self.w.size - 1
        if (v.shape[-1:] if stacked else v.shape) != (m,):
            raise ShapeError(f"vector of shape {v.shape} does not match a stiffness matrix of order {m}")
        return v

    def _slopes(self, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(Dv, -W Dv) along the last axis."""
        p, symbol = self._transform
        x = np.zeros(v.shape[:-1] + (v.shape[-1] + 2,))  # v zero-extended: a third of np.diff's prepend time
        x[..., 1:-1] = v
        d = x[..., 1:] - x[..., :-1]
        return d, np.fft.irfft(symbol * np.fft.rfft(d, n=p), n=p)[..., : d.shape[-1]]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """T @ v = D^T (W (Dv)) along the last axis."""
        return np.diff(self._slopes(self._check(v, stacked=True))[1])

    def quad_form(self, v: np.ndarray) -> float:
        """v^T T v = (Dv)^T W (Dv)."""
        d, y = self._slopes(self._check(v))
        return -float(d @ y)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution u of T u = b, by tau-preconditioned CG from u = 0.

        Stops once ||r||_2 <= eps min(||W||_1 ||Du||_2, ||T||_1 ||u||_2), the
        roundoff of a product on the slopes or on the values: the first is
        the sharper as s -> 1, where W nears I/h, the second for s < 1/2,
        where the smooth growth of W dominates ||W||_1.  Without the
        8 log2(2m) factor of roundoff(), the rates self-check reads at most
        2e-2 of its bound.  Raises NumericalError when tau(T) has an
        eigenvalue <= 0, when a search direction has curvature p^T T p <= 0,
        or when CG has not converged within _CG_MAXITER steps."""
        r = np.array(self._check(b), dtype=float)
        m, w = r.size, self.w
        # T's first column c = -Delta**2 w, and tau(T)'s c - (c[2], ..., c[m-1], 0, 0)
        c = 2.0 * w[:-1] - w[1:] - np.concatenate((w[1:2], w[:-2]))
        lam = _dst1(c - np.concatenate((c[2:], [0.0, 0.0]))[:m]) / np.sin(np.pi * np.arange(1, m + 1) / (m + 1))
        if not np.all(lam > 0.0):
            raise NumericalError(f"Toeplitz solve failed: tau(T) has eigenvalue {float(lam.min())!r}")
        # DST-I is its own inverse up to the factor (m + 1) / 2
        inv = 2.0 / ((m + 1) * lam)
        eps = np.finfo(float).eps
        on_slopes, on_values = eps * self.norm1, eps * (abs(c[0]) + 2.0 * float(np.sum(np.abs(c[1:]))))
        x, dx, p = np.zeros(m), np.zeros(m + 1), np.zeros(m)
        rz_old = math.inf  # makes the first direction z itself
        steps = 0
        # written as "not <=" so that a NaN residual keeps iterating and fails
        while not math.sqrt(r @ r) <= min(on_slopes * math.sqrt(dx @ dx), on_values * math.sqrt(x @ x)):
            if steps == _CG_MAXITER:
                raise NumericalError(f"Toeplitz solve failed: CG did not converge in {_CG_MAXITER} steps")
            steps += 1
            z = _dst1(inv * _dst1(r))
            rz = float(r @ z)
            p = z + (rz / rz_old) * p
            dp, y = self._slopes(p)
            curvature = -float(dp @ y)
            if not curvature > 0.0:
                raise NumericalError(f"Toeplitz solve failed: curvature p^T T p = {curvature!r}")
            step = rz / curvature
            x += step * p
            dx += step * dp
            r -= step * np.diff(y)
            rz_old = rz
        return x


def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1]: Newton's method
    on the three-term recurrence of the Legendre polynomial P_n from the
    guesses cos(pi (i - 1/4) / (n + 1/2)); six steps reach roundoff (checked
    up to n = 64).  It makes no LAPACK call: the first one in a process
    costs about 0.6 MB of resident memory."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p, q = x, np.ones(n)  # P_k and P_(k-1) at the nodes
        for k in range(2, n + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        dp = n * (q - x * p) / (1.0 - x * x)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_GL_X, _GL_W = _gauss_legendre(12)


def _log_panels(a: float, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Composite rule for integrals in dt over t = a + exp(v), v from
    edges[0] to edges[-1]: the 12-point Gauss-Legendre rule on each panel
    [edges[i], edges[i+1]] of v.  Returns nodes t and weights w with
    sum(w * f(t)) ~ the integral of f; a power singularity (t - a)**beta,
    beta > -1, becomes a decaying exponential in v."""
    half = 0.5 * np.diff(edges)
    e = np.exp(edges[:-1, None] + half[:, None] * (1.0 + _GL_X))
    return (a + e).ravel(), (half[:, None] * _GL_W * e).ravel()


def _phi(a: float, x: np.ndarray) -> np.ndarray:
    """phi(x) = (x**a - 1) / a for x > 0, log x at a = 0."""
    log_x = np.log(x)
    return np.expm1(a * log_x) / a if a else log_x


def _hat_average(f: Callable[[np.ndarray], np.ndarray], k: np.ndarray, lo, hi) -> np.ndarray:
    """The integral of M2(t) f(k + t) over lo < t < hi for each offset k,
    bounds broadcast with k, by Gauss-Legendre on each piece [-1, 0],
    [0, 1] of the hat M2 clipped to (lo, hi)."""
    j = np.array([-1.0, 0.0])
    start = np.maximum(j, np.asarray(lo, dtype=float)[..., None])
    half = 0.5 * np.maximum(np.minimum(j + 1.0, np.asarray(hi, dtype=float)[..., None]) - start, 0.0)
    t = start[..., None] + half[..., None] * (1.0 + _GL_X)
    return np.sum(half[..., None] * _GL_W * (1.0 - np.abs(t)) * f(k[:, None, None] + t), axis=(1, 2))


def slope_kernel(p: FracParams, h: float, kmax: int) -> np.ndarray:
    """First column w[0..kmax] of the slope kernel W of the interaction
    form for cells of width h: W_k = -((1-s)/s) h**a Q_k."""
    if h <= 0.0:
        raise ConfigError(f"spacing must be positive, got h={h}")
    if kmax < 0:
        raise ValueError(f"largest offset must be >= 0, got kmax={kmax}")
    s = p.s
    a = 1.0 - 2.0 * s
    k = np.arange(float(kmax + 1))
    q = np.empty(k.size)
    q[0] = -(a + 3.0) / ((a + 1.0) * (a + 2.0))
    # k = 1: the piece (-1, 0) of M2, (1 + t) phi(1 + t), reaches the
    # origin; its integral is -1 / (2 (a + 2)) exactly
    mid = k[1 : _SERIES_FROM + 1]
    q[1 : _SERIES_FROM + 1] = _hat_average(lambda x: _phi(a, x), mid, np.where(mid == 1.0, 0.0, -1.0), 1.0)
    q[1:2] -= 0.5 / (a + 2.0)
    # the 2j-th derivative of phi is (a-1)(a-2)...(a-2j+1) x**(a-2j), and
    # (sinh(D/2) / (D/2))**2 = sum_j 2 D**(2j) / (2j+2)!
    coef = []
    fall = a - 1.0
    for j in range(1, _SERIES_TERMS + 1):
        coef.append(2.0 / math.factorial(2 * j + 2) * fall)
        fall *= (a - 2 * j) * (a - 2 * j - 1)
    big = k[_SERIES_FROM + 1 :]
    phi = _phi(a, big)
    inv2 = big**-2.0
    q[_SERIES_FROM + 1 :] = phi + (1.0 + a * phi) * inv2 * np.polyval(coef[::-1], inv2)
    return -(1.0 - s) / s * h**a * q


def near_kernel(p: FracParams, h: float, w: np.ndarray) -> np.ndarray:
    """Slope kernel of the distance < 1 part of the interaction form, from
    the full kernel w = slope_kernel(p, h, kmax) of the same (p, h).

    Its potential is the Taylor remainder at distance 1 of the full one,
    ((1-s)/s) (z - 1 - phi(z)) for z < 1 and 0 beyond.  Where the support
    h (k + t), |t| < 1, lies inside (0, 1] that is
    w + ((1-s)/s) (h m_k - 1 - phi(h)) with m_k = int M2(t) |k + t| dt
    (1/3 at k = 0, k beyond); a clipped M2 average on the at most two
    offsets that straddle 1/h; and 0 from 1/h + 1 on."""
    s = p.s
    a = 1.0 - 2.0 * s
    scale = (1.0 - s) / s
    reach = 1.0 / h
    k = np.arange(float(w.size))
    m = np.where(k == 0.0, 1.0 / 3.0, k)
    near = np.where(k + 1.0 <= reach, w + scale * (h * m - 1.0 - _phi(a, np.array(h))), 0.0)
    cut = (k + 1.0 > reach) & (k - 1.0 < reach)
    near[cut] = scale * _hat_average(lambda x: h * x - 1.0 - _phi(a, h * x), k[cut], -1.0, reach - k[cut])
    return near


def interior_indices(grid: Grid) -> np.ndarray:
    """Indices of nodes strictly inside the interval (omega_lo, omega_hi);
    ConfigError when there are none."""
    x = grid.nodes
    tol = 1e-9 * grid.h
    idx = np.where((x > grid.domain.omega_lo + tol) & (x < grid.domain.omega_hi - tol))[0]
    if idx.size == 0:
        raise ConfigError("grid has no interior nodes inside Omega")
    return idx


def load_vector(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Exact integrals of f's interpolant against every hat, restricted to
    the interval; returns a full-length vector (one entry per node)."""
    return _mass_rows(grid, grid.check(f), "omega")
