"""Shared P1 assembly primitives on uniform grids (internal module).

Everything here exploits translation invariance: on a uniform grid the
bilinear forms of this package have Toeplitz matrices, so a single kernel
vector c[k] = form(hat_i, hat_{i+k}) describes the whole matrix.

ToeplitzOperator holds such a kernel vector and is the only representation
of these matrices: products go through first differences and numpy's FFT on
a circulant embedding, and solves through conjugate gradients preconditioned
by the DST-diagonalised tau matrix of the kernel, so no dense matrix is ever
formed.

The full interaction form has an exact closed-form kernel.  The
autocorrelation of a P1 hat is h times the centred cubic B-spline M4, so
for hats that do not overlap (k >= 2)

    c[k] = -2 (1-s) h**(1-2s) J(k),  J(k) = int_{-2}^{2} M4(t) (k+t)**(-1-2s) dt,

the Peano form of the fourth difference of |m|**(3-2s) (de Boor, A
Practical Guide to Splines).  J is an average of a positive function, so
nothing cancels: it is summed by Gauss-Legendre on each unit piece of M4
up to k = 32 and as the operator series (sinh(D/2) / (D/2))**4 applied to
k**(-1-2s) beyond, in float64 and with no branch at s = 1/2.  c[0] and c[1]
are the fourth differences of V(m) = m**2 (m**(1-2s) - 1) / (1-2s) at 0
and 1, which do not cancel either.  The formula includes every exterior
tail exactly; nothing is truncated at the box.

The far-field form (interactions at distance > 1 only) is also Toeplitz:
the P1 mass overlap minus the same average restricted to pairs at distance
h (k + t) > 1.  That restriction is void before 1/h - 2, cuts J on the at
most four offsets whose support straddles 1/h, and is the whole of J from
1/h + 2 on, where the far kernel copies the full one: the near kernel
full - far is banded, exactly 0 past 1/h + 2.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Tuple

import numpy as np
import numpy.fft  # noqa: F401  numpy imports it lazily; load it with the package

from .errors import ConfigError, NumericalError, ShapeError
from .grid import Grid, _mass_rows
from .kernels import FracParams, norm_const

# CG steps allowed per solve; the tau-preconditioned stiffness systems take
# 4 to 11 for n from 33 to 65537 and s from 0.05 to 0.999
_CG_MAXITER = 100

# offsets past which the B-spline average J(k) is summed as the operator
# series (sinh(D/2) / (D/2))**4 = 1 + D**2/6 + D**4/80 + ... applied to
# k**(-1-2s); its first omitted term is at most 1.7e-16 relative from k = 33 on
_SERIES_FROM = 32
_SERIES = (1.0, 1.0 / 6.0, 1.0 / 80.0, 17.0 / 30240.0, 31.0 / 1814400.0, 1.0 / 2661120.0)


def _dst1(x: np.ndarray) -> np.ndarray:
    """DST-I, y[j] = sum_k x[k] sin(pi (j+1)(k+1) / (m+1)), through the real
    FFT of the odd extension (0, x, 0, -reversed x) of length 2(m+1)."""
    m = x.size
    z = np.zeros(2 * (m + 1))
    z[1 : m + 1] = x
    z[m + 2 :] = -x[::-1]
    return -0.5 * np.fft.rfft(z).imag[1 : m + 1]


class ToeplitzOperator:
    """Symmetric Toeplitz matrix given by its first column c.

    Symmetry holds by construction.  matvec costs O(m log m): c splits into
    a local part alpha (2, -1, 0, ...) with alpha = -c[1], applied through
    first differences, and the rest, applied through numpy's real FFT on a
    circulant embedding of power-of-two size whose transform is kept on the
    operator.  solve runs conjugate gradients preconditioned by tau(T), the
    Toeplitz-plus-Hankel matrix diagonalised by the DST-I (Chan & Ng, SIAM
    Review 38, 1996), which holds the local part exactly: O(m log m) time
    per step and O(m) memory.  matvec takes a stack (..., len(c)) row by row;
    solve and quad_form take one vector (len(c),).  Other shapes raise ValueError.
    Operators compare and hash by identity.
    """

    def __init__(self, c: np.ndarray) -> None:
        self.c = c

    @cached_property
    def norm1(self) -> float:
        """||T||_1 = |c[0]| + 2 sum_(k >= 1) |c[k]|."""
        return abs(self.c[0]) + 2.0 * float(np.sum(np.abs(self.c[1:])))

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

    def _check(self, v: np.ndarray, stacked: bool = False) -> np.ndarray:
        v = np.asarray(v)
        if (v.shape[-1:] if stacked else v.shape) != self.c.shape:
            raise ShapeError(f"vector of shape {v.shape} does not match a Toeplitz matrix of order {len(self.c)}")
        return v

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """T @ v along the last axis: the local part as the difference of
        zero-extended first differences, the rest through the kept transform."""
        v = self._check(v, stacked=True)
        alpha, p, symbol = self._split
        d = np.diff(v, prepend=0.0, append=0.0)
        out = np.fft.irfft(symbol * np.fft.rfft(v, n=p), n=p)[..., : v.shape[-1]]
        return out + alpha * (d[..., :-1] - d[..., 1:])

    def quad_form(self, v: np.ndarray) -> float:
        """v^T T v."""
        return float(self._check(v) @ self.matvec(v))

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
        tol = np.finfo(float).eps * self.norm1
        x = np.zeros(m)
        p = np.zeros(m)
        rz_old = math.inf  # makes the first direction z itself
        steps = 0
        # written as "not <=" so that a NaN residual keeps iterating and fails
        while not math.sqrt(r @ r) <= tol * math.sqrt(x @ x):
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


def _spline_average(s: float, k: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """J(k) restricted to t > lo: the integral of M4(t) (k + t)**(-1-2s)
    over (lo, 2) for each offset k, with k + lo > 0, by Gauss-Legendre on
    each unit piece of the centred cubic B-spline M4 clipped to [lo, 2]."""
    j = np.arange(-2.0, 2.0)
    a = np.maximum(j, lo[:, None])
    half = 0.5 * np.maximum(j + 1.0 - a, 0.0)
    t = a[..., None] + half[..., None] * (1.0 + _GL_X)
    r = np.abs(t)
    m4 = (np.maximum(2.0 - r, 0.0) ** 3 - 4.0 * np.maximum(1.0 - r, 0.0) ** 3) / 6.0
    return np.sum(half[..., None] * _GL_W * m4 * (k[:, None, None] + t) ** (-1.0 - 2.0 * s), axis=(1, 2))


def stiffness_kernel(p: FracParams, h: float, kmax: int) -> np.ndarray:
    """Toeplitz kernel of the full interaction form for hats with spacing h,
    offsets 0..kmax.  Exact closed form."""
    if h <= 0.0:
        raise ConfigError(f"spacing must be positive, got h={h}")
    if kmax < 0:
        raise ValueError(f"largest offset must be >= 0, got kmax={kmax}")
    s = p.s
    scale = h ** (1.0 - 2.0 * s)

    def V(m: int) -> float:
        # m**2 (m**(1-2s) - 1) / (1-2s), finite through s = 1/2
        u = (1.0 - 2.0 * s) * math.log(m)
        return m * m * math.log(m) * (math.expm1(u) / u if u else 1.0)

    c = np.empty(kmax + 1)
    c[:2] = (scale / (2.0 * s * (3.0 - 2.0 * s)) * np.array([2.0 * V(2), V(3) - 4.0 * V(2)]))[: kmax + 1]
    k = np.arange(2.0, kmax + 1)
    J = np.empty(k.size)
    quad = k <= _SERIES_FROM
    # at k = 2 the piece (-2, -1) of M4, (2 + t)**3 / 6, reaches the origin;
    # its integral is 1 / (6 (3 - 2s)) exactly
    J[quad] = _spline_average(s, k[quad], np.where(k[quad] == 2.0, -1.0, -2.0))
    J[:1] += 1.0 / (6.0 * (3.0 - 2.0 * s))
    # the 2j-th derivative of k**(-1-2s) is (1+2s)(2+2s)...(2j+2s) k**(-1-2s-2j)
    coef = []
    rise = 1.0
    for j, a in enumerate(_SERIES):
        coef.append(a * rise)
        rise *= (2 * j + 1 + 2.0 * s) * (2 * j + 2 + 2.0 * s)
    big = k[~quad]
    J[~quad] = big ** (-1.0 - 2.0 * s) * np.polyval(coef[::-1], big**-2.0)
    c[2:] = -2.0 * (1.0 - s) * scale * J
    return c


def far_kernel(p: FracParams, h: float, full: np.ndarray) -> np.ndarray:
    """Toeplitz kernel of the distance > 1 part of the interaction form, from
    the full kernel `full` = stiffness_kernel(p, h, kmax) of the same (p, h):
    c2[k] = 4 ((C/s) mass[k] - far_pair[k]) with the P1 mass overlaps
    (2h/3, h/6, 0, ...) and far_pair[k] = C h**(1-2s) J(k) restricted to
    t > 1/h - k.  Where k - 2 >= 1/h this is the full kernel entry itself,
    so the near kernel full - far is exactly 0 there."""
    s = p.s
    reach = 1.0 / h
    k = np.arange(float(full.size))
    beyond = k - 2.0 >= reach
    cut = ~beyond & (k + 2.0 > reach)
    c2 = np.where(beyond, full, 0.0)
    c2[cut] = -2.0 * (1.0 - s) * h ** (1.0 - 2.0 * s) * _spline_average(s, k[cut], reach - k[cut])
    mass = 4.0 * (norm_const(p) / s) * np.array([2.0 * h / 3.0, h / 6.0])
    c2[:2] += mass[: full.size]
    return c2


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
