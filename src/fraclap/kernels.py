"""Singular interaction kernel, its normalization constants, and the induced
mollification kernel.

The interaction kernel is eta(t) = C * t**(-d-2s) with the constant C chosen
so that the truncated first-coordinate second moment of eta over the unit
ball equals 1/2 for every s and d.  Every operator is 1-D, so d (default 1)
is an argument only of the R^d formulas that kernel-check sweeps.  Two
independent expressions for the normalization are provided: the
moment-based one (norm_const) and the Fourier-symbol one (classical_const);
const_ratio evaluates their quotient through a single Gamma-function
expression so that agreement of the two routes can be checked to high
precision.

The mollification kernel psi integrates eta against the radial coordinate
from a cutoff up to 1 and is flattened to a plateau below eps.  It is a
probability density; psi_moment gives its radial moments in closed form.
Closed-form antiderivatives of psi and of eta*t over subintervals
(psi_integrals, eta_t_integrals) are the workhorses of the mollifier module;
they are exact for piecewise-linear data, stable across s = 1/2 where the
naive power-function formulas degenerate, and free of the differences of
powers that lose digits as s -> 1 and on short subintervals far from 0.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import ConfigError

# below this distance from the degenerate exponent, logarithmic branches are used
_LOG_BRANCH_TOL = 1e-9


class FracParams:
    """Differentiability order s in (0,1), plateau cutoff eps in [0,1)."""

    __slots__ = ("s", "eps")

    def __init__(self, s: float, eps: float = 0.0) -> None:
        if not 0.0 < s < 1.0:
            raise ConfigError(f"s must lie in (0, 1), got {s}")
        if not 0.0 <= eps < 1.0:
            raise ConfigError(f"eps must lie in [0, 1), got {eps}")
        self.s, self.eps = s, eps

    @property
    def plateau_scale(self) -> float:
        """Normalization 2 / (1 - eps**(2-2s)); equals 2 when eps = 0."""
        if self.eps == 0.0:
            return 2.0
        return 2.0 / -math.expm1((2.0 - 2.0 * self.s) * math.log(self.eps))


def _check_dimension(d: int) -> None:
    """ConfigError unless d is an integer >= 1."""
    if not (isinstance(d, int) and d >= 1):
        raise ConfigError(f"dimension must be an integer >= 1, got {d}")


def sphere_measure(d: int) -> float:
    """Surface measure of the unit sphere in R^d (2, 2*pi, 4*pi, ...)."""
    _check_dimension(d)
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def norm_const(p: FracParams, d: int = 1) -> float:
    """Moment normalization in R^d: (d / sphere_measure(d)) * (1 - s)."""
    return d / sphere_measure(d) * (1.0 - p.s)


def classical_const(p: FracParams, d: int = 1) -> float:
    """Fourier-symbol normalization in R^d, 4**(s-1) * Gamma(s+d/2) * s * (1-s)
    / (pi**(d/2) * Gamma(2-s)), evaluated in log space."""
    _check_dimension(d)
    s = p.s
    lg = (
        (s - 1.0) * math.log(4.0)
        + math.lgamma(s + d / 2.0)
        - (d / 2.0) * math.log(math.pi)
        - math.lgamma(2.0 - s)
    )
    return math.exp(lg) * s * (1.0 - s)


def const_ratio(p: FracParams, d: int = 1) -> float:
    """norm_const / classical_const in R^d as one Gamma quotient:
    Gamma(1+d/2) * Gamma(2-s) / (s * 4**(s-1) * Gamma(s+d/2))."""
    _check_dimension(d)
    s = p.s
    lg = (
        math.lgamma(1.0 + d / 2.0)
        + math.lgamma(2.0 - s)
        - math.lgamma(s + d / 2.0)
        - (s - 1.0) * math.log(4.0)
    )
    return math.exp(lg) / s


def psi(p: FracParams, t, d: int = 1):
    """Mollification kernel in R^d at radii t >= 0, a number or an array of t's
    shape: C (a**-q - 1)/q with a = max(eps, t) and q = d + 2s - 2, or
    C log(1/a) near q = 0, times the plateau normalization, and 0 for t >= 1.
    At t = 0 with eps = 0 it is inf when q >= 0 (integrable blowup) and
    C/(-q) times the normalization when q < 0; a NaN radius gives NaN."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError(f"psi requires t >= 0, got t={t[t < 0.0][0]}")
    C = norm_const(p, d)
    q = d + 2.0 * p.s - 2.0
    a = np.maximum(p.eps, t.ravel())  # 1-d: a number gets an array entry's bits
    with np.errstate(divide="ignore", over="ignore"):  # a -> 0: the blowup is inf
        if abs(q) < _LOG_BRANCH_TOL:
            tail = C * np.log(1.0 / a)
        else:
            tail = C * np.expm1(-q * np.log(a)) / q  # a**-q - 1 with no cancellation as a -> 1
    return np.where(t >= 1.0, 0.0, p.plateau_scale * tail.reshape(t.shape))[()]


def psi_moment(p: FracParams, alpha: float, d: int = 1) -> float:
    """Radial moment of psi over R^d: integral of psi(|z|) |z|**alpha dz.

    Closed form
        (d/(d+alpha)) * ((1-s)/((1-s)+alpha/2))
        * (1 - eps**(2-2s+alpha)) / (1 - eps**(2-2s)),
    which equals 1 at alpha = 0 (psi is a probability density).
    """
    _check_dimension(d)
    if alpha < 0.0:
        raise ValueError(f"moment order must be >= 0, got {alpha}")
    s, eps = p.s, p.eps
    base = d / (d + alpha) * (1.0 - s) / ((1.0 - s) + alpha / 2.0)
    if eps == 0.0:
        return base
    le = math.log(eps)
    ratio = math.expm1((2.0 - 2.0 * s + alpha) * le) / math.expm1((2.0 - 2.0 * s) * le)
    return base * ratio


def _expm1_ratio(z: np.ndarray) -> np.ndarray:
    """expm1(z)/z elementwise, with the limit 1 at z = 0."""
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _log_ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(b/a) for 0 < a <= b, as log1p((b - a)/a): accurate to a few ulps
    for b/a near 1, where the log of the rounded quotient b/a would carry
    the relative error eps / log(b/a)."""
    return np.log1p((b - a) / a)


def _power_integral(a: np.ndarray, b: np.ndarray, e: float) -> np.ndarray:
    """Integral of t**(e-1) over [a, b], 0 < a <= b, as
    a**e * expm1(e L)/e with L = log(b/a): no difference of powers, and the
    logarithmic limit at e = 0."""
    L = _log_ratio(a, b)
    return a**e * L * _expm1_ratio(e * L)


# below this log(b/a) the power excess is summed as its Taylor series,
# whose 24 terms reach full precision for |g + j| < 3
_EXCESS_SERIES_MAX = 0.5
_EXCESS_SERIES_TERMS = 24


def _power_excess(a: np.ndarray, b: np.ndarray, g: float, j: int) -> np.ndarray:
    """Integral of t**(g-1) (t**j - a**j) over [a, b] for 0 <= a <= b, g > -j.

    The integrand is nonnegative, and the form never subtracts two
    integrals of its size: with t = a e**v and L = log(b/a) it is
    a**(g+j) times the integral of e**(g v) expm1(j v) over [0, L], summed
    as a power series in L for short intervals, where the two closed-form
    terms would cancel by about 1/L."""
    out = b ** (g + j) / (g + j)  # the a = 0 value
    pos = a > 0.0
    a, L = a[pos], _log_ratio(a[pos], b[pos])
    q = np.empty_like(L)
    short = L < _EXCESS_SERIES_MAX
    Ls = L[short]
    acc = np.zeros_like(Ls)
    # sum over n >= 2 of ((g+j)**(n-1) - g**(n-1)) L**n / n!, by Horner
    for n in range(_EXCESS_SERIES_TERMS + 1, 1, -1):
        acc = acc * Ls + ((g + j) ** (n - 1) - g ** (n - 1)) / math.factorial(n)
    q[short] = acc * Ls * Ls
    Ll = L[~short]
    q[~short] = np.expm1((g + j) * Ll) / (g + j) - Ll * _expm1_ratio(g * Ll)
    out[pos] = a ** (g + j) * q
    return out


def psi_integrals(p: FracParams, a, b) -> Tuple[np.ndarray, np.ndarray]:
    """Exact (integral of psi, integral of psi*t) over subintervals [a, b].

    a and b may be arrays; each pair must satisfy 0 <= a <= b.  Parts of
    [a, b] beyond radius 1 contribute zero, parts below eps use the plateau
    value, and the power region uses closed-form antiderivatives written
    without cancellation, so they stay accurate through s = 1/2, as s -> 1
    and on short subintervals far from 0.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError("bounds a and b must have matching shapes")
    if np.any(a < 0.0) or np.any(b < a):
        raise ValueError("need 0 <= a <= b for every subinterval")
    M = p.plateau_scale
    C = norm_const(p)
    g = 1.0 - 2.0 * p.s
    K0 = np.zeros_like(a)
    K1 = np.zeros_like(a)

    # plateau piece [a, min(b, eps)]
    if p.eps > 0.0:
        pa = np.minimum(a, p.eps)
        pb = np.minimum(b, p.eps)
        has = pb > pa
        if np.any(has):
            val = psi(p, p.eps)
            K0[has] += val * (pb[has] - pa[has])
            K1[has] += val * (pb[has] - pa[has]) * (pb[has] + pa[has]) / 2.0

    # power piece [max(a, eps), min(b, 1)], where psi = M C F(t) with
    # F(t) = (1 - t**g)/g, the integral of tau**(g-1) over [t, 1].  Swapping
    # the order of integration splits each integral into two nonnegative
    # parts: F(qb) times the polynomial integral, plus the power excess.
    qa = np.clip(a, p.eps, 1.0)
    qb = np.clip(b, p.eps, 1.0)
    has = qb > qa
    if np.any(has):
        qa = qa[has]
        qb = qb[has]
        F_b = _power_integral(qb, np.ones_like(qb), g)
        K0[has] += M * C * ((qb - qa) * F_b + _power_excess(qa, qb, g, 1))
        K1[has] += M * C * ((qb - qa) * (qb + qa) * F_b + _power_excess(qa, qb, g, 2)) / 2.0
    return K0, K1


def eta_t_integrals(p: FracParams, a, b) -> Tuple[np.ndarray, np.ndarray]:
    """Exact (integral of eta*t, integral of eta*t**2) over [a, b] with
    0 < a <= b.  Both are written as a**e * expm1(e log(b/a))/e, so
    neither cancels as s -> 1 or on short subintervals, and the first takes
    its logarithmic limit at s = 1/2."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError("bounds a and b must have matching shapes")
    if np.any(a <= 0.0) or np.any(b < a):
        raise ValueError("need 0 < a <= b for every subinterval")
    C = norm_const(p)
    G0 = C * _power_integral(a, b, 1.0 - 2.0 * p.s)
    G1 = C * _power_integral(a, b, 2.0 - 2.0 * p.s)
    return G0, G1
