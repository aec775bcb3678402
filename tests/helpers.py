"""Shared numerical oracles for the test suite.

Everything here recomputes target quantities through routes independent of
the implementation under test: direct adaptive quadrature, exact Simpson
panels on refined breakpoints, finite differences.  Tests then compare two
genuinely different computations instead of an implementation with itself.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from fraclap.grid import GridFunction
from fraclap.kernels import FracParams, eta, norm_const


def simpson_cells(f, pts) -> float:
    """One Simpson panel per subinterval of pts; exact whenever f is a
    piecewise quadratic whose breakpoints all appear in pts."""
    pts = np.asarray(pts, dtype=float)
    a = pts[:-1]
    b = pts[1:]
    m = 0.5 * (a + b)
    return float(np.sum((b - a) / 6.0 * (f(a) + 4.0 * f(m) + f(b))))


def product_integral_oracle(phi: GridFunction, psi: GridFunction, lo: float, hi: float) -> float:
    """Integral of phi*psi over [lo, hi] by exact Simpson panels."""
    inner = phi.nodes[(phi.nodes > lo) & (phi.nodes < hi)]
    pts = np.concatenate(([lo], inner, [hi]))
    return simpson_cells(lambda x: phi.eval(x) * psi.eval(x), pts)


def correlation_exact(phi: GridFunction, z: float) -> float:
    """Integral of phi(x) phi(x+z) dx over the real line for a grid function
    vanishing at the box ends, z >= 0.  Exact: the integrand is a piecewise
    product of linears on the union breakpoints."""
    x = phi.nodes
    lo, hi = x[0], x[-1] - z
    if hi <= lo:
        return 0.0
    pts = np.union1d(np.union1d(x, x - z), [lo, hi])
    pts = pts[(pts >= lo) & (pts <= hi)]
    return simpson_cells(lambda t: phi.eval(t) * phi.eval(t + z), pts)


def dirichlet_frac_oracle(phi: GridFunction, p: FracParams) -> float:
    """Interaction energy of the zero-extended interpolant by direct radial
    quadrature: int_R eta(|z|) Q(z) dz with Q(z) the exact squared L2 norm of
    the z-shift difference; the tail beyond the box span is closed-form."""
    span = phi.domain.box_measure
    r0 = correlation_exact(phi, 0.0)

    def shifted_sq(z: float) -> float:
        return 2.0 * (r0 - correlation_exact(phi, z))

    pts = [k * phi.h for k in range(1, int(span / phi.h))]
    if len(pts) > 60:
        pts = pts[:: len(pts) // 60 + 1]
    with warnings.catch_warnings():
        # roundoff chatter past the requested tolerance; accuracy is still
        # far better than the comparisons made against this oracle
        warnings.simplefilter("ignore", IntegrationWarning)
        body, _ = quad(
            lambda z: eta(p, z) * shifted_sq(z),
            0.0,
            span,
            points=pts,
            limit=400,
            epsabs=1e-12,
            epsrel=1e-9,
        )
    tail = 2.0 * r0 * norm_const(p) * span ** (-2.0 * p.s) / (2.0 * p.s)
    return 2.0 * (body + tail)


def w_beta1_oracle(phi: GridFunction, beta: float) -> float:
    """Window-restricted first-order seminorm by z-quadrature of the shift
    difference in L1 over the box overlap (fine trapezoid in x)."""
    x = phi.nodes

    def shifted_l1(z: float) -> float:
        lo, hi = x[0], x[-1] - z
        if hi <= lo:
            return 0.0
        grid = np.linspace(lo, hi, 4097)
        vals = np.abs(phi.eval(grid + z) - phi.eval(grid))
        return float(np.trapezoid(vals, grid))

    pts = [k * phi.h for k in range(1, int(1.0 / phi.h) + 1) if k * phi.h < 1.0]
    if len(pts) > 60:
        pts = pts[:: len(pts) // 60 + 1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda z: shifted_l1(z) * z ** (-1.0 - beta),
            0.0,
            1.0,
            points=pts,
            limit=400,
            epsabs=1e-10,
            epsrel=1e-8,
        )
    return 2.0 * val


def toeplitz_quadratic_form(kernel: np.ndarray, v: np.ndarray) -> float:
    """v^T T v for the symmetric Toeplitz matrix T with first column `kernel`,
    summed diagonal by diagonal (reference for ToeplitzOperator.quad_form)."""
    n = len(v)
    if len(kernel) < n:
        raise ValueError("kernel shorter than vector")
    total = kernel[0] * float(v @ v)
    for k in range(1, n):
        ck = kernel[k]
        if ck == 0.0:
            continue
        total += 2.0 * ck * float(v[:-k] @ v[k:])
    return float(total)


def central_diff(f, x: float, delta: float) -> float:
    return (f(x + delta) - f(x - delta)) / (2.0 * delta)


def holder_restricted(vals: np.ndarray, nodes: np.ndarray, mask: np.ndarray, beta: float) -> float:
    """Max Hoelder quotient over node pairs restricted to a boolean mask."""
    v = np.asarray(vals, dtype=float)[mask]
    x = np.asarray(nodes, dtype=float)[mask]
    best = 0.0
    for k in range(1, v.size):
        num = np.abs(v[k:] - v[:-k])
        den = np.abs(x[k:] - x[:-k]) ** beta
        if num.size:
            best = max(best, float(np.max(num / den)))
    return best


def fit_slope(xs, ys) -> float:
    """Plain least-squares slope, independent of the package's fitter."""
    return float(np.polyfit(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), 1)[0])


def strip_seconds(text: str) -> str:
    """Remove the seconds column from a CSV string (timings are the only
    nondeterministic output)."""
    lines = text.splitlines()
    if not lines:
        return text
    header = lines[0].split(",")
    if "seconds" not in header:
        return text
    j = header.index("seconds")
    out = []
    for ln in lines:
        if ln.startswith("#"):
            out.append(ln)
        else:
            cells = ln.split(",")
            out.append(",".join(cells[:j] + cells[j + 1 :]))
    return "\n".join(out)
