"""P1 Galerkin solvers for the nonlocal and local Dirichlet problems on an
interval, a pointwise evaluator of the nonlocal operator for smooth
functions, and the closed-form benchmark profile on the unit interval.

The nonlocal form of zero-extended P1 functions on a uniform grid is the
slope form (Dv)^T W (Dv) with a symmetric Toeplitz W, whose closed-form
kernel in the assembly module includes the interaction with the zero
extension over the whole line, so the operator has no truncation error.
It is held as its slope kernel (assembly.ToeplitzOperator) and solved by
tau-preconditioned conjugate gradients; no dense matrix is formed.  The local
problem is solved through the closed-form discrete Green's function.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from .assembly import ToeplitzOperator, _log_panels, interior_indices, load_vector, slope_kernel
from .errors import DataError
from .grid import Grid, _call_on
from .kernels import FracParams, norm_const

# splitting radius for the singular part of the pointwise operator: below it
# the symmetric second difference is replaced by its leading quadratic
# profile, which avoids catastrophic cancellation at tiny offsets
_NEAR_CUT = 1e-4
# truncation radius of the pointwise operator's outer integral
_RADIUS = 50.0
# panels of its log-z Gauss rule over (_NEAR_CUT, _RADIUS): at 64 the rule
# is at the roundoff of the second difference for s from 0.25 to 0.995
# (64 and 128 panels differ by at most 3.1e-11 for the Gaussian)
_PANELS = 64
# samples of g per block of points: each block's temporaries stay at 256 KB
# or less, so the working set does not grow with the number of points
_BLOCK_SAMPLES = 1 << 15


def solve_frac_system(grid: Grid, f: np.ndarray, p: FracParams) -> Tuple[np.ndarray, ToeplitzOperator, np.ndarray]:
    """Galerkin solution of the nonlocal problem with zero complement data
    and source f on grid.

    The load b is the exact integral of the P1 interpolant of f against
    each interior hat over Omega.  Returns (u, op, b): the zero-extended
    solution on the full grid, and the interior operator and load it
    solves, so callers can measure errors in the same energy."""
    idx = interior_indices(grid)
    op = ToeplitzOperator(slope_kernel(p, grid.h, idx.size))
    b = load_vector(grid, f)[idx]
    u = np.zeros(grid.n)
    u[idx] = op.solve(b)
    return u, op, b


def solve_local_dirichlet(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Galerkin solution of the gradient-energy problem with source f on
    grid; nodally exact in 1d for the continuous problem with the same data.

    The stiffness tridiag(-1, 2, -1)/h on m interior nodes has the discrete
    Green's function h min(i, j) (m + 1 - max(i, j)) / (m + 1), 1-based, so
    u_i = h (m + 1 - i) sum_{j <= i} j b_j / (m + 1)
          + h i sum_{j > i} (m + 1 - j) b_j / (m + 1)."""
    idx = interior_indices(grid)
    b = load_vector(grid, f)[idx]
    m = idx.size
    i = np.arange(1, m + 1)
    left = np.cumsum(i * b)
    right = np.cumsum(((m + 1 - i) * b)[::-1])[::-1]
    right = np.append(right[1:], 0.0)
    u = np.zeros(grid.n)
    u[idx] = grid.h * ((m + 1 - i) * left + i * right) / (m + 1)
    return u


def _ball_coeff(p: FracParams) -> float:
    """Amplitude of the unit-source profile on the unit ball of R^d, d = 1,
    under the normalization in which the quadratic form has a clean s -> 1 limit."""
    s, d = p.s, 1
    log_c = (
        math.log(s)
        - math.log(4.0)
        + math.lgamma(d / 2.0)
        + math.lgamma(s + d / 2.0)
        - math.lgamma((d + 2.0 * s) / 2.0)
        - math.lgamma(1.0 + s)
        - math.lgamma(1.0 + d / 2.0)
        - math.lgamma(2.0 - s)
    )
    return math.exp(log_c)


def exact_solution_ball(p: FracParams, x: np.ndarray) -> np.ndarray:
    """Closed-form solution of the unit-source problem on the unit ball with
    zero complement data, coeff(s, d) * (1 - |x|^2)_+^s, at the points x."""
    return _ball_coeff(p) * np.clip(1.0 - x * x, 0.0, None) ** p.s


def frac_laplacian_pointwise(
    g: Callable[[np.ndarray], np.ndarray],
    p: FracParams,
    x: np.ndarray,
    full_output: bool = False,
):
    """Pointwise nonlocal operator applied to a twice-differentiable g at
    every point of the array x (one g call per block of points), as an
    array of x's shape.

    The integrand is the symmetric second difference 2 g(x) - g(x+z) -
    g(x-z), which is O(z^2) and kills affine functions exactly, against
    z**(-1-2s).  Below _NEAR_CUT its quadratic profile is frozen; from
    there to _RADIUS it is summed by _PANELS uniform panels in log z of the
    12-point Gauss rule; the tail beyond _RADIUS is dropped.  With
    full_output=True returns (value, error_bar): the gap to the same rule
    on half the panels plus the analytic bound on the dropped tail.  Any
    non-finite sample of g raises DataError.  The points go in blocks of at
    most _BLOCK_SAMPLES samples of g.
    """
    s2 = 2.0 * p.s
    C = norm_const(p)
    span = np.log([_NEAR_CUT, _RADIUS])
    counts = (_PANELS, _PANELS // 2) if full_output else (_PANELS,)  # half the panels: error bar only
    rules = [_log_panels(0.0, np.linspace(*span, k + 1)) for k in counts]
    z = np.concatenate([[_NEAR_CUT]] + [t for t, _ in rules])
    offsets = [[0.0], z, -z]
    if full_output:
        offsets.append(np.linspace(-2.0 * _RADIUS, 2.0 * _RADIUS, 257))
    offsets = np.concatenate(offsets)
    weights = np.concatenate([w for _, w in rules]) * z[1:] ** (-1.0 - s2)
    m = z.size

    def block(xb: np.ndarray):
        vals = _call_on(g, xb[:, None] + offsets)
        finite = np.all(np.isfinite(vals), axis=-1)
        if not np.all(finite):
            raise DataError(f"g returned a non-finite value near x={float(xb[~finite][0])!r}")
        second_diff = 2.0 * vals[:, :1] - vals[:, 1 : m + 1] - vals[:, m + 1 : 2 * m + 1]

        # 0 < z < _NEAR_CUT: freeze the quadratic profile of the second
        # difference at the cut; relative error O(cut^2) on this piece
        near_sing = second_diff[:, 0] * _NEAR_CUT ** (-s2) / (2.0 - s2)
        body = second_diff[:, 1:] * weights
        value, coarse = (
            4.0 * C * (near_sing + np.sum(part, axis=-1)) for part in np.split(body, [rules[0][0].size], axis=-1)
        )
        if not full_output:
            return (value,)
        sup_g = np.max(np.abs(vals[:, 2 * m + 1 :]), axis=-1)
        return value, np.abs(value - coarse) + 16.0 * C * sup_g * _RADIUS ** (-s2) / s2

    flat = x.reshape(-1)
    step = max(1, _BLOCK_SAMPLES // offsets.size)
    blocks = [block(flat[i : i + step]) for i in range(0, max(flat.size, 1), step)]
    out = [np.concatenate(col).reshape(x.shape) for col in zip(*blocks)]
    return tuple(out) if full_output else out[0]
