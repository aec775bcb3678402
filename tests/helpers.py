"""Shared numerical oracles for the test suite.

Everything here recomputes target quantities through routes independent of
the implementation under test: direct adaptive quadrature, exact Simpson
panels on refined breakpoints, finite differences.  Tests then compare two
genuinely different computations instead of an implementation with itself.
The end of the module holds code that only tests reach: the library
functions no CLI path uses (point evaluation, the distance to the complement,
the kernel eta, the assembled operator and the near/far energy split), the
one-row forms of the mollifier-check rows, the strip competitor, and the
far-field quadrature, distance and objective used as oracles.
"""

import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import cho_factor, cho_solve, toeplitz

from fraclap import assembly
from fraclap.assembly import _gauss_legendre, far_kernel, stiffness_kernel
from fraclap.energies import _holder_quotients
from fraclap.errors import ConfigError
from fraclap.grid import Domain, GridFunction, _clip_bounds, make_grid, product_integral, sample
from fraclap.kernels import FracParams, eta_t_integrals, norm_const, psi_integrals
from fraclap.mollifier import (
    _blend,
    _closeness_rows,
    _consistency_rows,
    _apply,
    _kernel,
    _lipschitz_rows,
    _partition,
    _stencil,
    _strip,
    _strip_rows,
    _tail_rows,
    full_coverage_mask,
    mollify,
)
from fraclap.profiles import _bump_pieces, _random_bump_rows, make_profile
from fraclap.solver import _assemble

# np.trapezoid is numpy >= 2.0; pyproject allows numpy >= 1.24, which has np.trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz


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
    return simpson_cells(lambda x: grid_eval(phi, x) * grid_eval(psi, x), pts)


def product_rows_all_cells(grid: GridFunction, p: np.ndarray, q: np.ndarray, region: str) -> np.ndarray:
    """Integral over the region of the product of each pair of rows of p and
    q (..., n): every cell clipped to the region and integrated as an exact
    cubic in the offset from its left node, with the cell widths taken from
    the node differences (reference for grid._product_rows)."""
    dom = grid.domain
    lo, hi = (dom.omega_lo, dom.omega_hi) if region == "omega" else (dom.box_lo, dom.box_hi)
    x, h = grid.nodes, grid.h
    a = np.maximum(x[:-1], lo)
    b = np.minimum(x[1:], hi)
    mask = b > a
    ta, tb = a[mask] - x[:-1][mask], b[mask] - x[:-1][mask]
    p0, p1 = p[..., :-1][..., mask], p[..., 1:][..., mask]
    q0, q1 = q[..., :-1][..., mask], q[..., 1:][..., mask]
    mp, mq = (p1 - p0) / h, (q1 - q0) / h
    d1 = tb - ta
    d2 = (tb**2 - ta**2) / 2.0
    d3 = (tb**3 - ta**3) / 3.0
    return np.sum(p0 * q0 * d1 + (p0 * mq + q0 * mp) * d2 + mp * mq * d3, axis=-1)


def load_vector_all_cells(f: GridFunction) -> np.ndarray:
    """Integral over the interval of f's interpolant against every hat, every
    cell clipped to the interval on the reference cell and scattered onto
    its two nodes (reference for assembly.load_vector)."""
    x, h = f.nodes, f.h
    a = np.maximum(x[:-1], f.domain.omega_lo)
    b = np.minimum(x[1:], f.domain.omega_hi)
    mask = b > a
    idx = np.where(mask)[0]
    ta, tb = (a[mask] - x[:-1][mask]) / h, (b[mask] - x[:-1][mask]) / h
    f0 = f.values[:-1][mask]
    df = f.values[1:][mask] - f0
    d1 = tb - ta
    d2 = (tb**2 - ta**2) / 2.0
    d3 = (tb**3 - ta**3) / 3.0
    out = np.zeros(f.n)
    np.add.at(out, idx, h * (f0 * (d1 - d2) + df * (d2 - d3)))
    np.add.at(out, idx + 1, h * (f0 * d2 + df * d3))
    return out


def bump_derivative(amplitude: float, center: float, width: float):
    """The derivative of the catalog profile bump:amplitude,center,width, as
    a function of an array of points (oracle for smoothed gradients)."""

    def der(x: np.ndarray) -> np.ndarray:
        us, core = _bump_pieces(x, center, width)
        q = 1.0 - us * us
        q = np.where(q > 0.0, q, 1.0)
        return amplitude * core * (-2.0 * us / (q * q)) / width

    return der


def random_bump(rng: np.random.Generator, dom: Domain, n: int) -> GridFunction:
    """One random smooth bump (sometimes a superposition of two) compactly
    supported inside Omega, sampled on the grid: the first row of
    profiles._random_bump_rows."""
    return make_grid(dom, n).with_values(_random_bump_rows(rng, dom, n, 1)[0])


def random_bump_loop(rng: np.random.Generator, dom: Domain, n: int) -> GridFunction:
    """One random bump drawn parameter by parameter (width, centre,
    amplitude, sign, then whether a half-weight second bump is added),
    each bump built as a catalog profile and sampled on the grid
    (reference for profiles.random_bump and its stacked form)."""
    mid = 0.5 * (dom.omega_lo + dom.omega_hi)
    half = 0.5 * dom.omega_measure

    def draw():
        width = rng.uniform(0.2, 0.5) * half
        c_max = 0.95 * half - width
        center = mid + rng.uniform(-c_max, c_max)
        amp = rng.uniform(0.5, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
        return make_profile(f"bump:amplitude={amp!r},center={center!r},width={width!r}")

    first = draw()
    if rng.random() < 0.3:
        second = draw()
        return sample(dom, n, lambda x: first(x) + 0.5 * second(x))
    return sample(dom, n, first)


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
    return simpson_cells(lambda t: grid_eval(phi, t) * grid_eval(phi, t + z), pts)


def gaussian_truncated_oracle(s: float, x: float, radius: float = 50.0) -> float:
    """The pointwise operator of g(x) = exp(-x^2) truncated at |z| = radius
    (reference for solver.frac_laplacian_pointwise).  The full operator is
    2 Gamma(2-s) / s * 1F1(s + 1/2; 1/2; -x^2), evaluated with mpmath at 30
    digits; past the radius g(x +- z) < exp(-48**2) for |x| < 2, so the
    dropped tail is 8 C g(x) radius**(-2s) / (2s) with C = (1-s)/2."""
    with mp.workdps(30):
        s_mp, x_mp = mp.mpf(s), mp.mpf(x)
        full = 2 * mp.gamma(2 - s_mp) / s_mp * mp.hyp1f1(s_mp + mp.mpf(1) / 2, mp.mpf(1) / 2, -x_mp * x_mp)
        tail = 8 * (1 - s_mp) / 2 * mp.exp(-x_mp * x_mp) * mp.mpf(radius) ** (-2 * s_mp) / (2 * s_mp)
        return float(full - tail)


def zero_data_err_ws2_sq(s: float) -> float:
    """The continuum value of rates' err_ws2_sq for f = 1 on Omega = (-1, 1)
    with zero exterior data: the squared W^{s,2} distance between
    u_s = c (1 - x^2)_+^s, c = s / (2 Gamma(1+s) Gamma(2-s)), and the local
    solution (1 - x^2) / 2, evaluated with mpmath at 30 digits.

    The operator is kappa times the standard Fourier form |xi|^(2s), with
    kappa = sqrt(pi) / (c 4^s Gamma(1+s) Gamma(s+1/2)) since it maps u_s to 1
    (Getoor, Trans. AMS 101 (1961); Dyda, FCAA 15 (2012)).  From
    F[(1-x^2)_+^a](xi) = sqrt(pi) Gamma(a+1) (2/|xi|)^(a+1/2) J_(a+1/2)(|xi|)
    and Plancherel the seminorm is (kappa/pi) [A^2 W(mu, mu, 1)
    - 2 A B W(mu, 3/2, 2-s) + B^2 W(3/2, 3/2, 3-2s)], mu = s + 1/2,
    A = c sqrt(pi) Gamma(s+1) 2^mu, B = sqrt(pi) 2^(3/2) / 2, where
    W(mu, nu, lam) = int_0^inf J_mu J_nu t^(-lam) dt is the
    Weber-Schafheitlin quotient (Gradshteyn-Ryzhik 6.574.2).  The squared
    L2 part is c^2 B(1/2, 2s+1) - c B(1/2, s+2) + B(1/2, 3) / 4."""

    def w(mu, nu, lam):
        return mp.gamma(lam) * mp.gamma((mu + nu - lam + 1) / 2) / (
            2**lam
            * mp.gamma((-mu + nu + lam + 1) / 2)
            * mp.gamma((mu + nu + lam + 1) / 2)
            * mp.gamma((mu - nu + lam + 1) / 2)
        )

    with mp.workdps(30):
        s = mp.mpf(s)
        half, three_halves = mp.mpf(1) / 2, mp.mpf(3) / 2
        c = s / (2 * mp.gamma(1 + s) * mp.gamma(2 - s))
        kappa = mp.sqrt(mp.pi) / (c * 4**s * mp.gamma(1 + s) * mp.gamma(s + half))
        mu = s + half
        a = c * mp.sqrt(mp.pi) * mp.gamma(s + 1) * 2**mu
        b = mp.sqrt(mp.pi) * 2**three_halves / 2
        semi = kappa / mp.pi * (
            a**2 * w(mu, mu, 1)
            - 2 * a * b * w(mu, three_halves, 2 - s)
            + b**2 * w(three_halves, three_halves, 3 - 2 * s)
        )
        l2 = c**2 * mp.beta(half, 2 * s + 1) - c * mp.beta(half, s + 2) + mp.beta(half, 3) / 4
        return float(semi + l2)


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


def stiffness_kernel_oracle(s: float, h: float, k: int, dps: int = 80) -> float:
    """Full kernel entry c[k] = (1-s) h**(1-2s) / (s (2-2s)(3-2s)) * D4[V](k),
    the centred fourth difference of V(m) = (|m|**(3-2s) - m**2) / (1-2s)
    (m**2 log|m| at s = 1/2), evaluated in mpmath at dps digits."""
    with mp.workdps(dps):
        s_ = mp.mpf(s)
        g = 1 - 2 * s_

        def v(m: int):
            m = abs(m)
            if m < 2:
                return mp.mpf(0)
            mm = mp.mpf(m)
            return mm**2 * mp.log(mm) if g == 0 else (mm ** (3 - 2 * s_) - mm**2) / g

        d4 = v(k + 2) - 4 * v(k + 1) + 6 * v(k) - 4 * v(k - 1) + v(k - 2)
        return float((1 - s_) * mp.mpf(h) ** g / (s_ * (2 - 2 * s_) * (3 - 2 * s_)) * d4)


def far_pair_oracle(s: float, h: float, k: int, dps: int = 30) -> float:
    """Integral of eta(z) h M4((z - k h) / h) over z > 1, the far pair
    integral of hat_0 and hat_k (their autocorrelation is h times the
    centred cubic B-spline M4), by mpmath quadrature split at the knots."""
    with mp.workdps(dps):
        s_, hh = mp.mpf(s), mp.mpf(h)

        def m4(t):
            r = abs(t)
            return (max(2 - r, 0) ** 3 - 4 * max(1 - r, 0) ** 3) / 6

        knots = [(k + j) * hh for j in range(-2, 3)]
        pts = sorted({max(z, mp.mpf(1)) for z in knots})
        if pts[-1] <= 1:
            return 0.0
        integrand = lambda z: (1 - s_) / 2 * z ** (-1 - 2 * s_) * hh * m4((z - k * hh) / hh)
        return float(mp.quad(integrand, pts))


def far_kernel_oracle(s: float, h: float, k: int) -> float:
    """far_kernel entry 4 ((C/s) mass[k] - far_pair[k]) from far_pair_oracle."""
    mass = (2.0 * h / 3.0, h / 6.0)[k] if k < 2 else 0.0
    return 4.0 * ((1.0 - s) / 2.0 / s * mass - far_pair_oracle(s, h, k))


def far_pair_from_kernel(p: FracParams, h: float, k: int) -> float:
    """The far pair integral of hat_0 and hat_k read back from far_kernel
    as (C/s) mass[k] - c2[k] / 4."""
    mass = (2.0 * h / 3.0, h / 6.0)[k] if k < 2 else 0.0
    return norm_const(p) / p.s * mass - far_kernel(p, h, stiffness_kernel(p, h, k))[k] / 4.0


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


def refined_dense_solve(kernel: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution of toeplitz(kernel) u = b by dense Cholesky plus one step of
    iterative refinement whose residual is a dense np.longdouble product
    (reference for ToeplitzOperator.solve)."""
    a = toeplitz(kernel)
    factor = cho_factor(a)
    u = cho_solve(factor, b)
    u_ld = u.astype(np.longdouble)
    residual = np.empty(b.size)
    for i in range(0, b.size, 256):  # row blocks keep the longdouble copy small
        rows = a[i : i + 256].astype(np.longdouble)
        residual[i : i + 256] = (rows @ u_ld - b[i : i + 256]).astype(float)
    return u - cho_solve(factor, residual)


def gradient_values(values: np.ndarray, h: float, p: FracParams, t_lo: float, t_hi: float) -> np.ndarray:
    """Quadrature of the antisymmetric difference of each row (..., n) against
    eta * t over radii [t_lo, t_hi] times plateau_scale; exact for P1 data."""
    w = _stencil(p, h, max(t_lo, 0.0), min(t_hi, 1.0), True)
    return _apply(values, _kernel(w, True, values.shape[-1]), True, {})


def correlate_apply(v: np.ndarray, w: np.ndarray, odd: bool) -> np.ndarray:
    """One stencil applied to one vector by direct np.correlate of the
    edge-padded values, the odd stencil on first differences through tail
    sums of its weights (reference for mollifier._apply)."""
    L = w.size - 1
    if L == 0:
        return np.zeros(v.size)
    vpad = np.concatenate((np.full(L, v[0]), v, np.full(L, v[-1])))
    if odd:
        tail = np.cumsum(w[:0:-1])[::-1]
        return np.correlate(np.diff(vpad), np.concatenate((tail[::-1], tail)), mode="valid")
    return np.correlate(vpad, np.concatenate((w[:0:-1], w)), mode="valid")


def mollify_loop(phi: GridFunction, p: FracParams) -> np.ndarray:
    """Smoothed values summed kernel piece by kernel piece, each piece a
    clipped gather of the nodes it touches (reference for mollify)."""
    h, n, v = phi.h, phi.n, phi.values
    a, b, js = _partition(h, 0.0, 1.0, p.eps)
    K0, K1 = psi_integrals(p, a, b)
    idx = np.arange(n)
    out = np.zeros(n)
    for k in range(len(a)):
        j = int(js[k])
        r0 = np.clip(idx + j, 0, n - 1)
        r1 = np.clip(idx + j + 1, 0, n - 1)
        l0 = np.clip(idx - j, 0, n - 1)
        l1 = np.clip(idx - j - 1, 0, n - 1)
        s0 = v[r0] + v[l0]
        slope = (v[r1] + v[l1] - s0) / h
        out += s0 * K0[k] + slope * (K1[k] - j * h * K0[k])
    return out


def mollify_gradient(phi: GridFunction, p: FracParams) -> GridFunction:
    """Gradient of the smoothed function, as the nonsingular radial integral
    of the antisymmetric difference over [eps, 1], by mollifier's stencil
    and FFT application.

    For eps = 0 the same formula is the principal-value realization: the
    difference of P1 data vanishes linearly at radius 0, so the integrand
    stays integrable and the closed-form cell integrals remain exact.
    """
    if p.d != 1:
        raise ConfigError(f"mollify_gradient supports d=1 only, got d={p.d}")
    return phi.with_values(_apply(phi.values, _kernel(_stencil(p, phi.h, p.eps, 1.0, True), True, phi.n), True, {}))


def gradient_loop(phi: GridFunction, p: FracParams, t_lo: float, t_hi: float) -> np.ndarray:
    """Gradient quadrature over radii [t_lo, t_hi] summed piece by piece
    (reference for mollify_gradient and the tail quadrature)."""
    h, n, v = phi.h, phi.n, phi.values
    C = norm_const(p)
    g = 1.0 - 2.0 * p.s
    a, b, js = _partition(h, max(t_lo, 0.0), min(t_hi, 1.0))
    idx = np.arange(n)
    out = np.zeros(n)
    for k in range(len(a)):
        ak, bk = float(a[k]), float(b[k])
        j = int(js[k])
        r0 = np.clip(idx + j, 0, n - 1)
        r1 = np.clip(idx + j + 1, 0, n - 1)
        l0 = np.clip(idx - j, 0, n - 1)
        l1 = np.clip(idx - j - 1, 0, n - 1)
        d0 = v[r0] - v[l0]
        slope = (v[r1] - v[l1] - d0) / h
        if ak == 0.0:
            # j = 0, so d0 = 0 and only the second moment of eta enters
            G1 = C * bk * (1.0 + math.expm1(g * math.log(bk))) / (2.0 - 2.0 * p.s)
            out += slope * G1
            continue
        G0, G1 = eta_t_integrals(p, ak, bk)
        out += (d0 - slope * j * h) * float(G0[0]) + slope * float(G1[0])
    return p.plateau_scale * out


def stencil_weight_oracle(p: FracParams, h: float, t_lo: float, t_hi: float, odd: bool, o: int) -> float:
    """Weight of the smoothing stencil at offset o >= 0 by mpmath quadrature
    of the kernel times the P1 hat function centred at o*h, over radii
    [t_lo, t_hi]: psi(|t|) over both signs of t when odd is False,
    plateau_scale * eta(t) * t when odd is True.  psi comes from the closed
    form of its eta-tail integral evaluated at 30 digits (d = 1)."""
    with mp.workdps(30):
        s, eps, hh = mp.mpf(p.s), mp.mpf(p.eps), mp.mpf(h)
        C = (1 - s) / 2
        M = 2 / (1 - eps ** (2 - 2 * s))

        def kernel(t):
            if odd:
                return M * C * t ** (-2 * s)
            a = max(eps, t)
            tail = -mp.log(a) if p.s == 0.5 else (1 - a ** (1 - 2 * s)) / (1 - 2 * s)
            return M * C * tail

        def hat(t):
            # two one-sided branches, so the hat stays exact near its feet
            return t / hh - (o - 1) if t <= o * hh else (o + 1) - t / hh

        lo = max(mp.mpf(t_lo), (o - 1) * hh)
        hi = min(mp.mpf(t_hi), (o + 1) * hh)
        if hi <= lo:
            return 0.0
        pts = sorted({lo, hi} | {x for x in (o * hh, eps) if lo < x < hi})
        val = mp.quad(lambda t: kernel(t) * hat(t), pts[1:]) if len(pts) > 2 else mp.mpf(0)
        if pts[0] == 0:
            # t = u**m turns the t**(1-2s) endpoint behaviour into a smooth one
            m = 1 / (2 - 2 * s)
            val += mp.quad(lambda u: kernel(u**m) * hat(u**m) * m * u ** (m - 1), [0, pts[1] ** (1 / m)])
        else:
            val += mp.quad(lambda t: kernel(t) * hat(t), pts[:2])
        if o == 0 and not odd:
            val *= 2
        return float(val)


def cell_integrals_oracle(p: FracParams, a: float, b: float, odd: bool):
    """psi_integrals (odd=False) or eta_t_integrals (odd=True) of one
    subinterval [a, b] from their antiderivatives evaluated at 50 digits,
    where the power differences cannot lose the digits that float64 would
    (d = 1)."""
    with mp.workdps(50):
        s, eps, lo, hi = mp.mpf(p.s), mp.mpf(p.eps), mp.mpf(a), mp.mpf(b)
        g = 1 - 2 * s
        C = (1 - s) / 2

        def power(t, k):
            # antiderivative of t**(k-1+g) (the log at exponent zero)
            e = k + g
            return mp.log(t) if e == 0 else t**e / e

        if odd:
            return tuple(float(C * (power(hi, k) - power(lo, k))) for k in (0, 1))

        def tail(t):
            # psi / (M C) on the power region: (1 - t**g)/g, or -log t at g = 0
            return -mp.log(t) if g == 0 else (1 - t**g) / g

        def tail_antiderivative(t, k):
            # of t**(k-1) * tail(t), zero at t = 0
            if t == 0:
                return mp.mpf(0)
            if g == 0:
                return t**k * (1 / mp.mpf(k) - mp.log(t)) / k
            return (t**k / k - t ** (k + g) / (k + g)) / g

        M = 2 / (1 - eps ** (2 - 2 * s))
        out = []
        for k in (1, 2):
            # plateau part: psi(eps) t**(k-1) over [a, b] clipped to [0, eps]
            pa, pb = min(lo, eps), min(hi, eps)
            val = tail(eps) * (pb**k - pa**k) / k if pb > pa else mp.mpf(0)
            qa, qb = min(max(lo, eps), 1), min(max(hi, eps), 1)
            if qb > qa:
                val += tail_antiderivative(qb, k) - tail_antiderivative(qa, k)
            out.append(float(M * C * val))
        return tuple(out)


def central_diff(f, x: float, delta: float) -> float:
    return (f(x + delta) - f(x - delta)) / (2.0 * delta)


def holder_seminorm_grid(phi: GridFunction, beta: float) -> float:
    """Grid Hoelder estimator: max over node pairs of |dv| / |dx|**beta.

    A lower bound for the seminorm of the interpolant; exact at beta = 1
    where the max is attained by adjacent nodes.
    """
    return float(_holder_quotients(phi.values, phi.h, (beta,))[0])


def holder_loop(phi: GridFunction, beta: float) -> float:
    """Grid Hoelder quotient maximised lag by lag (reference for
    holder_seminorm_grid, which must return the same float)."""
    v = phi.values
    best = 0.0
    for k in range(1, phi.n):
        diff = float(np.max(np.abs(v[k:] - v[:-k])))
        best = max(best, diff / (k * phi.h) ** beta)
    return best


def lag_maxima(values: np.ndarray) -> np.ndarray:
    """max_i |v[i+k] - v[i]| of each row of values (..., n) for every lag
    k = 1..n-1, as (..., n-1); independent of the Hoelder exponent."""
    n = values.shape[-1]
    diffs = np.empty(values.shape[:-1] + (n - 1,))
    for k in range(1, n):
        diffs[..., k - 1] = np.max(np.abs(values[..., k:] - values[..., :-k]), axis=-1)
    return diffs


def holder_quotient(lags: np.ndarray, h: float, beta: float) -> np.ndarray:
    """Max over k of lags[..., k-1] / (k h)**beta, from lag_maxima: the full
    lag scan (reference for energies._holder_quotients, which must return
    the same floats)."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    # scalar powers, as the quotient has always been formed
    scale = np.array([(k * h) ** beta for k in range(1, lags.shape[-1] + 1)])
    return np.max(lags / scale, axis=-1)


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


def csv_text(report) -> str:
    """The report's CSV text: its csv_chunks joined, as emit_csv writes them."""
    return "".join(report.csv_chunks())


def solve_csv_rows(xs, blocks) -> str:
    """The solve CSV built one "%.12g,%.12g" row at a time, the per-row
    form that SolveReport.csv_chunks' block templates must reproduce byte
    for byte."""
    lines = ["s,x,u"]
    for s, us in blocks:
        prefix = "%.12g" % s + ","
        lines.extend([prefix + "%.12g,%.12g" % xu for xu in zip(xs, us)])
    return "\n".join(lines) + "\n"


# Library functions that no CLI path reaches, kept as oracles and as the
# subjects of their own tests.


def grid_eval(phi: GridFunction, x) -> np.ndarray | float:
    """The interpolant of phi at x (scalar or array), with constant
    extension outside the box."""
    out = np.interp(np.asarray(x, dtype=float), phi.nodes, phi.values)
    return float(out) if out.ndim == 0 else out


def dist_to_complement(dom: Domain, x):
    """Distance from x to the complement of Omega; zero outside."""
    xx = np.asarray(x, dtype=float)
    out = np.clip(np.minimum(xx - dom.omega_lo, dom.omega_hi - xx), 0.0, None)
    if np.isscalar(x) or xx.ndim == 0:
        return float(out)
    return out


def eta(p: FracParams, t: float) -> float:
    """Interaction kernel C * t**(-d-2s); requires t > 0."""
    if t <= 0.0:
        raise ValueError(f"eta requires t > 0, got t={t}")
    return norm_const(p) * t ** (-(p.d + 2.0 * p.s))


def assemble_frac(dom: Domain, n: int, p: FracParams) -> assembly.ToeplitzOperator:
    """The nonlocal stiffness operator on the interior nodes of n nodes
    over dom's box: op.quad_form(v) is twice the energy of the zero-extended
    P1 function with interior coefficients v."""
    return _assemble(make_grid(dom, n), p)[0]


class SupportError(ValueError):
    """A function required to vanish at the box ends does not."""


@dataclass(frozen=True)
class EnergyBreakdown:
    """Near part d1 (distance < 1) and far part d2 (distance > 1)."""

    d1: float
    d2: float

    @property
    def total(self) -> float:
        """Full interaction energy d1 + d2."""
        return self.d1 + self.d2


def dirichlet_frac(phi: GridFunction, p: FracParams) -> EnergyBreakdown:
    """Nonlocal interaction energy of the zero-extended interpolant, split
    into near (distance < 1) and far (distance > 1) parts, both exact
    Toeplitz forms: the far part from the closed-form far kernel.  The full
    kernel comes from assembly.stiffness_kernel looked up on the module, so
    a test can count its calls."""
    if phi.values[0] != 0.0 or phi.values[-1] != 0.0:
        raise SupportError(
            "nonzero box boundary samples: the whole-line energy of the "
            "constant extension would be infinite"
        )
    v = phi.values[1:-1]
    h = phi.h
    c_full = assembly.stiffness_kernel(p, h, len(v) - 1)
    c_far = far_kernel(p, h, c_full)
    d1 = 0.5 * assembly.ToeplitzOperator(c_full - c_far).quad_form(v)
    d2 = 0.5 * assembly.ToeplitzOperator(c_far).quad_form(v)
    return EnergyBreakdown(d1=d1, d2=d2)


def linf_distance(phi: GridFunction, psi: GridFunction, region: str = "box") -> float:
    """Max absolute nodal difference over the nodes lying in the region."""
    phi._check_same_grid(psi)
    lo, hi = _clip_bounds(phi.domain, region)
    x = phi.nodes
    tol = 1e-9 * phi.h
    mask = (x >= lo - tol) & (x <= hi + tol)
    return float(np.max(np.abs(phi.values[mask] - psi.values[mask])))


def objective_frac(phi: GridFunction, f_s: GridFunction, p: FracParams) -> float:
    """Nonlocal objective: interaction energy minus the exact load over the
    interval."""
    load = product_integral(phi, f_s, region="omega")
    return dirichlet_frac(phi, p).total - load


def mass_quadratic_form(v: np.ndarray, h: float) -> float:
    """v^T M v with the P1 mass matrix (2h/3 diagonal, h/6 off-diagonal),
    i.e. the exact squared L2 norm of the zero-extended P1 function."""
    v = np.asarray(v, dtype=float)
    return float((2.0 * h / 3.0) * (v @ v) + 2.0 * (h / 6.0) * (v[1:] @ v[:-1]))


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
        total += 0.5 * float(np.sum(half * grid_eval(phi, q) * grid_eval(phi, q + z)))
    return total


def far_cross_quadrature(phi: GridFunction, p: FracParams, order: int = 10) -> float:
    """Integral of eta(|x-y|) phi(x) phi(y) over pairs with |x - y| > 1,
    by per-cell Gauss quadrature in the separation variable against exact
    autocorrelations.  Independent of the closed-form far kernel."""
    C = norm_const(p)
    h = phi.h
    zmax = phi.domain.box_measure
    t, w = _gauss_legendre(order)
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


# One-row forms of the mollifier-check rows (mollifier._*_rows on a single
# grid function), each returning its (lhs, rhs) pair.


def check_identity_l2(phi: GridFunction, p: FracParams, near_energy=None):
    """Squared L2 distance between the smoothed function and the original
    versus plateau_scale**2 (1-s) d1; near_energy replaces the d1
    computation (d1 does not depend on eps)."""
    d1 = dirichlet_frac(phi, p).d1 if near_energy is None else near_energy
    return _closeness_rows(phi, phi.values, mollify(phi, p).values, p, d1)


def check_energy_consistency(phi: GridFunction, p: FracParams, near_energy=None):
    """Gradient energy of the smoothed function versus its near-part control
    d1 / (1 - eps**(2-2s))**2; for eps = 0 the bound is d1 itself."""
    d1 = dirichlet_frac(phi, p).d1 if near_energy is None else near_energy
    return _consistency_rows(phi.h, mollify(phi, p).values, p, d1)


def check_lipschitz(phi: GridFunction, p: FracParams, s_holder: float, holder_est=None):
    """Max gradient of the smoothed function over fully covered nodes versus
    2 d [phi]_{C^{0,s_holder}} / (1 - eps**(2-2s)); holder_est replaces the
    grid estimate (a lower bound) when the seminorm is known."""
    est = holder_seminorm_grid(phi, s_holder) if holder_est is None else holder_est
    return _lipschitz_rows(mollify_gradient(phi, p).values, full_coverage_mask(phi), p, est)


def check_tail_bound(phi: GridFunction, p: FracParams, rho: float, alpha: float, holder_est=None):
    """Max over covered nodes of the gradient quadrature over radii [rho, 1]
    versus the tail bound of mollifier._tail_rows with [phi]_{C^{0,alpha}}."""
    est = holder_seminorm_grid(phi, alpha) if holder_est is None else holder_est
    tail = gradient_values(phi.values, phi.h, p, rho, 1.0)
    return _tail_rows(tail, full_coverage_mask(phi), p, rho, alpha, est)


def build_w(u_s: GridFunction, g: GridFunction, p: FracParams, r: float) -> GridFunction:
    """Competitor equal to g outside Omega, to the smoothed u_s at depth
    >= r inside, with a linear ramp across the strip."""
    u_s._check_same_grid(g)
    return _blend(g, mollify(u_s, p), r)


def _strip_one(u_s: GridFunction, g: GridFunction, p: FracParams, r: float, hold_us: float, hold_g: float):
    """Both mollifier._strip_rows pairs for one function; the rows model
    zero exterior data, so g must vanish and hold_g be 0."""
    u_s._check_same_grid(g)
    if np.any(g.values) or hold_g != 0.0:
        raise ValueError("the strip rows take zero exterior data g and hold_g = 0")
    return _strip_rows(u_s, mollify(u_s, p).values, p, r, hold_us, _strip(u_s, r))


def check_strip_closeness(u_s, g, p, r, hold_us, hold_g):
    """Sup distance between the smoothed solution and the competitor over the
    inner strip versus 2 hold_us (r^s + (1-s)/(1-eps^(2-2s)))."""
    return _strip_one(u_s, g, p, r, hold_us, hold_g)[0]


def check_strip_l2(u_s, g, p, r, hold_us, hold_g):
    """Squared L2(Omega) distance between the smoothed solution and the
    competitor versus 8 hold_us^2 (r^(1+2s) + ((1-s)/(1-eps^(2-2s)))^2 r)."""
    return _strip_one(u_s, g, p, r, hold_us, hold_g)[1]


def strip_sup_loop(grid: GridFunction, values: np.ndarray, r: float) -> float:
    """Exact max over Omega's closure at depth <= r of |(1 - lam) v| for one
    smoothed row v (its P1 interpolant), lam = clip(depth / r, 0, 1), cell
    by cell in a scalar loop (reference for mollifier._strip_rows' sup).  On
    each cell's part of a side's strip both factors are linear, so the
    product peaks at the piece's ends or midway between the factors' roots."""
    dom, h = grid.domain, grid.h
    x = grid.nodes
    best = 0.0
    # each side: (its strip, the root of 1 - lam there)
    for (a, b), root_lam in (
        ((dom.omega_lo, dom.omega_lo + r), dom.omega_lo + r),
        ((dom.omega_hi - r, dom.omega_hi), dom.omega_hi - r),
    ):
        for j in range(grid.n - 1):
            lo, hi = max(a, float(x[j])), min(b, float(x[j + 1]))
            if lo > hi:
                continue
            v0, v1 = float(values[j]), float(values[j + 1])

            def q(t: float) -> float:
                depth = min(t - dom.omega_lo, dom.omega_hi - t)
                return (1.0 - min(max(depth / r, 0.0), 1.0)) * (v0 + (v1 - v0) * (t - x[j]) / h)

            pts = [lo, hi]
            if v1 != v0:
                vertex = 0.5 * (root_lam + float(x[j]) - v0 * h / (v1 - v0))
                if lo < vertex < hi:
                    pts.append(vertex)
            best = max(best, max(abs(q(t)) for t in pts))
    return best


def strip_sup_sampled(grid: GridFunction, values: np.ndarray, r: float, points: int = 200_001) -> float:
    """max of |(1 - lam) v| over `points` equispaced samples of Omega's
    closure, v the P1 interpolant of the row values: a lower bound for
    strip_sup_loop, exact at the nodes the samples hit."""
    dom = grid.domain
    t = np.linspace(dom.omega_lo, dom.omega_hi, points)
    depth = np.minimum(t - dom.omega_lo, dom.omega_hi - t)
    return float(np.max(np.abs((1.0 - np.clip(depth / r, 0.0, 1.0)) * np.interp(t, grid.nodes, values))))
