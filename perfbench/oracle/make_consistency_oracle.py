"""Regenerate consistency-5s.json, the oracle for the consistency-5s workload.

For g(x) = exp(-x^2) the operator that fraclap's pointwise evaluator
approximates,

    L g(x) = 4 C integral_0^inf (2 g(x) - g(x+z) - g(x-z)) z^(-1-2s) dz,

with C = (1-s)/2, has the closed form

    L g(x) = 2 Gamma(2-s) / s * 1F1(s + 1/2; 1/2; -x^2),

the classical Gaussian formula for the fractional Laplacian rescaled to this
normalisation. The script evaluates it with mpmath at 40 digits, checks it
against mpmath quadrature of the defining integral at a few points, and
stores, for each s, max over the 101 interior sample points of
|L g(x) + g''(x)|, the quantity the `consistency` CSV reports as max_abs_err.
It reads nothing from fraclap.

Run from the repository root:  python3 perfbench/oracle/make_consistency_oracle.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np

HERE = Path(__file__).resolve().parent
S_LIST = (0.6, 0.7, 0.8, 0.9, 0.95)
OMEGA = (-1.0, 1.0)
POINTS = 101


def closed_form(s, x):
    return 2 * mpmath.gamma(2 - s) / s * mpmath.hyp1f1(s + mpmath.mpf(1) / 2, mpmath.mpf(1) / 2, -x * x)


def by_quadrature(s, x):
    """The defining integral: a Taylor series below z0, where the second
    difference cancels, and tanh-sinh quadrature at 80 digits above it."""
    z0 = mpmath.mpf(10) ** -6
    g = lambda t: mpmath.exp(-t * t)  # noqa: E731
    d2 = second_derivative(x)
    d4 = mpmath.exp(-x * x) * (16 * x**4 - 48 * x * x + 12)
    near = -d2 * z0 ** (2 - 2 * s) / (2 - 2 * s) - d4 * z0 ** (4 - 2 * s) / (12 * (4 - 2 * s))
    with mpmath.workdps(80):
        integrand = lambda z: (2 * g(x) - g(x + z) - g(x - z)) * z ** (-1 - 2 * s)  # noqa: E731
        far = mpmath.quad(integrand, [z0, 1e-4, 1e-2, 0.5, 1, 2, 4, 8, mpmath.inf])
    return 4 * (1 - s) / 2 * (near + far)


def second_derivative(x):
    return mpmath.exp(-x * x) * (4 * x * x - 2)


def main() -> None:
    # the sample points of fraclap's consistency experiment, as float64 values
    xs = np.linspace(OMEGA[0], OMEGA[1], POINTS + 2)[1:-1]
    out = {}
    with mpmath.workdps(40):
        for s_float in S_LIST:
            s = mpmath.mpf(s_float)
            for x in (0.0, 0.37, float(xs[-1])):
                a, b = closed_form(s, mpmath.mpf(x)), by_quadrature(s, mpmath.mpf(x))
                if abs(a - b) > mpmath.mpf(10) ** -20 * max(1, abs(a)):
                    raise SystemExit(f"closed form and quadrature disagree at s={s_float}, x={x}")
            worst = max(
                abs(closed_form(s, mpmath.mpf(float(x))) + second_derivative(mpmath.mpf(float(x))))
                for x in xs
            )
            out[repr(s_float)] = float(worst)
    doc = {
        "workload": "consistency-5s",
        "g_spec": "gaussian",
        "omega": list(OMEGA),
        "points": POINTS,
        "max_abs_err": out,
    }
    (HERE / "consistency-5s.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
