"""Closed catalog of analytic profiles used as sources, complement data,
and random test functions.

Profiles are referenced from configs as `name` or `name:arg,key=value,...`
(positional arguments bind in the order listed per profile below).  Keeping
the catalog closed makes configs reproducible without an expression parser.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DataError
from .grid import Grid


class Profile:
    """Analytic profile: its catalog name, its parsed params, its value (call
    the profile on an array of points) and its second derivative, a function
    of the same kind, or None where the profile has none (abspow at its
    center).  Both return an array of the points' shape.

    The class-level None entries are the names perfbench's tracer wraps; each
    instance sets its own second_derivative, which takes precedence."""

    derivative = second_derivative = None

    def __init__(
        self,
        name: str,
        params: Dict[str, float],
        value: Callable[[np.ndarray], np.ndarray],
        second_derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        self.name = name
        self.params = params
        self._value = value
        self.second_derivative = second_derivative

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._value(x)


def _constant(params: Dict[str, float]) -> Profile:
    c = params["value"]
    return Profile("constant", params, lambda x: np.full_like(x, c), np.zeros_like)


def _gaussian(params: Dict[str, float]) -> Profile:
    a, c, w = params["amplitude"], params["center"], params["width"]
    if w <= 0.0:
        raise ConfigError(f"gaussian width must be positive, got {w}")

    def val(x: np.ndarray) -> np.ndarray:
        u = (x - c) / w
        return a * np.exp(-u * u)

    def der2(x: np.ndarray) -> np.ndarray:
        u = (x - c) / w
        return a * np.exp(-u * u) * (4.0 * u * u - 2.0) / (w * w)

    return Profile("gaussian", params, val, der2)


def _cosine(params: Dict[str, float]) -> Profile:
    a, k, c = params["amplitude"], params["freq"], params["center"]
    return Profile(
        "cosine",
        params,
        lambda x: a * np.cos(k * (x - c)),
        lambda x: -a * k * k * np.cos(k * (x - c)),
    )


def _bump_pieces(x: np.ndarray, c, w) -> Tuple[np.ndarray, np.ndarray]:
    """Offset u = (x - c) / w zeroed outside |u| < 1, and the unit bump
    exp(1 - 1 / (1 - u**2)) there (0 outside); c and w broadcast against x."""
    u = (x - c) / w
    inside = np.abs(u) < 1.0
    us = np.where(inside, u, 0.0)
    return us, np.where(inside, np.exp(1.0 - 1.0 / (1.0 - us * us)), 0.0)


def _bump(params: Dict[str, float]) -> Profile:
    a, c, w = params["amplitude"], params["center"], params["width"]
    if w <= 0.0:
        raise ConfigError(f"bump width must be positive, got {w}")

    def val(x: np.ndarray) -> np.ndarray:
        return a * _bump_pieces(x, c, w)[1]

    def der2(x: np.ndarray) -> np.ndarray:
        us, core = _bump_pieces(x, c, w)
        q = 1.0 - us * us
        q = np.where(q > 0.0, q, 1.0)
        u2 = us * us
        poly = 4.0 * u2 / q**4 - 2.0 / q**2 - 8.0 * u2 / q**3
        return a * core * poly / (w * w)

    return Profile("bump", params, val, der2)


def _abspow(params: Dict[str, float]) -> Profile:
    a, c, e = params["amplitude"], params["center"], params["exponent"]
    if e <= 0.0:
        raise ConfigError(f"abspow exponent must be positive, got {e}")
    return Profile("abspow", params, lambda x: a * np.abs(x - c) ** e)


# per profile: (defaults in positional order, factory)
_CATALOG: Dict[str, Tuple[Sequence[Tuple[str, float]], Callable[[Dict[str, float]], Profile]]] = {
    "constant": ((("value", 1.0),), _constant),
    "gaussian": ((("amplitude", 1.0), ("center", 0.0), ("width", 1.0)), _gaussian),
    "cosine": ((("amplitude", 1.0), ("freq", 1.0), ("center", 0.0)), _cosine),
    "bump": ((("amplitude", 1.0), ("center", 0.0), ("width", 1.0)), _bump),
    "abspow": ((("amplitude", 1.0), ("center", 0.0), ("exponent", 0.5)), _abspow),
}


def profile_names() -> Tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def make_profile(text: str) -> Profile:
    """Build a profile from `name` or `name:arg,...,key=value,...`."""
    head, _, rest = text.partition(":")
    name = head.strip()
    if name not in _CATALOG:
        raise ConfigError(
            f"unknown profile '{name}'; available: {', '.join(profile_names())}"
        )
    order, factory = _CATALOG[name]
    params = {k: v for k, v in order}
    seen_named = False
    pos = 0
    if rest.strip():
        for item in rest.split(","):
            item = item.strip()
            if not item:
                raise ConfigError(f"empty parameter in profile '{text}'")
            key, eq, raw = item.partition("=")
            if eq:
                seen_named = True
                key = key.strip()
                if key not in params:
                    raise ConfigError(
                        f"unknown parameter '{key}' for profile '{name}'; "
                        f"expected one of: {', '.join(k for k, _ in order)}"
                    )
                params[key] = _parse_number(raw, f"profile '{text}'")
            else:
                if seen_named:
                    raise ConfigError(
                        f"positional parameter after named one in profile '{text}'"
                    )
                if pos >= len(order):
                    raise ConfigError(f"too many parameters for profile '{name}'")
                params[order[pos][0]] = _parse_number(item, f"profile '{text}'")
                pos += 1
    return factory(params)


def _parse_number(raw: str, where: str) -> float:
    """raw as a finite float; where names it in the ConfigError otherwise."""
    try:
        v = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad number '{raw.strip()}'") from exc
    if not math.isfinite(v):
        raise ConfigError(f"{where}: value must be finite, got {raw.strip()}")
    return v


def _random_bump_rows(rng: random.Random, grid: Grid, count: int) -> np.ndarray:
    """count random smooth bumps (some a superposition of two), compactly
    supported inside Omega and sampled on the grid, as a (count, n) stack.
    rng is any object with random() and uniform(low, high), such as
    random.Random or a numpy Generator.  The draws go row by row, so
    consecutive calls on one rng give the rows and the final state of one
    call for all of them.

    Each bump's parameters are drawn in turn (width, centre, amplitude,
    sign, then whether a second bump is added and its parameters); all
    cores are evaluated as one stack."""
    dom = grid.domain
    mid = 0.5 * (dom.omega_lo + dom.omega_hi)
    half = 0.5 * dom.omega_measure

    def draw() -> Tuple[float, float, float]:
        width = rng.uniform(0.2, 0.5) * half
        c_max = 0.95 * half - width
        center = mid + rng.uniform(-c_max, c_max)
        amp = rng.uniform(0.5, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
        return amp, center, width

    first, second, paired = [], [], []
    for row in range(count):
        first.append(draw())
        if rng.random() < 0.3:
            second.append(draw())
            paired.append(row)
    x = grid.nodes
    a, c, w = np.array(first + second).T[:, :, None]
    cores = a * _bump_pieces(x, c, w)[1]
    vals = cores[:count]
    vals[paired] += 0.5 * cores[count:]
    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        row, node = bad[0]
        raise DataError(
            f"non-finite sample {vals[row, node]!r} in bump {row} at node {node} (x={x[node]})"
        )
    return vals
