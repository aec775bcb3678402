"""Plain-text experiment configuration: `key = value` lines, `#` comments,
comma-separated lists.  Unknown keys are rejected by name so typos fail
loudly instead of silently running defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, Tuple, Union

from .errors import ConfigError
from .grid import Domain
from .profiles import Profile, make_profile

EXPERIMENTS = ("kernel_check", "mollifier_check", "solve", "consistency", "rates")

# experiments that assemble or invert the nonlocal operator keep s inside
# the well-conditioned band
_SOLVING = ("rates", "solve", "consistency")
_S_BAND = (0.25, 0.995)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    s_list: Tuple[float, ...]
    n: int = 513
    eps: float = 0.0
    omega_lo: float = -1.0
    omega_hi: float = 1.0
    box_lo: float = -2.0
    box_hi: float = 2.0
    r_rule: str = "paper"
    f_spec: str = "constant:1"
    g_spec: str = "gaussian"
    pert_mode: str = "none"
    pert_profile: str = "bump:amplitude=1,center=0,width=0.5"
    pert_scale: float = 0.1
    fit_min_s: float = 0.6
    output_dir: str = "out"
    seed: int = 42

    @property
    def domain(self) -> Domain:
        return Domain(self.omega_lo, self.omega_hi, self.box_lo, self.box_hi)

    def f_profile(self) -> Profile:
        return make_profile(self.f_spec)

    def g_profile(self) -> Profile:
        return make_profile(self.g_spec)

    def pert(self) -> Profile:
        return make_profile(self.pert_profile)

    def r_value(self, s: float) -> float:
        if self.r_rule == "paper":
            return (1.0 - s) ** (1.0 / s)
        return float(self.r_rule.split(":", 1)[1])

    def pert_coeff(self, s: float) -> float:
        if self.pert_mode == "none":
            return 0.0
        if self.pert_mode == "shrinking":
            return 1.0 - s
        return self.pert_scale


_FIELD_NAMES = tuple(f.name for f in fields(ExperimentConfig))
_REQUIRED = ("experiment", "s_list")


def _parse_float(key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': bad number '{raw}'") from exc
    if not math.isfinite(v):
        raise ConfigError(f"key '{key}': value must be finite, got {raw}")
    return v


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': bad integer '{raw}'") from exc


def _read_pairs(path: Union[str, Path]) -> Dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    pairs: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, eq, value = body.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{body}'")
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        pairs[key] = value.strip()
    return pairs


def parse_config(path: Union[str, Path]) -> ExperimentConfig:
    """Read, type, and validate a config file; defaults fill missing keys."""
    pairs = _read_pairs(path)
    unknown = sorted(set(pairs) - set(_FIELD_NAMES))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED if k not in pairs]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    kwargs: Dict[str, object] = {}
    for key, raw in pairs.items():
        if key == "s_list":
            items = [t.strip() for t in raw.split(",") if t.strip()]
            if not items:
                raise ConfigError("s_list must not be empty")
            kwargs[key] = tuple(_parse_float("s_list", t) for t in items)
        elif key in ("n", "seed"):
            kwargs[key] = _parse_int(key, raw)
        elif key in ("eps", "omega_lo", "omega_hi", "box_lo", "box_hi", "pert_scale", "fit_min_s"):
            kwargs[key] = _parse_float(key, raw)
        else:
            kwargs[key] = raw
    cfg = ExperimentConfig(**kwargs)  # type: ignore[arg-type]
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment '{cfg.experiment}'; expected one of: "
            + ", ".join(EXPERIMENTS)
        )
    for s in cfg.s_list:
        if not 0.0 < s < 1.0:
            raise ConfigError(f"s_list values must lie in (0, 1), got {s}")
    if cfg.experiment in _SOLVING:
        lo, hi = _S_BAND
        for s in cfg.s_list:
            if not lo <= s <= hi:
                raise ConfigError(
                    f"experiment '{cfg.experiment}' needs s in [{lo}, {hi}], got {s}"
                )
    if cfg.n < 33:
        raise ConfigError(f"n must be at least 33, got {cfg.n}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if not 0.0 <= cfg.eps < 1.0:
        raise ConfigError(f"eps must lie in [0, 1), got {cfg.eps}")
    if not cfg.output_dir:
        raise ConfigError("output_dir must not be empty")
    if not 0.0 < cfg.fit_min_s < 1.0:
        raise ConfigError(f"fit_min_s must lie in (0, 1), got {cfg.fit_min_s}")
    if cfg.experiment in ("rates", "consistency"):
        # the sweep report fits its decay through the s >= fit_min_s
        fitted = {s for s in cfg.s_list if s >= cfg.fit_min_s}
        if len(fitted) < 2:
            raise ConfigError(
                f"experiment '{cfg.experiment}' needs at least two distinct s >= "
                f"fit_min_s={cfg.fit_min_s} for its fit, got {len(fitted)}"
            )
    if cfg.pert_mode not in ("none", "shrinking", "fixed"):
        raise ConfigError(
            f"pert_mode must be none, shrinking, or fixed, got '{cfg.pert_mode}'"
        )
    if cfg.r_rule != "paper":
        head, sep, tail = cfg.r_rule.partition(":")
        if head != "fixed" or not sep:
            raise ConfigError(f"r_rule must be one of paper or fixed:<value>, got '{cfg.r_rule}'")
        v = _parse_float("r_rule", tail)
        if v <= 0.0:
            raise ConfigError(f"r_rule fixed value must be positive, got {v}")
    try:
        dom = cfg.domain
    except ConfigError as exc:
        raise ConfigError(f"bad domain bounds: {exc}") from exc
    if cfg.experiment in ("rates", "mollifier_check"):
        # the boundary strip of the energy gap and the strip rows must fit
        # inside Omega
        for s in cfg.s_list:
            r = cfg.r_value(s)
            if not r < dom.omega_measure / 2.0:
                raise ConfigError(
                    f"r_rule '{cfg.r_rule}' gives strip width r={r} at s={s}, "
                    f"which must be below half of |Omega|={dom.omega_measure}"
                )
    for builder in (cfg.f_profile, cfg.g_profile, cfg.pert):
        builder()


def with_overrides(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    """Functional update used by the CLI for --out and --seed."""
    out = replace(cfg, **kwargs)
    _validate(out)
    return out
