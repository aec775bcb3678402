"""Plain-text experiment configuration: `key = value` lines, `#` comments,
comma-separated lists.  Unknown keys and keys the experiment does not read
are rejected by name, so neither a typo nor a no-op setting runs silently.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Iterable, NamedTuple, Tuple, Union

from .errors import ConfigError
from .grid import Domain
from .profiles import Profile, _parse_number, make_profile

# the keys each experiment reads besides `experiment` and the CLI's
# `output_dir`; a file that sets any other key is rejected by name.
# consistency integrates over the whole line, so it reads Omega but no box
_OMEGA = ("omega_lo", "omega_hi")
_DOMAIN = _OMEGA + ("box_lo", "box_hi")
_SOLVE = ("s_list", "n", "f_spec", "pert_mode", "pert_profile", "pert_scale") + _DOMAIN
_READS = {
    "kernel_check": (),
    "mollifier_check": ("s_list", "n", "seed") + _DOMAIN,
    "solve": _SOLVE,
    "consistency": ("s_list", "g_spec", "fit_min_s") + _OMEGA,
    "rates": _SOLVE + ("fit_min_s",),
}
EXPERIMENTS = tuple(_READS)

# experiments that assemble or invert the nonlocal operator keep s inside
# the well-conditioned band
_SOLVING = ("rates", "solve", "consistency")
_S_BAND = (0.25, 0.995)


class ExperimentConfig(NamedTuple):
    experiment: str
    s_list: Tuple[float, ...] = ()
    n: int = 513
    omega_lo: float = -1.0
    omega_hi: float = 1.0
    box_lo: float = -2.0
    box_hi: float = 2.0
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
        """The paper's boundary-strip width (1 - s)**(1/s)."""
        return (1.0 - s) ** (1.0 / s)

    def pert_coeff(self, s: float) -> float:
        if self.pert_mode == "none":
            return 0.0
        if self.pert_mode == "shrinking":
            return 1.0 - s
        return self.pert_scale


def _check_known(keys: Iterable[str]) -> None:
    unknown = sorted(set(keys) - set(ExperimentConfig._fields))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': bad integer '{raw}'") from exc


def _read_pairs(path: Union[str, Path]) -> Dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    _check_known(pairs)
    exp = pairs.get("experiment")
    # an unknown experiment reads the keys it sets, and _validate names it
    reads = ("experiment", "output_dir") + _READS.get(exp, tuple(pairs))
    missing = [k for k in ("experiment", "s_list") if k in reads and k not in pairs]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    unread = sorted(set(pairs) - set(reads))
    if unread:
        raise ConfigError(f"experiment '{exp}' does not read config keys: {', '.join(unread)}")

    kwargs: Dict[str, object] = {}
    for key, raw in pairs.items():
        if key == "s_list":
            items = [t.strip() for t in raw.split(",")]
            if not any(items):
                raise ConfigError("s_list must not be empty")
            if not all(items):
                raise ConfigError(f"empty item in s_list '{raw}'")
            kwargs[key] = tuple(_parse_number(t, "key 's_list'") for t in items)
        elif key in ("n", "seed"):
            kwargs[key] = _parse_int(key, raw)
        elif key in ("omega_lo", "omega_hi", "box_lo", "box_hi", "pert_scale", "fit_min_s"):
            kwargs[key] = _parse_number(raw, f"key '{key}'")
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
    # a repeated s would print its row twice and count twice in the fit
    repeats = [s for i, s in enumerate(cfg.s_list) if s in cfg.s_list[:i]]
    if repeats:
        raise ConfigError(f"s_list must not repeat a value, got {repeats[0]} twice")
    if cfg.pert_mode not in ("none", "shrinking", "fixed"):
        raise ConfigError(
            f"pert_mode must be none, shrinking, or fixed, got '{cfg.pert_mode}'"
        )
    if "box_lo" in _READS[cfg.experiment]:
        try:
            dom = cfg.domain
        except ConfigError as exc:
            raise ConfigError(f"bad domain bounds: {exc}") from exc
    elif not (math.isfinite(cfg.omega_lo) and math.isfinite(cfg.omega_hi) and cfg.omega_lo < cfg.omega_hi):
        # no box: only the interval itself must be finite and non-empty
        raise ConfigError(f"bad domain bounds: empty or infinite interval ({cfg.omega_lo}, {cfg.omega_hi})")
    if cfg.experiment in ("rates", "mollifier_check"):
        # the boundary strip of the energy gap and the strip rows must fit
        # inside Omega
        for s in cfg.s_list:
            r = cfg.r_value(s)
            if not r < dom.omega_measure / 2.0:
                raise ConfigError(
                    f"strip width r=(1-s)**(1/s)={r} at s={s} must be below "
                    f"half of |Omega|={dom.omega_measure}"
                )
    for builder in (cfg.f_profile, cfg.g_profile, cfg.pert):
        builder()


def with_overrides(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    """Functional update used by the CLI for --out and --seed; unknown keys
    raise ConfigError."""
    _check_known(kwargs)
    out = cfg._replace(**kwargs)
    _validate(out)
    return out
