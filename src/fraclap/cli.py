"""Command line front end.

Exit codes: 0 on success, 1 when a check suite reports a failure or a
runtime error occurs, 2 on configuration problems and on usage errors.
The one option set is parsed directly: building argparse's parsers took
a few ms and 0.3 MB of every run (README, performance notes).
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path
from typing import List, NamedTuple, NoReturn, Optional

from .config import parse_config, with_overrides
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .experiments import (
    run_consistency,
    run_kernel_check,
    run_mollifier_check,
    run_rates,
    run_solve,
)
from .report import CheckReport, SweepReport, emit_csv, emit_svg

_RUNNERS = {
    "kernel-check": run_kernel_check,
    "mollifier-check": run_mollifier_check,
    "solve": run_solve,
    "consistency": run_consistency,
    "rates": run_rates,
}
_HELP = {
    "kernel-check": "verify closed-form kernel identities against quadrature",
    "mollifier-check": "run the seeded random-bump smoothing inequality suite",
    "solve": "solve the nonlocal Dirichlet problem for each s",
    "consistency": "compare the pointwise operator with the negative second derivative",
    "rates": "measure the error decay of the local limit as s approaches 1",
}
_USAGE = "usage: fraclap <subcommand> --config PATH [--out DIR] [--seed INT] [--verbose]"
_OPTIONS = """options:
  --config PATH  path to a key=value config file
  --out DIR      override the configured output directory
  --seed INT     override the configured seed
  --verbose      print the report to stdout
  -h, --help     show this help and exit"""


class _Args(NamedTuple):
    command: str
    config: str
    out: Optional[str]
    seed: Optional[int]
    verbose: bool


def _usage_error(message: str) -> NoReturn:
    print(_USAGE, f"fraclap: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _print_help() -> NoReturn:
    width = max(map(len, _HELP))
    commands = "\n".join(f"  {name:<{width}}  {text}" for name, text in _HELP.items())
    print(
        f"{_USAGE}\n\nFinite element experiments for the integral fractional "
        f"Laplacian near the local limit.\n\nsubcommands:\n{commands}\n\n{_OPTIONS}"
    )
    raise SystemExit(0)


def _parse(argv: List[str]) -> _Args:
    """The subcommand, then the options in any order.  A valued option is
    `--name value` or `--name=value`, and a repeated one keeps its last
    value.  Options are matched by their full name only."""
    tokens = iter(argv)
    command = next(tokens, None)
    if command in ("-h", "--help"):
        _print_help()
    if command not in _RUNNERS:
        choices = ", ".join(_RUNNERS)
        if command is None:
            _usage_error(f"missing subcommand (choose from {choices})")
        _usage_error(f"invalid subcommand {command!r} (choose from {choices})")
    values = {"--config": None, "--out": None, "--seed": None}
    verbose = False
    for token in tokens:
        if token in ("-h", "--help"):
            _print_help()
        if token == "--verbose":
            verbose = True
            continue
        name, eq, value = token.partition("=")
        if name not in values:
            _usage_error(f"unrecognized argument {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--") or value == "-h":
                _usage_error(f"argument {name}: expected one value")
        if name == "--seed":
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument --seed: invalid int value: {value!r}")
        values[name] = value
    if values["--config"] is None:
        _usage_error("the option --config PATH is required")
    return _Args(command, values["--config"], values["--out"], values["--seed"], verbose)


def _run(args: _Args) -> int:
    cfg = parse_config(args.config)
    stem = args.command.replace("-", "_")
    if cfg.experiment != stem:
        raise ConfigError(
            f"config declares experiment '{cfg.experiment}' but the "
            f"'{args.command}' subcommand was invoked"
        )
    overrides = {}
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = with_overrides(cfg, **overrides)

    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory '{out_dir}': {exc}") from exc

    report = _RUNNERS[args.command](cfg)
    csv_path = out_dir / f"{stem}.csv"
    emit_csv(report, csv_path)
    if isinstance(report, SweepReport):
        emit_svg(report, out_dir / f"{stem}.svg")
    if args.verbose:
        with csv_path.open(encoding="utf-8", newline="") as fh:
            shutil.copyfileobj(fh, sys.stdout)
    if isinstance(report, CheckReport) and not report.passed:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ShapeError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
