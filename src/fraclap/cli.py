"""Command line front end.

Exit codes: 0 on success, 1 when a check suite reports a failure or a
runtime error occurs, 2 on configuration problems.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path
from typing import List, Optional

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclap",
        description="Finite element experiments for the integral fractional "
        "Laplacian near the local limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, runner_help in _HELP.items():
        p = sub.add_parser(name, help=runner_help, description=runner_help)
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default=None, help="override the configured output directory")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--verbose", action="store_true", help="print the report to stdout")
    return parser


def _run(args: argparse.Namespace) -> int:
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
    args = _build_parser().parse_args(argv)
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
