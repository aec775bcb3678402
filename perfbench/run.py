"""The fraclap benchmark: CLI workloads in fresh child processes, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fraclap source tree; the package is used from ./src.
Each workload is a fixed config under perfbench/configs; the seed reaches
fraclap only through its --seed option. Every run's outputs are checked
against independent oracles (perfbench/checks.py) and a run that exits
non-zero or fails its check counts as failed.

--trace 0 prints the end-to-end metrics: wall_s (median time of the
fraclap.cli.main call), setup_s (median time from process launch until
fraclap.cli is imported) and peak_rss_mb (median peak RSS of a run).
--trace 1 alternates untraced and traced runs and prints the per-layer
metrics of perfbench/tracing.py, with trace_overhead_s the median over
pairs of traced minus untraced wall time.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Working files
go to .bench_out/ under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low
from typing import Dict, List, Optional

import checks
from tracing import metric_unit

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"

# name -> (fraclap subcommand, output check); configs/<name>.cfg holds the config
WORKLOADS = {
    "rates-4097": ("rates", checks.check_rates),
    "solve-8193": ("solve", checks.check_solve),
    "mollifier-129": ("mollifier-check", checks.check_mollifier),
    "consistency-5s": ("consistency", checks.check_consistency),
}
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


class Bench:
    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.command, self.check = WORKLOADS[workload]
        self.config_path = CONFIGS / f"{workload}.cfg"
        self.config = checks.read_config(self.config_path)
        self.work = root / ".bench_out" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.runs = 0
        threads = str(nproc())
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(HERE)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        for var in BLAS_THREAD_VARS:
            self.env[var] = threads

    def launch(self, mode: str, run_dir: Path, argv: List[str]) -> Optional[dict]:
        """Start one child, wait for it, and return what it wrote (None if
        it wrote nothing)."""
        run_dir.mkdir(parents=True, exist_ok=True)
        result = run_dir / "child.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result), repr(time.monotonic()), mode] + argv
        with open(run_dir / "stderr.txt", "wb") as err:
            try:
                subprocess.run(
                    cmd,
                    cwd=self.root,
                    env=self.env,
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL,
                    stderr=err,
                    timeout=CHILD_TIMEOUT_S,
                    check=False,
                )
            except subprocess.TimeoutExpired:
                return None
        try:
            return json.loads(result.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def warm_up(self) -> None:
        """A discarded child that fills the bytecode and page caches and
        keeps the cores busy just before the measured runs."""
        run_dir = self.work / "warmup"
        self.launch("warmup", run_dir, [])
        shutil.rmtree(run_dir, ignore_errors=True)

    def run_fraclap(self, mode: str) -> dict:
        """One measured fraclap call; its output directory is kept for the
        caller to compare and remove."""
        self.runs += 1
        run_dir = self.work / f"run-{self.runs}"
        out_dir = run_dir / "out"
        argv = [self.command, "--config", str(self.config_path), "--out", str(out_dir), "--seed", str(self.seed)]
        child = self.launch(mode, run_dir, argv)
        if child is None:
            tail = (run_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-300:]
            return {"ok": False, "reason": f"no result from child: {tail.strip()}", "dir": run_dir}
        verdict = checks.check_run(child["rc"], out_dir, self.config, self.check)
        child.update(ok=verdict.ok, reason=verdict.reason, figures=verdict.figures, dir=run_dir)
        return child


def outputs(out_dir: Path) -> Dict[str, str]:
    """fraclap's output files with the `seconds` column taken out."""
    found = {}
    for path in sorted(out_dir.glob("*")):
        text = path.read_text(encoding="utf-8")
        found[path.name] = checks.without_column(text, "seconds") if path.suffix == ".csv" else text
    return found


def timed(bench: Bench, seconds: float) -> tuple:
    bench.warm_up()
    samples = []
    start = time.monotonic()
    while not samples or time.monotonic() - start < seconds:
        sample = bench.run_fraclap("timed")
        shutil.rmtree(sample.pop("dir"), ignore_errors=True)
        samples.append(sample)
    measured = [s for s in samples if "wall_s" in s]
    if not measured:
        return samples, None
    metrics = {
        "wall_s": (median([s["wall_s"] for s in measured]), "s"),
        "setup_s": (median([s["setup_s"] for s in measured]), "s"),
        "peak_rss_mb": (median([s["peak_rss_mb"] for s in measured]), "MB"),
    }
    return samples, metrics


def traced(bench: Bench, seconds: float) -> tuple:
    samples, traced_runs, overheads = [], [], []
    bench.warm_up()
    start = time.monotonic()
    while not samples or time.monotonic() - start < seconds:
        a = bench.run_fraclap("timed")
        b = bench.run_fraclap("traced")
        if a["ok"] and b["ok"] and outputs(a["dir"] / "out") != outputs(b["dir"] / "out"):
            b.update(ok=False, reason="traced output differs from the untraced one")
        if "layers" in b:
            shutil.copy(b["dir"] / "spans.json", bench.work / f"spans-seed{bench.seed}.json")
        for s in (a, b):
            shutil.rmtree(s.pop("dir"), ignore_errors=True)
            samples.append(s)
        if "wall_s" in a and "layers" in b:
            traced_runs.append(b)
            # paired difference: slow drifts of machine speed cancel
            overheads.append(b["wall_s"] - a["wall_s"])
    if not traced_runs:
        return samples, None
    # median_low keeps counts whole: it always returns one run's value
    metrics = {
        key: (median_low([t["layers"][key] for t in traced_runs]), metric_unit(key))
        for key in traced_runs[0]["layers"]
    }
    metrics["traced_wall_s"] = (median([t["wall_s"] for t in traced_runs]), "s")
    metrics["trace_overhead_s"] = (median(overheads), "s")
    return samples, metrics


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fraclap" / "cli.py").is_file():
        print(f"error: no fraclap sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    samples, metrics = (traced if args.trace else timed)(bench, args.seconds)
    failed = [s for s in samples if not s["ok"]]
    if metrics is None:
        print(f"error: no run of {args.workload} produced a measurement: {failed[0]['reason']}", file=sys.stderr)
        return 1
    env = {
        "python": platform.python_version(),
        **next((s["versions"] for s in samples if "versions" in s), {}),
        "blas_threads": bench.env[BLAS_THREAD_VARS[0]],
        "nproc": nproc(),
        "machine": platform.machine(),
        "commit": git_commit(root),
    }
    figures: Dict[str, List[float]] = {}
    for s in samples:
        for name, value in s.get("figures", {}).items():
            figures.setdefault(name, []).append(value)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "figures": {k: max(v) for k, v in figures.items()},
        "samples": samples,
    }
    (bench.work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    print("env " + json.dumps(env))
    print(f"{args.workload}: {len(samples)} runs, {len(failed)} failed; values are medians over runs")
    for s in failed:
        print(f"  failed: {s['reason']}")
    rows = dict(metrics)
    rows["fail_frac"] = (len(failed) / len(samples), "ratio")
    rows.update({k: (max(v), "abs") for k, v in figures.items()})
    if args.trace:
        # self times first, largest first
        order = sorted(rows, key=lambda k: (not k.endswith(".self_s"), -rows[k][0] if k.endswith(".self_s") else 0, k))
        rows = {k: rows[k] for k in order}
    for key, (value, unit) in rows.items():
        print(f"  {key:28s} {value:.6g} {unit}")
    if args.trace:
        layer_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        print(
            f"  layer self times sum to {layer_sum:.6g} s of {metrics['traced_wall_s'][0]:.6g} s traced wall;"
            f" the rest is probe time ({metrics['trace_probe_s'][0]:.6g} s) and run-to-run difference"
        )
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(samples),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
