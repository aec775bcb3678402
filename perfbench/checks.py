"""Output checks for the benchmark workloads, against independent oracles.

Nothing here imports fraclap. CSV columns are read by name and the `seconds`
column is ignored, so a change of column order or the removal of timings
from the CSVs does not break a check. Every bound is an absolute ceiling on
the distance from an oracle, never a comparison with an earlier run, so a
change that makes results more accurate still passes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent

# pointwise operator: truncation radius of fraclap's evaluator and the
# quadrature tolerance it requests
_POINTWISE_RADIUS = 50.0
_POINTWISE_QUAD_TOL = 1e-8


@dataclass
class CheckResult:
    ok: bool
    reason: str = ""
    # accuracy figures of this output, by name (absolute deviations)
    figures: Dict[str, float] = field(default_factory=dict)


def read_config(path: Path) -> Dict[str, str]:
    """`key = value` lines of a fraclap config, comments dropped."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            key, _, value = body.partition("=")
            out[key.strip()] = value.strip()
    return out


def s_values(cfg: Dict[str, str]) -> List[float]:
    return [float(t) for t in cfg["s_list"].split(",") if t.strip()]


def spacing(cfg: Dict[str, str]) -> float:
    lo, hi = float(cfg.get("box_lo", -2.0)), float(cfg.get("box_hi", 2.0))
    return (hi - lo) / (int(cfg.get("n", 513)) - 1)


def read_table(path: Path) -> List[Dict[str, str]]:
    """Rows of a fraclap CSV as dicts keyed by column name; `#` lines skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def without_column(text: str, name: str) -> str:
    """CSV text with one named column removed; other lines unchanged."""
    lines = text.splitlines()
    if not lines or name not in lines[0].split(","):
        return text
    col = lines[0].split(",").index(name)
    out = []
    for line in lines:
        cells = line.split(",")
        if line.startswith("#") or len(cells) <= col:
            out.append(line)
        else:
            out.append(",".join(cells[:col] + cells[col + 1 :]))
    return "\n".join(out) + "\n"


def _block(rows: List[Dict[str, str]], s: float) -> List[Dict[str, str]]:
    return [r for r in rows if math.isclose(float(r["s"]), s, rel_tol=1e-11)]


def ball_solution(s: float, x: float) -> float:
    """Solution of L u = 1 on (-1, 1), u = 0 outside, for the operator
    L g(x) = 4 C int_0^inf (2 g(x) - g(x+z) - g(x-z)) z^(-1-2s) dz with
    C = (1-s)/2: the classical (Getoor) profile rescaled,
    s / (2 Gamma(1+s) Gamma(2-s)) * (1 - x^2)_+^s."""
    return s / (2.0 * math.gamma(1.0 + s) * math.gamma(2.0 - s)) * max(1.0 - x * x, 0.0) ** s


def ball_l2_distance(s: float) -> float:
    """L2 distance between ball_solution and the local solution (1 - x^2)/2,
    from Beta integrals of powers of (1 - x^2), in 30-digit arithmetic."""
    import mpmath

    with mpmath.workdps(30):
        s_ = mpmath.mpf(s)
        c = s_ / (2 * mpmath.gamma(1 + s_) * mpmath.gamma(2 - s_))
        beta = lambda a: mpmath.beta(mpmath.mpf(1) / 2, a + 1)  # noqa: E731
        return float(mpmath.sqrt(c * c * beta(2 * s_) - c * beta(s_ + 1) + beta(2) / 4))


def discretisation_bound(h: float, s: float) -> float:
    """Ceiling on P1 errors against the ball profile: h^(s+1/2), the rate
    set by the (1 - x^2)^s boundary behaviour."""
    return h ** (s + 0.5)


def pointwise_tail_bound(s: float) -> float:
    """fraclap's own error model for the truncated pointwise operator with
    sup|g| = 1: 16 C R^(-2s) / (2s), plus the quadrature tolerance."""
    c = (1.0 - s) / 2.0
    return 16.0 * c * _POINTWISE_RADIUS ** (-2.0 * s) / (2.0 * s) + _POINTWISE_QUAD_TOL


def _rows_for_every_s(rows, cfg) -> Tuple[bool, str]:
    missing = [s for s in s_values(cfg) if not _block(rows, s)]
    if missing:
        return False, f"no rows for s={missing}"
    return True, ""


def check_solve(out_dir: Path, cfg: Dict[str, str]) -> CheckResult:
    """Sup error of every s block against ball_solution stays under the
    discretisation bound; ball_sup_err is the sup error at the largest s."""
    rows = read_table(out_dir / "solve.csv")
    ok, reason = _rows_for_every_s(rows, cfg)
    if not ok:
        return CheckResult(False, reason)
    h, n = spacing(cfg), int(cfg["n"])
    errs = {}
    for s in s_values(cfg):
        block = _block(rows, s)
        if len(block) != n:
            return CheckResult(False, f"s={s}: {len(block)} rows, expected {n}")
        err = max(abs(float(r["u"]) - ball_solution(s, float(r["x"]))) for r in block)
        if not err <= discretisation_bound(h, s):
            return CheckResult(False, f"s={s}: sup error {err:.3e} over {discretisation_bound(h, s):.3e}")
        errs[s] = err
    return CheckResult(True, figures={"ball_sup_err": errs[max(errs)]})


def check_rates(out_dir: Path, cfg: Dict[str, str]) -> CheckResult:
    """err_l2 of every s against the closed-form L2 distance between the
    continuous nonlocal and local solutions (f = 1 on the unit ball)."""
    if cfg.get("f_spec", "constant:1").replace(" ", "") not in ("constant", "constant:1"):
        return CheckResult(False, "the rates oracle needs f_spec = constant:1")
    rows = read_table(out_dir / "rates.csv")
    ok, reason = _rows_for_every_s(rows, cfg)
    if not ok:
        return CheckResult(False, reason)
    h = spacing(cfg)
    worst = 0.0
    for s in s_values(cfg):
        dev = abs(float(_block(rows, s)[0]["err_l2"]) - ball_l2_distance(s))
        if not dev <= discretisation_bound(h, s):
            return CheckResult(False, f"s={s}: err_l2 off the continuum by {dev:.3e}")
        worst = max(worst, dev)
    return CheckResult(True, figures={"l2_oracle_dev": worst})


def check_consistency(out_dir: Path, cfg: Dict[str, str]) -> CheckResult:
    """max_abs_err of every s against the stored mpmath oracle, within
    fraclap's declared truncation error; pointwise_dev is the largest gap."""
    oracle = json.loads((HERE / "oracle" / "consistency-5s.json").read_text(encoding="utf-8"))
    if cfg.get("g_spec", "gaussian") != oracle["g_spec"]:
        return CheckResult(False, "config and stored oracle differ in g_spec")
    rows = read_table(out_dir / "consistency.csv")
    ok, reason = _rows_for_every_s(rows, cfg)
    if not ok:
        return CheckResult(False, reason)
    stored = {float(k): v for k, v in oracle["max_abs_err"].items()}
    worst = 0.0
    for s in s_values(cfg):
        if s not in stored:
            return CheckResult(False, f"no stored oracle for s={s}")
        dev = abs(float(_block(rows, s)[0]["max_abs_err"]) - stored[s])
        if not dev <= pointwise_tail_bound(s):
            return CheckResult(False, f"s={s}: max_abs_err off the oracle by {dev:.3e}")
        worst = max(worst, dev)
    return CheckResult(True, figures={"pointwise_dev": worst})


def check_mollifier(out_dir: Path, cfg: Dict[str, str]) -> CheckResult:
    """Every inequality row passes and its value is within its bound."""
    rows = read_table(out_dir / "mollifier_check.csv")
    if not rows:
        return CheckResult(False, "no rows")
    worst = 0.0
    for r in rows:
        value, bound = float(r["value"]), float(r["bound"])
        if r["passed"] != "true" or not value <= bound:
            return CheckResult(False, f"row {r['name']} fails: {value} > {bound}")
        worst = max(worst, value / bound)
    return CheckResult(True, figures={"worst_row_ratio": worst})


def check_run(rc: int, out_dir: Path, cfg: Dict[str, str], check) -> CheckResult:
    """A run passes when fraclap exited 0 and its output passes `check`."""
    if rc != 0:
        return CheckResult(False, f"exit code {rc}")
    try:
        return check(out_dir, cfg)
    except (OSError, KeyError, ValueError) as exc:
        return CheckResult(False, f"unreadable output: {exc!r}")
