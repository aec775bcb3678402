"""Report containers, least-squares slope fitting, and deterministic CSV /
SVG emission.

Byte determinism is a contract: fixed inputs must reproduce identical files,
so formatting is pinned to %.12g for data and fixed-precision pixel
coordinates for plots, with no timestamps or environment-dependent content.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, ShapeError


def _fmt(v: float) -> str:
    return "%.12g" % v


def fit_line(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, r_squared)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ConfigError("fit_line needs two equally sized 1-d sequences")
    if xa.size < 2 or np.ptp(xa) == 0.0:
        raise ConfigError("fit_line needs at least two distinct x values")
    xm = xa.mean()
    ym = ya.mean()
    sxx = float(np.sum((xa - xm) ** 2))
    slope = float(np.sum((xa - xm) * (ya - ym)) / sxx)
    intercept = ym - slope * xm
    resid = ya - (intercept + slope * xa)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ya - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, float(intercept), float(r2)


def _fit_loglog(pts: Sequence[Tuple[float, float]]) -> Tuple[float, float, float]:
    """Fit y = c * x**slope through positive points; returns (slope, r2, c)."""
    usable = [(px, py) for px, py in pts if px > 0.0 and py > 0.0]
    if len(usable) < 2:
        raise ConfigError("need at least two positive points for a log-log fit")
    lx = [math.log(px) for px, _ in usable]
    ly = [math.log(py) for _, py in usable]
    slope, intercept, r2 = fit_line(lx, ly)
    return slope, r2, math.exp(intercept)


class RateRow(NamedTuple):
    s: float
    l2_err: float
    total_ws2_err: float
    energy_gap: float

    header = "s,one_minus_s,err_ws2_sq,err_l2,energy_gap"
    ylabel = "error norm"

    @property
    def fitted(self) -> float:
        return self.total_ws2_err

    def csv_values(self) -> Tuple[float, ...]:
        err_sq = self.total_ws2_err**2
        return (self.s, 1.0 - self.s, err_sq, self.l2_err, self.energy_gap)


class ConsistencyRow(NamedTuple):
    s: float
    max_abs_err: float

    header = "s,one_minus_s,max_abs_err"
    ylabel = "max pointwise error"

    @property
    def fitted(self) -> float:
        return self.max_abs_err

    def csv_values(self) -> Tuple[float, ...]:
        return (self.s, 1.0 - self.s, self.max_abs_err)


SweepRow = Union[RateRow, ConsistencyRow]


class SweepReport(NamedTuple):
    """Sweep over s, one row type per report, with a log-log fit of each
    row's fitted value against 1-s over the rows with s >= fit_min_s."""

    rows: Tuple[SweepRow, ...]
    slope: float
    r2: float
    c_emp: float

    def csv_chunks(self) -> Iterator[str]:
        yield self.rows[0].header + "\n"
        for r in self.rows:
            yield ",".join(_fmt(v) for v in r.csv_values()) + "\n"
        yield f"# slope={_fmt(self.slope)} r2={_fmt(self.r2)}\n"


def build_sweep_report(rows: Iterable[SweepRow], fit_min_s: float) -> SweepReport:
    ordered = tuple(sorted(rows, key=lambda r: r.s))
    fit_pts = [(1.0 - r.s, r.fitted) for r in ordered if r.s >= fit_min_s]
    slope, r2, c_emp = _fit_loglog(fit_pts)
    return SweepReport(rows=ordered, slope=slope, r2=r2, c_emp=c_emp)


class CheckRow(NamedTuple):
    name: str
    value: float
    bound: float
    passed: bool


class CheckReport(NamedTuple):
    rows: Tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def csv_chunks(self) -> Iterator[str]:
        yield "name,value,bound,passed\n"
        for r in self.rows:
            yield f"{r.name},{_fmt(r.value)},{_fmt(r.bound)},{'true' if r.passed else 'false'}\n"


# Rows per streamed solve CSV chunk: the writer's working set is a few
# chunks, whatever the number of nodes and blocks.
_CSV_ROWS = 4096


def _frozen_column(values, what: str) -> np.ndarray:
    col = np.asarray(values, dtype=float)
    if col.ndim != 1:
        raise ShapeError(f"{what} must be 1-d, got shape {col.shape}")
    if col.flags.writeable:  # share read-only arrays; never freeze the caller's
        col = col.copy()
        col.flags.writeable = False
    return col


class SolveReport:
    """Nodal solution values on one x column, one block (s, u) per s, in
    long (s, x, u) form. x and every u are read-only float64 arrays."""

    __slots__ = ("x", "blocks")

    def __init__(self, x: np.ndarray, blocks: Tuple[Tuple[float, np.ndarray], ...]) -> None:
        x = _frozen_column(x, "solve x column")
        frozen = []
        for s, u in blocks:
            u = _frozen_column(u, f"solve block s={_fmt(s)}")
            if u.size != x.size:
                raise ShapeError(
                    f"solve block s={_fmt(s)} has {x.size} x values but {u.size} u values"
                )
            frozen.append((s, u))
        self.x, self.blocks = x, tuple(frozen)

    def csv_chunks(self) -> Iterator[str]:
        """The CSV text in order: the header, then at most _CSV_ROWS rows
        per chunk."""
        yield "s,x,u\n"
        # Each chunk's template holds its rows' "<x>,%.12g\n", formatted once
        # for every block. %.12g output holds no "%" or newline, so a block
        # puts "<s>," before each row of a template and fills its u
        # placeholders in one C-level % pass.
        starts = range(0, self.x.size, _CSV_ROWS)
        templates = []
        for lo in starts:
            xs = tuple(self.x[lo : lo + _CSV_ROWS].tolist())
            templates.append("%.12g,%%.12g\n" * len(xs) % xs)
        for s, u in self.blocks:
            prefix = _fmt(s) + ","
            for lo, template in zip(starts, templates):
                us = tuple(u[lo : lo + _CSV_ROWS].tolist())
                yield (prefix + template.replace("\n", "\n" + prefix, len(us) - 1)) % us


def _write(path: Union[str, Path], chunks: Iterable[str]) -> None:
    target = Path(path)
    try:
        with target.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {target}: {exc}") from exc


def emit_csv(report, path: Union[str, Path]) -> None:
    """Write the report's CSV form as its chunks come; byte-identical for
    identical reports."""
    _write(path, report.csv_chunks())


_W, _H = 640.0, 480.0
_LEFT, _RIGHT, _TOP, _BOT = 80.0, 610.0, 30.0, 420.0


def _log_range(vals: Sequence[float]) -> Tuple[float, float]:
    lo = math.log10(min(vals))
    hi = math.log10(max(vals))
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def emit_svg(report: SweepReport, path: Union[str, Path]) -> None:
    """Log-log scatter of the report's points with its fitted power law.

    Markers are circle elements (one per point), the fit is the single line
    element, axes and ticks are path elements; output bytes depend only on
    the report contents.
    """
    if not isinstance(report, SweepReport):
        raise ConfigError(f"report type {type(report).__name__} has no plottable points")
    pts = [(1.0 - r.s, r.fitted) for r in report.rows if r.s < 1.0 and r.fitted > 0.0]

    if pts:
        xr = _log_range([p[0] for p in pts])
        yr = _log_range([p[1] for p in pts])
    else:
        xr, yr = (-1.0, 0.0), (-1.0, 0.0)

    def px(lx: float) -> float:
        return _LEFT + (lx - xr[0]) / (xr[1] - xr[0]) * (_RIGHT - _LEFT)

    def py(ly: float) -> float:
        return _BOT - (ly - yr[0]) / (yr[1] - yr[0]) * (_BOT - _TOP)

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" '
        f'height="{_H:.0f}" viewBox="0 0 {_W:.0f} {_H:.0f}">'
    )
    parts.append(f'<rect x="0" y="0" width="{_W:.0f}" height="{_H:.0f}" fill="white"/>')

    xticks = np.linspace(xr[0], xr[1], 5)[1:-1]
    yticks = np.linspace(yr[0], yr[1], 5)[1:-1]
    xaxis = [f"M {_LEFT:.2f} {_BOT:.2f} L {_RIGHT:.2f} {_BOT:.2f}"]
    for t in xticks:
        xaxis.append(f"M {px(t):.2f} {_BOT:.2f} L {px(t):.2f} {_BOT + 6:.2f}")
    yaxis = [f"M {_LEFT:.2f} {_BOT:.2f} L {_LEFT:.2f} {_TOP:.2f}"]
    for t in yticks:
        yaxis.append(f"M {_LEFT:.2f} {py(t):.2f} L {_LEFT - 6:.2f} {py(t):.2f}")
    parts.append(f'<path d="{" ".join(xaxis)}" stroke="black" fill="none"/>')
    parts.append(f'<path d="{" ".join(yaxis)}" stroke="black" fill="none"/>')
    for t in xticks:
        parts.append(
            f'<text x="{px(t):.2f}" y="{_BOT + 22:.2f}" font-size="12" '
            f'text-anchor="middle">{10.0**t:.2g}</text>'
        )
    for t in yticks:
        parts.append(
            f'<text x="{_LEFT - 10:.2f}" y="{py(t) + 4:.2f}" font-size="12" '
            f'text-anchor="end">{10.0**t:.2g}</text>'
        )
    parts.append(
        f'<text x="{0.5 * (_LEFT + _RIGHT):.2f}" y="{_H - 12:.2f}" font-size="14" '
        f'text-anchor="middle">1-s</text>'
    )
    parts.append(
        f'<text x="16" y="{0.5 * (_TOP + _BOT):.2f}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 16 {0.5 * (_TOP + _BOT):.2f})">'
        f"{report.rows[0].ylabel}</text>"
    )

    slope, c_emp = report.slope, report.c_emp
    if c_emp > 0.0 and pts:
        # fitted model y = c * x**slope, drawn across the padded x range
        y0 = math.log10(c_emp) + slope * xr[0]
        y1 = math.log10(c_emp) + slope * xr[1]
        parts.append(
            f'<line x1="{px(xr[0]):.2f}" y1="{py(y0):.2f}" x2="{px(xr[1]):.2f}" '
            f'y2="{py(y1):.2f}" stroke="#d62728" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_RIGHT - 8:.2f}" y="{_TOP + 16:.2f}" font-size="13" '
            f'text-anchor="end">slope={slope:.3g}</text>'
        )
    for qx, qy in pts:
        parts.append(
            f'<circle cx="{px(math.log10(qx)):.2f}" cy="{py(math.log10(qy)):.2f}" '
            f'r="4" fill="#1f77b4"/>'
        )
    parts.append("</svg>")
    _write(path, ["\n".join(parts) + "\n"])
