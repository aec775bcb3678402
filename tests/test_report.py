import tracemalloc

import numpy as np
import pytest

from fraclap.errors import ConfigError, ShapeError
from fraclap.report import (
    CheckReport,
    CheckRow,
    ConsistencyRow,
    RateRow,
    SolveReport,
    _CSV_ROWS,
    build_sweep_report,
    emit_csv,
    emit_svg,
    fit_line,
)
from helpers import csv_text, solve_csv_rows


def rate_row(s: float, err: float) -> RateRow:
    return RateRow(s=s, l2_err=err / 10.0, total_ws2_err=err, energy_gap=err / 5.0)


def consistency_row(s: float, err: float) -> ConsistencyRow:
    return ConsistencyRow(s=s, max_abs_err=err)


# (row factory, CSV header, value of the third CSV column for error err,
# SVG y-axis label), one per sweep row type
SWEEP_ROWS = pytest.mark.parametrize(
    "make_row,header,third,ylabel",
    [
        pytest.param(
            rate_row,
            "s,one_minus_s,err_ws2_sq,err_l2,energy_gap",
            lambda err: err**2,
            "error norm",
            id="RateRow",
        ),
        pytest.param(
            consistency_row,
            "s,one_minus_s,max_abs_err",
            lambda err: err,
            "max pointwise error",
            id="ConsistencyRow",
        ),
    ],
)


class TestFitLine:
    def test_recovers_slope_and_intercept(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0.0, 1.0, 20)
        y = 2.0 * x + 0.5 + rng.normal(0.0, 1e-9, x.size)
        slope, intercept, r2 = fit_line(x, y)
        assert slope == pytest.approx(2.0, abs=1e-6)
        assert intercept == pytest.approx(0.5, abs=1e-6)
        assert r2 > 1.0 - 1e-12

    def test_flat_data_has_unit_r2(self):
        slope, intercept, r2 = fit_line([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
        assert slope == 0.0
        assert intercept == 3.0
        assert r2 == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            fit_line([1.0], [2.0])
        with pytest.raises(ConfigError):
            fit_line([1.0, 1.0], [2.0, 3.0])
        with pytest.raises(ConfigError):
            fit_line([1.0, 2.0], [1.0, 2.0, 3.0])


@SWEEP_ROWS
class TestSweepReport:
    @pytest.mark.parametrize(
        "c,rate,s_list,fit_min_s",
        [(0.7, 0.9, (0.6, 0.7, 0.8, 0.9, 0.95), 0.6), (2.0, 1.0, (0.6, 0.8, 0.95), 0.5)],
        ids=["c0.7-slope0.9", "c2-slope1"],
    )
    def test_fit_recovers_power_law(self, make_row, header, third, ylabel, c, rate, s_list, fit_min_s):
        rows = [make_row(s, c * (1.0 - s) ** rate) for s in s_list]
        rep = build_sweep_report(rows, fit_min_s=fit_min_s)
        assert rep.slope == pytest.approx(rate, rel=1e-10)
        assert rep.c_emp == pytest.approx(c, rel=1e-10)
        assert rep.r2 == pytest.approx(1.0, abs=1e-12)

    def test_rows_sorted_and_fit_window_respected(self, make_row, header, third, ylabel):
        # rows below fit_min_s appear in the table but not in the fit
        rows = [make_row(0.9, 0.1), make_row(0.5, 99.0), make_row(0.7, 0.3)]
        rep = build_sweep_report(rows, fit_min_s=0.6)
        assert [r.s for r in rep.rows] == [0.5, 0.7, 0.9]
        window = build_sweep_report(
            [make_row(0.9, 0.1), make_row(0.7, 0.3)], fit_min_s=0.6
        )
        assert rep.slope == pytest.approx(window.slope, rel=1e-12)

    def test_csv_schema(self, make_row, header, third, ylabel):
        rep = build_sweep_report([make_row(0.7, 0.3), make_row(0.9, 0.1)], 0.6)
        lines = csv_text(rep).splitlines()
        assert lines[0] == header
        assert len(lines) == 4
        assert lines[-1].startswith("# slope=")
        first = lines[1].split(",")
        assert float(first[0]) == 0.7
        assert float(first[1]) == pytest.approx(0.3)
        assert float(first[2]) == pytest.approx(third(0.3))


class TestCheckReport:
    def test_pass_fail_aggregation(self):
        good = CheckRow(name="a", value=0.1, bound=1.0, passed=True)
        bad = CheckRow(name="b", value=2.0, bound=1.0, passed=False)
        assert CheckReport(rows=(good,)).passed
        assert not CheckReport(rows=(good, bad)).passed

    def test_csv_booleans(self):
        rep = CheckReport(
            rows=(
                CheckRow(name="a", value=0.5, bound=1.0, passed=True),
                CheckRow(name="b", value=2.0, bound=1.0, passed=False),
            )
        )
        lines = csv_text(rep).splitlines()
        assert lines[0] == "name,value,bound,passed"
        assert lines[1].endswith(",true")
        assert lines[2].endswith(",false")


class TestSolveReport:
    def test_long_form_csv(self):
        rep = SolveReport(x=(0.0, 0.5), blocks=((0.5, (1.0, 2.0)), (0.7, (3.0, 4.0))))
        lines = csv_text(rep).splitlines()
        assert lines[0] == "s,x,u"
        assert len(lines) == 5
        assert lines[3].split(",")[0] == "0.7"

    def test_rows_are_each_value_at_twelve_digits(self):
        rng = np.random.default_rng(5)
        us = (rng.standard_normal(40) * 10.0 ** rng.integers(-30, 30, 40)).tolist()
        us += [0.0, -0.0, 1e-300, -7.5e300, float("inf"), float("nan")]
        xs = np.linspace(-1.0, 1.0, len(us)).tolist()
        rep = SolveReport(x=tuple(xs), blocks=((0.99, tuple(us)), (1.0 / 3.0, tuple(us[::-1]))))
        want = ["s,x,u"] + [
            ",".join("%.12g" % v for v in (s, x, u)) for s, bu in rep.blocks for x, u in zip(rep.x, bu)
        ]
        assert csv_text(rep) == "\n".join(want) + "\n"

    @staticmethod
    def _values(n_random: int, seed: int):
        rng = np.random.default_rng(seed)
        us = (rng.standard_normal(n_random) * 10.0 ** rng.integers(-30, 30, n_random)).tolist()
        return tuple(us + [0.0, -0.0, 1e-300, -7.5e300, float("inf"), float("nan")])

    def test_blocks_sharing_one_x_column_match_row_oracle(self):
        us = self._values(40, 1)
        xs = tuple(np.linspace(-1.0, 1.0, len(us)).tolist())
        blocks = tuple((s, us[::-1] if k % 2 else us) for k, s in enumerate((0.5, 0.7, 0.9, 0.99)))
        assert csv_text(SolveReport(x=xs, blocks=blocks)) == solve_csv_rows(xs, blocks)

    def test_equal_but_distinct_x_columns_match_row_oracle(self):
        # equal tuples whose zeros differ in sign still print differently
        zeros = ((0.0, 1.0), (-0.0, 1.0))
        blocks = ((0.8, (1.0, 2.0)), (0.9, (1.0, 2.0)))
        texts = [csv_text(SolveReport(x=xs, blocks=blocks)) for xs in zeros]
        assert zeros[0] == zeros[1] and texts[0] != texts[1]
        assert texts == [solve_csv_rows(xs, blocks) for xs in zeros]

    def test_empty_block_matches_row_oracle(self):
        blocks = ((0.5, ()), (0.7, ()), (0.9, ()))
        assert csv_text(SolveReport(x=(), blocks=blocks)) == solve_csv_rows((), blocks)
        assert csv_text(SolveReport(x=(), blocks=((0.5, ()),))) == "s,x,u\n"
        assert csv_text(SolveReport(x=(0.0, 1.0), blocks=())) == "s,x,u\n"

    def test_mismatched_block_lengths_rejected(self):
        good = (0.5, (2.0, 3.0))
        with pytest.raises(ShapeError, match=r"s=0\.7 has 2 x values but 1 u values"):
            SolveReport(x=(0.0, 1.0), blocks=(good, (0.7, (2.0,))))

    def test_columns_that_are_not_1d_rejected(self):
        with pytest.raises(ShapeError, match=r"x column must be 1-d, got shape \(1, 2\)"):
            SolveReport(x=((0.0, 1.0),), blocks=())
        with pytest.raises(ShapeError, match=r"s=0\.5 must be 1-d, got shape \(2, 2\)"):
            SolveReport(x=(0.0, 1.0), blocks=((0.5, ((1.0, 2.0), (3.0, 4.0))),))

    def test_columns_are_read_only_copies_of_writable_input(self):
        xs = np.array([0.0, 1.0])
        us = np.array([2.0, 3.0])
        rep = SolveReport(x=xs, blocks=((0.5, us),))
        xs[0] = us[0] = 9.0
        assert rep.x.tolist() == [0.0, 1.0] and rep.blocks[0][1].tolist() == [2.0, 3.0]
        assert not rep.x.flags.writeable and not rep.blocks[0][1].flags.writeable

    @pytest.mark.parametrize("n", [_CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS + 1])
    @pytest.mark.parametrize("as_array", [False, True], ids=["tuples", "arrays"])
    def test_chunk_boundaries_match_row_oracle(self, tmp_path, n, as_array):
        us = self._values(n - 6, n)
        xs = tuple(np.linspace(-1.0, 1.0, n).tolist())
        blocks = ((0.5, us), (0.9, us[::-1]))
        want = solve_csv_rows(xs, blocks)
        if as_array:
            xs, blocks = np.array(xs), tuple((s, np.array(u)) for s, u in blocks)
        rep = SolveReport(x=xs, blocks=blocks)
        assert csv_text(rep) == want
        emit_csv(rep, tmp_path / "solve.csv")
        assert (tmp_path / "solve.csv").read_bytes() == want.encode("utf-8")


class TestEmitCsv:
    def test_writes_exact_bytes(self, tmp_path):
        rep = CheckReport(rows=(CheckRow(name="a", value=0.5, bound=1.0, passed=True),))
        out = tmp_path / "r.csv"
        emit_csv(rep, out)
        assert out.read_bytes() == b"name,value,bound,passed\na,0.5,1,true\n"

    def test_unwritable_target(self, tmp_path):
        rep = CheckReport(rows=())
        with pytest.raises(ConfigError, match="cannot write"):
            emit_csv(rep, tmp_path)

    def test_unwritable_target_for_streamed_report(self, tmp_path):
        rep = SolveReport(x=(0.0, 1.0), blocks=((0.5, (2.0, 3.0)),))
        with pytest.raises(ConfigError, match="cannot write"):
            emit_csv(rep, tmp_path)

    @staticmethod
    def _peak_bytes(report, path) -> int:
        tracemalloc.start()
        try:
            emit_csv(report, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_solve_writer_memory_does_not_grow_with_blocks(self, tmp_path):
        n = 4 * _CSV_ROWS + 1
        rng = np.random.default_rng(3)
        xs = np.linspace(-1.0, 1.0, n)
        peaks = []
        for count in (2, 8):
            blocks = tuple((0.5 + 0.05 * k, rng.standard_normal(n)) for k in range(count))
            rep = SolveReport(x=xs, blocks=blocks)
            peaks.append(self._peak_bytes(rep, tmp_path / f"solve{count}.csv"))
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestEmitSvg:
    def test_element_counts(self, tmp_path):
        rep = build_sweep_report([rate_row(0.7, 0.3), rate_row(0.9, 0.1)], 0.6)
        out = tmp_path / "r.svg"
        emit_svg(rep, out)
        text = out.read_text(encoding="utf-8")
        assert text.count("<circle") == 2
        assert text.count("<line") == 1
        assert text.count("<path") == 2
        assert text.startswith("<svg ")

    def test_deterministic_bytes(self, tmp_path):
        rep = build_sweep_report([rate_row(0.7, 0.3), rate_row(0.9, 0.1)], 0.6)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(rep, a)
        emit_svg(rep, b)
        assert a.read_bytes() == b.read_bytes()

    @SWEEP_ROWS
    def test_y_axis_label(self, tmp_path, make_row, header, third, ylabel):
        rep = build_sweep_report([make_row(0.7, 0.3), make_row(0.9, 0.1)], 0.6)
        out = tmp_path / "r.svg"
        emit_svg(rep, out)
        labels = [ln for ln in out.read_text(encoding="utf-8").splitlines() if "rotate(-90" in ln]
        assert len(labels) == 1
        assert labels[0].startswith('<text x="16" ')
        assert labels[0].endswith(f">{ylabel}</text>")

    def test_pointless_report_rejected(self, tmp_path):
        rep = CheckReport(rows=())
        with pytest.raises(ConfigError):
            emit_svg(rep, tmp_path / "r.svg")
