"""run.py end to end on a tiny solve: failures are counted."""

import json
from pathlib import Path

import checks
import pytest
import run

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture
def tiny_tree(tmp_path, monkeypatch):
    """A source tree whose solve-8193 workload is a 65-node solve."""
    (tmp_path / "src").symlink_to(REPO / "src")
    configs = tmp_path / "configs"
    configs.mkdir()
    monkeypatch.setattr(run, "CONFIGS", configs)
    monkeypatch.chdir(tmp_path)
    return configs


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def bench(*extra):
    return run.main(["--workload", "solve-8193", "--seed", "1", "--seconds", "0", *extra])


def test_good_run_passes_and_reports_every_metric(tiny_tree, capsys):
    (tiny_tree / "solve-8193.cfg").write_text("experiment = solve\ns_list = 0.5, 0.9\nn = 65\n")
    assert bench("--trace", "0") == 0
    result = last_json(capsys)
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_output_counts_as_failure(tiny_tree, capsys, monkeypatch):
    (tiny_tree / "solve-8193.cfg").write_text("experiment = solve\ns_list = 0.5, 0.9\nn = 65\n")

    def corrupt_then_check(out_dir, cfg):
        path = out_dir / "solve.csv"
        lines = path.read_text().splitlines()
        s, x, u = lines[30].split(",")
        lines[30] = f"{s},{x},{float(u) * 1.5!r}"
        path.write_text("\n".join(lines) + "\n")
        return checks.check_solve(out_dir, cfg)

    monkeypatch.setitem(run.WORKLOADS, "solve-8193", ("solve", corrupt_then_check))
    assert bench("--trace", "0") == 0
    result = last_json(capsys)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1


def test_nonzero_exit_counts_as_failure(tiny_tree, capsys):
    # s = 0.999 is outside the band the solve experiment accepts: exit 2
    (tiny_tree / "solve-8193.cfg").write_text("experiment = solve\ns_list = 0.999\nn = 65\n")
    assert bench("--trace", "0") == 0
    result = last_json(capsys)
    assert not result["correct"] and result["failed"] == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench("--trace", "0") != 0
    assert capsys.readouterr().out == ""
