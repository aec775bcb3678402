import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fraclap
from fraclap import cli, report, solver
from fraclap.errors import NumericalError
from fraclap.report import CheckReport, CheckRow

CONFIGS = Path(__file__).resolve().parent / "configs"  # one tiny config per subcommand


def write_cfg(tmp_path, text: str, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def kernel_cfg(tmp_path, out: str):
    return write_cfg(
        tmp_path,
        f"experiment = kernel_check\ns_list = 0.5\noutput_dir = {out}\n",
    )


class TestSuccessPaths:
    def test_kernel_check_writes_csv(self, tmp_path, capsys):
        cfg = kernel_cfg(tmp_path, tmp_path / "out")
        assert cli.main(["kernel-check", "--config", cfg]) == 0
        text = (tmp_path / "out" / "kernel_check.csv").read_text(encoding="utf-8")
        assert text.startswith("name,value,bound,passed")
        assert capsys.readouterr().out == ""

    def test_verbose_prints_report(self, tmp_path, capsys):
        cfg = kernel_cfg(tmp_path, tmp_path / "out")
        assert cli.main(["kernel-check", "--config", cfg, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert out == (tmp_path / "out" / "kernel_check.csv").read_text(encoding="utf-8")

    def test_verbose_formats_the_report_once(self, tmp_path, capsysbinary, monkeypatch):
        calls = []
        to_csv = report.SolveReport.to_csv

        def counted(self):
            calls.append(1)
            return to_csv(self)

        monkeypatch.setattr(report.SolveReport, "to_csv", counted)
        cfg = write_cfg(
            tmp_path, f"experiment = solve\ns_list = 0.5, 0.9\nn = 33\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert cli.main(["solve", "--config", cfg, "--verbose"]) == 0
        assert len(calls) == 1
        out = capsysbinary.readouterr().out
        assert out.startswith(b"s,x,u\n")
        assert out == (tmp_path / "out" / "solve.csv").read_bytes()

    def test_out_override(self, tmp_path):
        cfg = kernel_cfg(tmp_path, tmp_path / "ignored")
        dest = tmp_path / "elsewhere" / "deep"
        assert cli.main(["kernel-check", "--config", cfg, "--out", str(dest)]) == 0
        assert (dest / "kernel_check.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_rates_emits_csv_and_svg(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = rates\ns_list = 0.6, 0.8\nn = 129\n"
            f"output_dir = {tmp_path / 'out'}\n",
        )
        assert cli.main(["rates", "--config", cfg]) == 0
        csv_path = tmp_path / "out" / "rates.csv"
        svg_path = tmp_path / "out" / "rates.svg"
        assert csv_path.exists() and svg_path.exists()
        first_csv = csv_path.read_bytes()
        first_svg = svg_path.read_bytes()
        assert cli.main(["rates", "--config", cfg]) == 0
        assert csv_path.read_bytes() == first_csv
        assert svg_path.read_bytes() == first_svg

    def test_solve_writes_solution_table(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = solve\ns_list = 0.5\nn = 65\n"
            f"output_dir = {tmp_path / 'out'}\n",
        )
        assert cli.main(["solve", "--config", cfg]) == 0
        text = (tmp_path / "out" / "solve.csv").read_text(encoding="utf-8")
        assert text.splitlines()[0] == "s,x,u"


class TestDeterminism:
    @pytest.mark.parametrize("command", sorted(cli._RUNNERS))
    def test_two_runs_write_identical_bytes(self, tmp_path, command):
        stem = command.replace("-", "_")
        written = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli.main([command, "--config", str(CONFIGS / f"{stem}.cfg"), "--out", str(out)]) == 0
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert stem + ".csv" in written[0]
        assert written[0] == written[1]


class TestConfigFailures:
    def test_subcommand_config_mismatch(self, tmp_path, capsys):
        cfg = kernel_cfg(tmp_path, tmp_path / "out")
        assert cli.main(["rates", "--config", cfg]) == 2
        assert "kernel_check" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = rates\ns_list = 0.6\nfoo = 1\n")
        assert cli.main(["rates", "--config", cfg]) == 2
        assert "foo" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            "r_rule = fixed:1.5\n",
            # the paper rule gives r = 0.4**(1/0.6) = 0.217 at s = 0.6
            "omega_lo = -0.1\nomega_hi = 0.1\nbox_lo = -1.1\nbox_hi = 1.1\n",
        ],
    )
    def test_rates_strip_wider_than_half_omega(self, tmp_path, capsys, extra):
        # rejected at config time, before any solve or output directory; the
        # strip rows of mollifier-check need the same strip
        for command in ("rates", "mollifier-check"):
            out = tmp_path / command
            text = f"experiment = {command.replace('-', '_')}\ns_list = 0.6, 0.8\nn = 65\noutput_dir = {out}\n"
            cfg = write_cfg(tmp_path, text + extra)
            assert cli.main([command, "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert "r_rule" in err and "s=0.6" in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "command, s_list",
        [("rates", "0.5, 0.55"), ("rates", "0.8, 0.8"), ("consistency", "0.9")],
    )
    def test_sweep_without_two_fit_points(self, tmp_path, capsys, command, s_list):
        # rejected at config time, before any solve or output directory
        out = tmp_path / "out"
        text = f"experiment = {command}\ns_list = {s_list}\nn = 129\noutput_dir = {out}\n"
        assert cli.main([command, "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "two distinct s >= fit_min_s=0.6" in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("route", ["config", "flag"])
    def test_negative_seed_rejected(self, tmp_path, capsys, route):
        out = tmp_path / "out"
        text = f"experiment = mollifier_check\ns_list = 0.9\nn = 33\noutput_dir = {out}\n"
        cfg = write_cfg(tmp_path, text + ("seed = -5\n" if route == "config" else ""))
        flag = ["--seed", "-3"] if route == "flag" else []
        assert cli.main(["mollifier-check", "--config", cfg] + flag) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["rates", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["kernel-check"])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--config", "x"])
        assert exc.value.code == 2


class TestRunnerOutcomes:
    def test_failing_check_suite_returns_one(self, tmp_path, monkeypatch):
        failing = CheckReport(
            rows=(CheckRow(name="bad", value=2.0, bound=1.0, passed=False),)
        )
        monkeypatch.setitem(cli._RUNNERS, "kernel-check", lambda cfg: failing)
        cfg = kernel_cfg(tmp_path, tmp_path / "out")
        assert cli.main(["kernel-check", "--config", cfg]) == 1
        # the report is still written so the failure can be inspected
        text = (tmp_path / "out" / "kernel_check.csv").read_text(encoding="utf-8")
        assert "bad" in text

    def test_numerical_error_returns_one(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalError("factorization failed")

        monkeypatch.setitem(cli._RUNNERS, "kernel-check", boom)
        cfg = kernel_cfg(tmp_path, tmp_path / "out")
        assert cli.main(["kernel-check", "--config", cfg]) == 1
        assert "factorization" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "rates"])
    def test_singular_stiffness_returns_one(self, tmp_path, monkeypatch, capsys, command):
        # a kernel with a vanishing diagonal is indefinite, and so is its tau preconditioner
        def singular(p, h, kmax):
            c = np.zeros(kmax + 1)
            c[:3] = (0.0, 1.0, 0.2)
            return c

        monkeypatch.setattr(solver, "stiffness_kernel", singular)
        cfg = write_cfg(
            tmp_path,
            f"experiment = {command}\ns_list = 0.5, 0.7\nfit_min_s = 0.5\nn = 65\noutput_dir = {tmp_path / 'out'}\n",
        )
        assert cli.main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1


# start-up and every subcommand that needs no adaptive quadrature load no scipy
# module at all (importing scipy.linalg costs about 0.34 s), nor numpy.polynomial
# (importing it and building one Gauss rule costs about 6 ms and 1.8 MB of peak
# RSS; assembly builds its rules from the Legendre recurrence), nor numpy.ma
# (np.unique and the set routines import it lazily; it costs about 1 MB of RSS),
# nor numpy.random (about 6 MB of RSS and 15 ms; the bump suite draws from
# profiles._PCG64, which reproduces numpy.random.default_rng's stream)
# Runs in a fresh interpreter: the test suite itself imports scipy.integrate.
# What `import numpy` loads itself is not counted: numpy 1.x imports random,
# polynomial and ma with the package, numpy >= 2.0 on first use.
_FOOTPRINT_SCRIPT = """
import json, sys
out, runs = sys.argv[1], json.loads(sys.argv[2])
heavy = ("scipy", "numpy.polynomial", "numpy.ma", "numpy.random")
import numpy
own = set(sys.modules)
loaded = lambda: sorted(m for m in set(sys.modules) - own if m in heavy or m.startswith(tuple(h + "." for h in heavy)))
import fraclap.cli
stages = {"import": loaded()}
for name, argv in runs:
    stages[name + ".rc"] = fraclap.cli.main(argv)
    stages[name] = loaded()
json.dump(stages, open(out, "w"))
"""


def _loaded_after(tmp_path, runs):
    """scipy, numpy.polynomial, numpy.ma and numpy.random modules that
    `import numpy` did not load itself, in sys.modules after `import
    fraclap.cli` and after each (name, argv) CLI run in order, plus each
    run's exit code."""
    src = str(Path(fraclap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [d for d in env.get("PYTHONPATH", "").split(os.pathsep) if d])
    result = tmp_path / "modules.json"
    script = [sys.executable, "-c", _FOOTPRINT_SCRIPT, str(result), json.dumps(runs)]
    subprocess.run(script, env=env, cwd=tmp_path, check=True, timeout=300)
    return json.loads(result.read_text(encoding="utf-8"))


class TestImportFootprint:
    def test_startup_and_fast_subcommands_skip_scipy_and_numpy_random(self, tmp_path):
        rates = write_cfg(tmp_path, f"experiment = rates\ns_list = 0.6, 0.8\nn = 65\noutput_dir = {tmp_path}\n")
        solve = write_cfg(
            tmp_path, f"experiment = solve\ns_list = 0.5, 0.99\nn = 65\noutput_dir = {tmp_path}\n", "s.cfg"
        )
        moll = write_cfg(
            tmp_path, f"experiment = mollifier_check\ns_list = 0.9\nn = 33\noutput_dir = {tmp_path}\n", "m.cfg"
        )
        runs = [
            ["rates", ["rates", "--config", rates]],
            ["solve", ["solve", "--config", solve]],
            ["mollifier", ["mollifier-check", "--config", moll]],
        ]
        stages = _loaded_after(tmp_path, runs)
        assert stages["import"] == []
        for name, _ in runs:
            assert stages[name + ".rc"] == 0
            assert stages[name] == []
        for csv in ("rates.csv", "solve.csv", "mollifier_check.csv"):
            assert (tmp_path / csv).exists()

    def test_kernel_check_loads_quad_on_demand(self, tmp_path):
        cfg = kernel_cfg(tmp_path, tmp_path / "out")
        stages = _loaded_after(tmp_path, [["kernel", ["kernel-check", "--config", cfg]]])
        assert stages["kernel.rc"] == 0
        assert "scipy.integrate" in stages["kernel"]
