import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fraclap
from fraclap import cli, report, solver
from fraclap.assembly import _log_panels
from fraclap.config import parse_config
from fraclap.kernels import FracParams, norm_const
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
        f"experiment = kernel_check\noutput_dir = {out}\n",
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
        csv_chunks = report.SolveReport.csv_chunks

        def counted(self):
            calls.append(1)
            return csv_chunks(self)

        monkeypatch.setattr(report.SolveReport, "csv_chunks", counted)
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
            assert f"r=(1-s)**(1/s)={0.4 ** (1 / 0.6)} at s=0.6" in err and "|Omega|=0.2" in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "command, s_list",
        [("rates", "0.5, 0.55"), ("rates", "0.8, 0.8"), ("consistency", "0.9")],
    )
    def test_sweep_without_two_fit_points(self, tmp_path, capsys, command, s_list):
        # rejected at config time, before any solve or output directory
        out = tmp_path / "out"
        text = f"experiment = {command}\ns_list = {s_list}\noutput_dir = {out}\n"
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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("pert_scale = nan", "key 'pert_scale': value must be finite, got nan"),
            ("s_list = 0.6, inf", "key 's_list': value must be finite, got inf"),
            ("s_list = ,", "s_list must not be empty"),
            ("s_list = 0.6,, 0.8,", "empty item in s_list '0.6,, 0.8,'"),
            ("f_spec = constant:nan", "profile 'constant:nan': value must be finite, got nan"),
            ("f_spec = gaussian:center=inf", "profile 'gaussian:center=inf': value must be finite, got inf"),
            ("f_spec = bump:width=inf", "profile 'bump:width=inf': value must be finite, got inf"),
            ("s_list = 0.6, 0.6, 0.9", "s_list must not repeat a value, got 0.6 twice"),
            ("fit_min_s = 1.5", "fit_min_s must lie in (0, 1), got 1.5"),
            ("--out", "cannot create output directory"),
        ],
    )
    def test_invalid_input(self, tmp_path, capsys, line, message):
        # a config line replaces the base config's value; --out names an existing file
        taken = tmp_path / "taken"
        taken.write_text("")
        keys = {"experiment": "rates", "s_list": "0.6, 0.8", "n": "65", "output_dir": str(tmp_path / "out")}
        flags = ["--out", str(taken)] if line == "--out" else []
        if not flags:
            key, value = line.split(" = ")
            keys[key] = value
        cfg = write_cfg(tmp_path, "".join(f"{key} = {value}\n" for key, value in keys.items()))
        assert cli.main(["rates", "--config", cfg] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["rates", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(f"experiment = solve\ns_list = 0.6\noutput_dir = {out}\n# caf\xe9\n".encode("latin-1"))
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and "utf-8" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_missing_config_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["kernel-check"])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--config", "x"])
        assert exc.value.code == 2


class TestParser:
    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["solve", "-h"], ["rates", "--config", "x", "--help"]])
    def test_help_exits_zero_and_lists_every_subcommand(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: fraclap <subcommand> --config PATH") and err == ""
        for command in cli._RUNNERS:
            assert f"\n  {command} " in out
        for option in ("--config", "--out", "--seed", "--verbose"):
            assert option in out

    def test_config_equals_form(self, tmp_path):
        cfg = kernel_cfg(tmp_path, tmp_path / "out")
        assert cli.main(["kernel-check", f"--config={cfg}"]) == 0
        assert (tmp_path / "out" / "kernel_check.csv").exists()

    def test_options_in_any_order_and_the_last_repeat_wins(self, tmp_path, capsys):
        cfg = kernel_cfg(tmp_path, tmp_path / "out")
        first, last = tmp_path / "first", tmp_path / "last"
        argv = ["kernel-check", "--verbose", "--out", str(first), "--seed=7", f"--config={tmp_path}",
                "--seed", "3", "--config", cfg, f"--out={last}"]
        assert cli._parse(argv) == ("kernel-check", cfg, str(last), 3, True)
        assert cli.main(argv) == 0
        assert (last / "kernel_check.csv").exists() and not first.exists()
        assert capsys.readouterr().out == (last / "kernel_check.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "missing subcommand"),
            (["solve", "--config"], "argument --config: expected one value"),
            (["solve", "--config", "--out", "x"], "argument --config: expected one value"),
            (["solve", "--config", "CFG", "--bogus"], "unrecognized argument '--bogus'"),
            # prefixes of an option name are not accepted
            (["solve", "--conf", "CFG"], "unrecognized argument '--conf'"),
            (["solve", "--config", "CFG", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
            (["solve", "--config", "CFG", "--verbose=1"], "unrecognized argument '--verbose=1'"),
            (["solve", "--config", "CFG", "stray"], "unrecognized argument 'stray'"),
            (["--config", "CFG", "solve"], "invalid subcommand '--config'"),
        ],
    )
    def test_usage_error_exits_two_with_one_error_line(self, tmp_path, capsys, argv, message):
        cfg = write_cfg(tmp_path, f"experiment = solve\ns_list = 0.5\nn = 33\noutput_dir = {tmp_path / 'out'}\n")
        with pytest.raises(SystemExit) as exc:
            cli.main([cfg if token == "CFG" else token for token in argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("fraclap: error:")]
        assert out == "" and len(errors) == 1 and message in errors[0]
        assert err.startswith("usage: fraclap ") and len(err.splitlines()) == 2
        assert not (tmp_path / "out").exists()


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
            f"experiment = {command}\ns_list = 0.6, 0.7\nn = 65\noutput_dir = {tmp_path / 'out'}\n",
        )
        assert cli.main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1


# start-up and every subcommand load no scipy module at all (the package's
# one quadrature is a Gauss rule built from the Legendre recurrence, and
# importing scipy.linalg costs about 0.34 s), nor numpy.polynomial
# (importing it and building one Gauss rule costs about 6 ms and 1.8 MB of
# peak RSS), nor numpy.ma (np.unique and the set routines import it lazily;
# it costs about 1 MB of RSS), nor numpy.random (about 6 MB of RSS and
# 15 ms; the bump suite draws from the standard library's random.Random,
# which `import numpy` loads already, numpy 2.4 through tempfile), nor
# argparse, gettext or locale
# (building argparse's parsers cost 2.5-3 ms and about 0.3 MB of peak RSS
# per run; cli.py parses its one option set directly)
# Runs in a fresh interpreter: the test suite itself imports scipy.
# What `import numpy` loads itself is not counted: numpy 1.x imports random,
# polynomial and ma with the package, numpy >= 2.0 on first use.
_FOOTPRINT_SCRIPT = """
import json, sys
out, runs = sys.argv[1], json.loads(sys.argv[2])
heavy = ("scipy", "numpy.polynomial", "numpy.ma", "numpy.random", "argparse", "gettext", "locale")
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
    """scipy, numpy.polynomial, numpy.ma, numpy.random, argparse, gettext
    and locale modules that `import numpy` did not load itself, in
    sys.modules after `import fraclap.cli` and after each (name, argv) CLI
    run in order, plus each run's exit code."""
    src = str(Path(fraclap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [d for d in env.get("PYTHONPATH", "").split(os.pathsep) if d])
    result = tmp_path / "modules.json"
    script = [sys.executable, "-c", _FOOTPRINT_SCRIPT, str(result), json.dumps(runs)]
    subprocess.run(script, env=env, cwd=tmp_path, check=True, timeout=300)
    return json.loads(result.read_text(encoding="utf-8"))


def _run_every_config_without(tmp_path, module: str) -> None:
    """Every tests/configs config in a fresh CLI process that cannot import
    the module: a None entry in sys.modules makes `import module...` raise
    ImportError."""
    script = (
        f"import sys\nsys.modules[{module!r}] = None\nimport fraclap.cli\n"
        "sys.exit(fraclap.cli.main(sys.argv[1:]))"
    )
    src = str(Path(fraclap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        argv = [cfg.stem.replace("_", "-"), "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]
        result = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, (cfg.name, result.stderr)
        assert (tmp_path / cfg.stem / f"{cfg.stem}.csv").exists()


class TestImportFootprint:
    def test_startup_and_fast_subcommands_skip_scipy_and_numpy_random(self, tmp_path):
        rates = write_cfg(tmp_path, f"experiment = rates\ns_list = 0.6, 0.8\nn = 65\noutput_dir = {tmp_path}\n")
        solve = write_cfg(
            tmp_path, f"experiment = solve\ns_list = 0.5, 0.99\nn = 65\noutput_dir = {tmp_path}\n", "s.cfg"
        )
        moll = write_cfg(
            tmp_path, f"experiment = mollifier_check\ns_list = 0.9\nn = 33\noutput_dir = {tmp_path}\n", "m.cfg"
        )
        kern = write_cfg(tmp_path, f"experiment = kernel_check\noutput_dir = {tmp_path}\n", "k.cfg")
        cons = write_cfg(tmp_path, f"experiment = consistency\ns_list = 0.9, 0.95\noutput_dir = {tmp_path}\n", "c.cfg")
        runs = [
            ["rates", ["rates", "--config", rates]],
            ["solve", ["solve", "--config", solve]],
            ["mollifier", ["mollifier-check", "--config", moll]],
            ["kernel", ["kernel-check", "--config", kern]],
            ["consistency", ["consistency", "--config", cons]],
        ]
        stages = _loaded_after(tmp_path, runs)
        assert stages["import"] == []
        for name, _ in runs:
            assert stages[name + ".rc"] == 0
            assert stages[name] == []
        for csv in ("rates.csv", "solve.csv", "mollifier_check.csv", "kernel_check.csv", "consistency.csv"):
            assert (tmp_path / csv).exists()

    @pytest.mark.parametrize("cfg", sorted(CONFIGS.glob("*.cfg")), ids=lambda cfg: cfg.stem)
    def test_every_subcommand_runs_without_generic_numpy_front_ends(self, tmp_path, monkeypatch, cfg):
        # np.sort, np.pad, np.einsum and np.linalg.norm page in up to
        # 384 KB of numpy code each on first use (README, performance
        # notes) for work that searchsorted, slicing, products and sums,
        # and `@` do directly
        def forbidden(*args, **kwargs):
            raise AssertionError("a CLI path called a generic numpy front end")

        for module, name in ((np, "sort"), (np, "pad"), (np, "einsum"), (np.linalg, "norm")):
            monkeypatch.setattr(module, name, forbidden)
        argv = [cfg.stem.replace("_", "-"), "--config", str(cfg), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert (tmp_path / f"{cfg.stem}.csv").exists()

    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path):
        _run_every_config_without(tmp_path, "scipy")

    def test_every_subcommand_runs_with_dataclasses_blocked(self, tmp_path):
        # generating the methods of @dataclass classes took most of the
        # package's import time (README, performance notes)
        _run_every_config_without(tmp_path, "dataclasses")

    def test_every_subcommand_runs_with_argparse_blocked(self, tmp_path):
        _run_every_config_without(tmp_path, "argparse")


# numpy's SIMD targets above the x86-64-v2 baseline, as numpy 2.4 names them;
# with all four disabled every ufunc runs its baseline loop
_BASELINE_DISPATCH = "X86_V4 X86_V3 AVX512_ICL AVX512_SPR"


def _child_env(disabled):
    """The environment of a CLI child process: this package on its path, and
    NPY_DISABLE_CPU_FEATURES set to disabled, or unset when it is None."""
    env = dict(os.environ, PYTHONPATH=str(Path(fraclap.__file__).resolve().parents[1]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    return env


def _outputs_of_every_config(out: Path, disabled) -> dict:
    """Every tests/configs config through the CLI, each in a fresh process
    under _child_env(disabled); the bytes of each file written, by its path
    relative to out."""
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        argv = [cfg.stem.replace("_", "-"), "--config", str(cfg), "--out", str(out / cfg.stem)]
        result = subprocess.run(
            [sys.executable, "-m", "fraclap.cli", *argv], env=_child_env(disabled), capture_output=True, timeout=300
        )
        assert result.returncode == 0, (cfg.name, result.stderr)
    return {path.relative_to(out).as_posix(): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


def _consistency_table(text: bytes):
    """(rows of floats, slope, r2) of a consistency CSV."""
    *rows, trailer = text.decode().splitlines()[1:]
    fit = dict(item.split("=") for item in trailer[2:].split())
    return [[float(v) for v in row.split(",")] for row in rows], float(fit["slope"]), float(fit["r2"])


class TestDispatch:
    def test_outputs_under_the_baseline_dispatch(self, tmp_path):
        # numpy picks its SIMD loops at run time, and the baseline ones round
        # some elementwise transcendentals differently by an ulp.  Every
        # tests/configs output but consistency.csv is byte-identical under
        # them; consistency.csv moves by about 4e-10 relative
        probe = [sys.executable, "-W", "error::ImportWarning", "-c", "import numpy"]
        if subprocess.run(probe, env=_child_env(_BASELINE_DISPATCH), capture_output=True, timeout=60).returncode:
            pytest.skip(f"numpy {np.__version__} does not dispatch the targets {_BASELINE_DISPATCH}")
        default = _outputs_of_every_config(tmp_path / "default", None)
        baseline = _outputs_of_every_config(tmp_path / "baseline", _BASELINE_DISPATCH)
        assert default.keys() == baseline.keys()
        consistency = "consistency/consistency.csv"
        for name in default.keys() - {consistency}:
            assert baseline[name] == default[name], name

        # The roundoff model: each sample of g moves by at most 1 ulp, so
        # each second difference of the pointwise rule moves by at most
        # 4 ulp of max|g|, and a value by 4 C sum|w_j| times that, with w_j
        # the rule's weights (the frozen quadratic profile below _NEAR_CUT
        # included).  The exact -g'' moves by an ulp, far below this, and
        # printing at 12 digits adds 1e-11 relative at most
        cfg = parse_config(CONFIGS / "consistency.cfg")
        g = cfg.g_profile()
        assert g.name == "gaussian"  # whose sup is |amplitude|
        ulp_g = np.finfo(float).eps * abs(g.params["amplitude"])
        z, w = _log_panels(0.0, np.linspace(*np.log([solver._NEAR_CUT, solver._RADIUS]), solver._PANELS + 1))
        rows_a, slope_a, r2_a = _consistency_table(default[consistency])
        rows_b, slope_b, r2_b = _consistency_table(baseline[consistency])
        rel_moves = []
        for (s, one_minus_s, err_a), (s_b, one_minus_s_b, err_b) in zip(rows_a, rows_b):
            assert (s, one_minus_s) == (s_b, one_minus_s_b)
            weights = np.sum(w * z ** (-1.0 - 2.0 * s)) + solver._NEAR_CUT ** (-2.0 * s) / (2.0 - 2.0 * s)
            bound = 4.0 * norm_const(FracParams(s=s)) * weights * 4.0 * ulp_g + 1e-11 * abs(err_a)
            assert abs(err_b - err_a) <= bound, (s, err_a, err_b, bound)
            rel_moves.append(bound / err_a)
        # the slope is a combination c_i log(err_i) with c_i = (l_i - mean l)
        # / sum (l_j - mean l)^2, l_i = log(1 - s_i); two points fit exactly,
        # so r2 reads 1 in both runs
        lx = np.log([row[1] for row in rows_a])
        c = (lx - lx.mean()) / np.sum((lx - lx.mean()) ** 2)
        assert abs(slope_b - slope_a) <= float(np.abs(c) @ rel_moves) + 1e-11 * abs(slope_a)
        assert len(rows_a) == 2 and r2_a == r2_b == 1.0
