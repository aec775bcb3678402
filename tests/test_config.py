import pytest

from fraclap import cli
from fraclap.config import EXPERIMENTS, parse_config, with_overrides
from fraclap.errors import ConfigError


def write(tmp_path, text: str):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = "experiment = rates\ns_list = 0.6, 0.7\n"


class TestParsing:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.experiment == "rates"
        assert cfg.s_list == (0.6, 0.7)
        assert cfg.n == 513
        assert cfg.seed == 42
        assert cfg.output_dir == "out"
        assert cfg.domain.omega_lo == -1.0
        assert cfg.domain.box_hi == 2.0

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = parse_config(
            write(
                tmp_path,
                "# full line comment\n\n"
                "experiment = solve\n"
                "s_list = 0.5  # trailing comment\n"
                "n = 129\n",
            )
        )
        assert cfg.experiment == "solve"
        assert cfg.s_list == (0.5,)
        assert cfg.n == 129

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="foo"):
            parse_config(write(tmp_path, MINIMAL + "foo = 1\n"))

    def test_duplicate_key_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=":3"):
            parse_config(write(tmp_path, "experiment = rates\ns_list = 0.5\ns_list = 0.6\n"))

    def test_missing_required(self, tmp_path):
        with pytest.raises(ConfigError, match="s_list"):
            parse_config(write(tmp_path, "experiment = rates\n"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(write(tmp_path, "experiment rates\n"))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.cfg")

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError, match="bad number"):
            parse_config(write(tmp_path, "experiment = rates\ns_list = 0.5, oops\n"))

    def test_bad_integer(self, tmp_path):
        with pytest.raises(ConfigError, match="bad integer"):
            parse_config(write(tmp_path, MINIMAL + "n = 12.5\n"))


class TestValidation:
    def test_experiment_catalog(self, tmp_path):
        assert set(EXPERIMENTS) == {
            "kernel_check",
            "mollifier_check",
            "solve",
            "consistency",
            "rates",
        }
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config(write(tmp_path, "experiment = fit\ns_list = 0.5\n"))

    def test_s_open_interval(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "experiment = mollifier_check\ns_list = 1.0\n"))
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "experiment = mollifier_check\ns_list = 0.0\n"))

    def test_solving_band(self, tmp_path):
        # checks may probe extreme s; solving experiments stay in the
        # well-conditioned band
        cfg = parse_config(write(tmp_path, "experiment = mollifier_check\ns_list = 0.1\n"))
        assert cfg.s_list == (0.1,)
        with pytest.raises(ConfigError, match="rates"):
            parse_config(write(tmp_path, "experiment = rates\ns_list = 0.1\n"))

    def test_n_floor(self, tmp_path):
        with pytest.raises(ConfigError, match="33"):
            parse_config(write(tmp_path, MINIMAL + "n = 17\n"))

    def test_domain_margin(self, tmp_path):
        with pytest.raises(ConfigError, match="domain"):
            parse_config(write(tmp_path, MINIMAL + "box_lo = -1.5\n"))

    def test_profile_specs_checked_eagerly(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown profile"):
            parse_config(write(tmp_path, MINIMAL + "f_spec = sine\n"))
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, MINIMAL + "pert_profile = bump:width=0\n"))

    def test_pert_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="pert_mode"):
            parse_config(write(tmp_path, MINIMAL + "pert_mode = random\n"))


class TestRules:
    def test_r_rule_default(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        s = 0.6
        assert cfg.r_value(s) == pytest.approx((1.0 - s) ** (1.0 / s), rel=1e-14)

    def test_rho_rules(self, tmp_path):
        # mollifier-check's tail radius is a constant, not a config key
        with pytest.raises(ConfigError, match="unknown config keys: rho_rule"):
            parse_config(write(tmp_path, MINIMAL + "rho_rule = log\n"))

    @pytest.mark.parametrize("line", ["eps = 0.0", "r_rule = paper"])
    def test_eps_and_r_rule_are_unknown(self, tmp_path, capsys, line):
        # the solves use the plain kernel (eps = 0) and the strip width is
        # always the paper rule; mollifier-check sweeps its own eps
        out = tmp_path / "out"
        cfg = write(tmp_path, MINIMAL + f"{line}\noutput_dir = {out}\n")
        assert cli.main(["rates", "--config", str(cfg)]) == 2
        assert f"unknown config keys: {line.split()[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_pert_coefficients(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.pert_coeff(0.6) == 0.0
        cfg = parse_config(write(tmp_path, MINIMAL + "pert_mode = shrinking\n"))
        assert cfg.pert_coeff(0.6) == pytest.approx(0.4, rel=1e-14)
        cfg = parse_config(
            write(tmp_path, MINIMAL + "pert_mode = fixed\npert_scale = 0.2\n")
        )
        assert cfg.pert_coeff(0.6) == 0.2

    def test_f_s_spec_is_unknown(self, tmp_path, capsys):
        # one source f_spec for both problems; an s-dependent source is pert_mode
        out = tmp_path / "out"
        cfg = write(tmp_path, MINIMAL + f"f_s_spec = constant:1\noutput_dir = {out}\n")
        assert cli.main(["rates", "--config", str(cfg)]) == 2
        assert "unknown config keys: f_s_spec" in capsys.readouterr().err
        assert not out.exists()


class TestKeysRead:
    @pytest.mark.parametrize(
        "text, command, unread",
        [
            ("experiment = rates\ns_list = 0.6, 0.7\ng_spec = abspow\n", "rates", "g_spec"),
            (
                "experiment = consistency\ns_list = 0.9, 0.95\nn = 99999\nf_spec = bump\nseed = 3\n",
                "consistency",
                "f_spec, n, seed",
            ),
            ("experiment = kernel_check\ns_list = 0.5\n", "kernel-check", "s_list"),
            ("experiment = consistency\ns_list = 0.9, 0.95\nbox_lo = -4\nbox_hi = 4\n", "consistency", "box_hi, box_lo"),
        ],
    )
    def test_key_the_experiment_never_reads_exits_2(self, tmp_path, capsys, text, command, unread):
        out = tmp_path / "out"
        cfg = write(tmp_path, text + f"output_dir = {out}\n")
        assert cli.main([command, "--config", str(cfg)]) == 2
        experiment = command.replace("-", "_")
        assert f"experiment '{experiment}' does not read config keys: {unread}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_kernel_check_takes_no_s_list(self, tmp_path):
        # its check grid of s values is fixed, so a config names none
        cfg = parse_config(write(tmp_path, "experiment = kernel_check\n"))
        assert cfg.s_list == ()
        with pytest.raises(ConfigError, match="missing required keys: s_list"):
            parse_config(write(tmp_path, "experiment = mollifier_check\n"))

    def test_consistency_reads_omega_without_a_box(self, tmp_path):
        # the pointwise operator integrates over the whole line: an interval
        # wider than the default box needs no box keys, and only the
        # interval itself is checked
        out = tmp_path / "out"
        cfg = write(tmp_path, f"experiment = consistency\ns_list = 0.9, 0.95\nomega_lo = -3\nomega_hi = 3\noutput_dir = {out}\n")
        assert cli.main(["consistency", "--config", str(cfg)]) == 0
        assert (out / "consistency.csv").read_text().count("\n") == 4
        for lo, hi in (("1", "-1"), ("0.5", "0.5")):
            text = f"experiment = consistency\ns_list = 0.9, 0.95\nomega_lo = {lo}\nomega_hi = {hi}\n"
            with pytest.raises(ConfigError, match="bad domain bounds: empty or infinite interval"):
                parse_config(write(tmp_path, text))
        cfg = parse_config(write(tmp_path, "experiment = consistency\ns_list = 0.9, 0.95\n"))
        with pytest.raises(ConfigError, match="bad domain bounds: empty or infinite interval"):
            with_overrides(cfg, omega_hi=float("inf"))

    def test_defaults_and_overrides_stay_silent(self, tmp_path):
        # --seed reaches every experiment, whether or not it draws
        out = tmp_path / "out"
        cfg = write(tmp_path, f"experiment = solve\ns_list = 0.5\nn = 33\noutput_dir = {out}\n")
        assert cli.main(["solve", "--config", str(cfg), "--seed", "3", "--out", str(out / "x")]) == 0
        assert (out / "x" / "solve.csv").exists()


class TestOverrides:
    def test_override_and_revalidate(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        out = with_overrides(cfg, output_dir="elsewhere", seed=7)
        assert out.output_dir == "elsewhere"
        assert out.seed == 7
        assert cfg.output_dir == "out"
        with pytest.raises(ConfigError):
            with_overrides(cfg, output_dir="")
        with pytest.raises(ConfigError):
            with_overrides(cfg, n=5)
        with pytest.raises(ConfigError, match="unknown config keys: bogus, nn$"):
            with_overrides(cfg, nn=1025, bogus=1)
