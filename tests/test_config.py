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
        assert cfg.eps == 0.0
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
            parse_config(write(tmp_path, "experiment = kernel_check\ns_list = 1.0\n"))
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "experiment = kernel_check\ns_list = 0.0\n"))

    def test_solving_band(self, tmp_path):
        # checks may probe extreme s; solving experiments stay in the
        # well-conditioned band
        cfg = parse_config(write(tmp_path, "experiment = kernel_check\ns_list = 0.1\n"))
        assert cfg.s_list == (0.1,)
        with pytest.raises(ConfigError, match="rates"):
            parse_config(write(tmp_path, "experiment = rates\ns_list = 0.1\n"))

    def test_n_floor(self, tmp_path):
        with pytest.raises(ConfigError, match="33"):
            parse_config(write(tmp_path, MINIMAL + "n = 17\n"))

    def test_eps_range(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, MINIMAL + "eps = 1.0\n"))
        cfg = parse_config(write(tmp_path, MINIMAL + "eps = 0.9\n"))
        assert cfg.eps == 0.9

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

    def test_r_rule_fixed(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL + "r_rule = fixed:0.125\n"))
        assert cfg.r_value(0.6) == 0.125
        assert cfg.r_value(0.9) == 0.125

    def test_r_rule_rejects_bad_values(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, MINIMAL + "r_rule = fixed:0\n"))
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, MINIMAL + "r_rule = tiny\n"))

    def test_rho_rules(self, tmp_path):
        # mollifier-check's tail radius is a constant, not a config key
        with pytest.raises(ConfigError, match="unknown config keys: rho_rule"):
            parse_config(write(tmp_path, MINIMAL + "rho_rule = log\n"))

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
