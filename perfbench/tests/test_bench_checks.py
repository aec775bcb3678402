"""Output checks: correct outputs pass, corrupted ones count as failures."""

import json

import checks
import pytest


def write(path, header, rows):
    path.write_text("\n".join([header] + [",".join(map(repr, r)) for r in rows]) + "\n", encoding="utf-8")


@pytest.fixture
def solve_case(tmp_path):
    cfg = {"s_list": "0.5, 0.99", "n": "65"}
    xs = [-2.0 + 4.0 * i / 64 for i in range(65)]
    rows = [(s, x, checks.ball_solution(s, x), 0.25) for s in (0.5, 0.99) for x in xs]
    # column order differs from fraclap's and a timing column is present
    write(tmp_path / "solve.csv", "x,s,u,seconds", [(x, s, u, t) for s, x, u, t in rows])
    return tmp_path, cfg


def test_exact_solve_output_passes(solve_case):
    out, cfg = solve_case
    result = checks.check_run(0, out, cfg, checks.check_solve)
    assert result.ok, result.reason
    assert result.figures["ball_sup_err"] == 0.0


def test_perturbed_solve_value_fails(solve_case):
    out, cfg = solve_case
    lines = (out / "solve.csv").read_text().splitlines()
    x, s, u, t = lines[40].split(",")
    lines[40] = ",".join([x, s, repr(float(u) + 0.1), t])
    (out / "solve.csv").write_text("\n".join(lines) + "\n")
    assert not checks.check_run(0, out, cfg, checks.check_solve).ok


def test_nonzero_exit_fails_even_with_good_output(solve_case):
    out, cfg = solve_case
    result = checks.check_run(1, out, cfg, checks.check_solve)
    assert not result.ok and "exit code 1" in result.reason


def test_missing_output_fails(tmp_path):
    assert not checks.check_run(0, tmp_path, {"s_list": "0.5", "n": "65"}, checks.check_solve).ok


def test_rates_against_continuum_oracle(tmp_path):
    cfg = {"s_list": "0.6, 0.9", "n": "4097", "f_spec": "constant:1"}
    rows = [(s, checks.ball_l2_distance(s) * (1 + 1e-6)) for s in (0.6, 0.9)]
    write(tmp_path / "rates.csv", "s,err_l2", rows)
    assert checks.check_run(0, tmp_path, cfg, checks.check_rates).ok
    write(tmp_path / "rates.csv", "s,err_l2", [(0.6, rows[0][1]), (0.9, rows[1][1] * 1.5)])
    assert not checks.check_run(0, tmp_path, cfg, checks.check_rates).ok


def test_consistency_against_stored_oracle(tmp_path):
    stored = json.loads((checks.HERE / "oracle" / "consistency-5s.json").read_text())["max_abs_err"]
    cfg = {"s_list": ", ".join(stored), "g_spec": "gaussian"}
    rows = [(float(s), v, 1.0) for s, v in stored.items()]
    write(tmp_path / "consistency.csv", "s,max_abs_err,seconds", rows)
    result = checks.check_run(0, tmp_path, cfg, checks.check_consistency)
    assert result.ok and result.figures["pointwise_dev"] == 0.0
    rows[-1] = (rows[-1][0], rows[-1][1] + 1e-2, 1.0)
    write(tmp_path / "consistency.csv", "s,max_abs_err,seconds", rows)
    assert not checks.check_run(0, tmp_path, cfg, checks.check_consistency).ok


def test_mollifier_rows_must_all_pass(tmp_path):
    path = tmp_path / "mollifier_check.csv"
    path.write_text("name,value,bound,passed\na,0.5,1.0001,true\nb,0.9,1.0001,true\n")
    assert checks.check_run(0, tmp_path, {}, checks.check_mollifier).ok
    path.write_text("name,value,bound,passed\na,0.5,1.0001,true\nb,0.9,1.0001,false\n")
    assert not checks.check_run(0, tmp_path, {}, checks.check_mollifier).ok
    path.write_text("name,value,bound,passed\na,1.5,1.0001,true\n")
    assert not checks.check_run(0, tmp_path, {}, checks.check_mollifier).ok


def test_without_column_drops_only_that_column():
    text = "s,err,seconds\n0.5,1,0.25\n# slope=1\n"
    assert checks.without_column(text, "seconds") == "s,err\n0.5,1\n# slope=1\n"
    assert checks.without_column("s,err\n0.5,1\n", "seconds") == "s,err\n0.5,1\n"


def test_ball_solution_matches_fraclap_normalisation():
    # independent derivation, compared once with the library's own formula
    from fraclap.kernels import FracParams
    from fraclap.solver import exact_solution_ball

    for s in (0.3, 0.7, 0.99):
        assert checks.ball_solution(s, 0.4) == pytest.approx(exact_solution_ball(FracParams(s=s), 0.4), rel=1e-13)
