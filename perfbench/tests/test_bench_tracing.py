"""The tracer: self-time arithmetic, unchanged outputs, restored originals."""

import scipy.linalg
import pytest

import fraclap.cli
import fraclap.profiles
from checks import without_column
from tracing import LAYERS, NAME, PARENT, Tracer, layer_self_times, self_times, stiffness_kernel_mp


def test_self_times_on_synthetic_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0.0],
        ["experiments.run", 1.0, 4.0, 0, 0.5],  # 0.5 s of counted kernel calls inside
        ["assembly.k", 2.0, 3.0, 1, 0.0],
        ["scipy.cho_factor", 5.0, 9.0, 0, 0.0],
        ["bench.probe", 9.0, 9.5, 0, 0.0],
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 3 - 1 - 0.5, 1.0, 4.0, 0.5])
    layers = layer_self_times(spans, {"kernels": 0.5})
    assert layers == pytest.approx(
        {"cli": 2.5, "experiments": 1.5, "assembly": 1.0, "scipy": 4.0, "bench": 0.5, "kernels": 0.5}
    )
    assert sum(layers.values()) == pytest.approx(10.0)


CASES = {
    "rates": "experiment = rates\ns_list = 0.6, 0.8\nn = 129\n",
    "solve": "experiment = solve\ns_list = 0.5, 0.9\nn = 65\n",
    "mollifier-check": "experiment = mollifier_check\ns_list = 0.5\nn = 65\n",
    "consistency": "experiment = consistency\ns_list = 0.6, 0.9\n",
}


def run_cli(tmp_path, command, tag):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(CASES[command], encoding="utf-8")
    out = tmp_path / tag
    assert fraclap.cli.main([command, "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    return {p.name: without_column(p.read_text(encoding="utf-8"), "seconds") for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", sorted(CASES))
def test_outputs_identical_under_tracing(tmp_path, command):
    def current():
        return (fraclap.cli.main, dict(fraclap.cli._RUNNERS), scipy.linalg.cho_factor, fraclap.profiles.Profile.__call__)

    originals = current()
    plain = run_cli(tmp_path, command, "plain")
    tracer = Tracer()
    with tracer:
        assert fraclap.cli.main is not originals[0]
        traced = run_cli(tmp_path, command, "traced")
    assert traced == plain
    assert current() == originals
    roots = [s for s in tracer.spans if s[PARENT] == -1]
    assert [s[NAME] for s in roots] == ["cli.main"]


def test_solve_probes(tmp_path):
    tracer = Tracer()
    with tracer:
        run_cli(tmp_path, "solve", "out")
    m = tracer.metrics()
    # n = 65 on the box [-2, 2]: 31 interior unknowns, one dense matrix per s
    assert m["assembly.dense_bytes"] == 2 * 8 * 31 * 31
    assert m["scipy.solve_calls"] == 4
    assert 0.0 < m["scipy.backward_err"] < 1e-13
    assert m["assembly.kernel_rel_err"] < 1e-9
    assert m["mollifier.calls"] == 0
    assert m["report.bytes_written"] > 0
    root = tracer.spans[0]
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert total + m["trace_probe_s"] == pytest.approx(root[2] - root[1], rel=1e-9)


def test_mpmath_kernel_matches_library_at_small_offsets():
    from fraclap.assembly import stiffness_kernel
    from fraclap.kernels import FracParams

    for s in (0.3, 0.5, 0.9):
        c = stiffness_kernel(FracParams(s=s), 1 / 64, 6)
        for k in range(7):
            assert c[k] == pytest.approx(stiffness_kernel_mp(s, 1 / 64, k), rel=1e-12)


def test_backward_error_probes_for_banded_and_toeplitz_solves():
    import numpy as np
    from scipy.linalg import solve_toeplitz, solveh_banded, toeplitz

    tracer = Tracer()
    col = np.array([4.0, -1.0, 0.5, 0.1, 0.0, 0.0])
    b = np.arange(1.0, 7.0)
    tracer._probe_solve_toeplitz(solve_toeplitz(col, b), {"c_or_cr": col, "b": b})
    ab = np.array([[0.0] + [-1.0] * 5, [2.5] * 6])
    tracer._probe_solveh_banded(solveh_banded(ab, b), {"ab": ab, "b": b})
    assert all(0.0 <= e < 1e-15 for e in tracer.backward_errs) and len(tracer.backward_errs) == 2
    # a wrong solution shows up as a large backward error
    tracer._probe_solve_toeplitz(np.linalg.solve(toeplitz(col), b) + 0.1, {"c_or_cr": col, "b": b})
    assert tracer.backward_errs[-1] > 1e-3
