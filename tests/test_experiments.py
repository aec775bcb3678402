import math
import tracemalloc

import numpy as np
import pytest

from fraclap import cli, config, experiments, mollifier
from fraclap.assembly import ToeplitzOperator
from fraclap.config import EXPERIMENTS, ExperimentConfig, parse_config
from fraclap.errors import ConfigError, NumericalError
from fraclap.experiments import (
    _MOLL_BUMPS,
    run_consistency,
    run_kernel_check,
    run_mollifier_check,
    run_rates,
    run_solve,
)
from fraclap.grid import make_grid
from fraclap.kernels import FracParams
from fraclap.mollifier import mollify
from helpers import csv_text, mollify_gradient, solve_csv_rows, zero_data_err_ws2_sq


def cfg_from(tmp_path, text: str):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return parse_config(path)


class TestKeysRead:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_table_lists_the_fields_each_runner_reads(self, experiment):
        # a config subclass records every field the runner touches; the
        # perturbation is on, so its three keys are reached
        read = set()

        class Recording(ExperimentConfig):
            def __getattribute__(self, name):
                if name in ExperimentConfig._fields:
                    read.add(name)
                return super().__getattribute__(name)

        cfg = Recording(experiment=experiment, s_list=(0.6, 0.7), n=65, pert_mode="fixed")
        getattr(experiments, "run_" + experiment)(cfg)
        assert read == set(config._READS[experiment])


class TestKernelCheck:
    def test_all_rows_pass(self, tmp_path):
        cfg = cfg_from(tmp_path, "experiment = kernel_check\n")
        rep = run_kernel_check(cfg)
        assert rep.passed
        names = {r.name for r in rep.rows}
        assert "psi_moment_vs_quadrature" in names
        assert "eta_second_moment_half" in names
        assert "const_ratio_two_routes" in names
        assert "const_ratio_defect_slope" in names
        for row in rep.rows:
            assert math.isfinite(row.value)

    def test_deterministic(self, tmp_path):
        cfg = cfg_from(tmp_path, "experiment = kernel_check\n")
        assert csv_text(run_kernel_check(cfg)) == csv_text(run_kernel_check(cfg))


class TestMollifierCheck:
    def test_small_sweep_passes(self, tmp_path):
        cfg = cfg_from(tmp_path, "experiment = mollifier_check\ns_list = 0.5\nn = 65\n")
        rep = run_mollifier_check(cfg)
        assert rep.passed
        names = [r.name for r in rep.rows]
        assert "closeness_l2" in names
        assert "energy_consistency" in names
        assert "energy_consistency_eps0" in names
        assert "lipschitz_gradient" in names
        assert "tail_bound" in names
        assert "strip_closeness" in names
        assert "strip_l2" in names

    def test_same_seed_identical_other_seed_still_passes(self, tmp_path):
        base = "experiment = mollifier_check\ns_list = 0.5\nn = 65\n"
        cfg = cfg_from(tmp_path, base)
        assert csv_text(run_mollifier_check(cfg)) == csv_text(run_mollifier_check(cfg))
        other = cfg_from(tmp_path, base + "seed = 7\n")
        rep = run_mollifier_check(other)
        assert rep.passed
        assert csv_text(rep) != csv_text(run_mollifier_check(cfg))


    def test_report_values_pinned(self, tmp_path, monkeypatch):
        # the worst ratios recomputed bump by bump on random.Random(11)'s
        # draws (helpers.random_bump_loop), at full precision: smoothing by
        # helpers.mollify_loop, gradients by helpers.gradient_loop, d1 by
        # helpers.dirichlet_frac, Hoelder quotients by helpers.holder_loop,
        # strip_closeness, the exact max over the strip including each
        # cell's vertex, by helpers.strip_sup_loop and strip_l2 through
        # helpers.build_w, each bound written out from the paper.  The
        # vertices raise some bumps' lhs, but the worst ratio peaks at a
        # node, so it equals the value read over the nodes alone
        cfg = cfg_from(
            tmp_path, "experiment = mollifier_check\ns_list = 0.5, 0.9\nn = 65\nseed = 11\n"
        )
        want = {
            "closeness_l2": 0.029783033823390755,
            "energy_consistency": 0.7253826118258222,
            "energy_consistency_eps0": 0.7253826118258222,
            "lipschitz_gradient": 0.4662232414162616,
            "tail_bound": 0.3325671638952992,
            "strip_closeness": 0.06601389025310667,
            "strip_l2": 0.0019020227167611317,
        }
        built = []
        stencil = mollifier._stencil

        def counted(*key):
            built.append(key)
            return stencil(*key)

        monkeypatch.setattr(mollifier, "_stencil", counted)
        rep = run_mollifier_check(cfg)
        assert {r.name: r.value for r in rep.rows} == pytest.approx(want, rel=1e-12, abs=0.0)
        # one smoothing, gradient and tail stencil per (s, eps)
        assert len(built) == len(set(built)) == 2 * 3 * 3


    def test_one_stencil_application_per_operator(self, tmp_path, monkeypatch):
        # the bumps are smoothed as one stack: one stencil step per (s, eps,
        # operator), 2 * 3 * 3, where a per-bump loop makes 2,400.  Every
        # stencil reaches 1/h = 16 offsets, so the padded stack (65 + 2 * 16
        # values, its differences one fewer) is transformed once per parity
        # and run, not once per stencil; one-function smoothing transforms
        # its data once per call
        steps, transforms = [], []
        apply, rfft = mollifier._apply, np.fft.rfft

        def counted_step(values, w, spectra):
            steps.append(values.shape)
            return apply(values, w, spectra)

        def counted_rfft(a, *args, **kwargs):
            transforms.append(np.shape(a))
            return rfft(a, *args, **kwargs)

        def per_bump_quad_form(self, v):
            raise AssertionError("near energies must come from one stacked matvec")

        monkeypatch.setattr(mollifier, "_apply", counted_step)
        monkeypatch.setattr(np.fft, "rfft", counted_rfft)
        monkeypatch.setattr(ToeplitzOperator, "quad_form", per_bump_quad_form)
        cfg = cfg_from(tmp_path, "experiment = mollifier_check\ns_list = 0.5, 0.9\nn = 65\n")
        assert run_mollifier_check(cfg).passed
        assert steps == [(_MOLL_BUMPS, 65)] * 18
        stacks = sorted(shape for shape in transforms if len(shape) == 2 and shape[-1] > 65)
        assert stacks == [(_MOLL_BUMPS, 96), (_MOLL_BUMPS, 97)]

        grid, phi = make_grid(cfg.domain, 65), np.sin(np.linspace(0.0, 3.0, 65))
        transforms.clear()
        mollify(grid, phi, FracParams(s=0.5))
        mollify_gradient(grid, phi, FracParams(s=0.9, eps=0.1))
        assert [shape for shape in transforms if shape[-1] > 65] == [(97,), (96,)]

    def test_one_lag_scan_per_run(self, tmp_path, monkeypatch):
        # the lag maxima of the bump stack do not depend on s, so a run over
        # s = 0.5, 0.9 scans the lags once for both exponents
        calls = []
        scan = mollifier._holder_quotients

        def counted(values, h, betas):
            calls.append((values.shape, tuple(betas)))
            return scan(values, h, betas)

        monkeypatch.setattr(mollifier, "_holder_quotients", counted)
        cfg = cfg_from(tmp_path, "experiment = mollifier_check\ns_list = 0.5, 0.9\nn = 65\n")
        assert run_mollifier_check(cfg).passed
        assert calls == [((_MOLL_BUMPS, 65), (0.5, 0.9))]

    @pytest.mark.parametrize("n,rows", [(129, [50, 50]), (513, [15] * 6 + [10])])
    def test_one_lag_scan_and_transform_per_parity_per_chunk(self, tmp_path, monkeypatch, n, rows):
        # every stencil reaches L = 1/h = (n - 1) / 4 offsets, so a row pads
        # to n + 2L values and transforms at the power of two p >= that:
        # p = 256 at n = 129 and 1,024 at n = 513.  A chunk keeps rows * p
        # within 2**14, so 100 bumps make ceil(100 p / 2**14) chunks of
        # ceil(100 / chunks) rows.  Each chunk is scanned once for both s
        # and transformed once per parity; each of the 18 stencil kernels
        # is transformed once per run
        scans, transforms = [], []
        scan, rfft = mollifier._holder_quotients, np.fft.rfft

        def counted_scan(values, h, betas):
            scans.append((values.shape, tuple(betas)))
            return scan(values, h, betas)

        def counted_rfft(a, *args, **kwargs):
            transforms.append(np.shape(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(mollifier, "_holder_quotients", counted_scan)
        monkeypatch.setattr(np.fft, "rfft", counted_rfft)
        cfg = cfg_from(tmp_path, f"experiment = mollifier_check\ns_list = 0.5, 0.9\nn = {n}\n")
        assert mollifier._chunk_rows(make_grid(cfg.domain, n), _MOLL_BUMPS) == rows
        assert run_mollifier_check(cfg).passed
        assert scans == [((r, n), (0.5, 0.9)) for r in rows]
        L = (n - 1) // 4
        stacks = [shape for shape in transforms if len(shape) == 2 and shape[-1] > n]
        assert stacks == [shape for r in rows for shape in ((r, n + 2 * L), (r, n + 2 * L - 1))]
        kernels = [shape for shape in transforms if shape in ((2 * L + 1,), (2 * L,))]
        assert sorted(kernels) == [(2 * L,)] * 12 + [(2 * L + 1,)] * 6

    def test_working_set_at_n_513(self, tmp_path):
        # unit: one chunk's transform buffer at most, 2**14 float64 values
        # (128 KiB).  At n = 513 a chunk is 15 bumps and p = 1,024, so its
        # (15, p) buffer and a half spectrum are 0.94 units each and a stack
        # of 15 rows 0.47.  Alive through the run: the 18 stencil kernels,
        # one half spectrum of p each (1.1), the near-energy operators and
        # the Hoelder scale table (0.3).  Per chunk: the bumps (0.5) and
        # their spectra, one per parity (1.9).  On top, the transform in
        # flight holds its spectral product and irfft output (1.9) with at
        # most one more stack, the output rows being read (0.5), and a row
        # function's temporaries, a stack or two (1).  That is 7.2 units,
        # whatever the number of bumps; numpy < 2's irfft also pads its
        # complex input to the output length first (1.9 more)
        cfg = cfg_from(tmp_path, "experiment = mollifier_check\ns_list = 0.5, 0.9\nn = 513\n")
        bound = 8.0 if int(np.__version__.split(".")[0]) >= 2 else 10.0
        tracemalloc.start()
        try:
            assert run_mollifier_check(cfg).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * mollifier._CHUNK_VALUES * 8


class TestRates:
    def test_small_sweep_structure(self, tmp_path):
        cfg = cfg_from(
            tmp_path,
            "experiment = rates\ns_list = 0.8, 0.6, 0.7\nn = 129\nfit_min_s = 0.6\n",
        )
        rep = run_rates(cfg)
        assert [r.s for r in rep.rows] == [0.6, 0.7, 0.8]
        assert math.isfinite(rep.slope)
        assert rep.c_emp > 0.0
        for row in rep.rows:
            assert row.total_ws2_err > row.l2_err > 0.0
            assert row.energy_gap > 0.0

    def test_error_shrinks_toward_local_limit(self, tmp_path):
        cfg = cfg_from(
            tmp_path, "experiment = rates\ns_list = 0.6, 0.9, 0.95\nn = 129\n"
        )
        rows = run_rates(cfg).rows
        assert rows[0].total_ws2_err > rows[1].total_ws2_err > rows[2].total_ws2_err

    def test_deterministic(self, tmp_path):
        cfg = cfg_from(tmp_path, "experiment = rates\ns_list = 0.6, 0.8\nn = 129\n")
        assert csv_text(run_rates(cfg)) == csv_text(run_rates(cfg))

    def test_perturbation_modes_change_rows(self, tmp_path):
        base = "experiment = rates\ns_list = 0.6, 0.8\nn = 129\n"
        plain = run_rates(cfg_from(tmp_path, base))
        shrink = run_rates(cfg_from(tmp_path, base + "pert_mode = shrinking\n"))
        assert shrink.rows[0].total_ws2_err != plain.rows[0].total_ws2_err

    @pytest.mark.parametrize("s", [0.6, 0.99])
    def test_optimality_check_catches_perturbed_solve(self, monkeypatch, s):
        # solve with one kernel entry off by 1e-8 relative; the seminorm and
        # the self-check still use the true operator
        solve = ToeplitzOperator.solve

        def perturbed(self, b):
            c = self.c.copy()
            c[1] *= 1.0 + 1e-8
            return solve(ToeplitzOperator(c), b)

        monkeypatch.setattr(ToeplitzOperator, "solve", perturbed)
        # one s cannot be fitted, so config validation would refuse the file
        cfg = ExperimentConfig(experiment="rates", s_list=(s,), n=257)
        with pytest.raises(NumericalError, match="optimality identity"):
            run_rates(cfg)

    @pytest.mark.parametrize("factor", [0.0, 0.99])
    def test_negative_seminorm_within_roundoff_reads_zero(self, monkeypatch, tmp_path, factor):
        # e^T A e at -factor times the FFT roundoff model is clamped to 0
        def quad_form(self, v):
            return -factor * experiments._roundoff(self) * float(v @ v)

        monkeypatch.setattr(ToeplitzOperator, "quad_form", quad_form)
        rows = run_rates(cfg_from(tmp_path, "experiment = rates\ns_list = 0.6, 0.8\nn = 129\n")).rows
        assert all(r.total_ws2_err == r.l2_err > 0.0 for r in rows)

    def test_negative_seminorm_below_roundoff_exits_one(self, monkeypatch, tmp_path, capsys):
        # just past the model it is a lost definiteness, not roundoff
        def quad_form(self, v):
            return -1.01 * experiments._roundoff(self) * float(v @ v)

        monkeypatch.setattr(ToeplitzOperator, "quad_form", quad_form)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = rates\ns_list = 0.6, 0.8\nn = 129\n", encoding="utf-8")
        assert cli.main(["rates", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "negative seminorm at s=0.6" in capsys.readouterr().err
        assert not (tmp_path / "out" / "rates.csv").exists()

    def test_optimality_check_passes_near_one_on_fine_mesh(self, tmp_path):
        # the former relative-gap check failed here on roundoff alone
        cfg = cfg_from(tmp_path, "experiment = rates\ns_list = 0.95, 0.99\nn = 4097\n")
        rows = run_rates(cfg).rows
        assert [r.s for r in rows] == [0.95, 0.99]
        assert all(r.total_ws2_err > r.l2_err for r in rows)  # a positive seminorm

    def test_zero_data_approaches_continuum_oracle(self):
        # f = 1 with zero exterior data; the relative gap to the continuum
        # err_ws2_sq is O(h): measured 1.0 h, 2.49 h, 2.55 h, 2.53-2.54 h and
        # 2.45-2.54 h at s = 0.6, 0.9, 0.99, 0.999 and 0.9999 (h = 4 / (n - 1)),
        # falling 3.98-4.14 fold per quadrupling of n.  The last two lie
        # past the config band, which ends at 0.995, so the config is built
        # directly
        s_list = (0.6, 0.9, 0.99, 0.999, 0.9999)
        want = np.array([zero_data_err_ws2_sq(s) for s in s_list])
        gaps = []
        for n in (1025, 4097, 16385):
            cfg = ExperimentConfig(experiment="rates", s_list=s_list, n=n)
            got = np.array([r.total_ws2_err**2 for r in run_rates(cfg).rows])
            gaps.append(np.abs(got - want) / want)
            assert np.all(gaps[-1] <= 3.0 * 4.0 / (n - 1))
        for coarse, fine in zip(gaps, gaps[1:]):
            assert np.all(fine * 3.5 <= coarse)


class TestConsistency:
    def test_smooth_data_sweep(self, tmp_path):
        cfg = cfg_from(
            tmp_path,
            "experiment = consistency\ns_list = 0.5, 0.7, 0.9\nfit_min_s = 0.5\n",
        )
        rep = run_consistency(cfg)
        errs = [r.max_abs_err for r in rep.rows]
        assert errs[0] > errs[1] > errs[2] > 0.0
        assert math.isfinite(rep.slope)

    def test_data_without_second_derivative_rejected(self, tmp_path):
        cfg = cfg_from(
            tmp_path,
            "experiment = consistency\ns_list = 0.5, 0.7\nfit_min_s = 0.5\ng_spec = abspow\n",
        )
        with pytest.raises(ConfigError, match="twice-differentiable"):
            run_consistency(cfg)

    def test_flat_data_has_no_fittable_decay(self, tmp_path):
        # a constant is annihilated exactly, so every row is zero and the
        # power-law fit has nothing to work with
        cfg = cfg_from(
            tmp_path,
            "experiment = consistency\ns_list = 0.5, 0.7\nfit_min_s = 0.5\ng_spec = constant\n",
        )
        with pytest.raises(ConfigError, match="positive points"):
            run_consistency(cfg)


class TestSolve:
    def test_block_structure(self, tmp_path):
        cfg = cfg_from(tmp_path, "experiment = solve\ns_list = 0.5, 0.7\nn = 65\n")
        rep = run_solve(cfg)
        assert len(rep.blocks) == 2
        for s, us in rep.blocks:
            assert s in (0.5, 0.7)
            assert len(rep.x) == 65
            assert len(us) == 65
            x = np.asarray(rep.x)
            u = np.asarray(us)
            assert np.all(u[np.abs(x) >= 1.0 - 1e-12] == 0.0)
            assert np.max(u) > 0.0

    def test_csv_matches_row_oracle(self, tmp_path):
        cfg = cfg_from(tmp_path, "experiment = solve\ns_list = 0.5, 0.7, 0.9, 0.99\nn = 1025\n")
        rep = run_solve(cfg)
        assert len(rep.blocks) == 4
        columns = [rep.x] + [us for _, us in rep.blocks]
        assert all(isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns)
        assert not any(c.flags.writeable for c in columns)
        assert csv_text(rep) == solve_csv_rows(rep.x, rep.blocks)
