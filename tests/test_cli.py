import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from faschan import arfit, correlation, generator
from faschan.arfit import fit_clarke_model
from faschan.cli import main, max_workers
from faschan.correlation import CHUNK_ROWS, ClarkeModel, build_covariance, eigen_spectrum, sample_exact
from faschan.generator import simulate_batch
from faschan.interpolation import (
    ObservationSet,
    dense_mmse,
    kalman_smooth,
    nmse,
    port_select,
)
from faschan.rng import complex_standard_normal, derive, make_rng
from faschan.selection_gain import empirical_cdf_max_gain
from faschan.stats import max_gain

from test_acceptance import CLI_CONFIGS


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFit:
    def test_fixed_order_report(self, capsys, tmp_path):
        out = tmp_path / "fit.json"
        code, _, _ = run_cli(
            ["fit", "--W", "2", "--N", "100", "--p", "1", "--no-meta", "--out", str(out)], capsys
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["p"] == 1
        assert len(report["alpha"]) == 1
        assert len(report["root_moduli"]) == 1
        assert report["sigma_eps2"] >= 0

    def test_selection_report_contains_distances(self, capsys, tmp_path):
        out = tmp_path / "sel.json"
        code, _, _ = run_cli(
            [
                "fit", "--W", "1", "--N", "25", "--p-max", "3", "--mc", "1000",
                "--seed", "2", "--no-meta", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["p_star"] == report["p"]
        assert set(report["distances"]) <= {"1", "2", "3"}

    def test_missing_parameters_usage_error(self, capsys):
        code, _, err = run_cli(["fit", "--W", "2", "--no-meta"], capsys)
        assert code == 2
        assert json.loads(err)["type"] == "ValueError"

    def test_malformed_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--bogus", "1"])
        assert exc.value.code == 2

    def test_linear_algebra_failure_exits_one(self, monkeypatch, capsys):
        # LinAlgError is a ValueError, but a numerical failure, not a usage error
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(arfit, "fit_clarke_model", fail)
        code, out, err = run_cli(["fit", "--W", "2", "--N", "20", "--p", "2", "--no-meta"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "SVD did not converge", "type": "LinAlgError"}

    @pytest.mark.parametrize("flag", ["--W", "--sigma2"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_model_usage_error(self, flag, value, capsys):
        code, out, err = run_cli(["fit", "--W", "2", "--N", "20", "--p", "2", flag, value, "--no-meta"], capsys)
        assert code == 2
        assert out == ""
        assert "must be finite" in json.loads(err)["error"]


class TestSelectOrder:
    def test_json_and_csv_formats(self, capsys, tmp_path):
        args = ["select-order", "--W", "1", "--N", "20", "--p-max", "2", "--mc", "1000",
                "--seed", "1", "--no-meta"]
        out_json = tmp_path / "sel.json"
        code, _, _ = run_cli(args + ["--out", str(out_json)], capsys)
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["reference_sample_count"] == 1000
        out_csv = tmp_path / "sel.csv"
        code, _, _ = run_cli(args + ["--format", "csv", "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "p,ks_distance"
        assert len(lines) == 3

    def test_p_max_of_n_usage_error(self, capsys):
        # the surrogate fits orders up to N-1 only
        code, out, err = run_cli(
            ["select-order", "--W", "1", "--N", "20", "--p-max", "20", "--mc", "1000", "--no-meta"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "p_max" in json.loads(err)["error"]


class TestGenerate:
    def test_csv_schema_and_shape(self, capsys, tmp_path):
        out = tmp_path / "gen.csv"
        code, _, _ = run_cli(
            [
                "generate", "--W", "2", "--N", "10", "--p", "2", "--count", "3",
                "--seed", "5", "--no-meta", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "realization_id,port_index,re,im"
        assert len(lines) == 1 + 3 * 10
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"


class TestCdf:
    def test_single_order_schema(self, capsys, tmp_path):
        out = tmp_path / "cdf.csv"
        code, _, _ = run_cli(
            [
                "cdf", "--W", "1", "--N", "20", "--p", "2", "--mc", "1000", "--J", "200",
                "--t-grid", "0.5:8:5", "--seed", "3", "--no-meta", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "threshold,f_exact_mc,f_ar_direct_mc,f_smc,J,seed"
        assert len(lines) == 6
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all((values[:, 1:4] >= 0) & (values[:, 1:4] <= 1))

    def test_multi_order_adds_p_column(self, capsys, tmp_path):
        out = tmp_path / "cdf2.csv"
        code, _, _ = run_cli(
            [
                "cdf", "--W", "1", "--N", "15", "--p", "1,2", "--mc", "1000", "--J", "200",
                "--t-grid", "0.5:6:4", "--seed", "3", "--no-meta", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("p,threshold")
        assert len(lines) == 1 + 2 * 4

    def test_monte_carlo_columns_match_the_whole_blocks(self, capsys, tmp_path):
        # both Monte Carlo columns are reduced a chunk at a time; across a
        # chunk boundary they still equal the curves of the whole (mc, N)
        # blocks drawn from the same seeds
        model, seed, mc = ClarkeModel(W=1.0, N=12), 5, CHUNK_ROWS + 3
        out = tmp_path / "cdf.csv"
        code, _, _ = run_cli(
            [
                "cdf", "--W", "1", "--N", "12", "--p", "1,2", "--mc", str(mc), "--J", "100",
                "--t-grid", "0.2:4:6", "--seed", str(seed), "--no-meta", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        rows = np.array([[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]])
        grid = rows[:6, 1]
        exact = empirical_cdf_max_gain(
            max_gain(sample_exact(eigen_spectrum(build_covariance(model)), derive(seed, 0), mc)), grid
        )
        for p in (1, 2):
            batch = simulate_batch(fit_clarke_model(model, p), model.N, mc, derive(seed, 1, p))
            direct = empirical_cdf_max_gain(max_gain(batch), grid)
            block = rows[rows[:, 0] == p]
            np.testing.assert_array_equal(block[:, 2], exact.values)
            np.testing.assert_array_equal(block[:, 3], direct.values)

    def test_peak_memory_independent_of_mc(self, monkeypatch, capsys, tmp_path):
        # only (mc,) gain vectors grow with mc: no (mc, N) block is built.
        # One worker runs the stages in turn; on a pool the peak would also
        # depend on which stages happen to overlap
        monkeypatch.setenv("FAS_THREADS", "1")
        argv = ["cdf", "--W", "1", "--N", "40", "--p", "1,2", "--J", "100", "--t-grid", "0.2:4:6",
                "--seed", "3", "--no-meta", "--out", str(tmp_path / "cdf.csv")]
        peaks = []
        for mc in (2 * CHUNK_ROWS, 4 * CHUNK_ROWS):
            tracemalloc.start()
            try:
                assert main([*argv, "--mc", str(mc)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] == pytest.approx(peaks[0], rel=0.1)

    def test_peak_memory_independent_of_mc_on_a_pool(self, monkeypatch, capsys, tmp_path):
        # on a pool, each stage that happens to overlap another holds at most
        # one exact chunk and one generator chunk, whatever mc; an (mc, N)
        # block would raise the peak between these two mc far beyond that
        monkeypatch.setenv("FAS_THREADS", "2")
        n = 40
        argv = ["cdf", "--W", "1", "--N", str(n), "--p", "1,2", "--J", "100", "--t-grid", "0.2:4:6",
                "--seed", "3", "--no-meta", "--out", str(tmp_path / "cdf.csv")]
        peaks = []
        for mc in (2 * CHUNK_ROWS, 16 * CHUNK_ROWS):
            tracemalloc.start()
            try:
                assert main([*argv, "--mc", str(mc)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] <= peaks[0] + max_workers() * (CHUNK_ROWS + generator._CHUNK_ROWS) * n * 16

    def test_output_independent_of_worker_count(self, monkeypatch, capsys, tmp_path):
        # every task of the cdf graph owns its seed: the pilot grid, both
        # Monte Carlo columns and f_smc come out alike on any pool size
        out = tmp_path / "cdf.csv"
        argv = ["cdf", "--W", "2", "--N", "30", "--p", "1,2", "--mc", "1500", "--J", "200",
                "--t-quantile-grid", "5", "--seed", "4", "--no-meta", "--out", str(out)]
        texts = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("FAS_THREADS", threads)
            assert main(argv) == 0
            texts.append(out.read_bytes())
        capsys.readouterr()
        assert texts[1] == texts[0] and texts[2] == texts[0]
        assert len(texts[0].decode().splitlines()) == 1 + 2 * 5

    def test_pilot_memory_is_one_chunk(self, monkeypatch, capsys, tmp_path):
        # the quantile pilot draws its 4000 rows a chunk at a time, as the
        # exact column does, so it adds at most about one chunk of samples
        # to the peak of the same job on a given grid; a chunk well below
        # the pilot's size tells the two apart
        chunk = 256
        monkeypatch.setattr(correlation, "CHUNK_ROWS", chunk)
        monkeypatch.setenv("FAS_THREADS", "1")  # stages in turn, so the peaks compare stage by stage
        n = 50
        argv = ["cdf", "--W", "2", "--N", str(n), "--p", "2", "--mc", "1000", "--J", "100",
                "--seed", "3", "--no-meta", "--out", str(tmp_path / "cdf.csv")]
        peaks = []
        for grid in (["--t-grid", "0.5:4:5"], ["--t-quantile-grid", "5"]):
            tracemalloc.start()
            try:
                assert main([*argv, *grid]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] - peaks[0] <= chunk * n * 16

    def test_empty_grid_rejected(self, capsys):
        code, _, err = run_cli(
            ["cdf", "--W", "1", "--N", "15", "--p", "1", "--t-grid", "0:1:0", "--no-meta"],
            capsys,
        )
        assert code == 2

    def test_bad_quantile_grid_rejected_before_sampling(self, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("sampled before the grid size was checked")

        monkeypatch.setattr(correlation, "sample_exact_max_gains", unexpected)
        code, _, err = run_cli(
            ["cdf", "--W", "1", "--N", "15", "--p", "1", "--t-quantile-grid", "0", "--no-meta"], capsys
        )
        assert code == 2
        assert "--t-quantile-grid" in err

    @pytest.mark.parametrize("grid", ["5:1:4", "-1:2:4"])
    def test_bad_threshold_grid_rejected_before_sampling(self, grid, monkeypatch, capsys):
        # stop below start, or a negative threshold, fails before the spectrum
        # and the Monte Carlo columns are drawn
        def unexpected(*args, **kwargs):
            raise AssertionError("sampled before the grid was checked")

        monkeypatch.setattr(correlation, "sample_exact_max_gains", unexpected)
        monkeypatch.setattr(correlation, "eigen_spectrum", unexpected)
        code, _, err = run_cli(
            ["cdf", "--W", "1", "--N", "15", "--p", "1", f"--t-grid={grid}", "--no-meta"], capsys
        )
        assert code == 2
        assert "--t-grid" in err

    def test_format_flag_usage_error(self):
        # --format belongs to select-order; cdf writes CSV only
        with pytest.raises(SystemExit) as exc:
            main(["cdf", "--W", "1", "--N", "15", "--p", "1", "--format", "json", "--no-meta"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--J", "--ess-ratio"])
    def test_explicit_zero_reaches_validation(self, flag, capsys):
        # a zero must not fall back to the built-in default
        code, _, err = run_cli(
            [
                "cdf", "--W", "1", "--N", "15", "--p", "1", "--mc", "1000", "--J", "200",
                "--t-grid", "0.5:6:2", flag, "0", "--no-meta",
            ],
            capsys,
        )
        assert code == 2
        assert json.loads(err)["type"] == "ValueError"


class TestInterpolate:
    def test_per_port_schema(self, capsys, tmp_path):
        out = tmp_path / "itp.csv"
        code, _, _ = run_cli(
            [
                "interpolate", "--W", "2", "--N", "30", "--M", "6", "--strategy",
                "uniform_endpoints", "--p", "4", "--seed", "7", "--no-meta", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = (
            "port_index,observed,truth_re,truth_im,kalman_re,kalman_im,kalman_var,"
            "oracle_re,oracle_im,oracle_var"
        )
        assert lines[0] == header
        assert len(lines) == 31
        observed = [line.split(",")[1] for line in lines[1:]]
        assert observed.count("1") == 6

    def test_precondition_error(self, capsys):
        code, _, err = run_cli(
            [
                "interpolate", "--W", "2", "--N", "100", "--M", "101", "--strategy", "random",
                "--p", "2", "--no-meta",
            ],
            capsys,
        )
        assert code == 2
        assert "M" in json.loads(err)["error"]

    @pytest.mark.parametrize("sigma_v2", ["inf", "nan"])
    def test_non_finite_noise_usage_error(self, sigma_v2, capsys):
        with warnings.catch_warnings():
            # refused at validation, before any arithmetic could warn
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(
                [
                    "interpolate", "--W", "2", "--N", "30", "--M", "6", "--strategy", "random",
                    "--p", "4", "--sigma-v2", sigma_v2, "--no-meta",
                ],
                capsys,
            )
        assert code == 2
        assert json.loads(err)["type"] == "ValueError"
        assert "noise_var" in json.loads(err)["error"]


class TestBench:
    def test_schema_and_ratio(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            [
                "bench", "--W", "2", "--N", "20,30", "--ratio", "0.2", "--p", "3",
                "--trials", "2", "--strategies", "uniform_endpoints,random",
                "--seed", "1", "--no-meta", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == (
            "trial_id,strategy,N,M,sigma_v2,nmse_kalman,nmse_oracle,l_max,wall_time_us"
        )
        assert len(lines) == 1 + 2 * 2 * 2

    def test_rows_match_per_trial_reconstruction(self, capsys, tmp_path):
        # bench shares one call among trials with the same ports; every row
        # must still be its own trial's reconstruction, seeds and noise included
        out = tmp_path / "bench.csv"
        n, m, trials, seed, sigma_v2 = 30, 6, 3, 4, 1e-2
        strategies = ["uniform_interior", "random"]
        code, _, _ = run_cli(
            ["bench", "--W", "2", "--N", str(n), "--M", str(m), "--p", "3", "--trials", str(trials),
             "--strategies", ",".join(strategies), "--sigma-v2", str(sigma_v2), "--seed", str(seed),
             "--no-meta", "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        model = ClarkeModel(W=2.0, N=n)
        cov = build_covariance(model)
        fitted = fit_clarke_model(model, 3)
        truths = sample_exact(eigen_spectrum(cov), derive(seed, n), trials)
        expected = []
        for s_idx, strategy in enumerate(strategies):
            for t in range(trials):
                idx = port_select(strategy, n, m, derive(seed, n, s_idx, t))
                noise = complex_standard_normal(make_rng(derive(seed, n, s_idx, t, 1)), m)
                obs = ObservationSet(idx, truths[t, idx - 1] + np.sqrt(sigma_v2) * noise, sigma_v2)
                unobserved = np.setdiff1d(np.arange(1, n + 1), idx)
                kalman = kalman_smooth(fitted, obs, n).means
                expected.append((str(t), strategy, nmse(truths[t], kalman, unobserved),
                                 nmse(truths[t], dense_mmse(cov, obs).means, unobserved)))
        assert [(r[0], r[1]) for r in rows] == [e[:2] for e in expected]
        for row, (_, _, nm_k, nm_o) in zip(rows, expected):
            assert float(row[5]) == pytest.approx(nm_k, rel=1e-12)
            assert float(row[6]) == pytest.approx(nm_o, rel=1e-12)

    @pytest.mark.parametrize("strategies, m", [("random,uniform_interior", 1), ("uniform_endpoints", 2)])
    def test_ratio_down_to_the_least_accepted_m(self, strategies, m, capsys, tmp_path):
        # round(ratio * N) is used as it is, never raised to what a strategy needs
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            ["bench", "--W", "2", "--N", "50", "--p", "3", "--ratio", str(m / 50), "--trials", "2",
             "--strategies", strategies, "--seed", "1", "--no-meta", "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows and {row["M"] for row in rows} == {str(m)}

    def test_duplicate_strategy_usage_error(self, capsys):
        code, out, err = run_cli(
            ["bench", "--W", "2", "--N", "20", "--ratio", "0.2", "--p", "3", "--trials", "2",
             "--strategies", "random,uniform_interior,random", "--no-meta"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "twice" in json.loads(err)["error"]


class TestBound:
    def test_schema_and_trivial_epsilon(self, capsys, tmp_path):
        out = tmp_path / "bound.csv"
        code, _, _ = run_cli(
            [
                "bound", "--W", "2", "--N", "30", "--eps", "1,0.1", "--trials", "20",
                "--p", "3", "--seed", "2", "--no-meta", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epsilon,m_min_bound,m_min_empirical_oracle,m_min_empirical_kalman"
        rows = [line.split(",") for line in lines[1:]]
        assert rows[0][0] == "1.0" and rows[0][1] == "0"
        for row in rows:
            assert int(row[1]) <= int(row[2])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bound", "--W", "2", "--N", "100", "--eps", "0.001,2", "--trials", "500"], "--eps"),
            (["bound", "--W", "2", "--N", "100", "--eps", "-0.1"], "--eps"),
            (["bound", "--W", "2", "--N", "100", "--eps", "0.1", "--trials", "0"], "--trials"),
            (["bench", "--W", "2", "--N", "50", "--ratio", "0.2", "--p", "4", "--trials", "0"], "--trials"),
            (["bench", "--W", "2", "--N", "20", "--p", "3", "--ratio", "-1", "--trials", "2",
              "--strategies", "uniform_endpoints"], "--ratio"),
            (["bench", "--W", "2", "--N", "20", "--p", "3", "--ratio", "0"], "--ratio"),
            (["bench", "--W", "2", "--N", "20", "--p", "3", "--ratio", "1.5"], "--ratio"),
            (["bench", "--W", "2", "--N", "20", "--p", "3", "--M", "0"], "--M"),
            (["interpolate", "--W", "2", "--N", "20", "--p", "3", "--M", "-2",
              "--strategy", "uniform_endpoints"], "--M"),
            # fewer observed ports than a requested strategy accepts, or more than N
            (["bench", "--W", "2", "--N", "50", "--p", "3", "--M", "1", "--trials", "2"], "--M"),
            (["interpolate", "--W", "2", "--N", "100", "--M", "1", "--strategy", "uniform_endpoints",
              "--p-max", "20"], "--M"),
            (["bench", "--W", "2", "--N", "50", "--p", "3", "--ratio", "0.01", "--strategies", "random"],
             "--ratio"),
            (["bench", "--W", "2", "--N", "60,30", "--p", "3", "--M", "40", "--trials", "2"], "--M"),
            # the two ways to give the observed count are alternatives
            (["bench", "--W", "2", "--N", "30", "--p", "3", "--M", "5", "--ratio", "0.5", "--trials", "1",
              "--strategies", "random"], "--M and --ratio"),
            # so are a fixed order and a selected one, and the two threshold grids
            (["fit", "--W", "2", "--N", "30", "--p", "3", "--p-max", "6"], "--p and --p-max"),
            (["interpolate", "--W", "2", "--N", "30", "--p", "3", "--p-max", "6", "--M", "6",
              "--strategy", "uniform_endpoints"], "--p and --p-max"),
            (["bound", "--W", "2", "--N", "30", "--p", "3", "--p-max", "6", "--eps", "0.1"],
             "--p and --p-max"),
            (["cdf", "--W", "2", "--N", "30", "--p", "3", "--t-grid", "0.5:4:3", "--t-quantile-grid", "7"],
             "--t-grid and --t-quantile-grid"),
            # a repeated entry of a list that keys seeds would repeat its rows
            (["cdf", "--W", "2", "--N", "30", "--p", "3,3", "--mc", "1000", "--J", "100",
              "--t-quantile-grid", "2"], "--p"),
            (["bench", "--W", "2", "--N", "30,30", "--p", "3", "--ratio", "0.2", "--trials", "2"], "--N"),
        ],
    )
    def test_bad_eps_or_trials_rejected_before_sampling(self, argv, flag, monkeypatch, capsys):
        # a target outside [0, 1], an empty Monte Carlo round, an observation
        # fraction outside (0, 1], an observed port count outside what the
        # strategies accept, two alternatives given together, or a repeated
        # seed-keying entry fails before any fit, spectrum or draw
        def unexpected(*args, **kwargs):
            raise AssertionError("sampled before the flags were checked")

        monkeypatch.setattr(correlation, "sample_exact", unexpected)
        monkeypatch.setattr(correlation, "eigen_spectrum", unexpected)
        monkeypatch.setattr(arfit, "fit_clarke_model", unexpected)
        code, out, err = run_cli([*argv, "--no-meta"], capsys)
        assert code == 2
        assert out == ""
        assert flag in json.loads(err)["error"]


class TestSharedSpectrum:
    @pytest.mark.parametrize(
        "argv",
        [
            ["interpolate", "--W", "2", "--N", "30", "--p-max", "3", "--mc", "1000", "--M", "6",
             "--strategy", "uniform_endpoints"],
            ["bound", "--W", "2", "--N", "30", "--p-max", "3", "--mc", "1000", "--eps", "0.1",
             "--trials", "4"],
        ],
        ids=["interpolate", "bound"],
    )
    def test_order_selection_and_truths_share_one_eigendecomposition(self, argv, monkeypatch, capsys):
        # the selection's reference sample, the truths and the bound all read
        # the exact model's one cached spectrum; counted in every module
        # namespace that holds eigen_spectrum
        calls = []

        def counted(cov):
            calls.append(cov.N)
            return eigen_spectrum(cov)

        for name, module in list(sys.modules.items()):
            if name.startswith("faschan") and getattr(module, "eigen_spectrum", None) is eigen_spectrum:
                monkeypatch.setattr(module, "eigen_spectrum", counted)
        code, _, _ = run_cli([*argv, "--no-meta"], capsys)
        assert code == 0
        assert calls == [30]


class TestDeterminism:
    COMMANDS = [
        ["fit", "--W", "2", "--N", "40", "--p", "3"],
        ["select-order", "--W", "1", "--N", "15", "--p-max", "2", "--mc", "1000"],
        ["generate", "--W", "2", "--N", "8", "--p", "2", "--count", "2"],
        ["cdf", "--W", "1", "--N", "12", "--p", "2", "--mc", "1000", "--J", "150",
         "--t-grid", "0.5:5:4"],
        ["interpolate", "--W", "2", "--N", "20", "--M", "5", "--strategy", "random", "--p", "2"],
        ["bench", "--W", "2", "--N", "15", "--ratio", "0.25", "--p", "2", "--trials", "2"],
        ["bound", "--W", "2", "--N", "20", "--eps", "0.5", "--trials", "10", "--p", "2"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_byte_identical_reruns(self, argv, capsys, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in paths:
            code, _, _ = run_cli([*argv, "--seed", "9", "--no-meta", "--out", str(path)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_meta_line_present_by_default(self, capsys, tmp_path):
        out = tmp_path / "meta.csv"
        code, _, _ = run_cli(
            ["generate", "--W", "2", "--N", "5", "--p", "1", "--count", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text().startswith("# generated_at=")


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"W": 2.0, "N": 30, "p": 2, "count": 4}))
        out = tmp_path / "gen.csv"
        code, _, _ = run_cli(
            [
                "generate", "--config", str(config), "--count", "1", "--seed", "3",
                "--no-meta", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 1 * 30  # count from flag, N from config

    def test_config_seed_out_and_no_meta_apply(self, capsys, tmp_path):
        argv = ["generate", "--W", "2", "--N", "10", "--p", "2", "--count", "2"]
        by_flag = tmp_path / "flag.csv"
        assert run_cli([*argv, "--seed", "5", "--no-meta", "--out", str(by_flag)], capsys)[0] == 0
        by_config = tmp_path / "config.csv"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5, "no_meta": True, "out": str(by_config)}))
        assert run_cli([*argv, "--config", str(config)], capsys)[0] == 0
        assert by_config.read_bytes() == by_flag.read_bytes()
        # a flag still overrides the config
        override = tmp_path / "override.csv"
        reference = tmp_path / "seed7.csv"
        code, _, _ = run_cli([*argv, "--config", str(config), "--seed", "7", "--out", str(override)], capsys)
        assert code == 0
        assert run_cli([*argv, "--seed", "7", "--no-meta", "--out", str(reference)], capsys)[0] == 0
        assert override.read_bytes() == reference.read_bytes()
        assert override.read_bytes() != by_flag.read_bytes()

    def test_zero_burn_in_honoured(self, capsys, tmp_path):
        out = tmp_path / "gen.csv"
        code, _, _ = run_cli(
            [
                "generate", "--W", "2", "--N", "6", "--p", "2", "--count", "1", "--burn", "0",
                "--seed", "4", "--no-meta", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        fitted = fit_clarke_model(ClarkeModel(W=2.0, N=6), 2)
        row = simulate_batch(fitted, 6, 1, seed=4, burn_in_factor=0)[0]
        lines = out.read_text().splitlines()[1:]
        values = np.array([[float(v) for v in line.split(",")[2:]] for line in lines])
        np.testing.assert_array_equal(values[:, 0] + 1j * values[:, 1], row)

    @pytest.mark.parametrize("argv", CLI_CONFIGS, ids=lambda a: a[0])
    def test_config_form_matches_flag_form(self, argv, capsys, tmp_path):
        by_flag = tmp_path / "flag.out"
        assert run_cli([*argv, "--seed", "9", "--no-meta", "--out", str(by_flag)], capsys)[0] == 0
        values = {"seed": 9, "no_meta": True}
        for flag, text in zip(argv[1::2], argv[2::2]):
            try:  # numbers as JSON numbers, comma lists and names as strings
                values[flag[2:]] = json.loads(text)
            except json.JSONDecodeError:
                values[flag[2:]] = text
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        by_config = tmp_path / "config.out"
        assert run_cli([argv[0], "--config", str(config), "--out", str(by_config)], capsys)[0] == 0
        assert by_config.read_bytes() == by_flag.read_bytes()

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["fit", "--N", "20", "--p", "3"], "W", [1]),
            (["bound", "--W", "2", "--N", "20", "--p", "2"], "eps", [0.1, 0.01]),
            (["bench", "--W", "2", "--N", "15", "--M", "3", "--p", "2"], "strategies", ["random"]),
            (["cdf", "--W", "1", "--N", "15", "--p", "1"], "t_grid", [0.5, 8, 5]),
        ],
        ids=["W", "eps", "strategies", "t_grid"],
    )
    def test_wrong_json_type_usage_error(self, argv, key, value, capsys, tmp_path):
        # a config value is converted as its JSON text would be as a flag
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code, out, err = run_cli([*argv, "--config", str(config), "--no-meta"], capsys)
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["type"] == "ValueError"
        assert "--" + key.replace("_", "-") in error["error"]

    @pytest.mark.parametrize(
        "argv, values, flags",
        [
            (["fit", "--W", "2", "--N", "30", "--p", "3"], {"p_max": 6}, "--p and --p-max"),
            (["fit", "--W", "2", "--N", "30"], {"p": 3, "p_max": 6}, "--p and --p-max"),
            (["cdf", "--W", "2", "--N", "30", "--p", "3", "--t-grid", "0.5:4:3"], {"t_quantile_grid": 7},
             "--t-grid and --t-quantile-grid"),
            (["bench", "--W", "2", "--N", "30", "--p", "3", "--M", "5"], {"ratio": 0.5}, "--M and --ratio"),
        ],
    )
    def test_alternatives_given_through_config_rejected(
        self, argv, values, flags, monkeypatch, capsys, tmp_path
    ):
        # a config value counts as given, as a flag does; a default does not
        def unexpected(*args, **kwargs):
            raise AssertionError("fitted before the flags were checked")

        monkeypatch.setattr(arfit, "fit_clarke_model", unexpected)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        code, out, err = run_cli([*argv, "--config", str(config), "--no-meta"], capsys)
        assert code == 2
        assert out == ""
        assert flags in json.loads(err)["error"]

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nope": 1}))
        code, _, err = run_cli(["fit", "--config", str(config), "--no-meta"], capsys)
        assert code == 2


class TestThreadCap:
    def test_fas_threads_env(self, monkeypatch):
        from faschan.cli import max_workers

        monkeypatch.setenv("FAS_THREADS", "1")
        assert max_workers() == 1
        monkeypatch.setenv("FAS_THREADS", "bogus")
        with pytest.raises(ValueError):
            max_workers()
        monkeypatch.delenv("FAS_THREADS")
        assert max_workers() >= 1


class TestImports:
    def test_scipy_signal_never_imported(self, tmp_path):
        # importing scipy.signal adds about 1 s and 47 MB to numpy and
        # scipy.linalg, more than the impulse-response work its filters
        # could take over, and every CLI job would pay that set-up cost
        out = tmp_path / "bench.csv"
        argv = ["bench", "--W", "2", "--N", "20", "--ratio", "0.2", "--p", "3", "--trials", "2",
                "--seed", "1", "--no-meta", "--out", str(out)]
        script = (
            "import sys\n"
            "import faschan\n"
            "from faschan.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('scipy.signal' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert out.exists()
        assert done.stdout.split() == ["False"]
