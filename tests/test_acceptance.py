"""Full-scale acceptance gate, one test per criterion.

Each test prints one ``[ACCEPTANCE] C<k> ... -> PASS/FAIL`` line (run with
``-s`` to see them live).  Seeds are fixed constants committed before the
final runs; the statistical tolerances come from the criteria themselves.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from faschan.arfit import fit_clarke_model, select_order
from faschan.cli import main as cli_main
from faschan.correlation import ClarkeModel, build_covariance, eigen_spectrum, sample_exact
from faschan.generator import SimulationConfig, simulate_batch
from faschan.interpolation import (
    ObservationSet,
    dense_mmse,
    empirical_min_observations,
    kalman_smooth,
    max_gap,
    min_observations_bound,
    nmse,
    port_select,
    trial_patterns,
)
from faschan.rng import complex_standard_normal, derive, make_rng
from faschan.selection_gain import empirical_cdf_max_gain, smc_cdf
from faschan.stats import ks_distance, max_gain

from conftest import make_consistent_model

SEED = 1
MC_SAMPLES = 30_000
WORKERS = max(1, min(os.cpu_count() or 1, 4))


def report(criterion, name, ok, detail):
    print(f"[ACCEPTANCE] {criterion} {name}: {detail} -> {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def flagship():
    return ClarkeModel(W=5.0, N=200)


@pytest.fixture(scope="module")
def flagship_reference(flagship):
    spectrum = eigen_spectrum(build_covariance(flagship))
    return max_gain(sample_exact(spectrum, derive(SEED, 500), MC_SAMPLES))


def candidate_gains(model, p, seed, mc=MC_SAMPLES, burn_in_factor=5):
    fitted = fit_clarke_model(model, p)
    config = SimulationConfig(N=model.N, B=burn_in_factor * model.N, seed=seed)
    return max_gain(simulate_batch(fitted, config, mc))


def test_c1_order_selection_reproduction(flagship):
    started = time.perf_counter()
    result = select_order(
        flagship, p_max=40, mc_samples=MC_SAMPLES, burn_in_factor=5, seed=SEED, workers=WORKERS
    )
    elapsed = time.perf_counter() - started
    d_star = result.distances[result.p_star]
    ok = 34 <= result.p_star <= 40 and d_star <= 0.012
    report(
        "C1",
        "order-selection reproduction",
        ok,
        f"p_star={result.p_star}, D(p_star)={d_star:.4f} (<=0.012), runtime={elapsed:.0f}s "
        f"on {os.cpu_count()} cores",
    )
    assert 34 <= result.p_star <= 40
    assert d_star <= 0.012
    # the 10-minute runtime target presumes a desktop core set
    if (os.cpu_count() or 1) >= 8:
        assert elapsed < 600.0


def test_c2_order_trend(flagship, flagship_reference):
    distances = {}
    for p in (5, 10, 20):
        gains = candidate_gains(flagship, p, derive(SEED, 501, p))
        distances[p] = ks_distance(flagship_reference, gains)
    ok = distances[20] < distances[10] < distances[5]
    report(
        "C2",
        "order trend",
        ok,
        f"D(5)={distances[5]:.4f} > D(10)={distances[10]:.4f} > D(20)={distances[20]:.4f}",
    )
    assert distances[20] < distances[10] < distances[5]
    assert distances[10] <= distances[5] and distances[20] <= distances[5]


def test_c3_particle_consistency(flagship, flagship_reference):
    fitted = fit_clarke_model(flagship, 37)
    grid = np.quantile(flagship_reference, (np.arange(40) + 0.5) / 40)
    config = SimulationConfig(N=flagship.N, B=5 * flagship.N, seed=derive(SEED, 502))
    direct = empirical_cdf_max_gain(max_gain(simulate_batch(fitted, config, MC_SAMPLES)), grid)
    gaps = {}
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for j in (1_000, 10_000):
            curve = smc_cdf(fitted, flagship.N, grid, J=j, seed=derive(SEED, 503, j), pool=pool)
            gaps[j] = float(np.max(np.abs(curve.values - direct.values)))
    ok = gaps[10_000] <= 0.02 and gaps[10_000] <= gaps[1_000]
    report(
        "C3",
        "particle evaluator consistency",
        ok,
        f"sup-gap J=1e4: {gaps[10_000]:.4f} (<=0.02), J=1e3: {gaps[1_000]:.4f}",
    )
    assert gaps[10_000] <= 0.02
    assert gaps[10_000] <= gaps[1_000]


def test_c4_kalman_dense_equivalence():
    from faschan.arfit import arp_induced_covariance

    rng = make_rng((SEED, 504))
    worst_mean = worst_var = 0.0
    for trial in range(200):
        p = int(rng.integers(1, 41))
        n = int(rng.integers(max(10, p + 1), 201))
        m = int(rng.integers(1, n + 1))
        noise = 0.0 if trial % 2 == 0 else 1e-2
        model = make_consistent_model(p, seed=(SEED, 505, trial))
        cov = arp_induced_covariance(model, n)
        truth = sample_exact(eigen_spectrum(cov), (SEED, 506, trial), 1)[0]
        idx = np.sort(make_rng((SEED, 507, trial)).choice(n, size=m, replace=False) + 1)
        values = truth[idx - 1]
        if noise > 0:
            values = values + np.sqrt(noise) * complex_standard_normal(
                make_rng((SEED, 508, trial)), m
            )
        obs = ObservationSet(indices=idx, values=values, noise_var=noise)
        dense = dense_mmse(cov, obs)
        kalman = kalman_smooth(model, obs, n)
        scale = max(float(np.abs(dense.means).max()), 1e-12)
        worst_mean = max(worst_mean, float(np.abs(dense.means - kalman.means).max()) / scale)
        worst_var = max(worst_var, float(np.abs(dense.variances - kalman.variances).max()))
    ok = worst_mean <= 1e-6 and worst_var <= 1e-6
    report(
        "C4",
        "smoother equals dense conditioning",
        ok,
        f"200 instances: worst mean rel diff {worst_mean:.2e} (<=1e-6), "
        f"worst variance diff {worst_var:.2e} (<=1e-6*r0, r0=1)",
    )
    assert worst_mean <= 1e-6
    assert worst_var <= 1e-6


def test_c4_production_fit_equivalence():
    # C4's toys keep every root within 0.6 of the origin; the fits the CLI
    # runs sit near the unit circle, with state condition numbers of 1e15+
    from faschan.arfit import arp_induced_covariance

    worst_mean = worst_var = 0.0
    patterns = (("random", 1e-2), ("random", 0.0), ("uniform_endpoints", 0.0))
    for w, n, p in ((2.0, 100, 10), (2.0, 100, 20), (5.0, 200, 20), (5.0, 200, 37)):
        model = fit_clarke_model(ClarkeModel(W=w, N=n), p)
        cov = arp_induced_covariance(model, n)
        spectrum = eigen_spectrum(cov)
        for seed in (1, 2):
            truth = sample_exact(spectrum, (seed, 515, n, p), 1)[0]
            for s_idx, (strategy, noise) in enumerate(patterns):
                idx = port_select(strategy, n, n // 5, (seed, 516, n, p, s_idx))
                values = truth[idx - 1]
                if noise > 0:
                    values = values + np.sqrt(noise) * complex_standard_normal(
                        make_rng((seed, 517, n, p)), idx.size
                    )
                obs = ObservationSet(indices=idx, values=values, noise_var=noise)
                dense = dense_mmse(cov, obs)
                kalman = kalman_smooth(model, obs, n)
                scale = float(np.abs(dense.means).max())
                worst_mean = max(worst_mean, float(np.abs(dense.means - kalman.means).max()) / scale)
                worst_var = max(worst_var, float(np.abs(dense.variances - kalman.variances).max()) / model.r0)
    ok = worst_mean <= 1e-6 and worst_var <= 1e-6
    report(
        "C4",
        "smoother equals dense conditioning on production fits",
        ok,
        f"24 instances: worst mean rel diff {worst_mean:.2e} (<=1e-6), "
        f"worst variance diff {worst_var:.2e} (<=1e-6*r0)",
    )
    assert worst_mean <= 1e-6
    assert worst_var <= 1e-6


def test_c5_bound_tightness():
    model = ClarkeModel(W=2.0, N=100)
    cov = build_covariance(model)
    spectrum = eigen_spectrum(cov)

    def truth_sampler(seed, count):
        return sample_exact(spectrum, seed, count)

    details = []
    ok = True
    for eps in (1e-1, 1e-2, 1e-3):
        bound = min_observations_bound(spectrum, eps)
        empirical = empirical_min_observations(
            eps,
            trials=500,
            seed=(SEED, 509, int(-np.log10(eps))),
            estimator=lambda obs: dense_mmse(cov, obs),
            truth_sampler=truth_sampler,
            strategy="uniform_endpoints",
            N=model.N,
            min_m=2,
        )
        details.append(f"eps={eps:g}: bound={bound}, empirical={empirical}")
        ok = ok and bound <= empirical <= bound + 4
    report("C5", "observation-count bound tightness", ok, "; ".join(details))
    assert ok


def test_c6_strategy_ordering():
    strategies = ("uniform_endpoints", "uniform_interior", "random")
    trials = 500
    ok = True
    details = []
    for n in (50, 100, 200):
        model = ClarkeModel(W=2.0, N=n)
        m = round(0.2 * n)
        cov = build_covariance(model)
        spectrum = eigen_spectrum(cov)
        fitted = fit_clarke_model(model, 20)
        truths = sample_exact(spectrum, (SEED, 510, n), trials)
        oracle = {s: np.empty(trials) for s in strategies}
        kalman_mean = {}
        for strategy in strategies:
            kal = np.empty(trials)
            # trials that observe the same ports share one call per route
            seed = (SEED, 511, n, strategies.index(strategy))
            for idx, members in trial_patterns(strategy, n, m, trials, seed):
                rows = truths[members]
                obs = ObservationSet(indices=idx, values=rows[:, idx - 1], noise_var=0.0)
                unobserved = np.setdiff1d(np.arange(1, n + 1), idx)
                oracle[strategy][members] = nmse(rows, dense_mmse(cov, obs).means, unobserved)
                kal[members] = nmse(rows, kalman_smooth(fitted, obs, n).means, unobserved)
            kalman_mean[strategy] = float(np.mean(kal))
        # the claimed mean ordering, established at 3 sigma through the
        # paired log-ratio (the worse arm's rare catastrophic placements
        # make the arithmetic difference a powerless statistic)
        for better, worse in (("uniform_endpoints", "uniform_interior"),
                              ("uniform_interior", "random")):
            ok = ok and float(np.mean(oracle[better])) <= float(np.mean(oracle[worse]))
            log_ratio = np.log(oracle[worse]) - np.log(oracle[better])
            margin = float(np.mean(log_ratio)) - 3.0 * float(
                np.std(log_ratio, ddof=1) / np.sqrt(trials)
            )
            ok = ok and margin > 0
        details.append(
            f"N={n}: oracle means "
            + ", ".join(f"{s}={np.mean(oracle[s]):.2e}" for s in strategies)
            + " | kalman "
            + ", ".join(f"{s}={kalman_mean[s]:.2e}" for s in strategies)
        )
    report("C6", "strategy NMSE ordering at 3 sigma", ok, " ;; ".join(details))
    assert ok


def test_c7_gap_statistics_law():
    n, m, trials = 10_000, 100, 1_000
    gaps = np.array(
        [max_gap(port_select("random", n, m, (SEED, 512, t)), n) for t in range(trials)]
    )
    ratio = float(np.mean(gaps)) / ((n / m) * np.log(m))
    ok = 0.6 <= ratio <= 1.5
    report("C7", "largest-gap growth law", ok, f"mean L_max / ((N/M) log M) = {ratio:.3f}")
    assert 0.6 <= ratio <= 1.5


def _min_time(fn, repeats=5):
    # the minimum is the run least disturbed by other load on the machine
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_c8_complexity_scaling():
    model = fit_clarke_model(ClarkeModel(W=2.0, N=100), 20)
    model.stationary_factor  # cached on the model: time the smoothing alone
    sizes = np.array([1_000, 4_000, 16_000])
    kalman_times = []
    for n in sizes:
        idx = port_select("uniform_endpoints", int(n), int(n) // 5)
        values = complex_standard_normal(make_rng((SEED, 513, int(n))), idx.size)
        obs = ObservationSet(indices=idx, values=values, noise_var=1e-2)
        # reading the variances runs the deferred backward factor pass, so the
        # slope covers the whole posterior
        kalman_times.append(_min_time(lambda: kalman_smooth(model, obs, int(n)).variances))
    kalman_slope = float(np.polyfit(np.log(sizes), np.log(kalman_times), 1)[0])

    dense_sizes = np.array([200, 400, 800])
    dense_times = []
    for m in dense_sizes:
        cov = build_covariance(ClarkeModel(W=2.0, N=int(m)))
        values = complex_standard_normal(make_rng((SEED, 514, int(m))), int(m))
        obs = ObservationSet(indices=np.arange(1, int(m) + 1), values=values, noise_var=1e-2)
        cov.matrix()  # materialize outside the timed region
        dense_times.append(_min_time(lambda: dense_mmse(cov, obs)))
    dense_slope = float(np.polyfit(np.log(dense_sizes), np.log(dense_times), 1)[0])

    ok = 0.8 <= kalman_slope <= 1.3 and dense_slope >= 2.0
    report(
        "C8",
        "complexity scaling",
        ok,
        f"smoother log-log slope {kalman_slope:.2f} in [0.8, 1.3] "
        f"(times {['%.3f' % t for t in kalman_times]}); "
        f"dense slope {dense_slope:.2f} >= 2.0 (times {['%.4f' % t for t in dense_times]})",
    )
    assert 0.8 <= kalman_slope <= 1.3
    assert dense_slope >= 2.0


CLI_CONFIGS = [
    ["fit", "--W", "5", "--N", "200", "--p", "37"],
    ["select-order", "--W", "1", "--N", "20", "--p-max", "3", "--mc", "1000"],
    ["generate", "--W", "2", "--N", "20", "--p", "4", "--count", "5"],
    ["cdf", "--W", "1", "--N", "20", "--p", "3", "--mc", "2000", "--J", "300",
     "--t-quantile-grid", "8"],
    ["interpolate", "--W", "2", "--N", "50", "--M", "10", "--strategy", "uniform_endpoints",
     "--p", "8"],
    ["bench", "--W", "2", "--N", "30,50", "--ratio", "0.2", "--p", "5", "--trials", "3"],
    ["bound", "--W", "2", "--N", "50", "--eps", "0.1,0.01", "--trials", "30", "--p", "5"],
]


def test_c9_cli_determinism(tmp_path, capsys):
    identical = []
    for argv in CLI_CONFIGS:
        outputs = []
        for run in range(2):
            path = tmp_path / f"{argv[0]}_{run}"
            code = cli_main([*argv, "--seed", "9", "--no-meta", "--out", str(path)])
            capsys.readouterr()
            assert code == 0, f"{argv[0]} exited {code}"
            outputs.append(path.read_bytes())
        identical.append(outputs[0] == outputs[1])
    ok = all(identical)
    report(
        "C9",
        "CLI determinism",
        ok,
        "byte-identical reruns: "
        + ", ".join(f"{argv[0]}={'yes' if same else 'NO'}" for argv, same in zip(CLI_CONFIGS, identical)),
    )
    assert ok
