import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from faschan import arfit, selection_gain
from faschan.arfit import (
    ArpModel,
    arp_induced_covariance,
    burned_in_factor,
    check_stability,
    fit_clarke_model,
    start_factor,
)
from faschan.correlation import ClarkeModel, build_covariance, eigen_spectrum, sample_exact
from faschan.errors import UnstableModelError
from faschan.generator import burned_in_states, simulate_batch
from faschan.rng import complex_standard_normal, derive, make_rng
from faschan.selection_gain import empirical_cdf_max_gain, smc_cdf, systematic_resample
from faschan.stats import isotonic_non_decreasing, max_gain

from conftest import burned_in_factor_loop, burned_in_oracle, evaluate_threshold_shift, make_consistent_model


class TestEmpiricalCdf:
    def test_single_zero_sample(self):
        curve = empirical_cdf_max_gain(np.zeros(1), [0.0, 0.5, 2.0])
        np.testing.assert_array_equal(curve.values, 1.0)

    def test_thresholds_below_minimum(self):
        rng = make_rng(1)
        samples = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        gains = max_gain(samples)
        curve = empirical_cdf_max_gain(gains, [0.0, gains.min() * 0.5])
        np.testing.assert_array_equal(curve.values, 0.0)

    def test_counts_fraction(self):
        curve = empirical_cdf_max_gain(np.array([1.0, 2.0, 3.0, 4.0]), [0.5, 1.0, 2.5, 4.0])
        np.testing.assert_allclose(curve.values, [0.0, 0.25, 0.5, 1.0])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            empirical_cdf_max_gain(np.zeros(0), [1.0])
        with pytest.raises(ValueError):
            empirical_cdf_max_gain(np.zeros(3), [])

    def test_channel_vectors_rejected(self):
        # a stale caller passing (count, N) samples, or one complex row,
        # must fail rather than be read as gains
        with pytest.raises(ValueError, match="1-D"):
            empirical_cdf_max_gain(np.zeros((3, 3), dtype=complex), [1.0])
        with pytest.raises(ValueError, match="1-D"):
            empirical_cdf_max_gain(np.ones((3, 1)), [1.0])
        with pytest.raises(ValueError, match="real"):
            empirical_cdf_max_gain(np.ones(3, dtype=complex), [1.0])

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf_max_gain(np.zeros(2), [1.0, 0.5])


class TestMaxGain:
    def test_bit_identical_to_squaring_every_entry(self):
        # rounding x^2 is monotone in x >= 0, so squaring only the row maxima
        # gives the old formula's bits, ties and over- and underflow included
        rng = make_rng(21)
        rows = complex_standard_normal(rng, (400, 64)) * 10.0 ** rng.uniform(-170, 170, (400, 1))
        rows[0] = 0.0
        rows[1, 1:] = rows[1, 0]  # exact ties
        # neighbouring magnitudes, whose squares may round to one value
        rows[2].real = np.nextafter(1.0, 2.0) ** np.arange(64)
        rows[2].imag = 0.0
        rows[3, 7] = complex(np.nan, 0.0)
        rows[4, 0] = complex(0.0, np.inf)
        with np.errstate(over="ignore"):
            old = np.max(np.abs(rows) ** 2, axis=-1)
            np.testing.assert_array_equal(max_gain(rows), old)
            assert np.isnan(old[3]) and np.isinf(old[4])
            np.testing.assert_array_equal(max_gain(rows.real), np.max(np.abs(rows.real) ** 2, axis=-1))


class TestSystematicResample:
    def test_uniform_weights_identity_multiset(self):
        for J in (4, 17, 100):
            idx = systematic_resample(np.full(J, 1.0 / J), seed=5)
            np.testing.assert_array_equal(np.sort(idx), np.arange(J))

    def test_degenerate_one_hot(self):
        weights = np.zeros(8)
        weights[0] = 1.0
        np.testing.assert_array_equal(systematic_resample(weights, seed=1), 0)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            systematic_resample(np.zeros(5), seed=0)
        with pytest.raises(ValueError):
            systematic_resample(np.full(4, 0.5), seed=0)

    def test_copy_counts_within_one_of_expectation(self):
        # systematic sampling puts every copy count within 1 of J*w_j
        rng = make_rng(9)
        J = 32
        trials = 100_000
        weights = rng.random(J)
        weights /= weights.sum()
        counts = np.zeros(J)
        for t in range(trials):
            idx = systematic_resample(weights, seed=(9, t))
            binned = np.bincount(idx, minlength=J)
            assert np.all(np.abs(binned - J * weights) < 1.0)
            counts += binned
        mean_counts = counts / trials
        np.testing.assert_allclose(mean_counts, J * weights, rtol=0.01, atol=5e-3)


class TestIsotonicProjection:
    def test_already_monotone_unchanged(self):
        y = np.array([0.1, 0.2, 0.2, 0.9])
        np.testing.assert_array_equal(isotonic_non_decreasing(y), y)

    def test_pools_violators(self):
        projected = isotonic_non_decreasing([0.5, 0.3, 0.4, 1.0])
        assert np.all(np.diff(projected) >= 0)
        assert projected[0] == pytest.approx(0.4)
        assert np.sum(projected) == pytest.approx(0.5 + 0.3 + 0.4 + 1.0)


@pytest.fixture(scope="module")
def small_model():
    return make_consistent_model(3, seed=(70, 0), max_mod=0.7)


class TestSmcCdf:

    def test_threshold_zero_gives_zero(self, small_model):
        curve = smc_cdf(small_model, N=20, thresholds=[0.0], J=200, seed=2)
        assert curve.values[0] == 0.0
        assert curve.extinction_steps[0] == 1

    def test_huge_threshold_gives_one(self, small_model):
        t_huge = 1e3 * arp_induced_covariance(small_model, 1).r0 * (1 + np.log(20))
        curve = smc_cdf(small_model, N=20, thresholds=[t_huge], J=400, seed=3)
        assert curve.values[0] == pytest.approx(1.0, abs=1e-3)

    def test_values_in_unit_interval_and_monotone(self, small_model):
        grid = np.linspace(0.5, 12.0, 12)
        curve = smc_cdf(small_model, N=25, thresholds=grid, J=300, seed=4)
        assert np.all((curve.values >= 0) & (curve.values <= 1))
        assert np.all(np.diff(curve.values) >= 0)
        assert curve.raw_values is not None

    def test_matches_direct_simulation(self, small_model):
        # three-sigma Monte-Carlo agreement band on a small array
        N = 30
        direct = simulate_batch(small_model, N, 10_000, seed=31)
        gains = max_gain(direct)
        grid = np.quantile(gains, np.linspace(0.05, 0.95, 15))
        reference = empirical_cdf_max_gain(gains, grid)
        curve = smc_cdf(small_model, N=N, thresholds=grid, J=10_000, seed=32)
        assert np.max(np.abs(curve.values - reference.values)) <= 0.03

    def test_deterministic_and_worker_invariant(self, small_model):
        grid = [1.0, 3.0, 6.0]
        a = smc_cdf(small_model, N=15, thresholds=grid, J=200, seed=6)
        with ThreadPoolExecutor(max_workers=3) as pool:
            b = smc_cdf(small_model, N=15, thresholds=grid, J=200, seed=6, pool=pool)
        np.testing.assert_array_equal(a.raw_values, b.raw_values)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.extinction_steps, b.extinction_steps)

    def test_log_survival_never_underflows_when_alive(self, small_model):
        # a moderately deep threshold: survival is small but strictly positive
        curve = smc_cdf(small_model, N=40, thresholds=[0.35], J=2000, seed=7)
        if curve.extinction_steps[0] == -1:
            assert curve.values[0] > 0.0

    def test_parameter_validation(self, small_model):
        with pytest.raises(ValueError):
            smc_cdf(small_model, N=10, thresholds=[1.0], J=50, seed=0)
        with pytest.raises(ValueError):
            smc_cdf(small_model, N=10, thresholds=[1.0], J=200, ess_ratio=0.0, seed=0)
        bad = ArpModel(alpha=np.array([1.4 + 0j]), sigma_eps2=1.0)
        with pytest.raises(UnstableModelError):
            smc_cdf(bad, N=10, thresholds=[1.0], J=200, seed=0)

    def test_negative_burn_in_rejected(self, small_model):
        with pytest.raises(ValueError, match="burn_in_factor"):
            smc_cdf(small_model, N=10, thresholds=[1.0], J=200, seed=0, burn_in_factor=-1)
        with pytest.raises(ValueError, match="burn_in_factor"):
            start_factor(small_model, 10, -1)
        # zero burn-in is a valid start: the first p ports from zeros
        curve = smc_cdf(small_model, N=10, thresholds=[1.0], J=200, seed=0, burn_in_factor=0)
        assert 0.0 <= curve.values[0] <= 1.0

    def test_working_memory_independent_of_burn_in(self, small_model):
        # the starting swarm is drawn, not simulated: a tenfold burn-in
        # must not grow the evaluator's peak allocation
        peaks = []
        for factor in (5, 50):
            tracemalloc.start()
            try:
                smc_cdf(small_model, N=20, thresholds=[2.0, 4.0], J=2000, seed=8, burn_in_factor=factor)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] == pytest.approx(peaks[0], rel=0.1)


class TestBurnedInLaw:
    @pytest.mark.parametrize(
        "case, B",
        [
            ("toy", 0),
            ("toy", 5 * 40),
            # three whole blocks and a partial one after row 0
            ("toy", 3 * 256 + 41),
            ("p1", 0),
            ("p1", 3 * 256 + 41),
            ("W5N200p37", 5 * 200),
            ("W2N100p20", 5 * 100),
        ],
    )
    def test_factor_matches_impulse_response_oracle(self, complex_root_model, case, B):
        if case == "toy":
            model = complex_root_model
        elif case == "p1":
            model = make_consistent_model(1, roots=[0.95 * np.exp(0.4j)])
        elif case == "W5N200p37":
            model = fit_clarke_model(ClarkeModel(W=5.0, N=200), 37)
        else:
            model = fit_clarke_model(ClarkeModel(W=2.0, N=100), 20)
        factor = burned_in_factor(model, B)
        assert factor.shape == (model.p, model.p)
        oracle = burned_in_oracle(model, B)
        got = (factor.conj().T @ factor).astype(np.clongdouble)
        assert np.linalg.norm(got - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_order_above_the_block_size(self, monkeypatch):
        # p = 10 responses carried into 8-row blocks
        monkeypatch.setattr(arfit, "_FACTOR_ROWS", 8)
        model = make_consistent_model(10, seed=5, max_mod=0.9)
        for B in (0, 3, 50):
            factor = burned_in_factor(model, B)
            oracle = burned_in_oracle(model, B)
            got = (factor.conj().T @ factor).astype(np.clongdouble)
            assert np.linalg.norm(got - oracle) <= 1e-8 * np.linalg.norm(oracle)
            reference = burned_in_factor_loop(model, B, block=8)
            assert np.max(np.abs(factor - reference)) <= 1e-6 * np.max(np.abs(reference))

    @pytest.mark.parametrize("case", ["W5N200p37", "W2N100p20-stationary"])
    def test_factor_keeps_the_per_step_signs(self, case):
        # each QR fold sets the signs of R's rows, and every realization
        # drawn through F carries them: the banded solve must reproduce the
        # per-step loop's F itself, not only its law
        if case == "W5N200p37":
            model, B = fit_clarke_model(ClarkeModel(W=5.0, N=200), 37), 5 * 200
        else:
            model = fit_clarke_model(ClarkeModel(W=2.0, N=100), 20)
            B = math.ceil(14 / check_stability(model).margin)
        factor = burned_in_factor(model, B)
        reference = burned_in_factor_loop(model, B)
        assert np.max(np.abs(factor - reference)) <= 1e-6 * np.max(np.abs(reference))
        if case != "W5N200p37":
            np.testing.assert_array_equal(model.stationary_factor, factor)

    def test_working_memory_independent_of_B(self):
        model = make_consistent_model(20, seed=2)
        peaks = []
        for B in (10_000, 100_000):
            tracemalloc.start()
            try:
                burned_in_factor(model, B)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] == pytest.approx(peaks[0], rel=0.1)

    def test_drawn_states_follow_the_law(self, complex_root_model):
        model, B, count = complex_root_model, 5 * 40, 40_000
        oracle = burned_in_oracle(model, B).astype(complex)
        assert np.max(np.abs(oracle.imag)) > 0.25
        states = burned_in_states(burned_in_factor(model, B), count, seed=(71, 0))
        assert states.shape == (count, model.p)
        sample = states.T @ states.conj() / count
        # circular Gaussian: Var(x_a conj(x_b)) = Sigma_aa Sigma_bb
        d = np.real(np.diag(oracle))
        stderr = np.sqrt(np.outer(d, d) / count)
        assert np.all(np.abs(sample - oracle) <= 5 * stderr)

    def test_states_reproducible_from_seed(self, complex_root_model):
        factor = burned_in_factor(complex_root_model, 10)
        np.testing.assert_array_equal(
            burned_in_states(factor, 50, seed=3), burned_in_states(factor, 50, seed=3)
        )
        assert not np.array_equal(
            burned_in_states(factor, 50, seed=3), burned_in_states(factor, 50, seed=4)
        )


class TestRingBuffer:
    # the ring-buffered evaluator against the per-port shift it replaced:
    # same raw estimate and extinction step, bit for bit

    @staticmethod
    def compare(model, N, t, J, monkeypatch, seed=(73, 1)):
        factor = start_factor(model, N)
        resamples = []
        resample = selection_gain.systematic_resample
        monkeypatch.setattr(
            selection_gain, "systematic_resample", lambda w, s: resamples.append(s) or resample(w, s)
        )
        got = selection_gain._evaluate_threshold(model, N, t, J, 0.5, seed, factor)
        monkeypatch.setattr(selection_gain, "systematic_resample", resample)
        assert got == evaluate_threshold_shift(model, N, t, J, 0.5, seed, factor)
        return got, len(resamples)

    @pytest.mark.parametrize("p", [1, 3, 12])
    def test_first_ports_around_p(self, p, monkeypatch):
        # N < p, N = p and N = p + 1; p = 12 exceeds the ring's spare columns
        model = make_consistent_model(p, seed=(72, p), max_mod=0.8)
        for N in (max(p - 1, 1), p, p + 1):
            self.compare(model, N, 1.5, 200, monkeypatch)

    @pytest.mark.parametrize("p", [1, 3, 12])
    def test_many_wraps_with_resampling(self, p, monkeypatch):
        model = make_consistent_model(p, seed=(72, p), max_mod=0.8)
        N = p + 7 * selection_gain._RING_SPARE + 3
        (value, extinct), resamples = self.compare(model, N, 1.5, 200, monkeypatch)
        assert extinct == -1 and value > 0.0
        assert resamples >= 3

    def test_production_fit(self, monkeypatch):
        model = fit_clarke_model(ClarkeModel(W=5.0, N=200), 37)
        (value, extinct), resamples = self.compare(model, 200, 3.0, 2000, monkeypatch)
        assert extinct == -1 and 0.0 < value < 1.0 and resamples > 0

    def test_extinct_swarm(self, small_model, monkeypatch):
        # eight particles die out after several wraps; threshold 0 kills them at port 1
        (value, extinct), _ = self.compare(small_model, 80, 0.5, 8, monkeypatch)
        assert value == 0.0 and extinct > small_model.p + 2 * selection_gain._RING_SPARE
        (value, extinct), _ = self.compare(small_model, 80, 0.0, 200, monkeypatch)
        assert (value, extinct) == (0.0, 1)


class TestSurvivalUpdate:
    # the per-port survival update, run through the evaluator on a memoryless
    # p = 1 model, whose port-1 values are the starting swarm itself
    WHITE = ArpModel(alpha=[0j], sigma_eps2=1.0)

    def run_with_five_survivors(self, N, monkeypatch):
        J, seed = 64, (44, 1)
        factor = burned_in_factor(self.WHITE, 5)
        start = burned_in_states(factor, J, derive(seed, selection_gain._WARMUP_BRANCH))
        t = float(np.sort(np.abs(start[:, 0]) ** 2)[4])  # exactly 5 survive port 1
        calls = []
        resample = selection_gain.systematic_resample
        monkeypatch.setattr(
            selection_gain, "systematic_resample", lambda w, s: calls.append((w, s)) or resample(w, s)
        )
        return selection_gain._evaluate_threshold(self.WHITE, N, t, J, 0.5, seed, factor), calls

    def test_collapse_resamples_and_keeps_the_survivor_mass(self, monkeypatch):
        # 5 of 64 survive: the ESS falls below half the swarm, so it resamples
        (value, extinct), calls = self.run_with_five_survivors(1, monkeypatch)
        assert extinct == -1 and value == pytest.approx(5 / 64, rel=1e-12)
        ((weights, resample_seed),) = calls
        assert resample_seed == derive((44, 1), selection_gain._RESAMPLE_BRANCH, 1)
        assert np.count_nonzero(weights) == 5
        np.testing.assert_allclose(weights[weights > 0], 0.2, rtol=1e-12)

    def test_resample_restores_uniform_weights(self, monkeypatch):
        # after the resample every weight is 1/J, so port 2's factor counts survivors out of J
        (value, extinct), _ = self.run_with_five_survivors(2, monkeypatch)
        survivors = value / (5 / 64) * 64
        assert extinct == -1 and 0 < round(survivors) <= 64
        assert survivors == pytest.approx(round(survivors), rel=1e-12)

    def test_threshold_zero_is_extinct_at_port_one(self):
        model = make_consistent_model(2, seed=(45, 0))
        factor = burned_in_factor(model, 10)
        assert selection_gain._evaluate_threshold(model, 10, 0.0, 8, 0.5, (45, 1), factor) == (0.0, 1)


class TestReferenceCurves:
    def test_exact_reference_matches_fig_configuration(self):
        # 3e4-sample reference used by the figure reproductions
        model = ClarkeModel(W=5.0, N=200)
        spectrum = eigen_spectrum(build_covariance(model))
        gains = max_gain(sample_exact(spectrum, seed=123, count=2_000))
        grid = np.quantile(gains, [0.1, 0.5, 0.9])
        curve = empirical_cdf_max_gain(gains, grid)
        np.testing.assert_allclose(curve.values, [0.1, 0.5, 0.9], atol=0.02)
