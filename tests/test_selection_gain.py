import tracemalloc

import numpy as np
import pytest

from faschan.arfit import ArpModel, fit_clarke_model
from faschan.correlation import ClarkeModel, build_covariance, eigen_spectrum, sample_exact
from faschan.errors import UnstableModelError
from faschan.generator import SimulationConfig, burned_in_factor, burned_in_states, simulate_batch
from faschan.rng import complex_standard_normal, make_rng
from faschan.selection_gain import empirical_cdf_max_gain, smc_cdf, systematic_resample
from faschan.stats import isotonic_non_decreasing, max_gain

from conftest import make_consistent_model


class TestEmpiricalCdf:
    def test_single_zero_sample(self):
        curve = empirical_cdf_max_gain(np.zeros((1, 5), dtype=complex), [0.0, 0.5, 2.0])
        np.testing.assert_array_equal(curve.values, 1.0)

    def test_thresholds_below_minimum(self):
        rng = make_rng(1)
        samples = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        gains = max_gain(samples)
        curve = empirical_cdf_max_gain(samples, [0.0, gains.min() * 0.5])
        np.testing.assert_array_equal(curve.values, 0.0)

    def test_counts_fraction(self):
        samples = np.sqrt(np.array([[1.0], [2.0], [3.0], [4.0]])).astype(complex)
        curve = empirical_cdf_max_gain(samples, [0.5, 1.0, 2.5, 4.0])
        np.testing.assert_allclose(curve.values, [0.0, 0.25, 0.5, 1.0])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf_max_gain(np.zeros((0, 3), dtype=complex), [1.0])
        with pytest.raises(ValueError):
            empirical_cdf_max_gain(np.zeros((3, 3), dtype=complex), [])

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf_max_gain(np.zeros((2, 2), dtype=complex), [1.0, 0.5])


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
        t_huge = 1e3 * small_model.r0 * (1 + np.log(20))
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
        direct = simulate_batch(small_model, SimulationConfig(N=N, B=150, seed=31), 10_000)
        grid = np.quantile(max_gain(direct), np.linspace(0.05, 0.95, 15))
        reference = empirical_cdf_max_gain(direct, grid)
        curve = smc_cdf(small_model, N=N, thresholds=grid, J=10_000, seed=32)
        assert np.max(np.abs(curve.values - reference.values)) <= 0.03

    def test_deterministic_and_worker_invariant(self, small_model):
        grid = [1.0, 3.0, 6.0]
        a = smc_cdf(small_model, N=15, thresholds=grid, J=200, seed=6)
        b = smc_cdf(small_model, N=15, thresholds=grid, J=200, seed=6, workers=3)
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
        bad = ArpModel(
            alpha=np.array([1.4 + 0j]), sigma_eps2=1.0, p=1, source_lags=np.array([1.0, 0.9 + 0j])
        )
        with pytest.raises(UnstableModelError):
            smc_cdf(bad, N=10, thresholds=[1.0], J=200, seed=0)

    def test_negative_burn_in_rejected(self, small_model):
        with pytest.raises(ValueError, match="burn_in_factor"):
            smc_cdf(small_model, N=10, thresholds=[1.0], J=200, seed=0, burn_in_factor=-1)
        with pytest.raises(ValueError):
            burned_in_factor(small_model, -1)
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


def burned_in_oracle(model, B) -> np.ndarray:
    """Covariance of [g_{B+p}, ..., g_{B+1}] from zeros, in long double.

    sigma_eps2 H H^H with row a of H the impulse response shifted right by a.
    """
    p, steps = model.p, B + model.p
    alpha = model.alpha.astype(np.clongdouble)
    # p - 1 leading zeros, then h_0 .. h_{steps-1}
    h = np.zeros(p - 1 + steps, dtype=np.clongdouble)
    h[p - 1] = 1
    for k in range(1, steps):
        h[p - 1 + k] = np.sum(alpha * h[k - 1 : p - 1 + k][::-1])
    H = np.zeros((p, steps), dtype=np.clongdouble)
    for a in range(p):
        H[a, a:] = h[p - 1 : p - 1 + steps - a]
    return np.clongdouble(model.sigma_eps2) * (H @ H.conj().T)


@pytest.fixture(scope="module")
def complex_root_model():
    # roots off the real axis give a covariance with large imaginary parts,
    # which a missing conjugate or a transposed factor cannot reproduce
    roots = [0.8 * np.exp(0.9j), 0.7 * np.exp(-2.0j), 0.6 * np.exp(2.5j)]
    return make_consistent_model(3, roots=roots)


class TestBurnedInLaw:
    @pytest.mark.parametrize(
        "case, B",
        [("toy", 0), ("toy", 5 * 40), ("W5N200p37", 5 * 200), ("W2N100p20", 5 * 100)],
    )
    def test_factor_matches_impulse_response_oracle(self, complex_root_model, case, B):
        if case == "toy":
            model = complex_root_model
        elif case == "W5N200p37":
            model = fit_clarke_model(ClarkeModel(W=5.0, N=200), 37)
        else:
            model = fit_clarke_model(ClarkeModel(W=2.0, N=100), 20)
        factor = burned_in_factor(model, B)
        assert factor.shape == (model.p, model.p)
        oracle = burned_in_oracle(model, B)
        got = (factor.conj().T @ factor).astype(np.clongdouble)
        assert np.linalg.norm(got - oracle) <= 1e-8 * np.linalg.norm(oracle)

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


class TestSurvivalUpdate:
    def test_resample_restores_full_ess(self):
        from faschan.selection_gain import ParticleEnsemble, _survival_update

        rng = make_rng(44)
        J = 64
        ensemble = ParticleEnsemble(
            states=complex_standard_normal(rng, (J, 3)), weights=np.full(J, 1.0 / J)
        )
        alive = np.zeros(J, dtype=bool)
        alive[:5] = True  # kill almost everything: ESS collapses, resample fires
        assert _survival_update(ensemble, alive, ess_ratio=0.5, seed=(44, 1), step=1)
        np.testing.assert_allclose(ensemble.weights, 1.0 / J)
        assert ensemble.ess == pytest.approx(J)
        assert ensemble.log_survival == pytest.approx(np.log(5 / J))

    def test_extinction_reported(self):
        from faschan.selection_gain import ParticleEnsemble, _survival_update

        rng = make_rng(45)
        ensemble = ParticleEnsemble(
            states=complex_standard_normal(rng, (8, 2)), weights=np.full(8, 1.0 / 8)
        )
        assert not _survival_update(ensemble, np.zeros(8, dtype=bool), 0.5, (45, 1), step=3)
        assert ensemble.log_survival == -np.inf
        assert ensemble.step == 3


class TestReferenceCurves:
    def test_exact_reference_matches_fig_configuration(self):
        # 3e4-sample reference used by the figure reproductions
        model = ClarkeModel(W=5.0, N=200)
        spectrum = eigen_spectrum(build_covariance(model))
        samples = sample_exact(spectrum, seed=123, count=2_000)
        grid = np.quantile(max_gain(samples), [0.1, 0.5, 0.9])
        curve = empirical_cdf_max_gain(samples, grid)
        np.testing.assert_allclose(curve.values, [0.1, 0.5, 0.9], atol=0.02)
