import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from faschan.arfit import ArpModel, arp_induced_covariance, check_stability, fit_clarke_model
from faschan.correlation import (
    ClarkeModel,
    ToeplitzCovariance,
    build_covariance,
    eigen_spectrum,
    sample_exact,
)
from faschan import interpolation
from faschan.errors import NumericalError, UnstableModelError
from faschan.interpolation import (
    NOISE_FLOOR_FACTOR,
    ObservationSet,
    _uniform_grid,
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

from conftest import (
    burned_in_oracle,
    companion,
    kalman_smooth_joseph,
    make_consistent_model,
    stationary_covariance,
)


def _anchors_of(model, indices, n):
    return interpolation._anchors(np.asarray(indices), n, min(interpolation._ANCHOR_GAP, model.p))


class TestObservationSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObservationSet(indices=[], values=[], noise_var=0.0)
        with pytest.raises(ValueError):
            ObservationSet(indices=[0, 2], values=[1.0, 2.0])
        with pytest.raises(ValueError):
            ObservationSet(indices=[2, 2], values=[1.0, 2.0])
        with pytest.raises(ValueError):
            ObservationSet(indices=[1, 2], values=[1.0])
        with pytest.raises(ValueError):
            ObservationSet(indices=[1], values=[1.0], noise_var=-1.0)

    @pytest.mark.parametrize("noise_var", [math.inf, -math.inf, math.nan])
    def test_non_finite_noise_rejected(self, noise_var):
        with pytest.raises(ValueError, match="noise_var"):
            ObservationSet(indices=[1], values=[1.0], noise_var=noise_var)

    def test_stacked_values(self):
        obs = ObservationSet(indices=[2, 5], values=np.ones((3, 2)))
        assert obs.values.shape == (3, 2) and obs.M == 2
        with pytest.raises(ValueError):
            ObservationSet(indices=[2, 5], values=np.ones((3, 2, 2)))
        with pytest.raises(ValueError):
            ObservationSet(indices=[2, 5], values=np.ones((2, 3)))


class TestDenseMmse:
    def test_full_observation_noise_floored(self):
        # regular covariance: every eigenvalue sits far above the noise floor
        model = make_consistent_model(3, seed=(40, 0), max_mod=0.6)
        cov = arp_induced_covariance(model, 50)
        truth = sample_exact(eigen_spectrum(cov), seed=1, count=1)[0]
        obs = ObservationSet(indices=np.arange(1, 51), values=truth, noise_var=0.0)
        result = dense_mmse(cov, obs)
        scale = np.abs(truth).max()
        assert np.abs(result.means - truth).max() <= 1e-6 * scale
        assert result.nmse_unobserved <= 1e-8
        assert np.all(result.variances <= 2 * NOISE_FLOOR_FACTOR * cov.r0)

    def test_full_observation_exact_model_nmse(self, clarke_w2n100, spectrum_w2n100):
        # the oversampled covariance is numerically singular, so the floored
        # posterior rejects null-direction components; the error budget is
        # the floor itself
        cov = build_covariance(clarke_w2n100)
        truth = sample_exact(spectrum_w2n100, seed=1, count=1)[0]
        obs = ObservationSet(indices=np.arange(1, 101), values=truth, noise_var=0.0)
        result = dense_mmse(cov, obs)
        assert result.nmse_unobserved <= 1e-8
        assert np.abs(result.means - truth).max() <= 1e-4 * np.abs(truth).max()

    def test_white_channel_no_correlation_to_exploit(self):
        cov = ToeplitzCovariance(first_row=np.concatenate([[1.0], np.zeros(9)]), N=10)
        values = np.array([1 + 1j, -2.0 + 0j, 0.5j])
        obs = ObservationSet(indices=np.array([2, 5, 9]), values=values, noise_var=0.0)
        result = dense_mmse(cov, obs)
        np.testing.assert_allclose(result.means[[1, 4, 8]], values, rtol=1e-6)
        mask = np.ones(10, dtype=bool)
        mask[[1, 4, 8]] = False
        np.testing.assert_allclose(result.means[mask], 0.0, atol=1e-9)
        assert result.nmse_unobserved == pytest.approx(1.0, abs=1e-9)

    def test_fig4_operating_point_regression(self, clarke_w2n100):
        # frozen value from running this oracle at the figure's configuration
        cov = build_covariance(clarke_w2n100)
        idx = port_select("uniform_endpoints", 100, 20)
        obs = ObservationSet(indices=idx, values=np.zeros(20, dtype=complex), noise_var=0.0)
        result = dense_mmse(cov, obs)
        assert result.nmse_unobserved == pytest.approx(5.98748398084048e-11, rel=1e-3)

    def test_posterior_variance_dominance_nested_sets(self, clarke_w2n100):
        cov = build_covariance(clarke_w2n100)
        rng = make_rng(17)
        base = np.sort(rng.choice(100, size=10, replace=False) + 1)
        extra = np.sort(np.concatenate([base, [int(i) for i in rng.choice(
            np.setdiff1d(np.arange(1, 101), base), size=5, replace=False)]]))
        values = complex_standard_normal(rng, base.size)
        r_small = dense_mmse(cov, ObservationSet(indices=base, values=values, noise_var=1e-2))
        r_big = dense_mmse(
            cov,
            ObservationSet(
                indices=extra, values=complex_standard_normal(rng, extra.size), noise_var=1e-2
            ),
        )
        assert np.all(r_big.variances <= r_small.variances + 1e-12)

    def test_out_of_range_index(self, clarke_w2n100):
        cov = build_covariance(clarke_w2n100)
        obs = ObservationSet(indices=[101], values=[1.0 + 0j])
        with pytest.raises(ValueError):
            dense_mmse(cov, obs)


class TestStateSpace:
    def test_ar1_structure(self):
        # one port of an AR(1): E[g_{m+d} | g_m] = alpha^d g_m forward and
        # conj(alpha)^d g_m backward, and the one-step variance is sigma_eps2
        model = make_consistent_model(1, roots=[0.5 + 0.1j])
        alpha = model.alpha[0]
        factor = model.stationary_factor
        np.testing.assert_allclose(factor.conj().T @ factor, [[model.r0]])
        n, mid, value = 15, 6, 0.7 - 0.2j
        result = kalman_smooth(model, ObservationSet(indices=[mid], values=[value], noise_var=0.0), n)
        d = np.arange(1, n + 1) - mid
        expected = np.where(d >= 0, alpha ** np.abs(d), np.conj(alpha) ** np.abs(d)) * value
        np.testing.assert_allclose(result.means, expected, rtol=1e-8, atol=1e-12)
        assert result.variances[mid] == pytest.approx(model.sigma_eps2, rel=1e-8)

    def test_companion_structure(self):
        # p consecutive noise-free ports pin the lifted state x_p; beyond it
        # the smoother must run the dense companion dynamics x -> A x + e_1 eps
        model = make_consistent_model(3, seed=(80, 0))
        a, q = companion(model)
        n, values = 10, np.array([0.3 + 0.4j, -0.5 + 0.1j, 0.2 - 0.6j])
        result = kalman_smooth(model, ObservationSet(indices=[1, 2, 3], values=values, noise_var=0.0), n)
        np.testing.assert_allclose(result.means[:3], values, rtol=1e-8)
        state, cov = values[::-1].astype(complex), np.zeros((3, 3), dtype=complex)
        for k in range(4, n + 1):
            state, cov = a @ state, a @ cov @ a.conj().T + q
            assert result.means[k - 1] == pytest.approx(state[0], rel=1e-8, abs=1e-12)
            assert result.variances[k - 1] == pytest.approx(cov[0, 0].real, rel=1e-8)
        assert result.variances[3] == pytest.approx(model.sigma_eps2, rel=1e-8)

    def test_eigenvalues_match_polynomial_roots(self):
        model = make_consistent_model(5, seed=(80, 1))
        a, _ = companion(model)
        eig = np.sort(np.abs(np.linalg.eigvals(a)))[::-1]
        np.testing.assert_allclose(eig, check_stability(model).root_moduli, atol=1e-10)


class TestStationaryCovariance:
    def test_ar1_geometric_series(self):
        model = make_consistent_model(1, roots=[0.6])
        pinf = stationary_covariance(model)
        assert pinf[0, 0].real == pytest.approx(model.sigma_eps2 / (1 - 0.36), rel=1e-12)

    def test_white_process_ar1_returns_q(self):
        model = ArpModel(alpha=[0j], sigma_eps2=0.8, p=1, source_lags=[0.8, 0j])
        np.testing.assert_allclose(stationary_covariance(model), companion(model)[1], atol=1e-14)

    def test_white_process_higher_order_is_diagonal(self):
        # zero coefficients still shift history, so every slot carries the
        # innovation variance
        model = make_consistent_model(3, roots=[0.0, 0.0, 0.0])
        pinf = stationary_covariance(model)
        np.testing.assert_allclose(pinf, model.sigma_eps2 * np.eye(3), atol=1e-12)

    def test_residual_bound(self):
        for k in range(5):
            model = make_consistent_model(6, seed=(81, k))
            a, q = companion(model)
            pinf = stationary_covariance(model)
            residual = np.linalg.norm(pinf - a @ pinf @ a.conj().T - q)
            assert residual <= 1e-10 * np.linalg.norm(q) + 1e-12 * np.linalg.norm(pinf) * model.p

    def test_matches_brute_force_kron_inverse(self):
        # independent oracle: explicit inverse of the vectorized fixed point
        model = make_consistent_model(4, seed=(81, 9))
        a, q = companion(model)
        lhs = np.eye(16, dtype=complex) - np.kron(np.conj(a), a)
        expected = (np.linalg.inv(lhs) @ q.reshape(-1, order="F")).reshape(4, 4, order="F")
        np.testing.assert_allclose(stationary_covariance(model), expected, atol=1e-12)

    def test_top_row_matches_fitted_lags(self):
        # consistent fits carry their lag sequence in the stationary state
        model = make_consistent_model(8, seed=(81, 20), max_mod=0.7)
        pinf = stationary_covariance(model)
        np.testing.assert_allclose(pinf[0, :], model.source_lags[:8], atol=1e-8)

    @pytest.mark.parametrize(
        "case",
        ["toy", (5.0, 200, 37), (2.0, 100, 20), (2.0, 50, 20)],
        ids=["toy", "W5N200p37", "W2N100p20", "W2N50p20"],
    )
    def test_matches_burned_in_law(self, complex_root_model, case):
        # a burn-in of 14 / margin steps leaves a transient below e^-28; the
        # spectral lags and the smoother's cached factor are two routes to it
        if case == "toy":
            model = complex_root_model
        else:
            w, n, p = case
            model = fit_clarke_model(ClarkeModel(W=w, N=n), p)
        oracle = burned_in_oracle(model, math.ceil(14 / check_stability(model).margin))
        pinf = stationary_covariance(model)
        factor = model.stationary_factor
        from_factor = factor.conj().T @ factor
        assert np.linalg.norm(pinf.astype(np.clongdouble) - oracle) <= 1e-6 * np.linalg.norm(oracle)
        assert np.linalg.norm(from_factor.astype(np.clongdouble) - oracle) <= 1e-6 * np.linalg.norm(oracle)
        assert np.linalg.norm(from_factor - pinf) <= 1e-6 * np.linalg.norm(pinf)
        assert np.array_equal(np.triu(factor), factor)
        assert model.stationary_factor is factor

    def test_spectral_radius_validated(self):
        bad = ArpModel(alpha=np.array([1.0 + 0j]), sigma_eps2=1.0, p=1, source_lags=np.array([1.0, 0.9 + 0j]))
        with pytest.raises(UnstableModelError):
            stationary_covariance(bad)


class TestKalmanSmooth:
    def test_full_observation_reproduces_data(self):
        model = make_consistent_model(4, seed=(82, 0))
        truth = sample_exact(eigen_spectrum(arp_induced_covariance(model, 40)), (82, 1), 1)[0]
        obs = ObservationSet(indices=np.arange(1, 41), values=truth, noise_var=0.0)
        result = kalman_smooth(model, obs, 40)
        np.testing.assert_allclose(result.means, truth, rtol=1e-6)
        assert np.all(result.variances <= 2 * NOISE_FLOOR_FACTOR * model.r0)

    def test_equivalence_with_dense_oracle(self):
        # the module's central cross-check, randomized over sizes and noise
        rng = make_rng(83)
        for trial in range(20):
            p = int(rng.integers(1, 11))
            n = int(rng.integers(p + 1, 120))
            m = int(rng.integers(1, n + 1))
            noise = 0.0 if trial % 2 == 0 else 1e-2
            model = make_consistent_model(p, seed=(83, trial))
            cov = arp_induced_covariance(model, n)
            truth = sample_exact(eigen_spectrum(cov), (84, trial), 1)[0]
            idx = np.sort(make_rng((85, trial)).choice(n, size=m, replace=False) + 1)
            values = truth[idx - 1]
            if noise > 0:
                values = values + np.sqrt(noise) * complex_standard_normal(make_rng((86, trial)), m)
            obs = ObservationSet(indices=idx, values=values, noise_var=noise)
            dense = dense_mmse(cov, obs)
            kalman = kalman_smooth(model, obs, n)
            scale = max(np.abs(dense.means).max(), 1e-12)
            assert np.abs(dense.means - kalman.means).max() <= 1e-6 * scale
            assert np.abs(dense.variances - kalman.variances).max() <= 1e-6 * model.r0

    def test_single_mid_port_ar1_analytic(self):
        # conditioning an AR(1) on one port: variance r0*(1 - c^(2|k-m|))
        c = 0.8
        model = make_consistent_model(1, roots=[c])
        n, mid = 21, 11
        obs = ObservationSet(indices=[mid], values=[0.7 - 0.2j], noise_var=0.0)
        result = kalman_smooth(model, obs, n)
        distances = np.abs(np.arange(1, n + 1) - mid)
        expected = 1.0 - c ** (2.0 * distances)
        np.testing.assert_allclose(result.variances, expected, atol=1e-6)
        assert np.all(np.diff(result.variances[mid - 1 :]) >= -1e-12)
        assert np.all(np.diff(result.variances[: mid - 1]) <= 1e-12)

    def test_out_of_range_index(self):
        model = make_consistent_model(2, seed=(87, 0))
        obs = ObservationSet(indices=[11], values=[0j])
        with pytest.raises(ValueError):
            kalman_smooth(model, obs, 10)

    def test_unstable_refused(self):
        bad = ArpModel(alpha=np.array([1.1 + 0j]), sigma_eps2=1.0, p=1, source_lags=np.array([1.0, 0.9 + 0j]))
        obs = ObservationSet(indices=[2], values=[1.0 + 0j])
        with pytest.raises(UnstableModelError):
            kalman_smooth(bad, obs, 10)


class TestSmootherReference:
    """The smoother against its Joseph-form reference (``kalman_smooth_joseph``).

    The means run the same arithmetic, so no bit may move; the variances come
    from another backward factorisation of the same covariance.
    """

    @staticmethod
    def _check(model, obs, n):
        means, variances, nmse_unobserved = kalman_smooth_joseph(model, obs, n)
        result = kalman_smooth(model, obs, n)
        np.testing.assert_array_equal(result.means, means)
        assert np.abs(result.variances - variances).max() <= 1e-10 * model.r0
        assert result.nmse_unobserved == pytest.approx(nmse_unobserved, rel=0, abs=1e-10)

    def test_c4_toy_draws(self):
        # the draws of test_acceptance.test_c4_kalman_dense_equivalence
        rng = make_rng((1, 504))
        for trial in range(200):
            p = int(rng.integers(1, 41))
            n = int(rng.integers(max(10, p + 1), 201))
            m = int(rng.integers(1, n + 1))
            noise = 0.0 if trial % 2 == 0 else 1e-2
            model = make_consistent_model(p, seed=(1, 505, trial))
            truth = sample_exact(eigen_spectrum(arp_induced_covariance(model, n)), (1, 506, trial), 1)[0]
            idx = np.sort(make_rng((1, 507, trial)).choice(n, size=m, replace=False) + 1)
            values = truth[idx - 1]
            if noise > 0:
                values = values + np.sqrt(noise) * complex_standard_normal(make_rng((1, 508, trial)), m)
            self._check(model, ObservationSet(indices=idx, values=values, noise_var=noise), n)

    @pytest.mark.parametrize("w, n, p", [(2.0, 100, 10), (2.0, 100, 20), (5.0, 200, 20), (5.0, 200, 37)])
    def test_production_fits(self, w, n, p):
        model = fit_clarke_model(ClarkeModel(W=w, N=n), p)
        truth = sample_exact(eigen_spectrum(arp_induced_covariance(model, n)), (90, n, p), 1)[0]
        for s_idx, strategy in enumerate(("random", "uniform_endpoints", "uniform_interior")):
            idx = port_select(strategy, n, n // 5, (91, n, p, s_idx))
            for noise in (0.0, 1e-2):
                values = truth[idx - 1]
                if noise > 0:
                    values = values + np.sqrt(noise) * complex_standard_normal(make_rng((92, n, p)), idx.size)
                self._check(model, ObservationSet(indices=idx, values=values, noise_var=noise), n)


class TestDeferredPosterior:
    """The smoother's variances and NMSE are computed on first read and kept."""

    @staticmethod
    def _case():
        model = make_consistent_model(5, seed=(93, 0))
        idx = port_select("random", 60, 12, (93, 1))
        values = complex_standard_normal(make_rng((93, 2)), (3, idx.size))
        return model, ObservationSet(indices=idx, values=values, noise_var=1e-2), 60

    def test_read_order_does_not_matter(self):
        model, obs, n = self._case()
        variances_first = kalman_smooth(model, obs, n)
        variances = variances_first.variances
        nmse_first = kalman_smooth(model, obs, n)
        nmse_unobserved = nmse_first.nmse_unobserved
        # other use in between: the means, and another smoother call
        nmse_first.means.sum()
        kalman_smooth(model, obs, n).variances
        np.testing.assert_array_equal(nmse_first.variances, variances)
        assert variances_first.nmse_unobserved == nmse_unobserved

    def test_second_read_returns_the_same_array(self):
        model, obs, n = self._case()
        result = kalman_smooth(model, obs, n)
        assert result.variances is result.variances
        assert result.nmse_unobserved == result.nmse_unobserved

    def test_non_finite_deferred_factor_raises(self, monkeypatch):
        model, obs, n = self._case()
        result = kalman_smooth(model, obs, n)

        class PoisonedLapack:
            @staticmethod
            def zgeqrf(a, overwrite_a=0):
                return (np.full_like(a, np.nan),)

        monkeypatch.setattr(interpolation, "lapack", PoisonedLapack)
        # the backward pass first steps from port N to the anchor before it
        first = _anchors_of(model, obs.indices, n)[-2]
        for read in ("variances", "nmse_unobserved"):
            with pytest.raises(NumericalError, match=f"at port {first}$"):
                getattr(result, read)
        monkeypatch.undo()
        # a failed read caches nothing
        assert np.all(np.isfinite(result.variances))

    @pytest.mark.parametrize("fault", ["gain", "rows", "singular"])
    def test_forward_fault_names_its_anchor(self, fault, monkeypatch):
        # the third jump fails: a non-finite gain, non-finite rows C, or a
        # singular predicted factor
        model, obs, n = self._case()
        p, real = model.p, interpolation.lapack
        anchors = _anchors_of(model, obs.indices, n)
        calls = {"zgeqrf": 0, "ztrtrs": 0}

        class FaultyLapack:
            @staticmethod
            def zgeqrf(a, overwrite_a=0):
                r, *rest = real.zgeqrf(a, overwrite_a=overwrite_a)
                calls["zgeqrf"] += 1
                if fault == "rows" and calls["zgeqrf"] == 3:
                    r[p:, p] = np.nan
                return (r, *rest)

            @staticmethod
            def ztrtrs(a, b):
                x, info = real.ztrtrs(a, b)
                calls["ztrtrs"] += 1
                if calls["ztrtrs"] == 3:
                    x = np.full_like(x, np.nan) if fault == "gain" else x
                    info = 2 if fault == "singular" else info
                return x, info

        monkeypatch.setattr(interpolation, "lapack", FaultyLapack)
        message = "predicted factor is singular" if fault == "singular" else "filter factor became non-finite"
        with pytest.raises(NumericalError, match=f"{message} at port {anchors[3]}$"):
            kalman_smooth(model, obs, n)

    def test_memory_is_the_gains(self):
        # the gains G^H, (anchors, p, p) complex, are the one array that grows
        # as p^2 per anchor; the rows C add 16 p bytes per port
        n, p = 4000, 20
        model = fit_clarke_model(ClarkeModel(W=2.0, N=100), p)
        model.stationary_factor  # cached on the model, outside the traced region
        idx = port_select("uniform_endpoints", n, n // 5)
        obs = ObservationSet(indices=idx, values=complex_standard_normal(make_rng(94), idx.size), noise_var=1e-2)
        tracemalloc.start()
        try:
            kalman_smooth(model, obs, n).variances
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 16 * p * p * len(_anchors_of(model, idx, n))


def _assert_matches_dense(model, obs, n):
    """C4's gate for one case: the smoother's means within 1e-6 of max|dense
    mean| and its variances within 1e-6 r0 of dense conditioning."""
    dense = dense_mmse(arp_induced_covariance(model, n), obs)
    kalman = kalman_smooth(model, obs, n)
    scale = max(float(np.abs(dense.means).max()), 1e-12)
    assert np.abs(dense.means - kalman.means).max() <= 1e-6 * scale
    assert np.abs(dense.variances - kalman.variances).max() <= 1e-6 * model.r0
    assert kalman.nmse_unobserved == pytest.approx(dense.nmse_unobserved, rel=1e-6, abs=1e-6)


class TestAnchorEdgeCases:
    """Patterns at the edges of the anchor steps, against dense conditioning."""

    N = 60

    @staticmethod
    def _models():
        # a toy, and a production fit whose roots sit near the unit circle
        return [make_consistent_model(6, seed=(95, 0)), fit_clarke_model(ClarkeModel(W=2.0, N=100), 20)]

    @staticmethod
    def _obs(model, n, indices, noise, seed):
        # a truth of the model's own law, as in C4: white values at the noise
        # floor would test the conditioning of the data, not the smoother
        truth = sample_exact(eigen_spectrum(arp_induced_covariance(model, n)), seed, 1)[0]
        indices = np.asarray(indices)
        values = truth[indices - 1] + np.sqrt(noise) * complex_standard_normal(make_rng(derive(seed, 1)), indices.size)
        return ObservationSet(indices=indices, values=values, noise_var=noise)

    def test_anchors_cover_every_gap(self):
        n = 45
        for model in self._models():
            cap = min(interpolation._ANCHOR_GAP, model.p)
            for indices in ([1], [n], [7, 8, 30], [2, 40], np.arange(1, n + 1)):
                anchors = np.array(_anchors_of(model, indices, n))
                assert anchors[0] <= cap and np.all(np.diff(anchors) >= 1) and np.all(np.diff(anchors) <= cap)
                assert anchors[-1] == n and np.all(np.isin(indices, anchors))

    @pytest.mark.parametrize("where", ["middle", "first", "last"])
    @pytest.mark.parametrize("noise", [0.0, 1e-2])
    def test_one_observed_port(self, where, noise):
        port = {"middle": self.N // 2 + 3, "first": 1, "last": self.N}[where]
        for model in self._models():
            _assert_matches_dense(model, self._obs(model, self.N, [port], noise, (96, port)), self.N)

    @pytest.mark.parametrize("noise", [0.0, 1e-2])
    def test_leading_fill_ins_and_trailing_unobserved_ports(self, noise):
        indices = [11, 14, 23, 31]
        for model in self._models():
            anchors = _anchors_of(model, indices, self.N)
            assert anchors[0] < indices[0] and anchors[-2] > indices[-1]
            _assert_matches_dense(model, self._obs(model, self.N, indices, noise, (97, 0)), self.N)

    @pytest.mark.parametrize("strategy", ["uniform_endpoints", "random"])
    @pytest.mark.parametrize("noise", [0.0, 1e-2])
    def test_two_ports_at_n_200(self, strategy, noise):
        # gaps far longer than p, filled by anchors alone
        n = 200
        indices = port_select(strategy, n, 2, (98, 0))
        for model in self._models():
            _assert_matches_dense(model, self._obs(model, n, indices, noise, (98, 1)), n)

    @pytest.mark.parametrize("noise", [0.0, 1e-2])
    def test_full_observation_jumps_one_port(self, noise):
        indices = np.arange(1, self.N + 1)
        for model in self._models():
            assert _anchors_of(model, indices, self.N) == indices.tolist()
            _assert_matches_dense(model, self._obs(model, self.N, indices, noise, (99, 0)), self.N)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("noise", [0.0, 1e-2])
    def test_orders_below_the_gap_cap(self, p, noise):
        # the cap clamps to p, so every jump is at most p ports
        model = make_consistent_model(p, seed=(100, p), max_mod=0.8)
        for indices in ([self.N], [9, 10, 37], port_select("random", self.N, 12, (100, 0))):
            assert max(np.diff([0, *_anchors_of(model, indices, self.N)])) <= p
            _assert_matches_dense(model, self._obs(model, self.N, indices, noise, (100, 1)), self.N)

    def test_stacked_rows_match_single_vector_calls(self):
        indices = [11, 14, 23, 31]
        for model in self._models():
            values = complex_standard_normal(make_rng((101, model.p)), (3, len(indices)))
            stacked = kalman_smooth(model, ObservationSet(indices=indices, values=values, noise_var=1e-2), self.N)
            for row in range(3):
                single = kalman_smooth(model, ObservationSet(indices=indices, values=values[row], noise_var=1e-2), self.N)
                np.testing.assert_array_equal(stacked.means[row], single.means)
                np.testing.assert_array_equal(stacked.variances, single.variances)


class TestWidePatternSet:
    """C4's gate over a wider set of production fits, strategies, counts and noise.

    Anchor jumps lose accuracy across long noisy gaps, so this set adds the
    longest gaps (M = N/10) and the largest order (p = 40) to C4's cases.
    """

    SEEDS = range(1, 7)

    @pytest.mark.parametrize(
        "w, n, p", [(2.0, 100, 10), (2.0, 100, 20), (5.0, 200, 20), (5.0, 200, 37), (5.0, 200, 40)]
    )
    def test_production_fits_match_dense(self, w, n, p):
        model = fit_clarke_model(ClarkeModel(W=w, N=n), p)
        cov = arp_induced_covariance(model, n)
        spectrum = eigen_spectrum(cov)
        worst_mean = worst_var = 0.0
        for seed in self.SEEDS:
            truth = sample_exact(spectrum, (seed, 615, n, p), 1)[0]
            for s_idx, strategy in enumerate(("random", "uniform_endpoints", "uniform_interior")):
                for m in (n // 5, n // 10):
                    idx = port_select(strategy, n, m, (seed, 616, n, p, s_idx, m))
                    noise_draw = complex_standard_normal(make_rng((seed, 617, n, p, m)), idx.size)
                    for noise in (0.0, 1e-4, 1e-2):
                        obs = ObservationSet(indices=idx, values=truth[idx - 1] + np.sqrt(noise) * noise_draw,
                                             noise_var=noise)
                        dense = dense_mmse(cov, obs)
                        kalman = kalman_smooth(model, obs, n)
                        scale = float(np.abs(dense.means).max())
                        worst_mean = max(worst_mean, float(np.abs(dense.means - kalman.means).max()) / scale)
                        worst_var = max(worst_var, float(np.abs(dense.variances - kalman.variances).max()) / model.r0)
        assert worst_mean <= 1e-6
        assert worst_var <= 1e-6


class TestStackedReconstruction:
    """A (T, M) value stack shares one call; each row must equal its own call."""

    ROWS = 5

    @staticmethod
    def _cases():
        toy = make_consistent_model(6, seed=(88, 0))
        clarke = ClarkeModel(W=2.0, N=100)
        fit = fit_clarke_model(clarke, 20)
        return [
            (toy, arp_induced_covariance(toy, 60), 60, port_select("random", 60, 12, (88, 1)), 1e-2),
            (fit, build_covariance(clarke), 100, port_select("uniform_endpoints", 100, 20), 0.0),
        ]

    def test_rows_match_single_vector_calls(self):
        for model, cov, n, idx, noise in self._cases():
            values = complex_standard_normal(make_rng((88, 2, n)), (self.ROWS, idx.size))
            routes = (lambda o: dense_mmse(cov, o), lambda o: kalman_smooth(model, o, n))
            for route in routes:
                stacked = route(ObservationSet(indices=idx, values=values, noise_var=noise))
                assert stacked.means.shape == (self.ROWS, n)
                for row in range(self.ROWS):
                    single = route(ObservationSet(indices=idx, values=values[row], noise_var=noise))
                    # stacking runs the same per-row products, so no bit may
                    # move (far inside the C4 tolerance of 1e-6 max|mean|)
                    np.testing.assert_array_equal(stacked.means[row], single.means)
                    np.testing.assert_array_equal(stacked.variances, single.variances)
                    assert stacked.nmse_unobserved == single.nmse_unobserved

    def test_empirical_min_observations_matches_per_trial_loop(self, clarke_w2n100, spectrum_w2n100):
        cov = build_covariance(clarke_w2n100)
        n, trials, eps = clarke_w2n100.N, 30, 1e-2

        def truth_sampler(seed, count):
            return sample_exact(spectrum_w2n100, seed, count)

        def reference(strategy, min_m):
            # the per-trial loop the grouped implementation replaced
            def qualifies(m):
                truths = truth_sampler((7, m), trials)
                ratios = np.empty(trials)
                for t in range(trials):
                    idx = port_select(strategy, n, m, (7, m, t))
                    obs = ObservationSet(indices=idx, values=truths[t, idx - 1], noise_var=0.0)
                    unobserved = np.setdiff1d(np.arange(1, n + 1), idx)
                    ratios[t] = nmse(truths[t], dense_mmse(cov, obs).means, unobserved)
                sem = np.std(ratios, ddof=1) / np.sqrt(trials)
                return np.mean(ratios) <= eps + 3.0 * sem

            lo, hi = min_m, n
            if qualifies(lo):
                return lo
            while hi - lo > 1:
                mid = (lo + hi) // 2
                hi, lo = (mid, lo) if qualifies(mid) else (hi, mid)
            return hi

        for strategy, min_m in (("uniform_endpoints", 2), ("random", 1)):
            got = empirical_min_observations(
                eps, trials, 7, lambda obs: dense_mmse(cov, obs), truth_sampler, strategy, n, min_m=min_m
            )
            assert got == reference(strategy, min_m)

    def test_empirical_min_observations_passes_each_trial_once(self):
        # random ports on few ports repeat: the round at M = N - 1 has N
        # patterns for 9 trials, so it mixes a large group with groups of one
        model = ClarkeModel(W=1.0, N=6)
        cov = build_covariance(model)
        spectrum = eigen_spectrum(cov)
        n, trials = model.N, 9
        rounds = []

        def truth_sampler(seed, count):
            truths = sample_exact(spectrum, seed, count)
            rounds.append({"seed": seed, "truths": truths, "sizes": [], "seen": []})
            return truths

        def estimator(obs):
            current = rounds[-1]
            members = [
                t for t in range(trials)
                if np.array_equal(port_select("random", n, obs.M, derive(current["seed"], t)), obs.indices)
            ]
            np.testing.assert_array_equal(obs.values, current["truths"][members][:, obs.indices - 1])
            current["sizes"].append(len(members))
            current["seen"].extend(members)
            return dense_mmse(cov, obs)

        empirical_min_observations(1e-12, trials, 3, estimator, truth_sampler, "random", n)
        assert len(rounds) > 1
        for current in rounds:
            assert sorted(current["seen"]) == list(range(trials))
        assert any(max(r["sizes"]) > 2 and min(r["sizes"]) == 1 for r in rounds)

    @pytest.mark.parametrize("strategy", ["uniform_endpoints", "uniform_interior"])
    def test_trial_patterns_uniform_is_one_group(self, strategy, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("a uniform grid needs no seed")

        monkeypatch.setattr(interpolation, "make_rng", unexpected)
        monkeypatch.setattr(interpolation, "derive", unexpected)
        [(indices, members)] = trial_patterns(strategy, 100, 20, 250, (4, 1))
        assert indices is port_select(strategy, 100, 20)
        assert members == list(range(250))

    def test_trial_patterns_random_groups_per_trial_selections(self):
        n, m, trials, seed = 5, 4, 30, (8, 2)
        expected = {}
        for t in range(trials):
            idx = port_select("random", n, m, derive(seed, t))
            expected.setdefault(idx.tobytes(), (idx, []))[1].append(t)
        groups = trial_patterns("random", n, m, trials, seed)
        assert len(groups) == len(expected) > 1
        for (indices, members), (want_idx, want_members) in zip(groups, expected.values()):
            np.testing.assert_array_equal(indices, want_idx)
            assert members == want_members
        assert sorted(t for _, members in groups for t in members) == list(range(trials))

    def test_trial_patterns_callable_matches_the_named_strategy(self):
        def select(m, trial_seed):
            return list(port_select("random", 5, m, trial_seed))

        by_name = trial_patterns("random", 5, 4, 30, (8, 2))
        by_callable = trial_patterns(select, 5, 4, 30, (8, 2))
        assert [members for _, members in by_callable] == [members for _, members in by_name]
        for (got, _), (want, _) in zip(by_callable, by_name):
            np.testing.assert_array_equal(got, want)

    def test_trial_patterns_unknown_strategy_raises(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            trial_patterns("uniform_everywhere", 100, 20, 3, 0)


class TestSeededSearch:
    """``empirical_min_observations`` from a start: the doubling bracket, then bisection."""

    N, MIN_M = 40, 2

    def _search(self, answer, start):
        """The search on a criterion exact from M = answer on; returns (M, probed Ms)."""
        n, probed = self.N, []

        def truth_sampler(seed, count):
            probed.append(seed[-1])  # the round at M draws from derive(seed, M)
            return np.ones((count, n))

        def estimator(obs):
            return SimpleNamespace(means=np.zeros(n) if obs.M < answer else np.ones(n))

        def select(m, seed):
            return np.arange(1, m + 1)

        got = empirical_min_observations(0.0, 2, 0, estimator, truth_sampler, select, n, min_m=self.MIN_M, start=start)
        return got, probed

    @staticmethod
    def _bisection(answer, lo, hi):
        """The Ms a plain bisection over [lo, hi] probes, hi qualifying unprobed."""
        probed = [lo]
        if answer <= lo:
            return probed
        while hi - lo > 1:
            mid = (lo + hi) // 2
            probed.append(mid)
            hi, lo = (mid, lo) if mid >= answer else (hi, mid)
        return probed

    def test_every_start_finds_the_answer_within_the_round_budget(self):
        n, min_m = self.N, self.MIN_M
        for answer in range(min_m, n + 1):
            for start in [None, min_m - 2, min_m - 1, *range(min_m, n + 1), n + 1]:
                got, probed = self._search(answer, start)
                assert got == answer, (answer, start)
                assert len(probed) == len(set(probed)) and n not in probed, (answer, start, probed)
                if start is not None and min_m < start < n:
                    budget = 2 * math.ceil(math.log2(abs(answer - start) + 1)) + 2
                    assert probed[0] == start
                    assert len(probed) <= budget, (answer, start, probed)

    def test_without_a_start_the_probes_are_plain_bisection(self):
        n, min_m = self.N, self.MIN_M
        for answer in range(min_m, n + 1):
            for start in (None, min_m, n, 0, n + 5):
                assert self._search(answer, start)[1] == self._bisection(answer, min_m, n), (answer, start)

    def test_an_answer_below_a_qualifying_start_is_found(self):
        # qualifies from M = 3 on: 9, 8 and 6 qualify, 2 fails, then 4 and 3 bisect
        got, probed = self._search(3, 9)
        assert got == 3
        assert probed == [9, 8, 6, 2, 4, 3]

    def test_a_failing_start_steps_up_and_never_probes_n(self):
        # 33, 34 and 36 fail; the next step would land on N = 40, which
        # qualifies unprobed, so 38 and 39 bisect (36, 40)
        got, probed = self._search(self.N, self.N - 7)
        assert got == self.N
        assert probed == [33, 34, 36, 38, 39]

    @pytest.mark.parametrize("strategy", ["uniform_endpoints", "random"])
    def test_bound_start_matches_bisection_on_the_oracle(self, strategy, clarke_w2n100, spectrum_w2n100):
        cov = build_covariance(clarke_w2n100)
        self._check_parity(
            lambda obs: dense_mmse(cov, obs), spectrum_w2n100, strategy, clarke_w2n100.N, trials=50
        )

    def test_bound_start_matches_bisection_on_the_smoother(self):
        model = ClarkeModel(W=2.0, N=60)
        fitted = fit_clarke_model(model, 10)
        self._check_parity(
            lambda obs: kalman_smooth(fitted, obs, model.N), eigen_spectrum(build_covariance(model)),
            "uniform_endpoints", model.N, trials=60,
        )

    @staticmethod
    def _check_parity(estimator, spectrum, strategy, n, trials):
        min_m = 2 if strategy == "uniform_endpoints" else 1
        rounds = {"bound": 0, "plain": 0}

        def search(eps, seed, start):
            def truth_sampler(round_seed, count):
                rounds["plain" if start is None else "bound"] += 1
                return sample_exact(spectrum, round_seed, count)

            return empirical_min_observations(
                eps, trials, seed, estimator, truth_sampler, strategy, n, min_m=min_m, start=start
            )

        for eps in (1e-1, 1e-2, 1e-3):
            bound = min_observations_bound(spectrum, eps)
            for seed in (1, 2, 3):
                assert search(eps, (91, seed), bound) == search(eps, (91, seed), None), (eps, seed)
        assert rounds["bound"] < rounds["plain"]


class TestNmse:
    def test_exact_estimate(self):
        truth = np.array([1 + 1j, 2.0, 3j])
        assert nmse(truth, truth, [1, 2, 3]) == 0.0

    def test_zero_estimate(self):
        truth = np.array([1 + 1j, 2.0, 3j])
        assert nmse(truth, np.zeros(3), [1, 2, 3]) == pytest.approx(1.0)

    def test_monte_carlo_matches_theoretical(self, clarke_w2n100, spectrum_w2n100):
        # law-of-large-numbers oracle against the posterior-trace ratio; the
        # pooled energy ratio is the consistent estimator of Eq.-style NMSE
        cov = build_covariance(clarke_w2n100)
        idx = port_select("uniform_endpoints", 100, 20)
        unobserved = np.setdiff1d(np.arange(1, 101), idx) - 1
        truths = sample_exact(spectrum_w2n100, seed=55, count=1000)
        theoretical = None
        err_energy = truth_energy = 0.0
        for k in range(1000):
            noisy = truths[k, idx - 1] + np.sqrt(1e-2) * complex_standard_normal(
                make_rng((200, k)), idx.size
            )
            obs = ObservationSet(indices=idx, values=noisy, noise_var=1e-2)
            result = dense_mmse(cov, obs)
            if theoretical is None:
                theoretical = result.nmse_unobserved
            err_energy += np.sum(np.abs(result.means[unobserved] - truths[k, unobserved]) ** 2)
            truth_energy += np.sum(np.abs(truths[k, unobserved]) ** 2)
        assert err_energy / truth_energy == pytest.approx(theoretical, rel=0.05)

    def test_stacked_rows_match_per_row_calls(self):
        rng = make_rng(57)
        truth = complex_standard_normal(rng, (4, 30))
        estimate = truth + 0.1 * complex_standard_normal(rng, (4, 30))
        subset = [2, 3, 7, 11, 29, 30]
        ratios = nmse(truth, estimate, subset)
        assert ratios.shape == (4,)
        expected = [nmse(truth[t], estimate[t], subset) for t in range(4)]
        # only the summation order differs between a row and a vector
        np.testing.assert_allclose(ratios, expected, rtol=1e-13)
        assert isinstance(nmse(truth[0], estimate[0], subset), float)

    @pytest.mark.parametrize("n", [50, 100, 200])
    @pytest.mark.parametrize("shape", [(), (1,), (2,), (250,)])
    def test_bits_match_the_index_first_formula(self, n, shape):
        # subtracting before indexing must keep every bit of the formula that
        # indexed both operands: same differences, same layout, same sums
        rng = make_rng((58, n, len(shape) and shape[0]))
        truth = complex_standard_normal(rng, (*shape, n))
        estimate = truth + 0.05 * complex_standard_normal(rng, (*shape, n))
        for strategy in ("uniform_endpoints", "uniform_interior", "random"):
            for m in (2, n // 5, n - 1):
                idx = np.setdiff1d(np.arange(n), port_select(strategy, n, m, (59, m)) - 1)
                denom = np.sum(np.abs(truth[..., idx]) ** 2, axis=-1)
                expected = np.sum(np.abs(estimate[..., idx] - truth[..., idx]) ** 2, axis=-1) / denom
                np.testing.assert_array_equal(nmse(truth, estimate, idx + 1), expected)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nmse([1.0], [1.0], [])
        with pytest.raises(ValueError):
            nmse([0.0, 1.0], [0.0, 1.0], [1])


class TestMinObservationsBound:
    def test_epsilon_one_needs_nothing(self, spectrum_w2n100):
        assert min_observations_bound(spectrum_w2n100, 1.0) == 0

    def test_epsilon_zero_is_numerical_rank(self, spectrum_w2n100):
        lam = spectrum_w2n100.eigenvalues
        expected = int(np.sum(lam > 1e-12 * lam[0]))
        assert min_observations_bound(spectrum_w2n100, 0.0) == expected

    def test_monotone_in_epsilon(self, spectrum_w2n100):
        ms = [min_observations_bound(spectrum_w2n100, e) for e in [1e-1, 1e-2, 1e-3, 1e-4]]
        assert ms == sorted(ms)

    def test_definition_via_tail_sums(self, spectrum_w2n100):
        lam = spectrum_w2n100.eigenvalues
        for eps in [0.3, 1e-2, 1e-3]:
            m = min_observations_bound(spectrum_w2n100, eps)
            assert np.sum(lam[m:]) <= eps * np.sum(lam) + 1e-15
            if m > 0:
                assert np.sum(lam[m - 1 :]) > eps * np.sum(lam)

    def test_epsilon_validated(self, spectrum_w2n100):
        with pytest.raises(ValueError):
            min_observations_bound(spectrum_w2n100, 1.5)

    def test_posterior_nmse_dominates_tail_bound(self, clarke_w2n100, spectrum_w2n100):
        # any physical selection is a constrained measurement, so its
        # posterior NMSE sits above the ideal rank-M tail ratio
        cov = build_covariance(clarke_w2n100)
        lam = spectrum_w2n100.eigenvalues
        total = np.sum(lam)
        for trial in range(20):
            m = int(make_rng((95, trial)).integers(2, 50))
            strategy = ("random", "uniform_endpoints", "uniform_interior")[trial % 3]
            idx = port_select(strategy, 100, m, (96, trial))
            obs = ObservationSet(indices=idx, values=np.zeros(m, dtype=complex), noise_var=0.0)
            theoretical = dense_mmse(cov, obs).nmse_unobserved
            ideal = float(np.sum(lam[m:]) / total)
            assert theoretical >= ideal - 1e-9


class TestPortSelect:
    def test_uniform_endpoints_paper_example(self):
        np.testing.assert_array_equal(port_select("uniform_endpoints", 10, 4), [1, 4, 7, 10])

    def test_uniform_interior_paper_example(self):
        np.testing.assert_array_equal(port_select("uniform_interior", 10, 4), [3, 5, 7, 9])

    def test_random_properties(self):
        idx = port_select("random", 50, 12, seed=3)
        assert idx.size == 12 and idx[0] >= 1 and idx[-1] <= 50
        assert np.all(np.diff(idx) > 0)
        np.testing.assert_array_equal(idx, port_select("random", 50, 12, seed=3))
        assert not np.array_equal(idx, port_select("random", 50, 12, seed=4))

    def test_endpoints_always_present(self):
        for n, m in [(10, 2), (100, 7), (33, 9)]:
            idx = port_select("uniform_endpoints", n, m)
            assert idx[0] == 1 and idx[-1] == n and idx.size == m

    def test_duplicate_repair_preserves_cardinality(self):
        for strategy in ("uniform_endpoints", "uniform_interior"):
            idx = port_select(strategy, 12, 11)
            assert idx.size == 11
            assert np.unique(idx).size == 11

    def test_uniform_grids_cached_read_only(self):
        for strategy, n, m in (("uniform_endpoints", 100, 20), ("uniform_interior", 57, 9),
                               ("uniform_interior", 9, 1)):
            idx = port_select(strategy, n, m)
            assert idx is port_select(strategy, n, m, seed=5)
            assert not idx.flags.writeable
            np.testing.assert_array_equal(idx, _uniform_grid.__wrapped__(strategy, n, m))

    def test_validation(self):
        with pytest.raises(ValueError):
            port_select("random", 10, 11)
        with pytest.raises(ValueError):
            port_select("uniform_endpoints", 10, 1)
        with pytest.raises(ValueError):
            port_select("nope", 10, 2)


class TestMaxGap:
    def test_paper_examples(self):
        assert max_gap([1, 4, 7, 10], 10) == 3
        assert max_gap([3, 5, 7, 9], 10) == 2

    def test_boundary_dominates(self):
        assert max_gap([8, 9, 10], 10) == 7

    def test_random_selection_gap_law(self):
        # mean largest gap tracks (N/M) log M within a modest constant
        n, m, trials = 10_000, 100, 1_000
        gaps = [max_gap(port_select("random", n, m, seed=(90, t)), n) for t in range(trials)]
        ratio = np.mean(gaps) / ((n / m) * np.log(m))
        assert 0.6 <= ratio <= 1.5
