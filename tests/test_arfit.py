import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.stats import ks_2samp

from faschan.arfit import (
    _CANDIDATE_BRANCH,
    _REF_BRANCH,
    ArpModel,
    _gain_grid_size,
    _inverse_power,
    _stability,
    arp_induced_covariance,
    check_stability,
    fit_clarke_model,
    select_order,
)
from faschan.correlation import ClarkeModel, clarke_autocorrelation, sample_exact
from faschan.errors import UnstableModelError
from faschan.correlation import CHUNK_ROWS
from faschan.generator import simulate_max_gains
from faschan.rng import derive, make_rng
from faschan.stats import ks_distance, max_gain

from conftest import companion, impulse_response_lags, kronecker_lags, make_consistent_model


def clarke_lags(w, n, p):
    model = ClarkeModel(W=w, N=n)
    return np.array([clarke_autocorrelation(lag, model) for lag in range(p + 1)], dtype=complex)


class TestFitClarkeModel:
    def test_production_fit_satisfies_orthogonality(self):
        # the aperture-window fit still honors the first-p recursion rows
        for w, n, p in [(5.0, 200, 37), (2.0, 100, 20)]:
            model = ClarkeModel(W=w, N=n)
            fitted = fit_clarke_model(model, p)
            lags = model.lags[: p + 1]
            big_r = toeplitz(lags[:p], np.conj(lags[:p]))
            resid = np.linalg.norm(big_r @ fitted.alpha - lags[1:])
            assert resid <= 1e-8 * np.linalg.norm(lags[1:])

    def test_sigma_never_exceeds_r0(self):
        # sigma^2 = r(0) / (unit-noise gain), and the gain is at least h_0^2 = 1
        model = ClarkeModel(W=3.0, N=80)
        for p in [1, 2, 5, 12]:
            fitted = fit_clarke_model(model, p)
            assert 0.0 <= fitted.sigma_eps2 <= model.lags[0].real

    def test_order_range_checked(self):
        model = ClarkeModel(W=1.0, N=20)
        for p in (0, 20):
            with pytest.raises(ValueError, match="p must be in"):
                fit_clarke_model(model, p)

    def test_model_fields_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            ArpModel(alpha=[], sigma_eps2=1.0)
        with pytest.raises(ValueError, match="sigma_eps2"):
            ArpModel(alpha=[0.5 + 0j], sigma_eps2=-1.0)
        assert ArpModel(alpha=[0.5 + 0j, 0j], sigma_eps2=1.0).p == 2


class TestCheckStability:
    def test_ar1_cases(self):
        stable = make_consistent_model(1, roots=[0.5])
        report = check_stability(stable)
        assert report.root_moduli[0] == pytest.approx(0.5, abs=1e-14)
        assert report.stable and report.margin == pytest.approx(0.5, abs=1e-14)

    def test_unit_root_flagged(self):
        unit = ArpModel(alpha=np.array([1.0 + 0j]), sigma_eps2=0.0)
        report = check_stability(unit)
        assert report.root_moduli[0] == pytest.approx(1.0, abs=1e-14)
        assert not report.stable

    def test_fitted_flagship_model_is_stable(self):
        fitted = fit_clarke_model(ClarkeModel(W=5.0, N=200), 37)
        report = check_stability(fitted)
        assert report.stable
        assert np.all(report.root_moduli < 1.0)

    def test_moduli_match_companion_eigenvalues(self):
        # independent oracle: companion-matrix eigenvalue moduli
        model = make_consistent_model(7, seed=(51, 0))
        report = check_stability(model)
        a, _ = companion(model)
        expected = np.sort(np.abs(np.linalg.eigvals(a)))[::-1]
        np.testing.assert_allclose(report.root_moduli, expected, atol=1e-10)


GAIN_GRID_CASES = [(5.0, 200, p) for p in range(1, 41)] + [(2.0, n, 20) for n in (50, 100, 200)]


class TestUnitNoiseGain:
    # a fixed 2^21 grid stays within 3.5e-8 of the 2^23 reference on these
    # fits; the sized grid must do as well, with the tolerance to spare
    @pytest.mark.parametrize("w,n,p", GAIN_GRID_CASES, ids=lambda v: str(v))
    def test_sized_grid_matches_dense_reference_on_production_fits(self, w, n, p):
        model = ClarkeModel(W=w, N=n)
        fitted = fit_clarke_model(model, p)
        alpha = fitted.alpha
        transfer = np.fft.fft(np.concatenate([[1.0 + 0.0j], -alpha]), n=1 << 23)
        reference = float(np.mean(1.0 / np.abs(transfer) ** 2))
        # the fit's gain: r(0) = sigma_eps2 * gain
        assert model.lags[0].real / fitted.sigma_eps2 == pytest.approx(reference, rel=1e-7)
        assert _gain_grid_size(_stability(alpha).margin) <= 1 << 21

    def test_grid_follows_root_margin(self):
        # margin 0.5 needs only 80 points, so the floor applies; margin 1e-3 needs 40000
        assert _gain_grid_size(_stability(np.array([0.5 + 0j])).margin) == 1 << 12
        assert _gain_grid_size(_stability(np.array([0.999 + 0j])).margin) == 1 << 16
        assert _gain_grid_size(_stability(np.array([1.0 - 1e-9 + 0j])).margin) == 1 << 21

    def test_unstable_alpha_uses_largest_grid(self):
        for alpha in ([1.5 + 0j], [1.0 + 0j], [0.0, 1.2 + 0j]):
            assert _gain_grid_size(_stability(np.array(alpha)).margin) == 1 << 21

    def test_ar1_closed_form(self):
        for a in (0.3 + 0.4j, 0.99, -0.999j):
            alpha = np.array([a])
            gain = np.mean(_inverse_power(alpha, _stability(alpha).margin))
            assert gain == pytest.approx(1.0 / (1.0 - abs(a) ** 2), rel=1e-12)


class TestInducedCovariance:
    def test_white_process(self):
        fitted = ArpModel(alpha=[0j], sigma_eps2=2.0)
        cov = arp_induced_covariance(fitted, 5)
        np.testing.assert_allclose(cov.matrix(), 2.0 * np.eye(5), atol=1e-14)

    def test_ar1_geometric_decay(self):
        fitted = make_consistent_model(1, roots=[0.6])
        cov = arp_induced_covariance(fitted, 11)
        np.testing.assert_allclose(cov.first_row, 0.6 ** np.arange(11), atol=1e-12)

    def test_long_window_grows_the_grid(self):
        # 5000 lags exceed half the 2^12-point gain grid of this AR(1)
        fitted = make_consistent_model(1, roots=[0.6 + 0.3j])
        cov = arp_induced_covariance(fitted, 5000)
        np.testing.assert_allclose(cov.first_row, (0.6 + 0.3j) ** np.arange(5000), atol=1e-12)

    def test_matches_kronecker_lags_near_the_unit_circle(self):
        # a root margin of 1e-3, as on the production fits: the spectral lags
        # still meet the toy's Kronecker-solved lags r(0..p); the
        # aperture-window production fit does not meet the lags it matched
        model = make_consistent_model(3, roots=[0.999 * np.exp(0.3j), 0.99 * np.exp(-1.0j), 0.9])
        cov = arp_induced_covariance(model, 30)
        np.testing.assert_allclose(cov.first_row[:4], kronecker_lags(model), atol=1e-7)

    def test_matches_lyapunov_state_covariance(self):
        # cross-oracle: the reference lags come from a Kronecker solve of
        # the state-covariance fixed point, not from the spectrum
        model = make_consistent_model(6, seed=(52, 1))
        cov = arp_induced_covariance(model, 8)
        np.testing.assert_allclose(cov.first_row[:7], kronecker_lags(model), atol=1e-9)

    @pytest.mark.parametrize("w,n,p", [(2.0, 100, 12), (5.0, 200, 37), (2.0, 100, 20), (2.0, 50, 20)], ids=str)
    def test_lags_match_impulse_response_oracle(self, w, n, p):
        # the sum over 14 / margin terms leaves a tail below e^-28 r(0)
        fitted = fit_clarke_model(ClarkeModel(W=w, N=n), p)
        steps = math.ceil(14 / check_stability(fitted).margin)
        oracle = impulse_response_lags(fitted, n, steps)
        cov = arp_induced_covariance(fitted, n)
        assert np.max(np.abs(cov.first_row.astype(np.clongdouble) - oracle)) <= 1e-6 * cov.r0

    def test_production_fit_stays_near_target_lags(self):
        # the fitted process's own lags are not the Clarke lags it matched:
        # 4.1e-3 apart on lags 0..12 for this fit
        model = ClarkeModel(W=2.0, N=100)
        cov = arp_induced_covariance(fit_clarke_model(model, 12), 60)
        gap = np.max(np.abs(cov.first_row[:13] - clarke_lags(2.0, 100, 12)))
        assert gap <= 1e-2

    def test_stable_decay(self):
        model = make_consistent_model(5, seed=(53, 2))
        lags = arp_induced_covariance(model, 51).first_row
        assert abs(lags[50]) < abs(lags[5])

    def test_unstable_model_refused(self):
        bad = ArpModel(alpha=np.array([1.2 + 0j]), sigma_eps2=1.0)
        with pytest.raises(UnstableModelError):
            arp_induced_covariance(bad, 10)

    def test_psd_for_stable_fit(self):
        cov = arp_induced_covariance(fit_clarke_model(ClarkeModel(W=2.0, N=100), 20), 100)
        eigmin = float(np.linalg.eigvalsh(cov.matrix()).min())
        assert eigmin >= -1e-8 * cov.r0


class TestKsDistance:
    def test_matches_scipy_two_sample_statistic(self):
        rng = make_rng(77)
        x = rng.standard_normal(500)
        y = rng.standard_normal(700) + 0.2
        assert ks_distance(x, y) == pytest.approx(ks_2samp(x, y).statistic, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = make_rng(78)
        x = rng.random(400) * 5
        y = rng.random(300) * 5
        assert ks_distance(x, y) == ks_distance(np.log1p(x), np.log1p(y))

    def test_bounds(self):
        assert ks_distance([1, 2, 3], [10, 11]) == 1.0
        assert ks_distance([1, 2, 3], [1, 2, 3]) == 0.0


class TestSelectOrder:
    def test_single_candidate(self):
        result = select_order(ClarkeModel(W=1.0, N=20), p_max=1, mc_samples=1000, seed=3)
        assert result.p_star == 1
        assert set(result.distances) == {1}

    def test_distances_in_unit_interval_and_optimal(self):
        result = select_order(ClarkeModel(W=1.0, N=30), p_max=6, mc_samples=2000, seed=4)
        assert all(0.0 <= d <= 1.0 for d in result.distances.values())
        best = min(result.distances.values())
        assert result.distances[result.p_star] <= best + 1e-4
        assert result.reference_sample_count == 2000

    def test_workers_do_not_change_result(self):
        serial = select_order(ClarkeModel(W=1.0, N=25), p_max=4, mc_samples=1000, seed=5, workers=1)
        threaded = select_order(ClarkeModel(W=1.0, N=25), p_max=4, mc_samples=1000, seed=5, workers=3)
        assert serial.p_star == threaded.p_star
        assert serial.distances == threaded.distances

    def test_candidates_match_the_shared_row_batch_path(self):
        # every candidate reads the rows of one stream, (seed, 1, i) for row i,
        # and the reference is sample_exact's, reduced a chunk at a time
        model, seed, mc = ClarkeModel(W=1.0, N=20), 6, CHUNK_ROWS + 3
        result = select_order(model, p_max=3, mc_samples=mc, seed=seed)
        reference = max_gain(sample_exact(model.spectrum, derive(seed, _REF_BRANCH), mc))
        candidates = derive(seed, _CANDIDATE_BRANCH)
        assert set(result.distances) == {1, 2, 3}
        for p, distance in result.distances.items():
            gains = simulate_max_gains([fit_clarke_model(model, p)], model.N, mc, candidates)[0]
            assert distance == ks_distance(reference, gains)

    def test_peak_memory_independent_of_mc(self):
        # the reference and both candidates (one shared-row call) are reduced
        # chunk by chunk, so only (mc,) gain vectors grow with mc; the result
        # itself is a small dict
        model = ClarkeModel(W=1.0, N=32)
        peaks = []
        for mc in (2 * CHUNK_ROWS, 4 * CHUNK_ROWS):
            tracemalloc.start()
            try:
                select_order(model, p_max=2, mc_samples=mc, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] == pytest.approx(peaks[0], rel=0.1)

    def test_parameter_validation(self):
        model = ClarkeModel(W=1.0, N=20)
        with pytest.raises(ValueError):
            select_order(model, p_max=0, mc_samples=1000)
        with pytest.raises(ValueError):
            select_order(model, p_max=30, mc_samples=1000)
        with pytest.raises(ValueError):
            select_order(model, p_max=3, mc_samples=10)

    def test_p_max_checked_before_any_work(self, monkeypatch):
        # fit_clarke_model fits p <= N-1, so p_max = N must fail up front
        import faschan.arfit
        import faschan.correlation

        def no_work(*args, **kwargs):
            raise AssertionError("select_order did work before its range check")

        monkeypatch.setattr(faschan.correlation, "eigen_spectrum", no_work)
        monkeypatch.setattr(faschan.arfit, "fit_clarke_model", no_work)
        with pytest.raises(ValueError, match="p_max"):
            select_order(ClarkeModel(W=1.0, N=20), p_max=20, mc_samples=1000)
