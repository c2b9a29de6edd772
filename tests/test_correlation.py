import mpmath
import numpy as np
import pytest
import sympy

from faschan import correlation
from faschan.correlation import (
    CHUNK_ROWS,
    ClarkeModel,
    ToeplitzCovariance,
    build_covariance,
    clarke_autocorrelation,
    eigen_spectrum,
    sample_exact,
    sample_exact_max_gains,
)
from faschan.stats import max_gain


def empirical_covariance(samples):
    return samples.T @ np.conj(samples) / samples.shape[0]


class TestClarkeAutocorrelation:
    def test_lag_zero_is_unit(self):
        for w, n in [(2.0, 100), (5.0, 200), (0.5, 7)]:
            assert clarke_autocorrelation(0, ClarkeModel(W=w, N=n)) == 1.0

    def test_even_in_lag(self):
        model = ClarkeModel(W=3.0, N=64)
        for lag in [1, 5, 17, 63]:
            assert clarke_autocorrelation(lag, model) == clarke_autocorrelation(-lag, model)

    def test_against_high_precision_evaluation(self):
        # independent arbitrary-precision oracle for sin(x)/x at x = 4*pi/99
        mpmath.mp.dps = 40
        x = 4 * mpmath.pi / 99
        expected = float(mpmath.sin(x) / x)
        value = clarke_autocorrelation(1, ClarkeModel(W=2.0, N=100))
        assert value == pytest.approx(expected, abs=1e-15)

    def test_scales_with_sigma2(self):
        base = clarke_autocorrelation(3, ClarkeModel(W=2.0, N=50))
        scaled = clarke_autocorrelation(3, ClarkeModel(W=2.0, N=50, sigma2=2.5))
        assert scaled == pytest.approx(2.5 * base, rel=1e-14)

    def test_out_of_range_lag_rejected(self):
        model = ClarkeModel(W=2.0, N=10)
        with pytest.raises(ValueError):
            clarke_autocorrelation(10, model)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ClarkeModel(W=0.0, N=10)
        with pytest.raises(ValueError):
            ClarkeModel(W=1.0, N=1)
        with pytest.raises(ValueError):
            ClarkeModel(W=1.0, N=10, sigma2=0.0)
        # non-finite values are refused here, not passed on to LAPACK
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match="W must be finite"):
                ClarkeModel(W=value, N=10)
            with pytest.raises(ValueError, match="sigma2 must be finite"):
                ClarkeModel(W=1.0, N=10, sigma2=value)

    def test_spectrum_cached_per_model(self, monkeypatch):
        model = ClarkeModel(W=2.0, N=30)
        expected = eigen_spectrum(build_covariance(model))
        calls = []

        def counted(cov):
            calls.append(cov.N)
            return eigen_spectrum(cov)

        monkeypatch.setattr(correlation, "eigen_spectrum", counted)
        assert model.spectrum is model.spectrum
        assert calls == [30]
        np.testing.assert_array_equal(model.spectrum.eigenvalues, expected.eigenvalues)
        np.testing.assert_array_equal(model.spectrum.eigenvectors, expected.eigenvectors)


class TestBuildCovariance:
    def test_fig1_configuration(self):
        cov = build_covariance(ClarkeModel(W=5.0, N=200))
        assert cov.N == 200
        assert cov.first_row.shape == (200,)
        assert cov.first_row[0] == 1.0

    def test_smallest_case(self):
        model = ClarkeModel(W=1.0, N=2)
        cov = build_covariance(model)
        a1 = clarke_autocorrelation(1, model)
        expected = np.array([[1.0, a1], [a1, 1.0]])
        np.testing.assert_allclose(cov.matrix(), expected, atol=1e-15)

    def test_matrix_is_hermitian_toeplitz(self):
        cov = build_covariance(ClarkeModel(W=2.0, N=40))
        m = cov.matrix()
        np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
        for off in range(1, 5):
            diag = np.diagonal(m, offset=-off)
            assert np.all(diag == diag[0])

    def test_psd_within_tolerance(self):
        # full eigendecomposition oracle
        for w, n in [(2.0, 100), (5.0, 200), (0.7, 33)]:
            cov = build_covariance(ClarkeModel(W=w, N=n))
            eigmin = float(np.linalg.eigvalsh(cov.matrix()).min())
            assert eigmin >= -1e-8 * cov.r0

    def test_lags_computed_once_per_model(self, monkeypatch):
        # the covariance and every fit slice one cached lag vector, whose
        # entries are the scalar formula's bits
        from faschan.arfit import fit_clarke_model

        model = ClarkeModel(W=5.0, N=60)
        expected = np.array([clarke_autocorrelation(lag, model) for lag in range(model.N)], dtype=np.complex128)
        calls = []

        def counted(lag, model):
            calls.append(lag)
            return clarke_autocorrelation(lag, model)

        monkeypatch.setattr(correlation, "clarke_autocorrelation", counted)
        cov = build_covariance(model)
        for p in (1, 5, 29, 40):
            fit_clarke_model(model, p)
        assert sorted(calls) == list(range(model.N))
        np.testing.assert_array_equal(cov.first_row, expected)
        np.testing.assert_array_equal(model.lags, expected)
        assert not model.lags.flags.writeable

    def test_rejects_bad_first_row(self):
        with pytest.raises(ValueError):
            ToeplitzCovariance(first_row=np.array([0.0, 0.1]))


class TestEigenSpectrum:
    def test_identity_covariance(self):
        cov = ToeplitzCovariance(first_row=np.array([2.0, 0, 0, 0]))
        spec = eigen_spectrum(cov)
        np.testing.assert_allclose(spec.eigenvalues, 2.0, atol=1e-14)

    def test_sorted_descending_and_clipped(self, spectrum_w2n100):
        lam = spectrum_w2n100.eigenvalues
        assert np.all(np.diff(lam) <= 0)
        assert np.all(lam >= 0)

    def test_steep_tail_decay(self, spectrum_w2n100):
        # only a handful of modes carry the energy of the oversampled aperture
        lam = spectrum_w2n100.eigenvalues
        assert np.sum(lam[10:]) < 0.05 * np.sum(lam)

    def test_trace_preserved(self, clarke_w2n100, spectrum_w2n100):
        cov = build_covariance(clarke_w2n100)
        assert spectrum_w2n100.trace == pytest.approx(np.trace(cov.matrix()).real, rel=1e-8)

    def test_unitary_eigenvectors(self, spectrum_w2n100):
        u = spectrum_w2n100.eigenvectors
        np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-8)

    def test_reconstruction(self, clarke_w2n100, spectrum_w2n100):
        cov = build_covariance(clarke_w2n100).matrix()
        u, lam = spectrum_w2n100.eigenvectors, spectrum_w2n100.eigenvalues
        rebuilt = (u * lam) @ u.conj().T
        assert np.linalg.norm(rebuilt - cov) <= 1e-6 * np.linalg.norm(cov)

    def test_small_hermitian_toeplitz_against_charpoly_roots(self):
        # brute-force characteristic polynomial oracle on a complex 5x5 case
        rng = np.random.default_rng(7)
        row = np.concatenate([[2.5], 0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))])
        cov = ToeplitzCovariance(first_row=row)
        matrix = cov.matrix()
        poly = sympy.Matrix(np.round(matrix, 12)).charpoly()
        roots = np.sort(np.array([complex(r) for r in sympy.nroots(poly.as_expr(), n=30)]).real)[::-1]
        spec = eigen_spectrum(cov)
        np.testing.assert_allclose(spec.eigenvalues, np.clip(roots, 0, None), atol=1e-9)

    @pytest.mark.parametrize(("W", "N", "rank"), [(5.0, 200, 22), (2.0, 100, 14)])
    def test_factor_rebuilds_the_covariance(self, W, N, rank):
        # the rank-r factor keeps the eigenvalues above N * eps * lambda_1,
        # so what it drops stays within N * eps * lambda_1 * N per entry
        cov = build_covariance(ClarkeModel(W=W, N=N))
        spec = eigen_spectrum(cov)
        factor = spec.factor
        assert factor.shape == (rank, N)
        assert not factor.flags.writeable
        assert spec.factor is factor
        tol = N * np.finfo(float).eps * spec.eigenvalues[0] * N
        np.testing.assert_allclose(factor.conj().T @ factor, cov.matrix(), rtol=0, atol=tol)

    def test_warns_on_indefinite_input(self):
        row = np.array([1.0, 0.999, 0.0, -0.999])
        cov = ToeplitzCovariance(first_row=row)
        with pytest.warns(RuntimeWarning):
            eigen_spectrum(cov)


class TestSampleExact:
    def test_zero_spectrum_gives_zero_samples(self):
        from faschan.correlation import EigenSpectrum

        spec = EigenSpectrum(eigenvalues=np.zeros(6), eigenvectors=np.eye(6, dtype=complex))
        samples = sample_exact(spec, seed=3, count=4)
        assert np.all(samples == 0)

    def test_deterministic_per_seed(self, spectrum_w2n100):
        a = sample_exact(spectrum_w2n100, seed=11, count=8)
        b = sample_exact(spectrum_w2n100, seed=11, count=8)
        c = sample_exact(spectrum_w2n100, seed=12, count=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empirical_covariance_matches(self, clarke_w2n100, spectrum_w2n100):
        target = build_covariance(clarke_w2n100).matrix()
        samples = sample_exact(spectrum_w2n100, seed=5, count=50_000)
        err = np.linalg.norm(empirical_covariance(samples) - target) / np.linalg.norm(target)
        assert err < 0.03

    def test_monte_carlo_rate(self):
        # 16x more samples should shrink the covariance error about 4x
        model = ClarkeModel(W=2.0, N=50)
        spec = eigen_spectrum(build_covariance(model))
        target = build_covariance(model).matrix()
        err_small = np.linalg.norm(
            empirical_covariance(sample_exact(spec, seed=21, count=2_000)) - target
        )
        err_big = np.linalg.norm(
            empirical_covariance(sample_exact(spec, seed=22, count=32_000)) - target
        )
        assert 2.0 <= err_small / err_big <= 8.0

    def test_max_gain_cdf_monotone_reaches_one(self, spectrum_w2n100):
        gains = max_gain(sample_exact(spectrum_w2n100, seed=9, count=2_000))
        grid = np.linspace(0, gains.max() + 1.0, 50)
        cdf = np.searchsorted(np.sort(gains), grid, side="right") / gains.size
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == 1.0

    def test_count_validated(self, spectrum_w2n100):
        with pytest.raises(ValueError):
            sample_exact(spectrum_w2n100, seed=0, count=0)

    def test_w5_sample_covariance_within_five_standard_errors(self):
        # entry (i, j) of a sample covariance of circular complex Gaussian
        # rows has variance S_ii S_jj / n, and of the pseudo-covariance
        # (zero in law) (S_ii S_jj + |S_ij|^2) / n
        model = ClarkeModel(W=5.0, N=200)
        target = build_covariance(model).matrix()
        n = 20_000
        samples = sample_exact(eigen_spectrum(build_covariance(model)), seed=31, count=n)
        power = np.outer(np.diag(target).real, np.diag(target).real)
        assert np.all(np.abs(empirical_covariance(samples) - target) <= 5 * np.sqrt(power / n))
        pseudo = samples.T @ samples / n
        assert np.all(np.abs(pseudo) <= 5 * np.sqrt((power + np.abs(target) ** 2) / n))

    def test_rows_do_not_depend_on_the_chunk_size(self, monkeypatch, spectrum_w2n100):
        # a row's normals come from the stream in order whatever the chunk;
        # only a lone last row's matrix-vector product rounds otherwise.
        # Under 16-row chunks, 50 rows end in a short chunk, 49 in a lone row
        counts = (50, 49)
        whole = [sample_exact(spectrum_w2n100, (9, count), count) for count in counts]
        monkeypatch.setattr(correlation, "CHUNK_ROWS", 16)
        for count, expected in zip(counts, whole):
            got = sample_exact(spectrum_w2n100, (9, count), count)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestSampleExactMaxGains:
    def test_reference_gains_match_the_whole_block(self, monkeypatch):
        spectrum = eigen_spectrum(build_covariance(ClarkeModel(W=2.0, N=30)))
        # both samplers read the same chunks: below one chunk, exactly one,
        # one more (a lone last row) and three more
        for count in (1, 5, CHUNK_ROWS, CHUNK_ROWS + 1, CHUNK_ROWS + 3):
            whole = max_gain(sample_exact(spectrum, (8, 0), count))
            np.testing.assert_array_equal(sample_exact_max_gains(spectrum, (8, 0), count), whole)
        # many chunks, the last one short or a lone row
        monkeypatch.setattr(correlation, "CHUNK_ROWS", 16)
        for count in (50, 49, 11):
            np.testing.assert_array_equal(
                sample_exact_max_gains(spectrum, (8, 0), count), max_gain(sample_exact(spectrum, (8, 0), count))
            )

    def test_count_validated(self, spectrum_w2n100):
        # as sample_exact: an empty sample has no CDF, a negative one no shape
        for count in (0, -3):
            with pytest.raises(ValueError, match="count must be >= 1"):
                sample_exact_max_gains(spectrum_w2n100, seed=0, count=count)
