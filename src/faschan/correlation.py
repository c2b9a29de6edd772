"""Exact spatial correlation model for a dense linear port array.

Under rich isotropic scattering the correlation between two ports depends
only on their index separation, with a sinc-shaped autocorrelation over an
aperture of ``W`` wavelengths sampled by ``N`` ports.  The covariance is
therefore Hermitian Toeplitz; its eigendecomposition drives both exact
channel sampling and the observation-count bound.

Conventions: sinc(x) = sin(x)/x with sinc(0) = 1 (the argument already
carries the 2*pi factor), and the unit-variance white vector is colored as
g = U Lambda^(1/2) g0, so the sample covariance reproduces the model
covariance including its per-port variance.

Exact rows are drawn through ``EigenSpectrum.factor``, the (r, N) rank-r
factor of the covariance: the sinc Toeplitz matrix has only about 2W + 1
significant eigenvalues (Slepian, Bell Syst. Tech. J. 57, 1978), and r keeps
those above the eigendecomposition's own round-off.  One chunk loop draws
CHUNK_ROWS rows at a time from one stream, 2r normals per row in order, so a
row's normals do not depend on the chunk size.  ``sample_exact`` stacks the
chunks and ``sample_exact_max_gains`` keeps each row's max gain only, so its
working memory does not grow with the row count.

A model's lags 0..N-1 are computed once (``ClarkeModel.lags``); the
covariance and every surrogate fit read slices of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import toeplitz

from .errors import NumericalError
from .rng import SQRT_HALF, make_rng
from .stats import max_gain

# round-off eigenvalues below -PSD_TOL * r(0) are reported, not silently clipped
PSD_TOL = 1e-8
# rows per exact sampling chunk: enough that the per-chunk numpy calls
# amortise, few enough that a chunk's samples stay near 3.3 MB at N = 200.
# A row's normals do not depend on it; only a lone last row's product does
# (a matrix-vector product rounds otherwise, by about 1e-15), so outputs
# reproduce bit for bit at a fixed CHUNK_ROWS
CHUNK_ROWS = 1024


@dataclass(frozen=True)
class ClarkeModel:
    """Linear aperture of ``W`` wavelengths, ``N`` ports, per-port variance ``sigma2``."""

    W: float
    N: int
    sigma2: float = 1.0

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not self.W > 0:
            raise ValueError(f"W must be > 0, got {self.W}")
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")

    @cached_property
    def lags(self) -> np.ndarray:
        """``clarke_autocorrelation`` at lags 0..N-1, computed once per model, read-only."""
        row = np.array([clarke_autocorrelation(lag, self) for lag in range(self.N)], dtype=np.complex128)
        row.setflags(write=False)
        return row


def clarke_autocorrelation(lag: int, model: ClarkeModel) -> float:
    """Correlation sigma2 * sinc(2*pi*lag*W/(N-1)) between ports ``lag`` apart.

    Even in ``lag``; |lag| beyond N-1 has no meaning on an N-port array.
    """
    if abs(lag) > model.N - 1:
        raise ValueError(f"|lag| must be <= N-1 = {model.N - 1}, got {lag}")
    x = 2.0 * np.pi * lag * model.W / (model.N - 1)
    # np.sinc is the normalized sin(pi t)/(pi t); undo the pi to get sin(x)/x
    return float(model.sigma2 * np.sinc(x / np.pi))


@dataclass(frozen=True)
class ToeplitzCovariance:
    """Hermitian Toeplitz covariance defined by the lag sequence r(0..N-1).

    With r(l) = E[g_k conj(g_{k-l})], entry (i, j) is first_row[i-j] below
    the diagonal and its conjugate above; r(0) is the real positive per-port
    variance.  The two triangles coincide for real lag sequences such as the
    sinc model's.  The materialized matrix is positive semidefinite up to
    round-off (min eigenvalue >= -1e-8 * r(0)); that property is inspected
    where the matrix is eigendecomposed rather than at construction.
    """

    first_row: np.ndarray
    N: int

    def __post_init__(self):
        row = np.asarray(self.first_row, dtype=np.complex128).reshape(-1).copy()
        if row.size != self.N:
            raise ValueError(f"first_row has {row.size} entries, expected N = {self.N}")
        r0 = row[0]
        if abs(r0.imag) > 1e-12 * max(abs(r0.real), 1.0) or not r0.real > 0:
            raise ValueError(f"r(0) must be real and positive, got {r0}")
        row.setflags(write=False)
        object.__setattr__(self, "first_row", row)

    @property
    def r0(self) -> float:
        return float(self.first_row[0].real)

    @cached_property
    def _matrix(self) -> np.ndarray:
        m = toeplitz(self.first_row, np.conj(self.first_row))
        m.setflags(write=False)
        return m

    def matrix(self) -> np.ndarray:
        """Dense N x N matrix (read-only view, cached)."""
        return self._matrix


def build_covariance(model: ClarkeModel) -> ToeplitzCovariance:
    """Covariance whose first row is the sinc autocorrelation at lags 0..N-1."""
    return ToeplitzCovariance(first_row=model.lags, N=model.N)


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues (descending, clipped at zero) and unitary eigenvectors of a covariance."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float).reshape(-1).copy()
        u = np.asarray(self.eigenvectors, dtype=np.complex128).copy()
        if u.shape != (w.size, w.size):
            raise ValueError(f"eigenvectors shape {u.shape} does not match {w.size} eigenvalues")
        w.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", u)

    @property
    def trace(self) -> float:
        return float(np.sum(self.eigenvalues))

    @cached_property
    def factor(self) -> np.ndarray:
        """(r, N) rows of (U[:, :r] Lambda[:r]^(1/2))^T, read-only, cached.

        r counts the eigenvalues above N * eps * lambda_1 (eps the float64
        machine epsilon), at least one: the rest lie below eigh's own
        round-off.  A row z of r unit complex normals gives z @ factor, a
        draw of covariance U[:, :r] Lambda[:r] U[:, :r]^H.
        """
        w = self.eigenvalues
        rank = max(1, int(np.count_nonzero(w > w.size * np.finfo(float).eps * w[0])))
        factor = np.ascontiguousarray((self.eigenvectors[:, :rank] * np.sqrt(w[:rank])).T)
        factor.setflags(write=False)
        return factor


def eigen_spectrum(cov: ToeplitzCovariance) -> EigenSpectrum:
    """Hermitian eigendecomposition, eigenvalues sorted descending.

    Negative round-off eigenvalues are clipped to zero; a clip larger than
    1e-8 * r(0) indicates the input was not a covariance and is reported
    through a warning.
    """
    matrix = cov.matrix()
    try:
        w, u = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        scale = float(np.max(np.abs(matrix)))
        raise NumericalError(
            f"eigendecomposition failed for N={cov.N}, max|entry|={scale:.3e}: {exc}"
        ) from exc
    w = w[::-1]
    u = u[:, ::-1]
    worst = float(w.min())
    if worst < -PSD_TOL * cov.r0:
        warnings.warn(
            f"covariance has eigenvalue {worst:.3e} below -{PSD_TOL:g}*r(0); clipping to 0",
            RuntimeWarning,
            stacklevel=2,
        )
    return EigenSpectrum(eigenvalues=np.clip(w, 0.0, None), eigenvectors=u)


def _exact_chunks(spec: EigenSpectrum, seed, count: int):
    """The ``count`` exact rows of ``seed``'s stream, CHUNK_ROWS rows at a time.

    Each row's r complex normals are 2r standard normals drawn in order,
    real and imaginary parts alternating, each scaled by SQRT_HALF.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = make_rng(seed)
    factor = spec.factor
    for start in range(0, count, CHUNK_ROWS):
        parts = rng.standard_normal((min(CHUNK_ROWS, count - start), 2 * factor.shape[0]))
        parts *= SQRT_HALF
        yield parts.view(np.complex128) @ factor


def sample_exact(spec: EigenSpectrum, seed, count: int) -> np.ndarray:
    """Draw ``count`` channel vectors g = U Lambda^(1/2) g0, one per row.

    g0 is unit-variance circularly-symmetric complex white noise from the
    seeded stream, so rows have the covariance U Lambda U^H in law, up to
    the eigenvalues ``EigenSpectrum.factor`` drops.
    """
    return np.concatenate(list(_exact_chunks(spec, seed, count)))


def sample_exact_max_gains(spec: EigenSpectrum, seed, count: int) -> np.ndarray:
    """``max_gain(sample_exact(spec, seed, count))``, without the (count, N) block."""
    return np.concatenate([max_gain(samples) for samples in _exact_chunks(spec, seed, count)])
