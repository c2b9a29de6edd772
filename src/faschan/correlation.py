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

Selection-gain statistics need only each row's max gain max_k |g_k|^2:
``sample_exact_max_gains`` reduces the rows ``sample_exact`` would draw a
chunk of CHUNK_ROWS at a time, bit for bit, so its memory does not grow with
the row count.  CHUNK_ROWS belongs to this sampler alone: its chunks must
start where the whole block's BLAS row groups start, and a lone last row is
multiplied beside a zeroed one so that it rounds as it does in the block.
The generator chunks its rows by its own size, on which its bits do not
depend.  Every exact draw of the ``cdf`` command, the threshold pilot
included, goes through this sampler beside the command's other stages on
its worker pool, so a chunk is kept small.

A model's lags 0..N-1 are computed once (``ClarkeModel.lags``); the
covariance and every surrogate fit read slices of them.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import toeplitz

from .errors import NumericalError
from .rng import SQRT_HALF, complex_standard_normal, make_rng
from .stats import max_gain

# round-off eigenvalues below -PSD_TOL * r(0) are reported, not silently clipped
PSD_TOL = 1e-8
# rows per sampling chunk, a power of two so that chunks align with the
# whole block's BLAS row groups: enough that the per-chunk numpy calls
# amortise, few enough that a chunk's samples stay near 3.3 MB at N = 200
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


def sample_exact(spec: EigenSpectrum, seed, count: int) -> np.ndarray:
    """Draw ``count`` channel vectors g = U Lambda^(1/2) g0, one per row.

    g0 is unit-variance circularly-symmetric complex white noise from the
    seeded stream, so rows have covariance U Lambda U^H exactly in law.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = make_rng(seed)
    n = spec.eigenvalues.size
    factor = spec.eigenvectors * np.sqrt(spec.eigenvalues)[None, :]
    g0 = complex_standard_normal(rng, (count, n))
    return g0 @ factor.T


def sample_exact_max_gains(spec: EigenSpectrum, seed, count: int) -> np.ndarray:
    """``max_gain(sample_exact(spec, seed, count))``, CHUNK_ROWS rows at a time.

    ``sample_exact`` draws one (count, N) block of real parts and then one of
    imaginary parts from a single stream.  Two copies of that stream give the
    same normals chunk by chunk: one reads the real parts in order, the other
    starts as a copy of it taken once the first chunk's real parts are read,
    skips the later chunks' real parts a chunk at a time (none when the
    count fits one chunk), then reads the imaginary parts.  Each chunk's rows
    are sampled and reduced as in the whole block, and the power-of-two
    CHUNK_ROWS starts every chunk where one of the whole block's BLAS row
    groups starts, so each row's product rounds alike: the gains are
    bit-identical, and memory does not grow with count.  A last chunk of
    one row is multiplied beside a zeroed row: alone it would run as a
    matrix-vector product, which rounds otherwise.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    n = spec.eigenvalues.size
    factor = spec.eigenvectors * np.sqrt(spec.eigenvalues)[None, :]
    real, imag = make_rng(seed), None
    gains = np.empty(count)
    for start in range(0, count, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, count - start)
        # the parts of complex_standard_normal, scaled alike; a lone last
        # row gets a zeroed row beside it
        width = 2 if rows == 1 and count > 1 else rows
        g0 = np.empty((width, n), dtype=np.complex128)
        g0[rows:] = 0.0
        parts = real.standard_normal((rows, n))
        np.multiply(parts, SQRT_HALF, out=g0.real[:rows])
        if imag is None:
            imag = copy.deepcopy(real)
            for later in range(rows, count, CHUNK_ROWS):
                imag.standard_normal(out=parts[: min(CHUNK_ROWS, count - later)])
        imag.standard_normal(out=parts)
        np.multiply(parts, SQRT_HALF, out=g0.imag[:rows])
        del parts
        # freed once multiplied, as sample_exact frees them
        samples = g0 @ factor.T
        del g0
        gains[start : start + rows] = max_gain(samples[:rows])
        del samples  # before the next chunk's draws
    return gains
