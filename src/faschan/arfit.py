"""Complex AR(p) surrogate fitted by correlation matching.

A surrogate is its law, ``ArpModel(alpha, sigma_eps2)``: the coefficients
and the innovation variance.  Its stability report, stationary factor and
induced lags all follow from those two and are computed on demand.

The production fit (``fit_clarke_model``) imposes the recursion
r(l) = sum_i a_i r(l-i) in least squares over the target lags l = 1..2p
(capped at N-1), then sets the innovation variance so that the stationary
per-port variance is r(0) exactly: sigma^2 = r(0) / G(a), with the unit-noise
gain G(a) = (1/2pi) integral dw / |A(e^{jw})|^2 taken as a mean over a grid
sized from the roots (``_inverse_power``).  A model is accepted only if every
root of 1 - sum_i a_i z^-i lies inside the unit circle with margin.

The fitted process's own autocorrelation is the inverse transform of its
power spectrum sigma^2 / |A(e^{jw})|^2, evaluated on the same grid that
normalizes the innovation variance; it gives the Toeplitz covariance for
cross-checking against dense conditioning.  The smoother's prior is the
model's cached ``ArpModel.stationary_factor``; simulated rows and particle
swarms start from ``start_factor``, the law after burn_in_factor * N ports.

Order selection follows the Monte-Carlo procedure: an exact-model reference
sample of the selection gain, one simulated sample per stable candidate
order, and the two-sample KS distance between them decides the order.  The
candidates' samples share their rows: each row's normals are drawn once and
drive every candidate (common random numbers), so candidates differ by
model rather than by stream noise.  Both samples are drawn only in their
max-gain forms, ``correlation.sample_exact_max_gains`` and
``generator.simulate_max_gains``, which reduce a chunk of rows at a time, so
memory does not grow with the sample size.  The reference reads the exact
model's cached ``ClarkeModel.spectrum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas, lapack

from .correlation import ClarkeModel, ToeplitzCovariance, sample_exact_max_gains
from .errors import FitError, UnstableModelError
from .rng import derive
from .stats import ks_distance

# roots with modulus >= 1 - DELTA_STAB count as unstable
DELTA_STAB = 1e-6
# candidate orders within this of the best KS distance tie-break to the smallest p
TIE_TOL = 1e-4
# lags matched per model order by the aperture-window fit
_WINDOW_FACTOR = 2
# unit-noise gain grid: at least this many e-folds of the slowest root's
# decay per grid length, within [_GRID_MIN, _GRID_MAX] points
_GRID_DECAYS = 40
_GRID_MIN = 1 << 12
_GRID_MAX = 1 << 21
# stationary factor's burn-in, in e-folds of the slowest root's decay
_STATIONARY_DECAYS = 14
# the surrogate's start law: the burned-in law after this many multiples of N ports
BURN_IN_FACTOR = 5
# impulse-response rows folded into the burn-in factor per QR update; fixed,
# because the block boundaries set the signs of the factor's rows
_FACTOR_ROWS = 256

_REF_BRANCH = 0
_CANDIDATE_BRANCH = 1


@dataclass(frozen=True, eq=False)
class ArpModel:
    """AR(p) law: coefficients alpha_1..alpha_p and innovation variance sigma_eps2."""

    alpha: np.ndarray
    sigma_eps2: float

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.complex128).reshape(-1).copy()
        if alpha.size < 1:
            raise ValueError("alpha must have p >= 1 entries, got none")
        if not self.sigma_eps2 >= 0:
            raise ValueError(f"sigma_eps2 must be >= 0, got {self.sigma_eps2}")
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)

    @property
    def p(self) -> int:
        return self.alpha.size

    @cached_property
    def stability(self) -> "StabilityReport":
        """``check_stability``'s report, the roots found once per model."""
        return _stability(self.alpha)

    @cached_property
    def stationary_factor(self) -> np.ndarray:
        """Upper-triangular F, F^H F the stationary covariance of [g_k, ..., g_{k-p+1}].

        The ``burned_in_factor`` of ceil(14 / margin) steps, whose zero-start
        transient is below e^-28, so F^H F is the Toeplitz matrix of the
        model's own lags r(j - i) (``arp_induced_covariance``) to round-off.
        Computed once per model, read-only.
        """
        report = check_stability(self)
        if not report.stable:
            raise UnstableModelError("an unstable model has no stationary law")
        factor = burned_in_factor(self, int(np.ceil(_STATIONARY_DECAYS / report.margin)))
        factor.setflags(write=False)
        return factor


@dataclass(frozen=True, eq=False)
class StabilityReport:
    root_moduli: np.ndarray
    stable: bool
    margin: float


@dataclass(frozen=True)
class OrderSelectionResult:
    """Selected order with the KS distance recorded for every stable candidate."""

    p_star: int
    distances: dict[int, float]
    reference_sample_count: int
    unstable_orders: tuple[int, ...] = ()


def _root_moduli(alpha: np.ndarray) -> np.ndarray:
    """Moduli of the p roots of 1 - sum_i alpha_i z^-i, largest first."""
    alpha = np.asarray(alpha)
    moduli = np.sort(np.abs(np.roots(np.concatenate([[1.0 + 0.0j], -alpha]))))[::-1]
    if moduli.size < alpha.size:  # trailing zero coefficients drop roots at the origin
        moduli = np.concatenate([moduli, np.zeros(alpha.size - moduli.size)])
    return moduli


def _stability(alpha: np.ndarray) -> StabilityReport:
    moduli = _root_moduli(alpha)
    moduli.setflags(write=False)  # shared by every reader of a model's cached report
    worst = float(moduli[0]) if moduli.size else 0.0
    return StabilityReport(root_moduli=moduli, stable=worst < 1.0 - DELTA_STAB, margin=1.0 - worst)


def _gain_grid_size(margin: float) -> int:
    """FFT length of the unit-noise gain grid: the smallest power of two >= 40 / margin.

    Clamped to [2^12, 2^21]; a margin <= 0 (a root on or outside the unit
    circle) gets the largest grid.
    """
    if not margin > 0.0:
        return _GRID_MAX
    needed = int(np.ceil(_GRID_DECAYS / margin))
    return int(min(max(1 << (needed - 1).bit_length(), _GRID_MIN), _GRID_MAX))


def _inverse_power(alpha: np.ndarray, margin: float, min_size: int = 1) -> np.ndarray:
    """1 / |A(e^{jw})|^2 on the gain grid of root margin ``margin``, grown to >= min_size points.

    Its mean is the unit-noise gain (1/2pi) integral dw / |A(e^{jw})|^2, the
    stationary per-sample variance of the filter driven by unit white noise.
    That mean is exactly the sum of the filter's unit-noise autocorrelation
    at lags 0, +-nfft, +-2 nfft, ..., so it overshoots the true gain only by
    the aliased lags, which decay like (1 - margin)^nfft.  With nfft from
    ``_gain_grid_size`` that factor is below e^-40 and the grid mean is as
    exact as round-off allows.
    """
    nfft = max(_gain_grid_size(margin), 1 << (min_size - 1).bit_length())
    transfer = np.fft.fft(np.concatenate([[1.0 + 0.0j], -np.asarray(alpha)]), n=nfft)
    return 1.0 / np.abs(transfer) ** 2


def fit_clarke_model(model: ClarkeModel, p: int) -> ArpModel:
    """Order-p fit matched to the model's correlation over an aperture window.

    The recursion r(l) = sum_i a_i r(l-i) is imposed in least squares over
    lags l = 1..min(_WINDOW_FACTOR*p, N-1) rather than only the first p, which
    pins down the coefficient components the rank-deficient normal equations
    leave free and keeps the induced long-range correlation on target.  The
    innovation variance is then normalized so the stationary per-port
    variance equals r(0) exactly.
    """
    if not 1 <= p <= model.N - 1:
        raise ValueError(f"p must be in [1, N-1], got {p}")
    L = min(_WINDOW_FACTOR * p, model.N - 1)
    lags = model.lags[: L + 1]
    # rows l = 1..L of the recursion; negative lags enter conjugated
    two_sided = np.concatenate([np.conj(lags[p:0:-1]), lags])
    design = np.empty((L, p), dtype=np.complex128)
    for row in range(L):
        start = row + p  # index of r(l-1) in two_sided for l = row+1
        design[row] = two_sided[start : start - p : -1]
    alpha = np.linalg.lstsq(design, lags[1:], rcond=None)[0]
    report = _stability(alpha)
    # the unit-noise gain, on the grid of the roots found here
    sigma_eps2 = float(lags[0].real) / float(np.mean(_inverse_power(alpha, report.margin)))
    fitted = ArpModel(alpha=alpha, sigma_eps2=max(sigma_eps2, 0.0))
    # the model's alpha is a copy of these coefficients, so their report is its own
    fitted.__dict__["stability"] = report
    return fitted


def check_stability(model: ArpModel) -> StabilityReport:
    """Moduli of the roots of 1 - sum_i alpha_i z^-i, and the stability verdict.

    Found once per model and cached (``ArpModel.stability``).
    """
    return model.stability


def arp_induced_covariance(model: ArpModel, N: int) -> ToeplitzCovariance:
    """Toeplitz covariance of N consecutive samples of the fitted process.

    The lags are the process's own: r(l) = sigma^2 / nfft * sum_k S_k e^{+j w_k l}
    with S = 1 / |A|^2 on the unit-noise gain grid (grown to at least 2N points),
    which is the inverse DFT of the power spectrum.  Like the grid mean, each
    lag carries only the aliased lags l +- nfft, ..., below e^-20 r(0) for
    l <= nfft / 2.  The spectrum of an unstable model has no inverse
    transform, hence the stability gate.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    report = check_stability(model)
    if not report.stable:
        raise UnstableModelError("an unstable model has no stationary autocorrelation")
    power = _inverse_power(model.alpha, report.margin, 2 * N)
    lags = np.conj(np.fft.rfft(power)[:N]) * (model.sigma_eps2 / power.size)
    return ToeplitzCovariance(first_row=lags)


def burned_in_factor(model: ArpModel, B: int) -> np.ndarray:
    """Upper-triangular F with F^H F the covariance of the burned-in lifted state.

    The state is [g_{B+p}, ..., g_{B+1}] (newest first) of the recursion run
    B + p steps from zeros: a ``simulate_batch`` row at N = p,
    reversed.  It is linear in the innovations, g_{B+p-a} = sum_m
    h_{m-a} eps_{B+p-m} with h the impulse response, so its law is
    CN(0, sigma_eps2 H H^H) where row a of the p x (B+p) matrix H is h
    shifted right by a.  F = sqrt(sigma_eps2) R with R the triangular factor
    of H^H, which is PSD by construction.  Row m of H^H is the conjugated
    lifted impulse state [h_m, ..., h_{m-p+1}].

    R starts as row 0, (h_0, 0, ..., 0) with h_0 = 1, and the rows from 1 on
    are folded in _FACTOR_ROWS at a time, each block QR-factored under the R
    so far, so memory does not grow with B.  Each block's responses come
    from one compiled banded solve (``ztbsv``): a unit lower-triangular
    system whose first p rows carry the previous p responses and whose row
    i >= p reads h_i - sum_d alpha_d h_{i-d} = 0.  The start and the block
    boundaries are fixed, not tuning: each QR's Householder steps set the
    signs of R's rows, so another start or block size gives a factor of the
    same law whose rows differ in sign, and every realization drawn through
    it would change.  Its callers pass B >= 0; ``start_factor`` checks it.
    """
    p = model.p
    # lower band storage: band[d, j] is the system's entry (j + d, j)
    band = np.zeros((p + 1, p + _FACTOR_ROWS), dtype=np.complex128, order="F")
    for d in range(1, p + 1):
        band[d, p - d :] = -model.alpha[d - 1]
    # the p responses before each block, oldest first, then the block's own
    h = np.zeros(p + _FACTOR_ROWS, dtype=np.complex128)
    h[p - 1] = 1.0
    r = np.eye(1, p, dtype=np.complex128)
    for start in range(1, B + p, _FACTOR_ROWS):
        rows = min(_FACTOR_ROWS, B + p - start)
        n = p + rows
        h[p:n] = 0.0
        h[:n] = blas.ztbsv(p, band[:, :n], h[:n], lower=1, diag=1)
        block = sliding_window_view(h[1:n], p)[:, ::-1].conj()
        r = np.triu(lapack.zgeqrf(np.vstack((r, block)), overwrite_a=1)[0][:p])
        h[:p] = h[rows:n]
    return np.sqrt(model.sigma_eps2) * r


def start_factor(model: ArpModel, N: int, burn_in_factor: int = BURN_IN_FACTOR) -> np.ndarray:
    """The start law's factor: ``burned_in_factor`` after burn_in_factor * N ports from zeros.

    The one owner of the surrogate's start law: the generator lifts each row's
    first p normals through it, and the particle evaluator draws its swarm from it.
    """
    if burn_in_factor < 0:
        raise ValueError(f"burn_in_factor must be >= 0, got {burn_in_factor}")
    return burned_in_factor(model, burn_in_factor * N)


def select_order(
    model: ClarkeModel,
    p_max: int,
    mc_samples: int,
    burn_in_factor: int = BURN_IN_FACTOR,
    seed=0,
    workers: int = 1,
) -> OrderSelectionResult:
    """Pick the AR order whose simulated selection-gain CDF is KS-closest to exact.

    One exact-model reference sample (``sample_exact_max_gains``), and one
    simulated sample per stable candidate order (``simulate_max_gains``),
    all of size ``mc_samples`` and all kept only as max gains, chunk by
    chunk, so memory does not grow with ``mc_samples``.
    The candidates share their rows (common random numbers): row i's
    normals come from the derived seed (seed, 1, i) and drive every
    candidate, each from its own ``start_factor``, so candidates differ by
    model and not by stream noise.  ``workers`` threads share each chunk's
    candidates.  Unstable orders are excluded.  Ties within TIE_TOL of the
    best distance go to the smallest order.
    """
    from .generator import simulate_max_gains

    if not 1 <= p_max <= model.N - 1:
        raise ValueError(f"p_max must be in [1, N-1], got {p_max}")
    if mc_samples < 1000:
        raise ValueError(f"mc_samples must be >= 1000, got {mc_samples}")

    reference = sample_exact_max_gains(model.spectrum, derive(seed, _REF_BRANCH), mc_samples)
    fits = [fit_clarke_model(model, p) for p in range(1, p_max + 1)]
    stable = [fitted for fitted in fits if check_stability(fitted).stable]
    if not stable:
        raise FitError(f"no stable candidate order in [1, {p_max}]")
    gains = simulate_max_gains(
        stable, model.N, mc_samples, derive(seed, _CANDIDATE_BRANCH), burn_in_factor, workers
    )
    distances = {fitted.p: ks_distance(reference, row) for fitted, row in zip(stable, gains)}
    best = min(distances.values())
    p_star = min(p for p, d in distances.items() if d <= best + TIE_TOL)
    return OrderSelectionResult(
        p_star=p_star,
        distances=distances,
        reference_sample_count=mc_samples,
        unstable_orders=tuple(fitted.p for fitted in fits if fitted.p not in distances),
    )
