"""Selection-gain CDF estimation: empirical curves and a particle evaluator.

The CDF of max_k |g_k|^2 under the fitted autoregression factorizes into a
product of per-port conditional non-exceedance probabilities.  A particle
swarm propagates the lifted state, multiplies weights by the indicator of
|g_k|^2 <= t, estimates each conditional factor as the weighted survivor
mass, and accumulates the product in log domain.  Systematic resampling
keeps the swarm effective when truncation kills most particles.  The swarm
starts from the lifted state after the generator's burn-in, drawn from that
state's exact law, so no warm-up path is simulated.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arfit import ArpModel, check_stability
from .errors import UnstableModelError
from .generator import burned_in_factor, burned_in_states
# no longer called here, but kept importable under this name:
# benchmarks/test_harness.py checks that the tracer wraps it here too
from .generator import simulate_batch  # noqa: F401
from .rng import complex_standard_normal, derive, make_rng
from .stats import isotonic_non_decreasing, max_gain

_WARMUP_BRANCH = 0
_PROPAGATE_BRANCH = 1
_RESAMPLE_BRANCH = 2


@dataclass
class ParticleEnsemble:
    """Swarm state for one threshold: lifted states, weights, survival log-mass.

    ``states[:, j]`` holds g_{k-j} for the current port index k; weights form
    a simplex over the J particles while any survive.
    """

    states: np.ndarray
    weights: np.ndarray
    log_survival: float = 0.0
    step: int = 0

    @property
    def ess(self) -> float:
        return float(1.0 / np.sum(self.weights**2))


@dataclass(frozen=True)
class CdfCurve:
    """CDF estimates on a sorted threshold grid.

    ``values`` are isotonically projected when estimates come from
    independent per-threshold runs; ``raw_values`` keeps the unprojected
    estimates and ``extinction_steps`` the port index at which a swarm died
    (-1 where it survived to the end).
    """

    thresholds: np.ndarray
    values: np.ndarray
    raw_values: "np.ndarray | None" = None
    extinction_steps: "np.ndarray | None" = None


def _validate_thresholds(thresholds) -> np.ndarray:
    t = np.asarray(thresholds, dtype=float).reshape(-1)
    if t.size == 0:
        raise ValueError("threshold grid is empty")
    if np.any(t < 0):
        raise ValueError("thresholds must be >= 0")
    if np.any(np.diff(t) < 0):
        raise ValueError("thresholds must be sorted ascending")
    return t


def empirical_cdf_max_gain(samples, thresholds) -> CdfCurve:
    """Fraction of realizations whose selection gain stays at or below each threshold."""
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ValueError("samples must be a non-empty (count, N) matrix")
    t = _validate_thresholds(thresholds)
    gains = np.sort(max_gain(samples))
    values = np.searchsorted(gains, t, side="right") / gains.size
    return CdfCurve(thresholds=t, values=values)


def systematic_resample(weights, seed) -> np.ndarray:
    """Ancestor indices from one uniform offset and J evenly spaced strata.

    Copy counts deviate from J*w_j by less than one; zero-weight particles
    are never selected.  Weights are reset to 1/J by the caller.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    J = w.size
    if J == 0 or np.any(w < 0):
        raise ValueError("weights must be a non-negative vector")
    total = w.sum()
    if not total > 0:
        raise ValueError("all weights are zero; the swarm is extinct")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    positions = (make_rng(seed).random() + np.arange(J)) / J
    cumulative = np.cumsum(w / total)
    cumulative[-1] = 1.0
    return np.minimum(np.searchsorted(cumulative, positions, side="right"), J - 1)


def _survival_update(ensemble: ParticleEnsemble, alive, ess_ratio: float, seed, step: int) -> bool:
    """Fold one indicator into the ensemble; False when the swarm went extinct."""
    # each conditional survival factor is a probability; round-off in the
    # weight sum must not push it past 1
    c_k = min(float(np.sum(ensemble.weights[alive])), 1.0)
    ensemble.step = step
    if c_k <= 0.0:
        ensemble.log_survival = -np.inf
        return False
    ensemble.log_survival += np.log(c_k)
    weights = np.where(alive, ensemble.weights, 0.0) / c_k
    J = weights.size
    if 1.0 / np.sum(weights**2) < ess_ratio * J:
        ancestors = systematic_resample(weights, derive(seed, _RESAMPLE_BRANCH, step))
        ensemble.states = ensemble.states[ancestors]
        weights = np.full(J, 1.0 / J)
    ensemble.weights = weights
    return True


def _evaluate_threshold(
    model: ArpModel, N: int, t: float, J: int, ess_ratio: float, seed, start_factor: np.ndarray
) -> "tuple[float, int]":
    """Survival probability estimate for one threshold, plus extinction step (-1 if none).

    ``start_factor`` is the ``burned_in_factor`` of the starting law.
    """
    p = model.p
    ensemble = ParticleEnsemble(
        states=burned_in_states(start_factor, J, derive(seed, _WARMUP_BRANCH)),
        weights=np.full(J, 1.0 / J),
    )
    # ports 1..p are already materialized in the initial state
    for k in range(1, p + 1):
        alive = np.abs(ensemble.states[:, p - k]) ** 2 <= t
        if not _survival_update(ensemble, alive, ess_ratio, seed, k):
            return 0.0, k
        if k >= N:
            return float(np.exp(ensemble.log_survival)), -1
    rng = make_rng(derive(seed, _PROPAGATE_BRANCH))
    sigma = np.sqrt(model.sigma_eps2)
    for k in range(p + 1, N + 1):
        fresh = ensemble.states @ model.alpha + sigma * complex_standard_normal(rng, J)
        ensemble.states[:, 1:] = ensemble.states[:, :-1]
        ensemble.states[:, 0] = fresh
        alive = np.abs(fresh) ** 2 <= t
        if not _survival_update(ensemble, alive, ess_ratio, seed, k):
            return 0.0, k
    return float(np.exp(ensemble.log_survival)), -1


def smc_cdf(
    model: ArpModel,
    N: int,
    thresholds,
    J: int,
    ess_ratio: float = 0.5,
    seed=0,
    burn_in_factor: int = 5,
    workers: int = 1,
) -> CdfCurve:
    """Particle estimate of the selection-gain CDF on a threshold grid.

    Thresholds are evaluated independently with derived seeds (the result
    does not depend on ``workers``).  Each run draws its swarm's lifted
    state at port p, [g_p, ..., g_1], from the exact law of the generator's
    first p kept ports after a burn-in of ``burn_in_factor * N`` ports
    (``burned_in_factor``, factored once per call), then applies the first
    p indicator constraints before propagating ports p+1..N.  Raw per-threshold estimates can be
    locally non-monotone, so the returned values are their isotonic
    projection; extinct swarms yield an exact 0 with the extinction port
    recorded.
    """
    if J < 100:
        raise ValueError(f"J must be >= 100, got {J}")
    if not 0.0 < ess_ratio <= 1.0:
        raise ValueError(f"ess_ratio must be in (0, 1], got {ess_ratio}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if burn_in_factor < 0:
        raise ValueError(f"burn_in_factor must be >= 0, got {burn_in_factor}")
    if not check_stability(model).stable:
        raise UnstableModelError("refusing to run the particle evaluator on an unstable model")
    t = _validate_thresholds(thresholds)
    start_factor = burned_in_factor(model, burn_in_factor * N)

    def run(idx: int) -> "tuple[float, int]":
        return _evaluate_threshold(
            model, N, float(t[idx]), J, ess_ratio, derive(seed, idx), start_factor
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(t.size)))
    else:
        results = [run(i) for i in range(t.size)]
    raw = np.array([r[0] for r in results])
    extinctions = np.array([r[1] for r in results], dtype=int)
    return CdfCurve(
        thresholds=t,
        values=isotonic_non_decreasing(raw),
        raw_values=raw,
        extinction_steps=extinctions,
    )
