"""Selection-gain CDF estimation: empirical curves and a particle evaluator.

The CDF of max_k |g_k|^2 under the fitted autoregression factorizes into a
product of per-port conditional non-exceedance probabilities.  A particle
swarm propagates the lifted state, multiplies weights by the indicator of
|g_k|^2 <= t, estimates each conditional factor as the weighted survivor
mass, and accumulates the product in log domain.  Systematic resampling
keeps the swarm effective when truncation kills most particles.  The swarm
starts from the lifted state after the generator's burn-in, drawn from that
state's exact law, so no warm-up path is simulated.  Each threshold is one
independent run from its own derived seed, so ``smc_cdf`` may run them on
any executor: the ``cdf`` command passes the pool it shares with its Monte
Carlo columns.

The empirical curves take the per-realization selection gains, not the
realizations: the samplers' max-gain forms (``sample_exact_max_gains``,
``simulate_max_gains``) reduce their rows a chunk at a time, so a Monte
Carlo CDF never holds a (count, N) block.

The swarm's lifted states live in a newest-first ring of p + _RING_SPARE
columns per particle: each port writes its fresh values one column to the
left of the current window, and only when the window reaches the ring's
left edge are its newest p - 1 columns copied back to the right, once every
_RING_SPARE ports instead of a shift of the whole swarm per port.  The
swarm's states are the current window, a view into the ring, and
resampling rewrites it in place.  The window is the same newest-first
(J, p) matrix the per-port shift kept, so ``states @ alpha`` and every
estimate round exactly as they did.  The weights and the survival
log-mass are plain locals of each threshold's run.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from .arfit import ArpModel, check_stability
from .errors import UnstableModelError
from .generator import burned_in_factor, burned_in_states
# no longer called here, but kept importable under this name:
# benchmarks/test_harness.py checks that the tracer wraps it here too
from .generator import simulate_batch  # noqa: F401
from .rng import complex_standard_normal, derive, make_rng
from .stats import isotonic_non_decreasing

_WARMUP_BRANCH = 0
_PROPAGATE_BRANCH = 1
_RESAMPLE_BRANCH = 2
# spare ring columns: the swarm's states are copied back once every this many ports
_RING_SPARE = 8


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


def empirical_cdf_max_gain(gains, thresholds) -> CdfCurve:
    """Fraction of realizations whose selection gain stays at or below each threshold.

    ``gains`` holds one selection gain max_k |g_k|^2 per realization, as
    ``sample_exact_max_gains``, ``simulate_max_gains`` or ``max_gain`` give
    them; channel vectors, a (count, N) block or a complex row, are
    rejected rather than reduced.
    """
    gains = np.asarray(gains)
    if gains.ndim != 1 or gains.size < 1 or np.iscomplexobj(gains):
        raise ValueError(f"gains must be a non-empty real 1-D vector, got {gains.dtype} {gains.shape}")
    t = _validate_thresholds(thresholds)
    gains = np.sort(gains)
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


def _evaluate_threshold(
    model: ArpModel, N: int, t: float, J: int, ess_ratio: float, seed, start_factor: np.ndarray
) -> "tuple[float, int]":
    """Survival probability estimate for one threshold, plus extinction step (-1 if none).

    ``start_factor`` is the ``burned_in_factor`` of the starting law.  The
    swarm's states are the window ring[:, head : head + p] of a newest-first
    ring, with ``states[:, j]`` holding g_{k-j} at port k; its weights form a
    simplex over the J particles while any survive.
    """
    p = model.p
    start = burned_in_states(start_factor, J, derive(seed, _WARMUP_BRANCH))
    # allocated once the draw's temporaries are freed, so that the ring adds
    # no peak memory over a lone (J, p) state matrix
    ring = np.empty((J, p + _RING_SPARE), dtype=np.complex128)
    head = _RING_SPARE
    ring[:, head:] = start
    del start
    states = ring[:, head:]
    weights = np.full(J, 1.0 / J)
    log_survival = 0.0

    def survive(alive, step: int) -> bool:
        """Fold one port's indicator into the swarm; False when it went extinct."""
        nonlocal weights, log_survival
        # each conditional survival factor is a probability; round-off in the
        # weight sum must not push it past 1
        c_k = min(float(np.sum(weights[alive])), 1.0)
        if c_k <= 0.0:
            return False
        log_survival += np.log(c_k)
        weights = np.where(alive, weights, 0.0) / c_k
        if 1.0 / np.sum(weights**2) < ess_ratio * J:
            # resampling rewrites the window in place
            states[:] = states[systematic_resample(weights, derive(seed, _RESAMPLE_BRANCH, step))]
            weights = np.full(J, 1.0 / J)
        return True

    # ports 1..p are already materialized in the initial state
    for k in range(1, p + 1):
        if not survive(np.abs(states[:, p - k]) ** 2 <= t, k):
            return 0.0, k
        if k >= N:
            return float(np.exp(log_survival)), -1
    rng = make_rng(derive(seed, _PROPAGATE_BRANCH))
    sigma = np.sqrt(model.sigma_eps2)
    for k in range(p + 1, N + 1):
        fresh = states @ model.alpha + sigma * complex_standard_normal(rng, J)
        if head == 0:
            # the window's newest p - 1 states move to the ring's right end
            ring[:, _RING_SPARE + 1 :] = ring[:, : p - 1]
            head = _RING_SPARE + 1
        head -= 1
        ring[:, head] = fresh
        states = ring[:, head : head + p]
        if not survive(np.abs(fresh) ** 2 <= t, k):
            return 0.0, k
    return float(np.exp(log_survival)), -1


def smc_cdf(
    model: ArpModel,
    N: int,
    thresholds,
    J: int,
    ess_ratio: float = 0.5,
    seed=0,
    burn_in_factor: int = 5,
    pool: "Executor | None" = None,
) -> CdfCurve:
    """Particle estimate of the selection-gain CDF on a threshold grid.

    Thresholds are evaluated independently with derived seeds, on ``pool``
    if one is given and on the calling thread otherwise (the result does
    not depend on the pool; the ``cdf`` command passes the one it shares
    with its other stages).  Each run draws its swarm's lifted
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

    results = list(pool.map(run, range(t.size))) if pool is not None else [run(i) for i in range(t.size)]
    raw = np.array([r[0] for r in results])
    extinctions = np.array([r[1] for r in results], dtype=int)
    return CdfCurve(
        thresholds=t,
        values=isotonic_non_decreasing(raw),
        raw_values=raw,
        extinction_steps=extinctions,
    )
