"""Channel reconstruction from sparse noisy port observations.

Two routes to the same posterior: dense joint-Gaussian conditioning on the
full covariance (the oracle, cubic in the observation count), and a Kalman
forward pass plus backward smoothing on the AR(p) companion state space
(linear in the port count), in square-root form from the model's own
stationary factor, so it keeps its accuracy on near-unit-circle fits.  The
smoother steps between anchors (the observed ports, port N, and fill-ins at
most _ANCHOR_GAP apart) rather than through every port.  For a fitted model
both produce identical conditional means and variances, which is the
central cross-check of this module.  The smoother returns its means,
O(A p^3 + A p^2 T + N T) for A anchors and T value rows, and computes its
variances, another O(A p^3), on their first read.  Also here: the
posterior-error NMSE, the eigenvalue-tail lower bound on how many
observations a target error requires and its Monte Carlo check, and the
port selection strategies (grouped per trial by ``trial_patterns``) whose
gaps drive interpolation.

Ports are 1-based throughout, matching the array indexing used by the
observation sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import lapack

from .arfit import ArpModel
from .correlation import EigenSpectrum, ToeplitzCovariance
from .errors import NumericalError
from .rng import derive, make_rng

# requested noise variance of exactly 0 is floored at this multiple of r(0)
NOISE_FLOOR_FACTOR = 1e-10

# port_select strategies whose indices depend on (N, M) alone, not on a seed
UNIFORM_STRATEGIES = ("uniform_endpoints", "uniform_interior")

# longest jump between the smoother's anchors, before clamping to p: the
# largest whose means stay within 2x of a port-by-port smoother's error
# against dense conditioning on production fits (see kalman_smooth)
_ANCHOR_GAP = 4


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Observed port indices (1-based, strictly increasing), values, and noise variance.

    ``values`` is one vector of M observations, or a (T, M) stack of T value
    vectors observed at the same ports; the reconstructions then share their
    covariance work across the T rows and return T rows of means.
    """

    indices: np.ndarray
    values: np.ndarray
    noise_var: float = 0.0

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).reshape(-1).copy()
        val = np.array(self.values, dtype=np.complex128)
        if idx.size < 1:
            raise ValueError("at least one observation is required")
        if idx[0] < 1 or np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing and >= 1")
        if val.ndim not in (1, 2):
            raise ValueError(f"values must be 1-D or (T, M), got shape {val.shape}")
        if val.shape[-1] != idx.size:
            raise ValueError(f"{idx.size} indices but {val.shape[-1]} values per row")
        if not (math.isfinite(self.noise_var) and self.noise_var >= 0):
            raise ValueError(f"noise_var must be finite and >= 0, got {self.noise_var}")
        idx.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def M(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Per-port posterior means and variances plus the unobserved-set NMSE.

    ``means`` is (N,) for one value vector and (T, N) for a stack of T;
    ``variances`` (N,) and the NMSE depend only on the observed ports.
    ``posterior`` is the pair (variances, nmse_unobserved), or a function
    that computes it: the smoother defers its backward factor pass that way.
    The first read of ``variances`` or ``nmse_unobserved`` runs the function
    once and keeps its pair, releasing whatever the function held.
    """

    means: np.ndarray
    posterior: "tuple[np.ndarray, float] | Callable[[], tuple[np.ndarray, float]]" = field(repr=False)

    @property
    def variances(self) -> np.ndarray:
        return self._posterior()[0]

    @property
    def nmse_unobserved(self) -> float:
        return self._posterior()[1]

    def _posterior(self) -> "tuple[np.ndarray, float]":
        posterior = self.posterior
        if callable(posterior):
            posterior = posterior()
            object.__setattr__(self, "posterior", posterior)
        return posterior


def _effective_noise_var(noise_var: float, r0: float) -> float:
    return noise_var if noise_var > 0 else NOISE_FLOOR_FACTOR * r0


def _rowwise(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``mat @ row`` for each row of a (T, k) stack.

    Runs as T stacked matrix-vector products rather than one matrix product,
    so each row rounds exactly as a single-vector call does: sharing a call
    between trials changes no result bit.
    """
    return np.matmul(mat, rows[..., None])[..., 0]


def dense_mmse(cov: ToeplitzCovariance, obs: ObservationSet) -> ReconstructionResult:
    """Joint-Gaussian conditioning on the full covariance (the oracle route).

    ghat = Sigma[:, O] (Sigma[O, O] + sv2 I)^-1 y via a linear solve;
    variances are the diagonal of the conditional error covariance, and the
    NMSE is the posterior-to-prior trace ratio over unobserved ports (zero
    when every port is observed).  The Gram matrix is factored once for all
    value rows and the cross-covariance together; ``means`` has the shape of
    ``obs.values`` with the last axis N, while the variances and the NMSE
    depend only on the observed ports and are shared by every row.
    """
    n = cov.N
    if obs.indices[-1] > n:
        raise ValueError(f"observation index {obs.indices[-1]} exceeds N = {n}")
    sigma = cov.matrix()
    idx = obs.indices - 1
    sv2 = _effective_noise_var(obs.noise_var, cov.r0)
    cross = sigma[:, idx]
    gram = sigma[np.ix_(idx, idx)] + sv2 * np.eye(obs.M)
    rows = obs.values.reshape(-1, obs.M)
    t = rows.shape[0]
    try:
        solved = np.linalg.solve(gram, np.column_stack([rows.T, cross.conj().T]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"observation Gram matrix is singular (M={obs.M}); "
            "raise the noise floor to regularize"
        ) from exc
    if not np.all(np.isfinite(solved)):
        raise NumericalError(
            f"observation Gram solve produced non-finite values (M={obs.M}); "
            "raise the noise floor to regularize"
        )
    means = _rowwise(cross, solved[:, :t].T)
    variances = np.maximum(
        np.diag(sigma).real - np.einsum("ij,ji->i", cross, solved[:, t:]).real, 0.0
    )
    unobserved = np.setdiff1d(np.arange(n), idx, assume_unique=False)
    if unobserved.size == 0:
        nmse = 0.0
    else:
        nmse = float(np.sum(variances[unobserved]) / np.sum(np.diag(sigma).real[unobserved]))
    return ReconstructionResult(
        means=means[0] if obs.values.ndim == 1 else means,
        posterior=(variances, nmse),
    )


def _anchors(indices: np.ndarray, N: int, cap: int) -> list:
    """The ports ``kalman_smooth`` steps to, increasing: every observed port,
    port N, and fill-ins so that the first anchor and every step between
    neighbours are at most ``cap`` ports."""
    anchors, prev = [], 0
    ends = indices.tolist()
    if ends[-1] != N:
        ends.append(N)
    for port in ends:
        anchors.extend(range(prev + cap, port, cap))
        anchors.append(port)
        prev = port
    return anchors


def kalman_smooth(model: ArpModel, obs: ObservationSet, N: int) -> ReconstructionResult:
    """Square-root forward filter plus backward RTS pass, stepping between anchors.

    The lifted state x_k = [g_k, ..., g_{k-p+1}] has covariance S^H S, S upper
    triangular, from ``model.stationary_factor`` and mean zero.  The passes
    visit only the anchors a_1 < ... < a_A of ``_anchors``: the observed
    ports, port N, and fill-ins so that a_1 and every jump L = a_i - a_{i-1}
    are at most c = min(_ANCHOR_GAP, p).  Each jump keeps the R of a QR, and
    x_{k+L} = A^L x_k + sum_j A^j e_1 eps_{k+L-j} for the companion matrix A:

    - predict: QR of [[S (A^L)^H, S], [sigma_eps (A^j e_1)^H for j = L-1..0,
      0]], (p + L) x 2p, whose left block is the predicted factor S-; from the
      right block, the smoother gain is G^H = (S-)^-1 Q_1^H [S; 0] and rows
      p.. are the L x p factor C of cov(x_{a_{i-1}} | x_{a_i}, earlier ports).
    - update (observed anchors): the QR of [[sigma_v, 0], [S e_1, S]] is one
      rotation, as S e_1 = s_00 e_1: with v = sigma_v^2 + |s_00|^2 the gain
      is s_00 conj(S[0]) / v and row 0 of S scales by sigma_v / sqrt(v).
    - smooth: the RTS mean m_s = m_f + G (m_s' - A^L m_f), and the R of the
      QR of [C; S_s G^H] for the covariance C^H C + G S_s^H S_s G^H, from the
      next anchor's smoothed factor S_s.

    Ports (a_{i-1}, a_i] are entries 0..L-1 of x_{a_i}: their smoothed means
    are the entries of the anchor's smoothed mean, and their variances the
    squared column norms of its S_s.  The first anchor starts from the prior,
    which is stationary, so ports 1..a_1 need no jump before it.  A jump of
    L ports costs about as much as a one-port step, so fewer anchors run
    faster; longer jumps lose accuracy across long noisy gaps, which is what
    bounds c.

    A zero noise variance is floored at NOISE_FLOOR_FACTOR times the prior
    variance.  The factors depend only on the observed ports, so a (T, M)
    stack of values shares one factor pass, and the means run through
    ``_rowwise``, each row rounding as a single call does; ``means`` has the
    shape of ``obs.values`` with the last axis N.  For A anchors the means
    cost O(A p^3 + A p^2 T + N T) at call time.  The backward factor pass,
    O(A p^3), runs on the first read of ``variances`` or ``nmse_unobserved``;
    until then the result holds one gain (16 p^2 bytes) per anchor and the
    rows C, 16 p bytes per port.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if obs.indices[-1] > N:
        raise ValueError(f"observation index {obs.indices[-1]} exceeds N = {N}")
    p, alpha = model.p, model.alpha
    sigma_eps = math.sqrt(model.sigma_eps2)
    s = np.array(model.stationary_factor)
    r0 = float(abs(s[0, 0]) ** 2)
    sv2 = _effective_noise_var(obs.noise_var, r0)
    rows = obs.values.reshape(-1, obs.M)
    t = rows.shape[0]
    y = dict(zip(obs.indices.tolist(), rows.T))
    cap = min(_ANCHOR_GAP, p)
    anchors = _anchors(obs.indices, N, cap)
    upper = np.triu(np.ones((p, p), dtype=bool))
    # A^L = [heads[L]; I_{p-L} 0] for L <= p: heads[L] is the top L rows,
    # the rest shift, so S (A^L)^H = [S heads[L]^H, S[:, :p-L]]
    powers = [np.eye(p, dtype=np.complex128)]
    for _ in range(cap):
        powers.append(np.concatenate((alpha[None] @ powers[-1], powers[-1][:-1])))
    heads = [power[:jump] for jump, power in enumerate(powers)]
    heads_h = [np.ascontiguousarray(head.conj().T) for head in heads]
    # noise[j] = sigma_eps (A^j e_1)^H
    noise = sigma_eps * np.conj([power[:, 0] for power in powers[:cap]])

    def advance(m, jump):  # A^L m for each row m of a (T, p) stack
        return np.concatenate((_rowwise(heads[jump], m), m[:, : p - jump]), axis=1)

    means_f = np.empty((len(anchors), t, p), dtype=np.complex128)
    # gains_h[i] is G^H from anchor i to anchor i + 1; conds[a_i:a_{i+1}] its C
    gains_h = np.empty((len(anchors) - 1, p, p), dtype=np.complex128)
    conds = np.empty((N, p), dtype=np.complex128)
    predicts = [np.empty((p + jump, 2 * p), dtype=np.complex128, order="F") for jump in range(cap + 1)]
    mean = np.zeros((t, p), dtype=np.complex128)
    for i, port in enumerate(anchors):
        if i:
            prev = anchors[i - 1]
            jump = port - prev
            mean = advance(mean, jump)
            predict = predicts[jump]
            np.matmul(s, heads_h[jump], out=predict[:p, :jump])
            predict[:p, jump:p] = s[:, : p - jump]
            predict[:p, p:] = s
            predict[p:, :p] = noise[jump - 1 :: -1]
            predict[p:, p:] = 0.0
            r = lapack.zgeqrf(predict, overwrite_a=1)[0]
            gains_h[i - 1], info = lapack.ztrtrs(r[:p, :p], r[:p, p:])
            if info != 0:
                raise NumericalError(f"predicted factor is singular at port {port}")
            np.multiply(r[p:, p:], upper[:jump], out=conds[prev:port])
            s = r[:p, :p] * upper
        if port in y:
            innovation_var = sv2 + abs(s[0, 0]) ** 2
            mean = mean + s[0, 0] * np.conj(s[0]) / innovation_var * (y[port] - mean[:, 0])[:, None]
            s[0] *= math.sqrt(sv2 / innovation_var)
        means_f[i] = mean
    # finite[i]: the jump to anchor i.  A gain's sum is non-finite when an
    # entry is (or when entries near 1e308 overflow), and needs no
    # (anchors, p, p) temporary
    jumps_finite = np.isfinite(gains_h.sum(axis=(1, 2))) & np.logical_and.reduceat(
        np.isfinite(conds).all(axis=1), anchors[:-1]
    )
    finite = np.concatenate(([True], jumps_finite))
    finite[-1] &= bool(np.isfinite(s).all())
    if not finite.all():
        raise NumericalError(f"filter factor became non-finite at port {anchors[int(np.argmin(finite))]}")

    means_out = np.empty((t, N), dtype=np.complex128)
    mean_s = means_f[-1]
    for i in range(len(anchors) - 1, -1, -1):
        port = anchors[i]
        prev = anchors[i - 1] if i else 0
        means_out[:, prev:port] = mean_s[:, port - prev - 1 :: -1]
        if i:
            mean_f = means_f[i - 1]
            mean_s = mean_f + _rowwise(gains_h[i - 1].conj().T, mean_s - advance(mean_f, port - prev))

    def posterior(s=s):
        vars_out = np.empty(N)
        smooths = [np.empty((jump + p, p), dtype=np.complex128, order="F") for jump in range(cap + 1)]
        for i in range(len(anchors) - 1, -1, -1):
            port = anchors[i]
            prev = anchors[i - 1] if i else 0
            vars_out[prev:port] = np.sum(np.abs(s[:, port - prev - 1 :: -1]) ** 2, axis=0)
            if i:
                smooth = smooths[port - prev]
                smooth[: port - prev] = conds[prev:port]
                np.matmul(s, gains_h[i - 1], out=smooth[port - prev :])
                s = lapack.zgeqrf(smooth, overwrite_a=1)[0][:p] * upper
                if not np.all(np.isfinite(s)):
                    raise NumericalError(f"smoother factor became non-finite at port {prev}")
        unobserved = np.setdiff1d(np.arange(1, N + 1), obs.indices)
        if unobserved.size == 0:
            return vars_out, 0.0
        return vars_out, float(np.sum(vars_out[unobserved - 1]) / (r0 * unobserved.size))

    return ReconstructionResult(
        means=means_out[0] if obs.values.ndim == 1 else means_out,
        posterior=posterior,
    )


def nmse(truth, estimate, subset) -> "float | np.ndarray":
    """Error energy over true energy on a 1-based port subset.

    Reduces along the last axis: one vector pair gives a float, and (T, N)
    rows (broadcast against each other) give an array of T ratios.
    """
    truth = np.asarray(truth)
    estimate = np.asarray(estimate)
    idx = np.asarray(subset, dtype=int).reshape(-1) - 1
    if idx.size == 0:
        raise ValueError("subset must be non-empty")
    if np.any(idx < 0) or np.any(idx >= truth.shape[-1]):
        raise ValueError("subset indices out of range")
    denom = np.sum(np.abs(truth[..., idx]) ** 2, axis=-1)
    if np.any(denom == 0.0):
        raise ValueError("subset carries zero energy; NMSE undefined")
    # subtracting first indexes once: the same differences, laid out and summed alike
    ratios = np.sum(np.abs((estimate - truth)[..., idx]) ** 2, axis=-1) / denom
    return float(ratios) if ratios.ndim == 0 else ratios


def min_observations_bound(spectrum: EigenSpectrum, epsilon: float) -> int:
    """Smallest M whose truncated eigenvalue tail is at most epsilon of the trace.

    Any M physical observations cannot beat the best rank-M linear
    measurement, so this is a lower bound on the observations needed to
    reach NMSE epsilon.  epsilon = 0 degenerates to the numerical rank.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    lam = spectrum.eigenvalues
    total = float(np.sum(lam))
    if epsilon == 0.0:
        return int(np.sum(lam > 1e-12 * lam[0]))
    tails = total - np.concatenate([[0.0], np.cumsum(lam)])
    qualifying = np.nonzero(tails <= epsilon * total)[0]
    return int(qualifying[0])


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5).astype(int)


def _repair_duplicates(raw: np.ndarray, N: int, M: int) -> np.ndarray:
    """Deduplicate rounded grid indices, shifting clashes to the nearest free
    port (larger side first)."""
    taken: set[int] = set()
    for k in raw:
        k = int(min(max(k, 1), N))
        if k not in taken:
            taken.add(k)
            continue
        for d in range(1, N):
            if k + d <= N and k + d not in taken:
                taken.add(k + d)
                break
            if k - d >= 1 and k - d not in taken:
                taken.add(k - d)
                break
        else:
            raise ValueError(f"cannot place {M} distinct ports in 1..{N}")
    return np.array(sorted(taken), dtype=int)


def port_select(strategy: str, N: int, M: int, seed=0) -> np.ndarray:
    """Observation indices for one of the named strategies (1-based, sorted).

    random: M distinct uniform draws.  uniform_endpoints: equispaced with
    both array ends pinned, so no gap needs extrapolation.  uniform_interior:
    the same grid inset by half a spacing, which trades boundary gaps for a
    shorter span.  The uniform grids depend only on (strategy, N, M), so they
    are computed once and returned as shared read-only arrays.
    """
    if not 1 <= M <= N:
        raise ValueError(f"M must be in [1, N], got M={M}, N={N}")
    if strategy == "random":
        return np.sort(make_rng(seed).choice(N, size=M, replace=False) + 1)
    if strategy in UNIFORM_STRATEGIES:
        return _uniform_grid(strategy, int(N), int(M))
    raise ValueError(f"unknown strategy {strategy!r}")


@functools.lru_cache(maxsize=1024)
def _uniform_grid(strategy: str, N: int, M: int) -> np.ndarray:
    """The uniform_* indices, computed once per (strategy, N, M); read-only,
    because every caller shares the cached array."""
    if strategy == "uniform_endpoints":
        if M < 2:
            raise ValueError("uniform_endpoints requires M >= 2")
        raw = _round_half_up(1 + np.arange(M) * (N - 1) / (M - 1))
        grid = _repair_duplicates(raw, N, M)
    elif M == 1:
        grid = np.array([int(round((N + 1) / 2))])
    else:
        offset = math.ceil(N / (2 * M))
        raw = _round_half_up(offset + 1 + np.arange(M) * (N - 2 * offset) / (M - 1))
        grid = _repair_duplicates(raw, N, M)
    grid.setflags(write=False)
    return grid


def max_gap(indices, N: int) -> int:
    """Largest missing block: interior port spacing or a boundary overhang.

    Interior gaps count as the index difference k_{i+1} - k_i; the two
    boundary terms k_1 - 1 and N - k_M count ports that would need
    extrapolation rather than interpolation.
    """
    idx = np.asarray(indices, dtype=int).reshape(-1)
    if idx.size == 0:
        raise ValueError("indices must be non-empty")
    interior = int(np.max(np.diff(idx))) if idx.size > 1 else 0
    return max(interior, int(idx[0] - 1), int(N - idx[-1]))


def trial_patterns(strategy, N: int, M: int, trials: int, seed) -> list:
    """Each distinct (indices, member trials) pair of a round, in first-seen order.

    Trial t observes ``port_select(strategy, N, M, derive(seed, t))``, or
    ``strategy(M, derive(seed, t))`` for a callable, and a group's trials can
    share one (T, M) reconstruction call.  A ``UNIFORM_STRATEGIES`` grid needs
    no seed: one group of every trial, on the shared read-only grid.
    """
    if strategy in UNIFORM_STRATEGIES:
        return [(port_select(strategy, N, M), list(range(trials)))]
    select = strategy if callable(strategy) else functools.partial(port_select, strategy, N)
    groups: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for trial in range(trials):
        indices = np.asarray(select(M, derive(seed, trial)))
        groups.setdefault(indices.tobytes(), (indices, []))[1].append(trial)
    return list(groups.values())


def empirical_min_observations(
    epsilon: float,
    trials: int,
    seed,
    estimator,
    truth_sampler,
    strategy,
    N: int,
    min_m: int = 1,
    start: "int | None" = None,
) -> int:
    """Smallest M whose Monte-Carlo mean NMSE reaches epsilon, by bisection.

    ``estimator(obs) -> ReconstructionResult`` and ``truth_sampler(seed,
    count) -> (count, N) channels`` come from the caller, and ``strategy`` is
    a ``port_select`` name or a ``select(M, trial_seed) -> indices`` callable;
    the round at M reads truths and ports (``trial_patterns``) from seed
    ``derive(seed, M)``.  M qualifies when its mean NMSE is at most epsilon
    plus three standard errors; N qualifies without a round.  The estimator
    runs once per port pattern, on stacked values, and the ratios keep the
    trial order.

    Without ``start`` (or with one outside (min_m, N)) the search probes
    min_m, then bisects [min_m, N].  A ``start`` inside, such as
    ``min_observations_bound``, is probed first and brackets the answer by
    doubling steps: a qualifying start probes start-1, start-3, start-7, ...
    (down to min_m) until a probe fails, so an answer below the start is
    still found; a failing start probes start+1, start+3, ... until one
    qualifies or the step reaches N.  The bisection then runs inside the
    bracket.  Each round's verdict depends on M alone, so wherever it is
    monotone in M, as bisection already assumes, every start gives the same
    answer; a start d ports from it costs at most 2 ceil(log2(d + 1)) + 2
    rounds.
    """

    def qualifies(m: int) -> bool:
        ratios = np.empty(trials)
        truths = truth_sampler(derive(seed, m), trials)
        for indices, members in trial_patterns(strategy, N, m, trials, derive(seed, m)):
            rows = truths if len(members) == trials else truths[members]
            obs = ObservationSet(indices=indices, values=rows[:, indices - 1], noise_var=0.0)
            result = estimator(obs)
            unobserved = np.setdiff1d(np.arange(1, N + 1), indices)
            ratios[members] = nmse(rows, result.means, unobserved) if unobserved.size else 0.0
        mean = float(np.mean(ratios))
        sem = float(np.std(ratios, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        return mean <= epsilon + 3.0 * sem

    # lo fails (min_m - 1: below the range) and hi qualifies; without a
    # start there is no bracketing step
    lo, hi = min_m - 1, N
    seeded = start is not None and min_m < start < N
    first, step = (start, 1) if seeded else (min_m, 0)
    if qualifies(first):
        hi = first
        while step and hi > min_m:  # step down until a probe fails
            probe = max(hi - step, min_m)
            if not qualifies(probe):
                lo = probe
                break
            hi, step = probe, 2 * step
    else:
        lo = first
        while step and lo + step < hi:  # step up until a probe qualifies
            if qualifies(lo + step):
                hi = lo + step
                break
            lo, step = lo + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if qualifies(mid):
            hi = mid
        else:
            lo = mid
    return hi
