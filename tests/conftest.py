import math

import numpy as np
import pytest
from scipy.linalg import toeplitz

from faschan.arfit import ArpModel, arp_induced_covariance, unit_noise_gain
from faschan.correlation import ClarkeModel, build_covariance, eigen_spectrum
from faschan.rng import make_rng


@pytest.fixture(scope="session")
def clarke_w2n100():
    return ClarkeModel(W=2.0, N=100)


@pytest.fixture(scope="session")
def spectrum_w2n100(clarke_w2n100):
    return eigen_spectrum(build_covariance(clarke_w2n100))


@pytest.fixture(scope="session")
def complex_root_model():
    # roots off the real axis give a covariance with large imaginary parts,
    # which a missing conjugate or a transposed factor cannot reproduce
    roots = [0.8 * np.exp(0.9j), 0.7 * np.exp(-2.0j), 0.6 * np.exp(2.5j)]
    return make_consistent_model(3, roots=roots)


def make_consistent_model(p: int, seed=0, max_mod: float = 0.6, roots=None) -> ArpModel:
    """Stable AR(p) whose source lags are its own stationary lags.

    Roots are drawn inside a disk of radius ``max_mod`` unless given
    explicitly; the innovation variance normalizes the stationary per-port
    variance to 1.  The lag sequence comes from an explicit Kronecker solve
    of the state-covariance fixed point, independently of the library's
    spectral lags, so on these well-conditioned toys ``source_lags`` is a
    reference for ``arp_induced_covariance`` and ``stationary_covariance``.
    """
    if roots is None:
        rng = make_rng(seed)
        roots = max_mod * np.sqrt(rng.random(p)) * np.exp(2j * np.pi * rng.random(p))
    roots = np.asarray(roots, dtype=complex)
    assert roots.size == p
    alpha = -np.poly(roots)[1:]
    sigma_eps2 = 1.0 / unit_noise_gain(alpha)
    a, q = companion(ArpModel(alpha=alpha, sigma_eps2=sigma_eps2, p=p, source_lags=np.ones(p + 1)))
    lhs = np.eye(p * p, dtype=complex) - np.kron(np.conj(a), a)
    pinf = np.linalg.solve(lhs, q.reshape(-1, order="F")).reshape(p, p, order="F")
    pinf = (pinf + pinf.conj().T) / 2
    lags = np.empty(p + 1, dtype=complex)
    lags[:p] = pinf[0, :]
    lags[p] = alpha @ lags[p - 1 :: -1][:p] if p > 1 else alpha[0] * lags[0]
    return ArpModel(alpha=alpha, sigma_eps2=sigma_eps2, p=p, source_lags=lags)


def stationary_covariance(model: ArpModel) -> np.ndarray:
    """Covariance of the lifted state [g_k, ..., g_{k-p+1}] under the model's own law.

    Entry (i, j) is E[g_{k-i} conj(g_{k-j})] = r(j - i), with r the lags of
    ``arp_induced_covariance``.  This Toeplitz matrix is the fixed point of
    P = A P A^H + Q for the companion dynamics, and the reference that the
    smoother's prior, ``ArpModel.stationary_factor``, is checked against.
    """
    lags = arp_induced_covariance(model, model.p).first_row
    return toeplitz(np.conj(lags), lags)


def companion(model: ArpModel) -> "tuple[np.ndarray, np.ndarray]":
    """Dense companion matrix A and process noise Q = sigma_eps2 e_1 e_1^T.

    The lifted state x_k = [g_k, ..., g_{k-p+1}] obeys x_{k+1} = A x_k +
    e_1 eps_{k+1}; the library never forms these, the oracles do.
    """
    p = model.p
    a = np.zeros((p, p), dtype=complex)
    a[0] = model.alpha
    a[np.arange(1, p), np.arange(p - 1)] = 1.0
    q = np.zeros((p, p), dtype=complex)
    q[0, 0] = model.sigma_eps2
    return a, q


def impulse_response(model: ArpModel, steps: int) -> np.ndarray:
    """h_0 .. h_{steps-1} of the AR recursion, in long double."""
    p = model.p
    alpha = model.alpha.astype(np.clongdouble)
    # p - 1 leading zeros, then the response
    h = np.zeros(p - 1 + steps, dtype=np.clongdouble)
    h[p - 1] = 1
    for k in range(1, steps):
        h[p - 1 + k] = np.sum(alpha * h[k - 1 : p - 1 + k][::-1])
    return h[p - 1 :]


def burned_in_oracle(model: ArpModel, B: int) -> np.ndarray:
    """Covariance of [g_{B+p}, ..., g_{B+1}] from zeros, in long double.

    sigma_eps2 H H^H with row a of H the impulse response shifted right by a.
    """
    p, steps = model.p, B + model.p
    h = impulse_response(model, steps)
    H = np.zeros((p, steps), dtype=np.clongdouble)
    for a in range(p):
        H[a, a:] = h[: steps - a]
    return np.clongdouble(model.sigma_eps2) * (H @ H.conj().T)


def impulse_response_lags(model: ArpModel, N: int, steps: int) -> np.ndarray:
    """r(0..N-1) = sigma_eps2 sum_k h_{k+l} conj(h_k), truncated at ``steps`` terms, in long double."""
    h = impulse_response(model, steps + N)
    head = np.conj(h[:steps])
    return np.clongdouble(model.sigma_eps2) * np.array([np.sum(h[l : l + steps] * head) for l in range(N)])


def burned_in_factor_loop(model: ArpModel, B: int, block: int = 256) -> np.ndarray:
    """``generator.burned_in_factor`` computed one impulse-response step at a time.

    The float64 per-step reference for the factor's values and row signs:
    the same row-0 start and ``block``-row QR folds, with h from one
    ``reversed_alpha @ window`` dot per step instead of a banded solve.
    """
    p = model.p
    reversed_alpha = model.alpha[::-1]
    buf = np.zeros(p + block, dtype=np.complex128)
    buf[p - 1] = 1.0
    r = np.eye(1, p, dtype=np.complex128)
    for start in range(1, B + p, block):
        rows = min(block, B + p - start)
        for j in range(rows):
            buf[p + j] = reversed_alpha @ buf[j : p + j]
        window = np.lib.stride_tricks.sliding_window_view(buf[1 : p + rows], p)[:, ::-1]
        r = np.linalg.qr(np.vstack((r, window.conj())), mode="r")
        buf[:p] = buf[rows : p + rows]
    return np.sqrt(model.sigma_eps2) * r


def evaluate_threshold_shift(model: ArpModel, N: int, t: float, J: int, ess_ratio: float, seed, start_factor):
    """``selection_gain._evaluate_threshold`` with the swarm's states shifted one column per port.

    The reference for the ring-buffered evaluator: a (J, p) newest-first
    state matrix whose columns all move right at every port, and resampling
    that replaces the matrix with its ancestor rows.  The same streams,
    survival update and estimates otherwise.
    """
    from faschan.generator import burned_in_states
    from faschan.rng import complex_standard_normal, derive
    from faschan.selection_gain import _PROPAGATE_BRANCH, _RESAMPLE_BRANCH, _WARMUP_BRANCH, systematic_resample

    p = model.p
    states = burned_in_states(start_factor, J, derive(seed, _WARMUP_BRANCH))
    weights = np.full(J, 1.0 / J)
    log_survival = 0.0

    def survive(alive, step):
        nonlocal states, weights, log_survival
        c_k = min(float(np.sum(weights[alive])), 1.0)
        if c_k <= 0.0:
            return False
        log_survival += np.log(c_k)
        weights = np.where(alive, weights, 0.0) / c_k
        if 1.0 / np.sum(weights**2) < ess_ratio * J:
            states = states[systematic_resample(weights, derive(seed, _RESAMPLE_BRANCH, step))]
            weights = np.full(J, 1.0 / J)
        return True

    for k in range(1, p + 1):
        if not survive(np.abs(states[:, p - k]) ** 2 <= t, k):
            return 0.0, k
        if k >= N:
            return float(np.exp(log_survival)), -1
    rng = make_rng(derive(seed, _PROPAGATE_BRANCH))
    sigma = np.sqrt(model.sigma_eps2)
    for k in range(p + 1, N + 1):
        fresh = states @ model.alpha + sigma * complex_standard_normal(rng, J)
        states[:, 1:] = states[:, :-1]
        states[:, 0] = fresh
        if not survive(np.abs(fresh) ** 2 <= t, k):
            return 0.0, k
    return float(np.exp(log_survival)), -1


def kalman_smooth_joseph(model: ArpModel, obs, N: int):
    """``interpolation.kalman_smooth`` with the Joseph-form backward pass, run eagerly.

    The reference for the smoother's means and variances: the same forward
    square-root filter over the same anchors, keeping every anchor's filtered
    factor S_f, and a backward step over a jump of L ports that takes the R
    of the QR of [S_f (I - (A^L)^H G^H); N_L G^H; S_s G^H], where the L rows
    of N_L are sigma_eps (A^j e_1)^H for j = L-1..0.  Returns ``(means,
    variances, nmse_unobserved)``.
    """
    from scipy.linalg import lapack

    from faschan.interpolation import _ANCHOR_GAP, _anchors, _effective_noise_var, _rowwise

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
    eye = np.eye(p)
    powers = [np.eye(p, dtype=np.complex128)]
    for _ in range(cap):
        powers.append(np.concatenate((alpha[None] @ powers[-1], powers[-1][:-1])))
    heads = [power[:jump] for jump, power in enumerate(powers)]
    heads_h = [np.ascontiguousarray(head.conj().T) for head in heads]
    noise = sigma_eps * np.conj([power[:, 0] for power in powers[:cap]])

    def advance(m, jump):
        return np.concatenate((_rowwise(heads[jump], m), m[:, : p - jump]), axis=1)

    means_f = np.empty((len(anchors), t, p), dtype=np.complex128)
    factors_f = np.empty((len(anchors), p, p), dtype=np.complex128)
    gains_h = np.empty((len(anchors), p, p), dtype=np.complex128)
    mean = np.zeros((t, p), dtype=np.complex128)
    for i, port in enumerate(anchors):
        if i:
            jump = port - anchors[i - 1]
            mean = advance(mean, jump)
            predict = np.empty((p + jump, 2 * p), dtype=np.complex128, order="F")
            np.matmul(s, heads_h[jump], out=predict[:p, :jump])
            predict[:p, jump:p] = s[:, : p - jump]
            predict[:p, p:] = s
            predict[p:, :p] = noise[jump - 1 :: -1]
            predict[p:, p:] = 0.0
            r = lapack.zgeqrf(predict, overwrite_a=1)[0]
            gains_h[i], info = lapack.ztrtrs(r[:p, :p], r[:p, p:])
            assert info == 0
            s = r[:p, :p] * upper
        if port in y:
            innovation_var = sv2 + abs(s[0, 0]) ** 2
            mean = mean + s[0, 0] * np.conj(s[0]) / innovation_var * (y[port] - mean[:, 0])[:, None]
            s[0] *= math.sqrt(sv2 / innovation_var)
        means_f[i] = mean
        factors_f[i] = s

    means_out = np.empty((t, N), dtype=np.complex128)
    vars_out = np.empty(N)
    mean_s = means_f[-1]
    for i in range(len(anchors) - 1, -1, -1):
        port = anchors[i]
        prev = anchors[i - 1] if i else 0
        means_out[:, prev:port] = mean_s[:, port - prev - 1 :: -1]
        vars_out[prev:port] = np.sum(np.abs(s[:, port - prev - 1 :: -1]) ** 2, axis=0)
        if i:
            jump, mean_f, gain_h = port - prev, means_f[i - 1], gains_h[i]
            mean_s = mean_f + _rowwise(gain_h.conj().T, mean_s - advance(mean_f, jump))
            smooth = np.empty((2 * p + jump, p), dtype=np.complex128, order="F")
            smooth[:p] = factors_f[i - 1] @ (eye - powers[jump].conj().T @ gain_h)
            smooth[p : p + jump] = noise[jump - 1 :: -1] @ gain_h
            smooth[p + jump :] = s @ gain_h
            s = lapack.zgeqrf(smooth, overwrite_a=1)[0][:p] * upper

    unobserved = np.setdiff1d(np.arange(1, N + 1), obs.indices)
    nmse = 0.0 if unobserved.size == 0 else float(np.sum(vars_out[unobserved - 1]) / (r0 * unobserved.size))
    return (means_out[0] if obs.values.ndim == 1 else means_out), vars_out, nmse
