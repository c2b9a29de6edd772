import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from faschan.arfit import ArpModel, fit_clarke_model
from faschan.correlation import ClarkeModel
from faschan.errors import UnstableModelError
from faschan.generator import (
    _CHUNK_ROWS,
    _DRAW_ROWS,
    SimulationConfig,
    _Work,
    burned_in_factor,
    simulate_batch,
    simulate_max_gains,
)
from faschan.rng import complex_standard_normal, derive, make_rng
from faschan.stats import max_gain

from conftest import impulse_response, make_consistent_model


def lag_estimate(batch, lag):
    """Empirical r(lag) averaged over rows and positions."""
    if lag == 0:
        return np.mean(np.abs(batch) ** 2)
    return np.mean(batch[:, lag:] * np.conj(batch[:, :-lag]))


class TestSimulate:
    def test_memoryless_case_variance(self):
        white = ArpModel(
            alpha=np.array([0.0 + 0j]), sigma_eps2=0.7, p=1, source_lags=np.array([0.7, 0.0 + 0j])
        )
        sample = simulate_batch(white, SimulationConfig(N=100_000, B=10, seed=1), 1)[0]
        assert np.mean(np.abs(sample) ** 2) == pytest.approx(0.7, rel=0.05)
        assert abs(np.mean(sample)) < 3 * np.sqrt(0.7 / sample.size)

    @pytest.mark.parametrize("B, N", [(0, 5), (1, 5), (2, 2), (50, 6)])
    def test_kept_block_follows_the_burned_in_law(self, complex_root_model, B, N):
        # the kept block is ports B+1..B+N of the recursion from zeros: port
        # B+1+a = sum_j h_{B+1+a-j} eps_j, so its law is CN(0, sigma_eps2 H H^H)
        # with H the N x (B+N) shifted impulse response; N=2 < p covers a
        # block cut from the start state alone
        model, count = complex_root_model, 20_000
        h = impulse_response(model, B + N)
        H = np.zeros((N, B + N), dtype=np.clongdouble)
        for a in range(N):
            H[a, : B + 1 + a] = h[B + a :: -1]
        oracle = (np.clongdouble(model.sigma_eps2) * (H @ H.conj().T)).astype(complex)
        batch = simulate_batch(model, SimulationConfig(N=N, B=B, seed=(66, B, N)), count)
        sample = batch.T @ batch.conj() / count
        # circular Gaussian: Var(x_a conj(x_b)) = Sigma_aa Sigma_bb
        d = np.real(np.diag(oracle))
        stderr = np.sqrt(np.outer(d, d) / count)
        assert np.all(np.abs(sample - oracle) <= 5 * stderr)

    def test_unstable_refused(self):
        bad = ArpModel(alpha=np.array([1.5 + 0j]), sigma_eps2=1.0, p=1, source_lags=np.array([1.0, 0.9 + 0j]))
        with pytest.raises(UnstableModelError):
            simulate_batch(bad, SimulationConfig(N=10, B=0, seed=0), 1)

    def test_burn_in_sufficiency(self):
        # two-run comparison oracle: doubling the burn-in leaves the law unchanged
        model = make_consistent_model(3, seed=(60, 0), max_mod=0.7)
        count = 20_000
        lag_errs = []
        for factor in (5, 10):
            batch = simulate_batch(model, SimulationConfig(N=30, B=factor * 30, seed=(61, factor)), count)
            errs = [abs(lag_estimate(batch, lag) - model.source_lags[lag]) for lag in range(model.p + 1)]
            lag_errs.append(max(errs))
        mc_scale = 3.0 / np.sqrt(count)
        assert abs(lag_errs[0] - lag_errs[1]) < mc_scale


# g_k = eps_k with sigma_eps2 = 1 and a start factor of exactly 1: every
# realization is its row's standard normals, bit for bit
WHITE = ArpModel(alpha=np.array([0.0 + 0j]), sigma_eps2=1.0, p=1, source_lags=np.array([1.0, 0.0 + 0j]))


class TestRowStreams:
    # each row re-keys one Philox; it must still read the normals of its own
    # make_rng stream

    @pytest.mark.parametrize(
        "seed", [5, (11, 1), (3, 2**33), (1, 2, 3, 4, 5), (9, 2**64 + 5, 0, 2**40), tuple(range(11))],
        ids=repr,
    )
    def test_lone_row_reads_its_derived_stream(self, seed):
        got = simulate_batch(WHITE, SimulationConfig(N=9, B=4, seed=seed), 1)[0]
        np.testing.assert_array_equal(got, complex_standard_normal(make_rng(derive(seed, 0)), 9))

    @pytest.mark.parametrize("seed", [6, (2**32 + 1, 7), (9, 2**64 + 5, 0, 2**40), tuple(range(11))], ids=repr)
    def test_batch_rows_read_their_derived_streams(self, seed):
        config = SimulationConfig(N=6, B=3, seed=seed)
        count = _CHUNK_ROWS + 3
        batch = simulate_batch(WHITE, config, count)
        gains = simulate_max_gains([WHITE, WHITE], config, count)
        # both sides of a _DRAW_ROWS boundary and of a chunk boundary
        for row in (0, _DRAW_ROWS - 1, _DRAW_ROWS, _CHUNK_ROWS - 1, _CHUNK_ROWS, count - 1):
            normals = complex_standard_normal(make_rng(derive(seed, row)), config.N)
            np.testing.assert_array_equal(batch[row], normals)
            np.testing.assert_array_equal(gains[:, row], max_gain(normals[None, :])[0])


def recursion_reference(model, realization, normals):
    """Ports p+1..N of ``realization`` recomputed from its first p in a fixed summation order.

    g_k starts as eps_k = sqrt(sigma_eps2) * normal_k; the products
    alpha_i g_{k-i}, each rounded on its own, are added one at a time,
    newest lag first: the order of the generator's former multiply and
    reduce.  The last axis is the port axis, so a (rows, N) block of
    realizations is recomputed row by row at once.
    """
    p = model.p
    g = realization.copy()
    eps = normals[..., p:] * np.sqrt(model.sigma_eps2)
    for k in range(p, g.shape[-1]):
        products = model.alpha * g[..., k - p : k][..., ::-1]
        acc = eps[..., k - p]
        for i in range(p):
            acc = acc + products[..., i]
        g[..., k] = acc
    return g


def extended_recursion(model, realization, normals):
    """Ports p+1..N of ``realization`` recomputed from its first p in ``np.clongdouble``.

    The same start and the same float64 innovations as the generator's, so
    its distance to a realization is that realization's rounding error alone.
    """
    p = model.p
    g = realization.astype(np.clongdouble)
    eps = (normals[..., p:] * np.sqrt(model.sigma_eps2)).astype(np.clongdouble)
    newest_last = model.alpha[::-1].astype(np.clongdouble)
    for k in range(p, g.shape[-1]):
        g[..., k] = eps[..., k - p] + g[..., k - p : k] @ newest_last
    return g


def row_error(got, exact):
    """Largest over rows of max_k |got - exact| / max_k |exact|."""
    diff = np.abs(got - exact).astype(float).max(axis=-1)
    return float(np.max(diff / np.abs(exact).astype(float).max(axis=-1)))


def drive_alone(model, config, row):
    """Row ``row`` of a batch, driven as a one-row chunk from its own derived normals."""
    length = max(config.N, model.p)
    lift = np.ascontiguousarray(burned_in_factor(model, config.B).conj().T[::-1])
    normals = complex_standard_normal(make_rng(derive(config.seed, row)), length)
    block = _Work(length, 1).drive(model, lift, config.N, 1, lambda first, scratch: normals[None, :])
    return block[0].copy(), normals


@pytest.fixture(scope="module")
def w5_fits():
    clarke = ClarkeModel(W=5.0, N=200)
    return {p: fit_clarke_model(clarke, p) for p in (10, 20, 37, 40)}


class TestRowInvariance:
    # a row's bits depend on its own stream alone: not on the chunk it lands
    # in, the row count, or the models sharing its normals.  The production
    # fit (p=37) has a dense start factor and 37 lags per step

    @pytest.fixture(params=["production_fit", "complex_root"])
    def case(self, request, complex_root_model, w5_fits):
        if request.param == "production_fit":
            return w5_fits[37], (w5_fits[10], w5_fits[20]), 200, 1000
        others = tuple(make_consistent_model(p, seed=(15, p), max_mod=0.8) for p in (1, 5))
        return complex_root_model, others, 40, 20

    @pytest.mark.parametrize("count", [1, 2, 7, _CHUNK_ROWS + 1, _CHUNK_ROWS + 3])
    def test_rows_equal_the_row_driven_alone(self, case, count):
        model, (first, last), N, B = case
        config = SimulationConfig(N=N, B=B, seed=(14, count))
        batch = simulate_batch(model, config, count)
        gains = simulate_max_gains([first, model, last], config, count)[1]
        # both sides of every chunk boundary; at _CHUNK_ROWS + 1 the last
        # chunk is one row, at _CHUNK_ROWS + 3 a short one
        for row in range(count) if count <= 7 else (0, _CHUNK_ROWS - 1, _CHUNK_ROWS, count - 1):
            alone, normals = drive_alone(model, config, row)
            np.testing.assert_array_equal(batch[row], alone)
            np.testing.assert_array_equal(gains[row], max_gain(alone[None, :])[0])
            # a step whose write were lost would leave the row its innovations
            # alone, in the batch and driven alone alike
            assert row_error(alone, extended_recursion(model, alone, normals)) < 1e-6

    def test_rows_as_accurate_as_the_reference_recursion(self, w5_fits):
        # measured against an extended-precision recursion from the same start
        # and innovations, the library's rows stay within twice the rounding
        # error of the fixed-order reference
        rows = 512
        for p, model in w5_fits.items():
            config = SimulationConfig(N=200, B=1000, seed=(16, p))
            batch = simulate_batch(model, config, rows)
            normals = np.stack(
                [complex_standard_normal(make_rng(derive(config.seed, r)), config.N) for r in range(rows)]
            )
            exact = extended_recursion(model, batch, normals)
            reference = row_error(recursion_reference(model, batch, normals), exact)
            assert 0.0 < row_error(batch, exact) <= 2.0 * reference, p


# hashes one batch and one three-model max-gain call of the pickled fits
HASH_SCRIPT = """
import hashlib, pickle, sys
from faschan.generator import _CHUNK_ROWS, SimulationConfig, simulate_batch, simulate_max_gains
with open(sys.argv[1], "rb") as fh:
    models = pickle.load(fh)
config = SimulationConfig(N=200, B=1000, seed=17)
count = _CHUNK_ROWS + 3
print(hashlib.sha256(simulate_batch(models[-1], config, count).tobytes()).hexdigest())
print(hashlib.sha256(simulate_max_gains(models, config, count).tobytes()).hexdigest())
"""


def test_bits_do_not_depend_on_the_blas_thread_count(w5_fits, tmp_path):
    # OpenBLAS splits a large zgemv over its threads; every row must still
    # round as on one thread.  The fits are made here, so only the generator
    # runs under each thread count
    path = tmp_path / "models.pkl"
    path.write_bytes(pickle.dumps([w5_fits[p] for p in (10, 20, 37)]))
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", HASH_SCRIPT, str(path)], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr[-2000:]
        digests.append(done.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


class TestSimulateBatch:
    @pytest.mark.parametrize("case", ["toy", "production_fit"])
    def test_rows_reproducible_in_isolation(self, case, w5_fits):
        # row i is a function of its own derived stream alone: its first p
        # ports are the lone matrix-vector product of the start factor on the
        # stream's first p normals, and the whole row equals the row driven
        # alone.  The
        # production fit (p=37) has a dense start factor, whose product a
        # shared gemm would round differently from a lone row's
        if case == "toy":
            model, N, B = make_consistent_model(1, roots=[0.3]), 25, 10
        else:
            model, N, B = w5_fits[37], 200, 1000
        p, seed = model.p, 6
        # F^H e is [g_{B+p}, ..., g_{B+1}]; its rows reversed give ports 1..p in order
        lift = np.ascontiguousarray(burned_in_factor(model, B).conj().T[::-1])
        # a lone chunk, then rows on both sides of a chunk boundary, including
        # a short last chunk and a last chunk of one row
        for count, rows in (
            (5, (0, 3, 4)),
            (_CHUNK_ROWS + 1, (0, _CHUNK_ROWS - 1, _CHUNK_ROWS)),
            (_CHUNK_ROWS + 3, (0, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 2)),
        ):
            config = SimulationConfig(N=N, B=B, seed=seed)
            batch = simulate_batch(model, config, count)
            for row in rows:
                alone, normals = drive_alone(model, config, row)
                np.testing.assert_array_equal(batch[row, :p], lift @ normals[:p])
                np.testing.assert_array_equal(batch[row], alone)

    def test_working_memory_independent_of_count(self):
        # beyond its own output, a batch holds one chunk's buffers whatever its size
        model = make_consistent_model(1, roots=[0.3])
        config = SimulationConfig(N=8, B=8, seed=3)
        extra = []
        for count in (2 * _CHUNK_ROWS, 4 * _CHUNK_ROWS):
            tracemalloc.start()
            try:
                batch = simulate_batch(model, config, count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - batch.nbytes)
        assert extra[1] == pytest.approx(extra[0], rel=0.1)

    def test_deterministic(self):
        model = make_consistent_model(1, roots=[0.4])
        config = SimulationConfig(N=20, B=10, seed=2)
        np.testing.assert_array_equal(
            simulate_batch(model, config, 7), simulate_batch(model, config, 7)
        )

    def test_lag_matching_within_three_percent(self):
        # positive real roots keep every matched lag order one, so the
        # relative comparison is well-posed
        model = make_consistent_model(2, roots=[0.85, 0.7])
        batch = simulate_batch(model, SimulationConfig(N=60, B=300, seed=77), 50_000)
        for lag in range(model.p + 1):
            est = lag_estimate(batch, lag)
            target = model.source_lags[lag]
            assert abs(est - target) / abs(target) < 0.03

    def test_zero_mean_after_burn_in(self):
        model = make_consistent_model(4, seed=(62, 0), max_mod=0.7)
        batch = simulate_batch(model, SimulationConfig(N=50, B=250, seed=8), 4000)
        row_means = batch.mean(axis=1)
        sem = np.std(row_means) / np.sqrt(row_means.size)
        assert abs(np.mean(row_means)) < 3 * sem

    def test_monte_carlo_rate(self):
        # lag-error should shrink about 2x when the batch grows 4x
        model = make_consistent_model(2, seed=(63, 0), max_mod=0.6)

        def worst_err(count, seed):
            batch = simulate_batch(model, SimulationConfig(N=40, B=200, seed=seed), count)
            return max(
                abs(lag_estimate(batch, lag) - model.source_lags[lag]) for lag in range(model.p + 1)
            )

        small = np.mean([worst_err(2_000, (64, k)) for k in range(3)])
        big = np.mean([worst_err(8_000, (65, k)) for k in range(3)])
        assert 1.0 <= small / big <= 4.0

    def test_count_validated(self):
        model = make_consistent_model(1, roots=[0.2])
        with pytest.raises(ValueError):
            simulate_batch(model, SimulationConfig(N=5, B=0, seed=0), 0)


# a last chunk of one row and a short last chunk
BOUNDARY_COUNTS = [_CHUNK_ROWS + 1, _CHUNK_ROWS + 3]


class TestSimulateMaxGains:
    def test_bit_identical_to_reducing_the_batch(self):
        model = make_consistent_model(3, seed=(67, 0), max_mod=0.8)
        config = SimulationConfig(N=12, B=24, seed=5)
        for count in BOUNDARY_COUNTS:
            np.testing.assert_array_equal(
                simulate_max_gains([model], config, count)[0], max_gain(simulate_batch(model, config, count))
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_match_one_model_calls(self, workers):
        # common random numbers: every model reads the same row normals, so
        # sharing a call changes no model's bits, across a chunk boundary too
        models = [make_consistent_model(p, seed=(68, p), max_mod=0.8) for p in (1, 3, 5)]
        config = SimulationConfig(N=12, B=24, seed=7)
        for count in BOUNDARY_COUNTS:
            gains = simulate_max_gains(models, config, count, workers=workers)
            assert gains.shape == (len(models), count)
            for model, row in zip(models, gains):
                np.testing.assert_array_equal(row, simulate_max_gains([model], config, count)[0])

    def test_threads_share_no_buffers(self):
        # more threads than cores and a short switch interval: a buffer used by
        # two threads at once, or a lost write, would change some model's gains
        models = [make_consistent_model(p, seed=(70, p), max_mod=0.8) for p in (1, 2, 3, 4, 5, 6)]
        config = SimulationConfig(N=10, B=20, seed=8)
        serial = simulate_max_gains(models, config, 600)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = simulate_max_gains(models, config, 600, workers=5)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(threaded, serial)

    def test_models_must_share_row_length(self):
        # rows of max(N, p) = 3 and 5 normals share no bits
        short, long = (make_consistent_model(p, seed=(69, p), max_mod=0.8) for p in (2, 5))
        with pytest.raises(ValueError, match="row length"):
            simulate_max_gains([short, long], SimulationConfig(N=3, B=6, seed=1), 10)
        with pytest.raises(ValueError):
            simulate_max_gains([], SimulationConfig(N=3, B=6, seed=1), 10)
        assert simulate_max_gains([short, short], SimulationConfig(N=3, B=6, seed=1), 10).shape == (2, 10)

    def test_working_memory_independent_of_count(self):
        # only the (count,) gains outlive each chunk
        model = make_consistent_model(1, roots=[0.3])
        config = SimulationConfig(N=8, B=8, seed=3)
        extra = []
        for count in (2 * _CHUNK_ROWS, 4 * _CHUNK_ROWS):
            tracemalloc.start()
            try:
                gains = simulate_max_gains([model], config, count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - gains.nbytes)
        assert extra[1] == pytest.approx(extra[0], rel=0.1)
