"""Stationary AR(p) channel realizations, started from the exact burned-in law.

A realization is ports B+1 .. B+N of the recursion run from zeros, B the
burn-in length, but nothing before port B+1 is simulated.  Row i of a
batch draws one block of max(N, p) standard complex normals from the
derived seed (seed, i).
The first p, times the factor of the burned-in law (``burned_in_factor``),
give ports B+1 .. B+p at once; the recursion then runs the remaining N - p
ports with the rest of the block as innovations.  Since that state is
independent of the later innovations, every row follows the law of the
B + N steps from zeros exactly, for every B >= 0, and any single row is
reproducible in isolation from its derived seed.

``burned_in_states`` draws the same lifted state for many rows from one
seed (the particle evaluator's starting swarm).  The factor takes the
impulse response a block at a time from a compiled banded solve and folds
each block in by QR at fixed block boundaries, which fix the signs of its
rows and hence every realization's bits.

Rows are simulated _CHUNK_ROWS (1024) at a time in two stages: the row
normals are drawn, then each model drives its recursion with them
(``_simulate``).  A chunk's realizations live in one time-major buffer,
newest port first, padded to a multiple of _ROW_ALIGN (8) columns whose pad
is zeroed, so each port's p lags are p consecutive contiguous rows: a step
is one BLAS ``zgemv`` that adds the lag window times alpha into the
innovation already in the port's row, for every realization at once.  The
kernel computes each realization from its own row of the window, and the
padding runs every real row through its blocked path, so a row's bits
depend only on its own stream: not on the chunk, the row count, the models
sharing the rows, or one versus two BLAS threads.  The chunk is sized so
that a step's lag window stays in L2: at p = 40 and 4096 rows it spills,
and a step costs about 1.9x as much per row.
The draw keys one Philox per row from the row's seed through numpy's own
SeedSequence (``rng._philox_key``), so row i reads the normals of
``make_rng(derive(seed, i))`` bit for bit without building a Philox and a
Generator for every row.
``simulate_max_gains`` takes several models of one row length and drives
them all with the same normals (common random numbers), drawing each row's
normals once per call instead of once per model, and keeps only each
model's max gains; ``workers`` threads share a chunk's models.  Order
selection and the ``cdf`` command draw the surrogate's selection gains only
through it.
``simulate_batch`` copies its one model's (rows, N) blocks into its
(count, N) output.  Working memory beyond the output is one chunk's
buffers, whatever the count.  Every row's arithmetic, the start product
included, is the same in any chunk and for any set of models, so neither
the chunking nor the sharing changes a single bit of a model's output.
"""

from __future__ import annotations

import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas, lapack

from .arfit import ArpModel, check_stability
from .errors import UnstableModelError
from .interpolation import _rowwise
from .rng import SQRT_HALF, _philox_key, complex_standard_normal, derive, make_rng
from .stats import max_gain

# rows simulated per chunk: a recursion step reads a lag window of p rows,
# 0.65 MB at p = 40, which stays in L2 (a 2 MB one spills at 4096 rows).
# Not a tuning knob, and the bits do not depend on it
_CHUNK_ROWS = 1024
# a chunk's realizations are padded to a multiple of this many columns, so
# that zgemv runs every real row through its blocked path (see ``drive``)
_ROW_ALIGN = 8
# rows whose normals are drawn and lifted row-major before each transpose
_DRAW_ROWS = 256
# impulse-response rows folded into the burn-in factor per QR update; fixed,
# because the block boundaries set the signs of the factor's rows
_FACTOR_ROWS = 256


@dataclass(frozen=True)
class SimulationConfig:
    """Output length N, burn-in length B, and the stream seed."""

    N: int
    B: int
    seed: "int | tuple[int, ...]" = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.B < 0:
            raise ValueError(f"B must be >= 0, got {self.B}")


class _Work:
    """One thread's buffers for driving a model over a chunk of up to ``width`` rows."""

    def __init__(self, length: int, width: int):
        self.draws = np.empty((min(_DRAW_ROWS, width), length), dtype=np.complex128)
        # flat, so that each chunk's (length, cols) view is contiguous
        self.ports = np.empty(length * _padded(width), dtype=np.complex128)

    def drive(
        self,
        model: ArpModel,
        lift: np.ndarray,
        n: int,
        rows: int,
        normals: Callable[[int, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """(rows, N) realizations of one chunk, a view of this thread's buffer.

        ``normals(first, scratch)`` returns rows first .. first + len(scratch) - 1
        of the chunk's standard normals, (rows, max(N, p)); it may draw them
        into ``scratch``.  The first p of each row become ports 1..p through
        the conjugated burned-in factor ``lift``, one matrix-vector product
        per row (``_rowwise``), so the start rounds as it would for a lone
        row.  The rest, scaled by sigma_eps, drive the recursion
        g_k = sum_i alpha_i g_{k-i} + eps_k over ports p+1..N.

        The buffer is time-major and newest first, (max(N, p), cols) with
        cols = ``rows`` rounded up to a multiple of _ROW_ALIGN and the pad
        columns zeroed: row r holds port max(N, p) - r, so port k's lag
        window [g_{k-1}, ..., g_{k-p}] is the p rows below its own, and both
        are contiguous.  Each step is one BLAS ``zgemv`` that adds the window
        times alpha into the innovation eps_k already in port k's row, for
        every realization of the chunk at once.  The window is passed as its
        (cols, p) Fortran-ordered transpose and port k's row as ``y``, both
        without a copy: f2py would copy a strided array, and a copied ``y``
        would lose the in-place write.  The kernel computes each entry of
        ``y`` from that entry's own row of the window, and with cols a
        multiple of _ROW_ALIGN every real row takes its blocked path, so a
        realization's bits depend only on its own normals: not on the
        chunk, the row count, the models sharing the rows, or the number of
        BLAS threads.
        """
        p = model.p
        scale = np.sqrt(model.sigma_eps2)
        length = self.draws.shape[1]
        cols = _padded(rows)
        ports = self.ports[: length * cols].reshape(length, cols)
        ports[:, rows:] = 0.0
        in_time = ports[::-1]
        for first in range(0, rows, self.draws.shape[0]):
            block = self.draws[: min(self.draws.shape[0], rows - first)]
            source = normals(first, block)
            block[:, :p] = _rowwise(lift, source[:, :p])
            np.multiply(source[:, p:], scale, out=block[:, p:])
            in_time[:, first : first + block.shape[0]] = block.T
        last = length - 1
        for k in range(p, n):
            row = last - k  # port k + 1; its lags are rows row + 1 .. row + p
            blas.zgemv(1.0, ports[row + 1 : row + 1 + p].T, model.alpha, beta=1.0, y=ports[row], overwrite_y=1)
        return in_time[:n, :rows].T


def _padded(rows: int) -> int:
    """``rows`` rounded up to a multiple of _ROW_ALIGN."""
    return -(-rows // _ROW_ALIGN) * _ROW_ALIGN


def _draw(block: np.ndarray, seed: "tuple[int, ...]", first: int) -> np.ndarray:
    """Fill ``block``'s rows with the normals of rows first, first + 1, ... and return it.

    Row j gets ``complex_standard_normal(make_rng(seed + (first + j,)), L)``
    bit for bit.  One Philox, built for this call alone so that no two
    threads share it, is re-keyed per row with ``make_rng``'s key and draws
    the row's L real and then L imaginary parts into one float row, which is
    scaled into the complex row as ``complex_standard_normal`` scales it.
    """
    length = block.shape[1]
    bits = np.random.Philox(0)
    draw = np.random.Generator(bits).standard_normal
    state = bits.state  # counter 0, buffer empty: a freshly keyed stream
    parts = np.empty(2 * length)
    for i, row in enumerate(block, first):
        state["state"]["key"] = _philox_key(seed + (i,))
        bits.state = state
        draw(out=parts)
        np.multiply(parts[:length], SQRT_HALF, out=row.real)
        np.multiply(parts[length:], SQRT_HALF, out=row.imag)
    return block


def _simulate(
    models: "Sequence[ArpModel]",
    config: SimulationConfig,
    count: int,
    keep: Callable[[int, int, np.ndarray], None],
    workers: int = 1,
) -> None:
    """Drive every model with the same rows; keep(m, start, block) takes each chunk.

    Row i draws max(N, p) standard normals from the derived seed (seed, i),
    once per call.  A lone model draws them straight into its scratch rows;
    several models share one (rows, max(N, p)) block per chunk, drawn first
    and read by each model's drive.  ``block`` holds model m's rows start ..
    start + len(block) - 1, a view of a buffer the next chunk overwrites.
    With workers > 1 the models of a chunk run on that many threads, each
    with its own buffers; every model still sees the same normals.
    """
    seed = derive(config.seed)
    length = max(config.N, models[0].p)
    width = min(_CHUNK_ROWS, count)
    # F^H e is [g_{B+p}, ..., g_{B+1}]; its rows reversed give ports 1..p in order
    lifts = [np.ascontiguousarray(burned_in_factor(m, config.B).conj().T[::-1]) for m in models]
    threads = max(1, min(workers, len(models)))
    free: "queue.SimpleQueue[_Work]" = queue.SimpleQueue()
    for _ in range(threads):
        free.put(_Work(length, width))
    shared = np.empty((width, length), dtype=np.complex128) if len(models) > 1 else None
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for start in range(0, count, width):
            rows = min(width, count - start)
            if shared is None:
                def normals(first, scratch):
                    return _draw(scratch, seed, start + first)
            else:
                chunk = _draw(shared[:rows], seed, start)

                def normals(first, scratch):
                    return chunk[first : first + scratch.shape[0]]

            def run(m: int) -> None:
                work = free.get()
                try:
                    keep(m, start, work.drive(models[m], lifts[m], config.N, rows, normals))
                finally:
                    free.put(work)

            list((pool.map if pool else map)(run, range(len(models))))


def _check(model: ArpModel, count: int) -> None:
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not check_stability(model).stable:
        raise UnstableModelError("refusing to simulate an unstable model")


def simulate_batch(model: ArpModel, config: SimulationConfig, count: int) -> np.ndarray:
    """(count, N) independent realizations; row i uses the derived seed (seed, i)."""
    _check(model, count)
    out = np.empty((count, config.N), dtype=np.complex128)

    def keep(_, start, block):
        out[start : start + block.shape[0]] = block

    _simulate([model], config, count, keep)
    return out


def simulate_max_gains(
    models: "Sequence[ArpModel]", config: SimulationConfig, count: int, workers: int = 1
) -> np.ndarray:
    """(len(models), count): row m is ``max_gain(simulate_batch(models[m], config, count))``.

    Every model is driven by the same row normals (common random numbers),
    drawn once: row i's from the derived seed (seed, i), as in
    ``simulate_batch``.  Each chunk is reduced to its rows' max gains as it
    is produced, so only the gains outlive it.  ``max_gain`` is exact per
    row, so each model's gains are bit-identical to reducing its own batch.
    A row draws all its real parts before its imaginary parts, so rows of
    different lengths share no bits: every model must have the same
    max(N, p).  ``workers`` threads share each chunk's models.
    """
    if not models:
        raise ValueError("need at least one model")
    lengths = {max(config.N, m.p) for m in models}
    if len(lengths) > 1:
        raise ValueError(f"models must share the row length max(N, p), got {sorted(lengths)}")
    for model in models:
        _check(model, count)
    gains = np.empty((len(models), count))

    def keep(m, start, block):
        # a few rows at a time, so the |g| temporaries stay small.  numpy's
        # abs walks several rows along the contiguous row axis, but a lone
        # row along its ports, which run backwards through the buffer and
        # round differently; a lone row is copied to read as a batch row
        if block.shape[0] == 1:
            block = block.copy()
        for first in range(0, block.shape[0], _DRAW_ROWS):
            rows = block[first : first + _DRAW_ROWS]
            gains[m, start + first : start + first + rows.shape[0]] = max_gain(rows)

    _simulate(models, config, count, keep, workers)
    return gains


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
    it would change.
    """
    if B < 0:
        raise ValueError(f"B must be >= 0, got {B}")
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


def burned_in_states(factor: np.ndarray, count: int, seed) -> np.ndarray:
    """(count, p) lifted states drawn from CN(0, F^H F), F = ``burned_in_factor``.

    One (count, p) block of standard complex normals from ``seed``, times
    conj(F): each row e F-bar is the row form of the column F^H e.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return complex_standard_normal(make_rng(seed), (count, factor.shape[1])) @ factor.conj()
