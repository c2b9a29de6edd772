"""Stationary AR(p) channel realizations, started from the exact burned-in law.

A realization is ports B+1 .. B+N of the recursion run from zeros, B the
burn-in length, but nothing before port B+1 is simulated.  Each row draws
one block of max(N, p) standard complex normals from its own derived seed.
The first p, times the factor of the burned-in law (``burned_in_factor``),
give ports B+1 .. B+p at once; the recursion then runs the remaining N - p
ports with the rest of the block as innovations.  Since that state is
independent of the later innovations, every row follows the law of the
B + N steps from zeros exactly, for every B >= 0, and any single row is
reproducible in isolation from its seed.

``burned_in_states`` draws the same lifted state for many rows from one
seed (the particle evaluator's starting swarm).

Rows are simulated CHUNK_ROWS at a time: each chunk's normals are drawn row
by row, lifted, transposed once into a time-major recursion buffer, and
handed on as (rows, N) blocks.  ``simulate_batch`` copies the blocks into
its (count, N) output and ``simulate_max_gains`` keeps only their max gains,
so working memory beyond the output is one chunk's buffers, whatever the
count.  Every row's arithmetic, the start product included, is the same in
any chunk, so the chunking does not change a single bit of the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arfit import ArpModel, check_stability
from .errors import UnstableModelError
from .interpolation import _rowwise
from .rng import complex_standard_normal, derive, make_rng
from .stats import max_gain

# rows per simulation chunk: enough that the per-step numpy calls amortise,
# few enough that the recursion buffer stays near 27 MB at N = 200
CHUNK_ROWS = 8192
# rows whose normals are drawn and lifted row-major before each transpose
_DRAW_ROWS = 256
# impulse-response rows folded into the burn-in factor per QR update
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


def _chunks(
    model: ArpModel, config: SimulationConfig, count: int, row_seed: Callable[[int], object]
) -> Iterator["tuple[int, np.ndarray]"]:
    """Yield (start, block): rows start .. start + len(block) - 1, block (rows, N).

    Row j draws max(N, p) standard normals from the stream of row_seed(j).
    The first p become ports 1..p through the conjugated burned-in factor,
    one matrix-vector product per row (``_rowwise``), so the start rounds
    as it would for a lone row.  The recursion g_k = sum_i alpha_i g_{k-i}
    + eps_k then runs ports p+1..N in a time-major buffer, so every lag
    access is a contiguous row.  Each step forms its p lag products in one
    call and adds them to eps_k one at a time in a fixed order, so each
    realization's trajectory is bit-identical no matter how many
    realizations share the chunk.  The block is a view of a buffer the
    next chunk overwrites.
    """
    p, n = model.p, config.N
    length = max(n, p)
    # F^H e is [g_{B+p}, ..., g_{B+1}]; its rows reversed give ports 1..p in order
    lift = np.ascontiguousarray(burned_in_factor(model, config.B).conj().T[::-1])
    alpha_col = model.alpha[:, None]
    scale = np.sqrt(model.sigma_eps2)
    width = min(CHUNK_ROWS, count)
    draws = np.empty((min(_DRAW_ROWS, width), length), dtype=np.complex128)
    g = np.empty((length, width), dtype=np.complex128)
    products = np.empty((p, width), dtype=np.complex128)
    for start in range(0, count, width):
        rows = min(width, count - start)
        buf, terms = g[:, :rows], products[:, :rows]
        for first in range(0, rows, draws.shape[0]):
            block = draws[: min(draws.shape[0], rows - first)]
            for j in range(block.shape[0]):
                block[j] = complex_standard_normal(make_rng(row_seed(start + first + j)), length)
            block[:, :p] = _rowwise(lift, block[:, :p])
            block[:, p:] *= scale
            buf[:, first : first + block.shape[0]] = block.T
        for k in range(p, n):
            # terms[i] = alpha_i g_{k-1-i}
            np.multiply(alpha_col, buf[k - p : k][::-1], out=terms)
            acc = buf[k]
            for term in terms:
                acc += term
        yield start, buf[:n].T


def _simulate_rows(model: ArpModel, config: SimulationConfig, count: int, row_seed) -> np.ndarray:
    """(count, N) realizations; row j is driven by the stream of row_seed(j)."""
    out = np.empty((count, config.N), dtype=np.complex128)
    for start, block in _chunks(model, config, count, row_seed):
        out[start : start + block.shape[0]] = block
    return out


def _check(model: ArpModel, count: int) -> None:
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not check_stability(model).stable:
        raise UnstableModelError("refusing to simulate an unstable model")


def simulate(model: ArpModel, config: SimulationConfig) -> np.ndarray:
    """One length-N realization: ports B+1 .. B+N of the recursion from zeros, in law."""
    _check(model, 1)
    return _simulate_rows(model, config, 1, lambda _: config.seed)[0]


def simulate_batch(model: ArpModel, config: SimulationConfig, count: int) -> np.ndarray:
    """(count, N) independent realizations; row i uses the derived seed (seed, i)."""
    _check(model, count)
    return _simulate_rows(model, config, count, lambda i: derive(config.seed, i))


def simulate_max_gains(model: ArpModel, config: SimulationConfig, count: int) -> np.ndarray:
    """``max_gain(simulate_batch(model, config, count))``, without holding the batch.

    Each chunk is reduced to its rows' max gains as it is produced, so only
    the (count,) gains outlive it.  ``max_gain`` is exact per row, so the
    gains are bit-identical to reducing the whole batch.
    """
    _check(model, count)
    gains = np.empty(count)
    for start, block in _chunks(model, config, count, lambda i: derive(config.seed, i)):
        gains[start : start + block.shape[0]] = max_gain(block)
    return gains


def burned_in_factor(model: ArpModel, B: int) -> np.ndarray:
    """Upper-triangular F with F^H F the covariance of the burned-in lifted state.

    The state is [g_{B+p}, ..., g_{B+1}] (newest first) of the recursion run
    B + p steps from zeros: the kept block of ``simulate`` at N = p,
    reversed.  It is linear in the innovations, g_{B+p-a} = sum_m
    h_{m-a} eps_{B+p-m} with h the impulse response, so its law is
    CN(0, sigma_eps2 H H^H) where row a of the p x (B+p) matrix H is h
    shifted right by a.  F = sqrt(sigma_eps2) R with R the triangular factor
    of H^H, which is PSD by construction.  Row m of H^H is the conjugated
    lifted impulse state [h_m, ..., h_{m-p+1}]; h comes from the float64
    recursion and is folded into R in blocks of rows, each QR-factored under
    the R so far, so memory does not grow with B.
    """
    if B < 0:
        raise ValueError(f"B must be >= 0, got {B}")
    p = model.p
    reversed_alpha = model.alpha[::-1]
    # row 0 of H^H is (h_0, 0, ..., 0) with h_0 = 1; buf holds the p
    # responses before each block, oldest first, then the block's own
    buf = np.zeros(p + _FACTOR_ROWS, dtype=np.complex128)
    buf[p - 1] = 1.0
    r = np.eye(1, p, dtype=np.complex128)
    for start in range(1, B + p, _FACTOR_ROWS):
        rows = min(_FACTOR_ROWS, B + p - start)
        for j in range(rows):
            buf[p + j] = reversed_alpha @ buf[j : p + j]
        block = sliding_window_view(buf[1 : p + rows], p)[:, ::-1]
        r = np.linalg.qr(np.vstack((r, block.conj())), mode="r")
        buf[:p] = buf[rows : p + rows]
    return np.sqrt(model.sigma_eps2) * r


def burned_in_states(factor: np.ndarray, count: int, seed) -> np.ndarray:
    """(count, p) lifted states drawn from CN(0, F^H F), F = ``burned_in_factor``.

    One (count, p) block of standard complex normals from ``seed``, times
    conj(F): each row e F-bar is the row form of the column F^H e.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return complex_standard_normal(make_rng(seed), (count, factor.shape[1])) @ factor.conj()
