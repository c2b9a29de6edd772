"""Stationary AR(p) channel realizations via burn-in.

The recursion is started from zeros, driven by B + N innovation draws, and
the first B outputs are discarded so the retained block follows the
stationary law.  Batch rows use per-row derived seeds, so any single row is
reproducible in isolation.

Rows are simulated CHUNK_ROWS at a time: each chunk's innovations are drawn
row by row, transposed once into a time-major recursion buffer, and only
the kept N ports are copied out.  Peak memory is the (count, N) output plus
one chunk's buffer, whatever the count, and since every row's arithmetic is
the same in any chunk, the chunking does not change a single bit of the
output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arfit import ArpModel, check_stability
from .errors import UnstableModelError
from .rng import complex_standard_normal, derive, make_rng

# rows per simulation chunk: enough that the per-step numpy calls amortise,
# few enough that the recursion buffer stays near 160 MB at B + N = 1200
CHUNK_ROWS = 8192
# innovation rows drawn row-major before each transpose into that buffer
_DRAW_ROWS = 256


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


def _simulate_rows(model: ArpModel, config: SimulationConfig, count: int, row_seed) -> np.ndarray:
    """(count, N) realizations; row j is driven by the stream of row_seed(j).

    The recursion g_k = sum_i alpha_i g_{k-i} + eps_k runs from zero initial
    state in a time-major buffer, so every lag access is a contiguous row.
    Each step forms its p lag products in one call and adds them to eps_k
    one at a time in a fixed order, so each realization's trajectory is
    bit-identical no matter how many realizations share the chunk.
    """
    alpha_col = model.alpha[:, None]
    p = model.p
    total = config.B + config.N
    scale = np.sqrt(model.sigma_eps2)
    width = min(CHUNK_ROWS, count)
    draws = np.empty((min(_DRAW_ROWS, width), total), dtype=np.complex128)
    g = np.empty((p + total, width), dtype=np.complex128)
    products = np.empty((p, width), dtype=np.complex128)
    out = np.empty((count, config.N), dtype=np.complex128)
    for start in range(0, count, width):
        rows = min(width, count - start)
        buf, terms = g[:, :rows], products[:, :rows]
        buf[:p] = 0.0
        for first in range(0, rows, draws.shape[0]):
            block = draws[: min(draws.shape[0], rows - first)]
            for j in range(block.shape[0]):
                block[j] = complex_standard_normal(make_rng(row_seed(start + first + j)), total)
            block *= scale
            buf[p:, first : first + block.shape[0]] = block.T
        for k in range(total):
            # terms[i] = alpha_i g_{k-1-i}
            np.multiply(alpha_col, buf[k : p + k][::-1], out=terms)
            acc = buf[p + k]
            for term in terms:
                acc += term
        out[start : start + rows] = buf[p + config.B :].T
    return out


def simulate(model: ArpModel, config: SimulationConfig) -> np.ndarray:
    """One length-N realization: run B + N steps from zeros, keep the last N."""
    if not check_stability(model).stable:
        raise UnstableModelError("refusing to simulate an unstable model")
    return _simulate_rows(model, config, 1, lambda _: config.seed)[0]


def simulate_batch(model: ArpModel, config: SimulationConfig, count: int) -> np.ndarray:
    """(count, N) independent realizations; row i uses the derived seed (seed, i)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not check_stability(model).stable:
        raise UnstableModelError("refusing to simulate an unstable model")
    return _simulate_rows(model, config, count, lambda i: derive(config.seed, i))
