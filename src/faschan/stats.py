"""Small statistics helpers: selection gain, two-sample KS, isotonic projection."""

from __future__ import annotations

import numpy as np


def max_gain(samples: np.ndarray) -> np.ndarray:
    """max_k |g_k|^2 along the last axis.

    Squares only the maxima: rounding x^2 is monotone in x >= 0, so the
    square of the largest |g_k| is the largest rounded |g_k|^2, bit for bit.
    """
    return np.max(np.abs(np.asarray(samples)), axis=-1) ** 2


def ks_distance(x, y) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic.

    The sup of |F_x - F_y| is attained at a pooled sample point, so it is
    evaluated over the pooled sorted samples; no grid is involved and the
    value depends only on ranks.
    """
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ValueError("ks_distance requires non-empty samples")
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / x.size
    fy = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def isotonic_non_decreasing(values) -> np.ndarray:
    """Project onto non-decreasing sequences (least squares, pool adjacent violators)."""
    y = np.asarray(values, dtype=float)
    n = y.size
    if n <= 1:
        return y.copy()
    # block means and sizes, merged while the mean sequence decreases
    means: list[float] = []
    sizes: list[int] = []
    for v in y:
        means.append(float(v))
        sizes.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, s2 = means.pop(), sizes.pop()
            m1, s1 = means.pop(), sizes.pop()
            means.append((m1 * s1 + m2 * s2) / (s1 + s2))
            sizes.append(s1 + s2)
    out = np.empty(n)
    pos = 0
    for m, s in zip(means, sizes):
        out[pos : pos + s] = m
        pos += s
    return out
