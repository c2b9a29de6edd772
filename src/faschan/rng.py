"""Seeded random streams.

All randomness in the package flows through counter-based Philox generators
keyed by a seed that is either a non-negative int or a flat tuple of
non-negative ints.  Independent sub-streams are derived by appending branch
integers to the seed tuple, so any task (a batch row, a candidate order, a
threshold) can be reproduced in isolation from its derived seed.

A stream is ``Philox`` keyed by ``SeedSequence(seed)``.  A caller that
needs one stream per row (the generator) takes each row's key from
``_philox_key`` and re-keys one Philox per row instead of building a
Philox and a Generator for each: the same streams as ``make_rng``, drawn
bit for bit alike.
"""

from __future__ import annotations

import numpy as np

# the scale complex_standard_normal applies to both parts.  numpy divides a
# complex array by sqrt(2) + 0j (Smith's algorithm) as a multiplication by
# this reciprocal, so the parts equal (re + 1j * im) / np.sqrt(2.0) bit for bit
SQRT_HALF = 1.0 / np.sqrt(2.0)


def _entropy(seed) -> "tuple[int, ...]":
    if isinstance(seed, (tuple, list)):
        parts = tuple(int(s) for s in seed)
    else:
        parts = (int(seed),)
    if any(s < 0 for s in parts):
        raise ValueError(f"seed components must be non-negative, got {parts}")
    return parts


def make_rng(seed) -> np.random.Generator:
    """Generator for this seed; same seed, same stream, always."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_entropy(seed))))


def derive(seed, *branch: int) -> tuple[int, ...]:
    """Child seed for an independent sub-stream (row index, candidate id, ...)."""
    return _entropy(seed) + tuple(int(b) for b in branch)


def _philox_key(entropy: "tuple[int, ...]") -> np.ndarray:
    """The key of ``make_rng(entropy)``'s Philox: two uint64 words of ``SeedSequence(entropy)``.

    Private: it runs once per generator row, and tracing wraps public functions.
    """
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def complex_standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussians with unit variance per entry.

    Real and imaginary parts are independent N(0, 1/2) draws, so
    E|z|^2 = 1.  The real block is drawn before the imaginary block.  Both
    blocks pass through one float temporary into the complex result, each
    scaled by SQRT_HALF, which equals (re + 1j * im) / np.sqrt(2.0) bit for
    bit.
    """
    out = np.empty(shape, dtype=np.complex128)
    parts = np.empty(shape)
    rng.standard_normal(out=parts)
    np.multiply(parts, SQRT_HALF, out=out.real)
    rng.standard_normal(out=parts)
    np.multiply(parts, SQRT_HALF, out=out.imag)
    return out if out.ndim else out[()]
