"""Seeded random streams.

All randomness in the package flows through counter-based Philox generators
keyed by a seed that is either a non-negative int or a flat tuple of
non-negative ints.  Independent sub-streams are derived by appending branch
integers to the seed tuple, so any task (a batch row, a candidate order, a
threshold) can be reproduced in isolation from its derived seed.

A stream is ``Philox`` keyed by ``SeedSequence(seed)``.  ``philox_keys``
computes those keys for a whole block of derived seeds in one vectorised
pass of SeedSequence's published hash, so a caller that needs one stream
per row (the generator) re-keys one Philox per row instead of building a
SeedSequence, a Philox and a Generator for each: the same streams as
``make_rng``, drawn bit for bit alike.
"""

from __future__ import annotations

import numpy as np

# the scale complex_standard_normal applies to both parts.  numpy divides a
# complex array by sqrt(2) + 0j (Smith's algorithm) as a multiplication by
# this reciprocal, so the parts equal (re + 1j * im) / np.sqrt(2.0) bit for bit
SQRT_HALF = 1.0 / np.sqrt(2.0)

# SeedSequence's hash (numpy/random/bit_generator.pyx): a 4-word pool of
# uint32, filled by hashmix and mix, then read out by generate_state
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


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


def _words(n: int) -> "list[int]":
    """SeedSequence's uint32 words of one entropy component, least significant first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_keys(entropy: np.ndarray) -> np.ndarray:
    """(rows, 2) uint64 keys ``SeedSequence(e).generate_state(2, uint64)`` of each row e of ``entropy``.

    ``entropy`` is (rows, L) uint32, every row one seed's words.  The pool
    update is a fixed sequence of hash constants, so each step is one uint32
    array operation over all rows, wrapping as the C code does.
    """
    rows, length = entropy.shape
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    # generate_state(2, uint64): four uint32 words cycled from the pool, read as two little-endian uint64
    state = np.empty((rows, 4), dtype="<u4")
    hash_const = _INIT_B
    for i in range(4):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.view("<u8").astype(np.uint64)


def philox_keys(seed, rows=None) -> np.ndarray:
    """Philox keys of the streams of ``derive(seed, i)`` for i in ``rows``, (len(rows), 2) uint64.

    Row j is ``np.random.Philox(np.random.SeedSequence(derive(seed, rows[j]))).state["state"]["key"]``,
    the key of ``make_rng(derive(seed, rows[j]))``; with ``rows`` None, the
    one row is the key of ``make_rng(seed)`` itself.  All rows are hashed in
    one pass: components of any size split into uint32 words as
    SeedSequence splits them, so a row index of 2**32 or more adds a word.
    """
    prefix = [w for part in _entropy(seed) for w in _words(part)]
    if rows is None:
        return _hash_keys(np.array([prefix], dtype=np.uint32))
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if np.any(rows < 0):
        raise ValueError("row indices must be non-negative")
    keys = np.empty((rows.size, 2), dtype=np.uint64)
    wide = rows > _MASK32
    for group, suffix in ((~wide, [rows & _MASK32]), (wide, [rows & _MASK32, rows >> 32])):
        if group.any():
            entropy = np.empty((int(group.sum()), len(prefix) + len(suffix)), dtype=np.uint32)
            entropy[:, : len(prefix)] = prefix
            for i, words in enumerate(suffix):
                entropy[:, len(prefix) + i] = words[group]
            keys[group] = _hash_keys(entropy)
    return keys


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
