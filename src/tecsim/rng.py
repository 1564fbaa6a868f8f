"""Splittable, counter-based randomness.

Every stochastic routine in the package draws from a Philox generator keyed
by ``(seed, *path)`` through ``numpy``'s ``SeedSequence`` spawn mechanism.
Paths are small integer tuples such as ``(point_index, trial_index)``; two
distinct paths give statistically independent, bitwise-reproducible streams,
so trials can run in any order or on any number of workers without changing
results. Within one stream the draw position plays the role of the
measurement index.

``philox_generator`` builds one such stream and is the reference.
``_trial_keys`` derives the keys of a block of ``(seed, point, trial)``
paths in one vectorised pass of the same ``SeedSequence`` hash, and
``trial_words`` runs Philox4x64-10 on them, computing the raw words of every
trial of a block at once, bitwise identical to the stream of
``philox_generator(seed, point, trial)``. The tableau and dense sweeps read
their draws from these words.
"""

from __future__ import annotations

import operator

import numpy as np


def philox_generator(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox stream for ``(seed, *path)``."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(key=ss.generate_state(2, np.uint64)))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

# Trials per vectorised key pass. A power of two that divides 2**32, so an
# aligned block never straddles a change in the trial index's word count.
_KEY_BLOCK = 4096


def _uint32_words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, the way ``SeedSequence`` splits it."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _philox_keys(entropy: list) -> np.ndarray:
    """``SeedSequence`` pool mixing and ``generate_state(2, uint64)``, vectorised.

    ``entropy`` holds the assembled entropy words: Python ints for words
    shared by every stream, ``uint32`` vectors (one entry per stream) for the
    rest, with at least one vector. It has more than ``_POOL_SIZE`` words,
    which holds whenever there is a spawn key. Masking keeps the int words to
    32 bits and is a no-op on the vectors, which wrap by themselves.
    Returns the Philox keys, shape (n, 2).
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for word in pool:  # four uint32 words make the two uint64 key words
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state.append((word ^ (word >> _XSHIFT)).astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _trial_keys(seed: int, point: int, start: int, size: int) -> np.ndarray:
    """Philox keys of ``(seed, point, t)`` for ``t = start .. start + size - 1``, shape (size, 2).

    The trials must share every word of their index above the low one, which
    holds for any block of at most ``_KEY_BLOCK`` trials that starts at a
    multiple of ``_KEY_BLOCK``.
    """
    run_words = _uint32_words(seed)
    run_words += [0] * (_POOL_SIZE - len(run_words))  # SeedSequence pads when spawning
    low, *high = _uint32_words(start)
    if low + size > _MASK32 + 1:
        raise ValueError("trial block crosses a 32-bit boundary of the trial index")
    trials = np.arange(low, low + size, dtype=np.uint32)
    return _philox_keys(run_words + _uint32_words(point) + [trials, *high])


# Philox4x64-10 constants (Random123, as in numpy/random/src/philox/philox.h)
_PHILOX_M0, _PHILOX_M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_PHILOX_W0, _PHILOX_W1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``a * m``, from 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    hi_lo = a_hi * m_lo
    cross = (a_lo * m_lo >> _SHIFT32) + (hi_lo & _LOW32) + a_lo * m_hi  # < 2**64
    return a_hi * m_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32), a * m


def trial_words(seed: int, point: int, start: int, size: int, words: int) -> np.ndarray:
    """The first ``words`` raw outputs of the streams of trials ``start .. start + size - 1``.

    Row i equals ``philox_generator(seed, point, start + i).bit_generator
    .random_raw(words)``: Philox4x64-10 run on ``uint64`` vectors for all
    trials at once. A fresh numpy stream bumps its counter before each
    block of four words, so block k of a trial is counter (k, 0, 0, 0) for
    k = 1, 2, ... The trial range must be one ``_trial_keys`` block.
    """
    blocks = -(-words // 4)
    # one lane per (block, trial), block-major, so every vector op runs over the trials
    k0, k1 = np.tile(_trial_keys(seed, point, start, size).T, blocks)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64).repeat(size)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(c0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(c2, _PHILOX_M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    lanes = np.stack([c0, c1, c2, c3]).reshape(4, blocks, size)
    return lanes.transpose(2, 1, 0).reshape(size, 4 * blocks)[:, :words]
