"""Splittable, counter-based randomness.

Every stochastic routine in the package draws from a Philox generator keyed
by ``(seed, *path)`` through ``numpy``'s ``SeedSequence`` spawn mechanism.
Paths are small integer tuples such as ``(point_index, trial_index)``; two
distinct paths give statistically independent, bitwise-reproducible streams,
so trials can run in any order or on any number of workers without changing
results. Within one stream the draw position plays the role of the
measurement index.

``philox_generator`` builds one such stream and is the reference.
The engine sweeps need one stream per trial, so ``trial_generators`` derives
the keys of all ``(seed, point, trial)`` paths of a sweep point in one
vectorised pass of the same ``SeedSequence`` hash, and rekeys a single
reused generator before each trial. Its streams are bitwise identical to
``philox_generator(seed, point, trial)``.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

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


def trial_generators(seed: int, point: int, trials: int) -> Iterator[np.random.Generator]:
    """Yield the streams of ``(seed, point, t)`` for ``t = 0 .. trials - 1``.

    Each yielded stream draws exactly what ``philox_generator(seed, point,
    t)`` draws. The same ``Generator`` object is yielded every time and is
    rekeyed before the next trial, so use it before advancing the iterator.
    Keys are derived ``_KEY_BLOCK`` trials at a time, so memory does not
    grow with ``trials``.
    """
    run_words = _uint32_words(seed)
    run_words += [0] * (_POOL_SIZE - len(run_words))  # SeedSequence pads when spawning
    prefix = run_words + _uint32_words(point)
    if operator.index(trials) < 0:
        raise ValueError("expected non-negative integer")
    bitgen = np.random.Philox(0)
    generator = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh stream: zero counter, empty buffer; only the key changes
    for start in range(0, trials, _KEY_BLOCK):
        size = min(_KEY_BLOCK, trials - start)
        # the block is aligned, so only the low word of the trial index varies
        low, *high = _uint32_words(start)
        trial_words = [np.arange(low, low + size, dtype=np.uint32), *high]
        for key in _philox_keys(prefix + trial_words):
            state["state"]["key"] = key
            bitgen.state = state
            yield generator
