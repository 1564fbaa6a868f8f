"""Splittable, counter-based randomness: Philox generators keyed by ``(seed, *path)``.

Two distinct integer paths give independent, bitwise-reproducible streams, so sweep points can run in any
order on any number of workers. A sweep point draws its class x weight cell counts, one multinomial, then on
a state engine one double per trial for its pattern, from ``(seed, point)``; X outcomes from ``(seed, point, 1)``.
"""

from __future__ import annotations

import numpy as np


def philox_generator(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox stream for ``(seed, *path)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))
