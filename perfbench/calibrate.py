"""Machine-speed reference, so timings on a shared host compare across runs.

On the shared 2-vCPU host the benchmark was built on, the speed of the
whole machine drifts by up to 30 % within seconds. The drift shows in CPU
time as well as in wall time. Raw op times therefore spread by 25-35 %
between 10-second runs. run.py runs this fixed kernel whenever a worker
asks: before the worker imports tecsim, and before and after every timed
op. The worker scales each time by the factor ``speed()`` returns, taking
the slower of the two readings around an op. Reported times are "reference
seconds": wall seconds on a host where the kernel takes ``REFERENCE_S``.

The kernel mixes four kinds of work in equal parts of about 3 ms each:
integer bytecode, string-keyed dicts and frozensets, cache-missing loads
from an 8 MB array, and ufuncs on small complex arrays. Different
neighbours slow different kinds of work. Over 16-second windows, the mix
brought the spread of every workload to 2-7 %. No single kind did that on
all four workloads; the integer loop alone left 15 % on dense_oracle.
The kernel runs in run.py, which never imports tecsim, so a change to
tecsim cannot move it.
"""

from __future__ import annotations

import array
import random
import time

import numpy as np

# the kernel's median time on the host the baseline was taken on
REFERENCE_S = 0.015

_KEYS = [f"key{i}" for i in range(5000)]
_TABLE = array.array("q", range(1 << 20))
_LOADS = random.Random(1).choices(range(1 << 20), k=12_000)
_VEC = np.ones(256, dtype=complex)


def kernel() -> float:
    """Wall time of the fixed mixed workload."""
    start = time.perf_counter()
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    counts: dict[str, int] = {}
    for r in range(5):
        for key in _KEYS:
            counts[key] = counts.get(key, 0) + 1
        frozenset(_KEYS[r::7])
    table = _TABLE
    for i in _LOADS:
        acc += table[i]
    x = _VEC
    for _ in range(1000):
        x = np.multiply(x, 1.0) + _VEC[::-1].conj()
    return time.perf_counter() - start


def speed() -> float:
    """REFERENCE_S over the kernel's time now: below 1 while the host is slow."""
    return REFERENCE_S / kernel()
