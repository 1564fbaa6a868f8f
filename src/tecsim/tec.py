"""Topological error correction on the cluster state of a cell complex.

:func:`build_code` derives the code from the complex: the volume boundaries
are the parity checks, a nontrivial closed surface carries the protected
correlation, and the decoder maps each syndrome to its unique minimum-weight
flip pattern. The code also owns the complex's cluster state, built on first
use per engine, whose first qubits are its faces in order. The eight-qubit
demo (:data:`G8_CODE`) adds Z-flip noise on those face qubits, Monte-Carlo
sweeps and the analytic error curves that enumeration reproduces.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cluster import ClusterState, OutcomeRecord, build_cluster, interaction_graph
from .cluster import measure_all  # noqa: F401  perfbench/tracing.py patches tec.measure_all
from .complexes import (
    G8_PROTECTED_SURFACE,
    CellComplex,
    build_g8_complex,
    homology_class_key,
    is_closed,
    volume_boundary_masks,
)
from .errors import CapacityError
from .rng import philox_generator

SWEEP_ENGINES = ("fast", "tableau", "dense")

MAX_CODE_FACES = 20  # the decoder enumerates all 2^F flip patterns of F faces


def _pattern(mask: int) -> frozenset:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True, eq=False)
class TopologicalCode:
    """Parity checks, protected surface and lookup decoder of a cell complex.

    Flip patterns, checks and the surface are face bitmasks: bit i is
    ``faces[i]``, face number i + 1 in the public frozenset form, and qubit i
    of :meth:`state`. A syndrome holds one +-1 per check, the product of the
    face outcomes around that volume; ``leaders`` maps each to its unique
    minimum-weight flip bitmask.
    """

    complex: CellComplex
    faces: tuple[str, ...]
    checks: tuple[int, ...]
    surface: int
    leaders: dict[tuple[int, ...], int]
    _states: dict[str, ClusterState] = field(default_factory=dict, init=False, repr=False)

    def state(self, engine: str = "tableau") -> ClusterState:
        """A copy of the complex's cluster state on ``engine``, so no caller can change another's."""
        return self._state(engine).copy()

    def _state(self, engine: str) -> ClusterState:
        """The shared state, built on first use, once per engine; only for readers that leave it as is."""
        if engine not in self._states:
            self._states[engine] = build_cluster(interaction_graph(self.complex), engine)
        return self._states[engine]

    @property
    def check_names(self) -> tuple[str, ...]:
        """Each check's "c" and face numbers: c12, c25, c36, c34 for g8, c9_10 past 9 faces."""
        sep = "" if len(self.faces) < 10 else "_"
        return tuple("c" + sep.join(map(str, sorted(_pattern(c)))) for c in self.checks)

    def syndrome(self, flips: int) -> tuple[int, ...]:
        return tuple(-1 if (flips & check).bit_count() & 1 else 1 for check in self.checks)

    def flips(self, outcomes: OutcomeRecord) -> int:
        """Bitmask of the faces whose outcome is -1; a face without an outcome raises KeyError."""
        values = outcomes.outcomes
        return sum(1 << i for i, face in enumerate(self.faces) if values[face] == -1)

    def flipped(self, flips: int) -> bool:
        """Whether ``flips`` flips the protected surface's outcome product."""
        return bool((flips & self.surface).bit_count() & 1)

    def fails(self, flips: int) -> bool:
        """Whether the protected product is still flipped after decoding."""
        return self.flipped(flips ^ self.leaders[self.syndrome(flips)])

    @cached_property
    def tables(self) -> np.ndarray:
        """Rows protected, unprotected: failure per flip bitmask, 2^F entries each."""
        masks = range(1 << len(self.faces))
        tables = np.array([list(map(self.fails, masks)), list(map(self.flipped, masks))], np.int64)
        tables.setflags(write=False)  # cached and shared by every caller
        return tables


def build_code(cx: CellComplex, surface) -> TopologicalCode:
    """The code of ``cx`` that protects ``surface``, a closed and nontrivial set of face names.

    Each syndrome's decoder entry is its first flip pattern in weight order; a
    tie at that weight is a decoding ambiguity and raises instead of being broken.
    """
    faces = cx.cells(2)
    if len(faces) > MAX_CODE_FACES:
        raise CapacityError(f"{len(faces)} faces exceed the decoder cap of {MAX_CODE_FACES}")
    chain = cx.chain(2, surface)
    if not is_closed(chain, cx):
        raise ValueError(f"surface {sorted(chain.cells)} is not closed")
    if not homology_class_key(chain, cx):
        raise ValueError(f"surface {sorted(chain.cells)} bounds volumes, so it protects nothing")
    surface_mask = sum(1 << i for i, f in enumerate(faces) if f in chain.cells)
    leaders: dict[tuple[int, ...], int] = {}
    code = TopologicalCode(cx, faces, volume_boundary_masks(cx), surface_mask, leaders)
    for flips in sorted(range(1 << len(faces)), key=int.bit_count):
        best = leaders.setdefault(code.syndrome(flips), flips)
        if best != flips and best.bit_count() == flips.bit_count():
            raise AssertionError(f"minimum-weight tie for syndrome {code.syndrome(flips)}")
    return code


G8_CODE = build_code(build_g8_complex(), G8_PROTECTED_SURFACE)


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")


def sample_errors(p: float, rng: np.random.Generator) -> frozenset:
    """Face numbers of the g8 faces, each flipped independently with probability p."""
    _check_probability(p)
    draws = rng.random(len(G8_CODE.faces))
    return frozenset(q for q, u in enumerate(draws, 1) if u < p)


def extract_syndrome(outcomes: OutcomeRecord) -> tuple[int, ...]:
    """The g8 syndrome (lambda1 lambda2, lambda2 lambda5, lambda3 lambda6, lambda3 lambda4)."""
    return G8_CODE.syndrome(G8_CODE.flips(outcomes))


def decode_and_correct(outcomes: OutcomeRecord) -> tuple[int, frozenset]:
    """Corrected protected product lambda5 lambda6 and the correction used, applied classically."""
    leader = G8_CODE.leaders[extract_syndrome(outcomes)]
    return -1 if G8_CODE.flipped(G8_CODE.flips(outcomes) ^ leader) else 1, _pattern(leader)


# ----------------------------------------------------------------------
# analytic curves and the enumeration oracle


def analytic_unprotected(p: float) -> float:
    """Error rate of the bare two-qubit correlation: 2p(1-p)."""
    _check_probability(p)
    return 2.0 * p * (1.0 - p)


def analytic_protected(p: float) -> float:
    """Residual error rate after decoding, summed over the failing patterns.

    6 of weight 2, all 20 of weight 3, 6 of weight 4: no cancellation at tiny p.
    """
    _check_probability(p)
    q = 1.0 - p
    return 6.0 * p**2 * q**4 + 20.0 * p**3 * q**3 + 6.0 * p**4 * q**2


def exact_enumeration(p: float, code: TopologicalCode = G8_CODE) -> float:
    """Failure probability summed over all 2^F flip patterns through the decoder.

    Independent oracle for :func:`analytic_protected`: every pattern runs
    the syndrome -> decode -> correct map of the code.
    """
    _check_probability(p)
    weights = np.bitwise_count(np.flatnonzero(code.tables[0])).tolist()
    return sum(p**w * (1.0 - p) ** (len(code.faces) - w) for w in weights)


# ----------------------------------------------------------------------
# Monte Carlo


def run_pattern(
    pattern, rng: np.random.Generator, engine: str = "tableau"
) -> tuple[int, frozenset, OutcomeRecord]:
    """Inject a fixed pattern of Z flips, read out in X, decode: the sweep's readout on one row.

    Returns (corrected protected product, correction, outcome record).
    """
    if not set(pattern) <= set(range(1, len(G8_CODE.faces) + 1)):
        raise ValueError(f"unknown face numbers in {sorted(pattern)}")
    flips = np.array([[q in pattern for q in range(1, len(G8_CODE.faces) + 1)]])  # face q is qubit q - 1
    state = G8_CODE._state(engine)
    outcomes = dict(zip(state.graph.vertices, state.backend.readout_x(rng, flips)[0].tolist()))
    record = OutcomeRecord(outcomes, "x")
    corrected, correction = decode_and_correct(record)
    return corrected, correction, record


def simulate_trial(
    p: float, rng: np.random.Generator, engine: str = "tableau"
) -> tuple[bool, bool, frozenset]:
    """One full trial: sample flips with probability p, inject, read out, decode.

    Returns (protected correlation failed, unprotected correlation failed,
    sampled pattern).
    """
    pattern = sample_errors(p, rng)
    corrected, _, record = run_pattern(pattern, rng, engine)
    return corrected == -1, G8_CODE.flipped(G8_CODE.flips(record)), pattern


# Trials per block of each engine, so memory does not grow with trials
_BLOCKS = {"fast": 1 << 16, "tableau": 1 << 12, "dense": 1 << 8}


def _count_failures(
    engine: str, p: float, trials: int, seed: int, point_index: int,
    code: TopologicalCode = G8_CODE,
) -> tuple[int, int]:
    """(protected, unprotected) failures of ``trials`` trials at one grid point on ``engine``.

    Trial t's Z flips are row t of ``philox_generator(seed, point_index)``, F doubles per
    trial. Z flips commute with the X readout products, so ``fast`` looks the flips up in
    ``code.tables`` directly. A state engine reads each block out through its backend's
    ``readout_x``, drawing the random X outcomes from ``(seed, point_index, 1)``; those
    flip no check and not the surface, so the faces it reads as -1 give the same counts.
    """
    n = len(code.faces)
    flip_rng = philox_generator(seed, point_index)
    backend = None if engine == "fast" else code._state(engine).backend
    outcome_rng = None if backend is None else philox_generator(seed, point_index, 1)
    bits = (1 << np.arange(n)).astype(np.min_scalar_type((1 << n) - 1))
    patterns = len(code.tables[0])
    counts = np.zeros(patterns, dtype=np.int64)
    block = _BLOCKS[engine]
    for start in range(0, trials, block):
        flips = flip_rng.random((min(block, trials - start), n)) < p
        if backend is not None:
            flips = backend.readout_x(outcome_rng, flips)[:, :n] < 0  # face i is qubit i
        counts += np.bincount(flips.view(np.uint8) @ bits, minlength=patterns)  # column i is bit i
    return tuple((code.tables @ counts).tolist())


def _sweep_job(args) -> tuple[int, int]:
    point_index, p, trials, seed, engine = args
    return _count_failures(engine, p, trials, seed, point_index)


@dataclass(frozen=True)
class SweepPoint:
    """Monte-Carlo estimates and analytic values at one error probability."""

    p: float
    trials: int
    protected_failures: int
    unprotected_failures: int

    @property
    def mc_protected(self) -> float:
        return self.protected_failures / self.trials

    @property
    def se_protected(self) -> float:
        return binomial_se(self.mc_protected, self.trials)

    @property
    def mc_unprotected(self) -> float:
        return self.unprotected_failures / self.trials

    @property
    def se_unprotected(self) -> float:
        return binomial_se(self.mc_unprotected, self.trials)

    @property
    def analytic_protected(self) -> float:
        return analytic_protected(self.p)

    @property
    def analytic_unprotected(self) -> float:
        return analytic_unprotected(self.p)


def binomial_se(rate: float, trials: int) -> float:
    """Binomial standard error of a rate in [0, 1] over ``trials`` draws."""
    return math.sqrt(rate * (1.0 - rate) / trials)


def monte_carlo_sweep(
    p_values,
    trials: int,
    seed: int,
    engine: str = "fast",
    workers: int = 1,
) -> list[SweepPoint]:
    """Estimate both error rates across a probability grid.

    Each grid point draws from its own (seed, point) Philox streams, so the
    output is bitwise identical for any worker count and any completion
    order, and every engine gives the same counts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if engine not in SWEEP_ENGINES:
        raise ValueError(f"engine must be one of {SWEEP_ENGINES}, got {engine!r}")
    p_values = [float(p) for p in p_values]
    for p in p_values:
        _check_probability(p)
    jobs = [(i, p, trials, seed, engine) for i, p in enumerate(p_values)]
    # a fork pool starts all its workers at once, so never more than the jobs or usable CPUs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool_size = min(workers, len(jobs), cpus or 1)
    if pool_size > 1:
        # imported here, as it loads multiprocessing, which a serial sweep never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            counts = list(pool.map(_sweep_job, jobs))  # in job order, whatever the completion order
    else:
        counts = list(map(_sweep_job, jobs))
    return [SweepPoint(p, trials, *pair) for p, pair in zip(p_values, counts)]
