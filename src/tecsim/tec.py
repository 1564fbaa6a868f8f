"""Topological error correction on the cluster state of a cell complex.

:func:`build_code` derives the code from the complex: the volume boundaries
are the parity checks, a nontrivial closed surface carries the protected
correlation, and the decoder maps each syndrome to its unique minimum-weight
flip pattern. The eight-qubit demo (:data:`G8_CODE`) adds flip noise,
Monte-Carlo sweeps and the analytic error curves that enumeration reproduces.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cluster import ClusterState, OutcomeRecord, build_cluster, interaction_graph, measure_all
from .complexes import (
    G8_PROTECTED_SURFACE,
    CellComplex,
    _gf2_echelon,
    build_g8_complex,
    homology_class_key,
    is_closed,
    volume_boundary_masks,
)
from .errors import CapacityError
from .rng import _KEY_BLOCK, philox_generator, trial_words
from .tableau import _graph_readout_x

SWEEP_ENGINES = ("fast", "tableau", "dense")

MAX_CODE_FACES = 20  # the decoder enumerates all 2^F flip patterns of F faces


def _pattern(mask: int) -> frozenset:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True, eq=False)
class TopologicalCode:
    """Parity checks, protected surface and lookup decoder of a cell complex.

    Flip patterns, checks and the surface are face bitmasks: bit i is
    ``faces[i]``, face number i + 1 in the public frozenset form. A syndrome
    holds one +-1 per check, the product of the face outcomes around that
    volume; ``leaders`` maps each to its unique minimum-weight flip bitmask.
    """

    faces: tuple[str, ...]
    checks: tuple[int, ...]
    surface: int
    leaders: dict[tuple[int, ...], int]

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
    surface_mask = sum(1 << faces.index(f) for f in chain.cells)
    leaders: dict[tuple[int, ...], int] = {}
    code = TopologicalCode(faces, volume_boundary_masks(cx), surface_mask, leaders)
    for flips in sorted(range(1 << len(faces)), key=int.bit_count):
        best = leaders.setdefault(code.syndrome(flips), flips)
        if best != flips and best.bit_count() == flips.bit_count():
            raise AssertionError(f"minimum-weight tie for syndrome {code.syndrome(flips)}")
    return code


G8_CODE = build_code(build_g8_complex(), G8_PROTECTED_SURFACE)


@dataclass(frozen=True)
class NoiseModel:
    """Independent Z-flip noise on a set of distinct g8 face qubits, by face number."""

    p: float
    targets: tuple[int, ...] = tuple(range(1, len(G8_CODE.faces) + 1))

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"flip probability must be in [0, 1], got {self.p}")
        if not self.targets:
            raise ValueError("noise model needs at least one target qubit")
        unknown = [q for q in self.targets if not 1 <= q <= len(G8_CODE.faces)]
        if unknown:
            raise ValueError(f"unknown target qubits {sorted(unknown)}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate target qubits in {self.targets}")


def sample_errors(model: NoiseModel, rng: np.random.Generator) -> frozenset:
    """Include each target independently with probability p."""
    draws = rng.random(len(model.targets))
    return frozenset(q for q, u in zip(model.targets, draws) if u < model.p)


def extract_syndrome(outcomes: OutcomeRecord) -> tuple[int, ...]:
    """The g8 syndrome (lambda1 lambda2, lambda2 lambda5, lambda3 lambda6, lambda3 lambda4)."""
    return G8_CODE.syndrome(G8_CODE.flips(outcomes))


def decode_and_correct(outcomes: OutcomeRecord) -> tuple[int, frozenset]:
    """Corrected protected product lambda5 lambda6 and the correction used, applied classically."""
    leader = G8_CODE.leaders[extract_syndrome(outcomes)]
    return -1 if G8_CODE.flipped(G8_CODE.flips(outcomes) ^ leader) else 1, _pattern(leader)


# ----------------------------------------------------------------------
# analytic curves and the enumeration oracle


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")


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

@lru_cache(maxsize=None)
def _base_state(engine: str) -> ClusterState:
    """The g8 cluster state on ``engine``; callers copy it."""
    return build_cluster(interaction_graph(build_g8_complex()), engine)


def run_pattern(
    pattern, rng: np.random.Generator, engine: str = "tableau"
) -> tuple[int, frozenset, OutcomeRecord]:
    """Inject a fixed pattern of Z flips, read out in X, decode.

    Returns (corrected protected product, correction, outcome record).
    """
    if not set(pattern) <= set(NoiseModel.targets):
        raise ValueError(f"unknown face numbers in {sorted(pattern)}")
    state = _base_state(engine).copy()
    for q in pattern:
        state.backend.apply_gate("Z", state.index(G8_CODE.faces[q - 1]))
    record = measure_all(state, rng, "x")
    corrected, correction = decode_and_correct(record)
    return corrected, correction, record


def simulate_trial(
    model: NoiseModel, rng: np.random.Generator, engine: str = "tableau"
) -> tuple[bool, bool, frozenset]:
    """One full trial: sample noise, inject, read out, decode.

    Returns (protected correlation failed, unprotected correlation failed,
    sampled pattern).
    """
    pattern = sample_errors(model, rng)
    corrected, _, record = run_pattern(pattern, rng, engine)
    return corrected == -1, G8_CODE.flipped(G8_CODE.flips(record)), pattern


# Trials drawn per chunk by the fast kernel, so its memory does not grow with trials.
_FAST_CHUNK = 1 << 16


def _count_failures_fast(
    p: float, trials: int, seed: int, point_index: int, code: TopologicalCode = G8_CODE
) -> tuple[int, int]:
    """Vectorized classical-outcome path: count the 2^F flip patterns, then look up.

    Z flips commute with X readout products, so a trial's verdicts depend on
    its flip pattern alone; tests pin both tables per pattern against the
    tableau pipeline. The point's one Philox stream is read in chunks, the
    same doubles in the same order as one ``(trials, F)`` draw.
    """
    n = len(code.faces)
    rng = philox_generator(seed, point_index)
    bits = (1 << np.arange(n)).astype(np.min_scalar_type((1 << n) - 1))
    def face_flips(p, _seed, _point, _start, size):  # blocks come in trial order
        return (rng.random((size, n)) < p).view(np.uint8) @ bits  # column i <-> face bit i
    return _count_face_flips(face_flips, _FAST_CHUNK, p, trials, seed, point_index, code)


def _tableau_readout(p: float, seed: int, point_index: int, start: int, size: int) -> np.ndarray:
    """X outcomes (+-1, in qubit order) of trials ``start .. start + size - 1`` on the tableau engine.

    The block runs :func:`_graph_readout_x`, the rule ``StabilizerTableau.readout_x``
    runs for one trial, on bit columns with one entry per trial. Each trial reads from
    its own stream what ``simulate_trial`` draws: ``random(F)``, one double per raw word,
    for the Z flips, which set the face qubits' signs, then ``integers(0, 2)`` per random
    outcome, which is bit 31 of the low and then of the high 32-bit half of the next words.
    """
    state = _base_state("tableau")
    masks = [row.z_bits for row in state.backend.stabilizers()]
    faces = [state.index(face) for face in G8_CODE.faces]
    randoms = len(masks) - len(_gf2_echelon(masks)[1])
    words = trial_words(seed, point_index, start, size, len(faces) + -(-randoms // 2))
    flips = ((words[:, : len(faces)] >> np.uint64(11)) * 2.0**-53 < p).T.view(np.int8)
    signs = [np.zeros(size, np.int8)] * len(masks)  # the graph state's signs are +1
    for q, column in zip(faces, flips):
        signs[q] = column  # a Z on qubit q flips stabilizer q alone
    halves = (words[:, len(faces) :, None] >> np.array([31, 63], np.uint64)) & np.uint64(1)
    draws = iter(halves.reshape(size, -1).T.astype(np.int8))
    return (1 - 2 * np.array(_graph_readout_x(masks, signs, draws.__next__))).T


def _count_face_flips(
    face_flips, block: int, p: float, trials: int, seed: int, point_index: int,
    code: TopologicalCode = G8_CODE,
) -> tuple[int, int]:
    """Failure counts from ``face_flips(p, seed, point_index, start, size)``, the observed
    face-flip bitmasks of each block in trial order, counted and looked up in ``code.tables``."""
    patterns = len(code.tables[0])
    counts = np.zeros(patterns, dtype=np.int64)
    for start in range(0, trials, block):
        flips = face_flips(p, seed, point_index, start, min(block, trials - start))
        counts += np.bincount(flips, minlength=patterns)
    return tuple((code.tables @ counts).tolist())


# Trials per dense block: a divisor of _KEY_BLOCK; a (256, 2^8) complex block is 1 MiB.
_DENSE_BLOCK = 256


def _dense_readout(p: float, seed: int, point_index: int, start: int, size: int) -> np.ndarray:
    """X outcomes (+-1, in qubit order) of trials ``start .. start + size - 1`` on the dense engine.

    The block runs as one ``(size, 2^n)`` amplitude array. Each trial reads F + n raw
    words of its own stream, as ``simulate_trial`` draws them: ``random(F)`` for its Z
    flips, sign vectors on the cached graph state, then one ``random()`` per random
    outcome. Each X measurement is ``StateVector.measure_pauli``'s, row by row: the
    expectation and its thresholds, a draw only where the outcome is random, the projection.
    """
    state = _base_state("dense")
    n, faces = state.graph.qubit_count, len(G8_CODE.faces)
    draws = (trial_words(seed, point_index, start, size, faces + n) >> np.uint64(11)) * 2.0**-53
    flipped = (draws[:, :faces] < p) @ [1 << (n - 1 - state.index(f)) for f in G8_CODE.faces]
    parity = np.bitwise_count(flipped[:, None] & np.arange(1 << n)) & 1  # qubit 0 is the top bit
    amps = state.backend.amps * (1.0 - 2.0 * parity)
    cursor = np.full(size, faces)  # each row's next unread word
    outcomes = np.empty((size, n), dtype=np.int64)
    for q in range(n):
        pairs = amps.reshape(size, 1 << q, 2, -1)  # X_q swaps pairs[:, :, 0] and pairs[:, :, 1]
        re = pairs.view(np.float64)
        expect = 2.0 * np.einsum("iab,iab->i", re[:, :, 0], re[:, :, 1])  # Re <psi|X_q|psi>
        outcome = np.where(expect > 1.0 - 1e-9, 1, np.where(expect < -1.0 + 1e-9, -1, 0))
        rows = np.flatnonzero(outcome == 0)
        draw = draws[rows, cursor[rows]]
        cursor[rows] += 1
        outcome[rows] = sign = np.where(draw < 0.5 * (1.0 + expect[rows]), 1, -1)
        # 0.5 (psi + sign X_q psi), whose two halves differ by the factor sign
        sign = sign[:, None, None]
        half = 0.5 * (pairs[rows, :, 0] + sign * pairs[rows, :, 1])
        half /= np.sqrt(0.5 * (1.0 + sign * expect[rows, None, None]))
        pairs[rows, :, 0], pairs[rows, :, 1] = half, sign * half
        outcomes[:, q] = outcome
    return outcomes


def _count_block_failures(
    readout, block: int, p: float, trials: int, seed: int, point_index: int
) -> tuple[int, int]:
    """Failure counts of a state engine from ``readout(p, seed, point_index, start, size)``,
    the X outcomes (+-1, in qubit order) of each block of trials; both engines share one graph."""
    faces = [_base_state("tableau").index(face) for face in G8_CODE.faces]
    def face_flips(*args):
        return (readout(*args)[:, faces] < 0) @ (1 << np.arange(len(faces)))
    return _count_face_flips(face_flips, block, p, trials, seed, point_index)


def _count_failures_tableau(p: float, trials: int, seed: int, point_index: int) -> tuple[int, int]:
    """Tableau path: the counts of a ``simulate_trial`` loop, ``_KEY_BLOCK`` trials at a time."""
    return _count_block_failures(_tableau_readout, _KEY_BLOCK, p, trials, seed, point_index)


def _count_failures_dense(p: float, trials: int, seed: int, point_index: int) -> tuple[int, int]:
    """Dense oracle path: the counts of a ``simulate_trial(..., "dense")`` loop, in blocks."""
    return _count_block_failures(_dense_readout, _DENSE_BLOCK, p, trials, seed, point_index)


_KERNELS = {
    "fast": _count_failures_fast,
    "tableau": _count_failures_tableau,
    "dense": _count_failures_dense,
}


def _sweep_job(args) -> tuple[int, int]:
    point_index, p, trials, seed, engine = args
    return _KERNELS[engine](p, trials, seed, point_index)


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

    Each grid point draws from its own (seed, point) Philox stream, so the
    output is bitwise identical for any worker count and any completion
    order.
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
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            counts = list(pool.map(_sweep_job, jobs))  # in job order, whatever the completion order
    else:
        counts = list(map(_sweep_job, jobs))
    return [SweepPoint(p, trials, *pair) for p, pair in zip(p_values, counts)]
