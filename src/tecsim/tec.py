"""Topological error correction on the eight-qubit cluster state.

Engineered flip noise on the six face qubits, syndrome extraction from
X-readout products, lookup-table decoding, and the analytic error-rate
curves the decoder must reproduce. The decoder is the total minimum-weight
completion of the six single-error syndrome rows; its 16 entries are
derived, checked for uniqueness, and validated against the closed-form
residual error by exhaustive enumeration.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .cluster import ClusterState, OutcomeRecord, build_cluster, interaction_graph, measure_all
from .complexes import build_g8_complex
from .rng import philox_generator, trial_generators

FACE_QUBITS = (1, 2, 3, 4, 5, 6)
PROTECTED_QUBITS = (5, 6)
SYNDROME_PAIRS = ((1, 2), (2, 5), (3, 6), (3, 4))

SWEEP_ENGINES = ("fast", "tableau", "dense")


class SyndromeVector(NamedTuple):
    """The four volume-boundary correlations, each +-1."""

    c12: int
    c25: int
    c36: int
    c34: int


ErrorPattern = frozenset  # subset of FACE_QUBITS

# all 64 flip patterns, by weight then lexicographically
_ALL_PATTERNS = tuple(frozenset(c) for w in range(7) for c in combinations(FACE_QUBITS, w))


@dataclass(frozen=True)
class NoiseModel:
    """Independent flip noise on a set of face qubits.

    ``frame`` selects the Pauli applied: "z" flips Z on the graph state,
    "x" flips X on the Hadamard-rotated (experimental) state; the two give
    identical readout statistics.
    """

    p: float
    targets: tuple[int, ...] = FACE_QUBITS
    frame: str = "z"

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"flip probability must be in [0, 1], got {self.p}")
        if not self.targets:
            raise ValueError("noise model needs at least one target qubit")
        unknown = set(self.targets) - set(FACE_QUBITS)
        if unknown:
            raise ValueError(f"unknown target qubits {sorted(unknown)}")
        if self.frame not in ("z", "x"):
            raise ValueError(f"frame must be 'z' or 'x', got {self.frame!r}")


def theta_to_p(theta: float) -> float:
    """Half-wave-plate angle to bit-flip probability: sin^2(2 theta)."""
    return math.sin(2.0 * theta) ** 2


def sample_errors(model: NoiseModel, rng: np.random.Generator) -> ErrorPattern:
    """Include each target independently with probability p."""
    draws = rng.random(len(model.targets))
    return frozenset(q for q, u in zip(model.targets, draws) if u < model.p)


def _face_label(q: int) -> str:
    return f"f{q}"


def syndrome_of_pattern(pattern) -> SyndromeVector:
    """Deterministic syndrome of a known flip pattern."""
    pattern = frozenset(pattern)
    return SyndromeVector(
        *(-1 if len(pattern & {a, b}) % 2 else 1 for a, b in SYNDROME_PAIRS)
    )


def representative_record(pattern) -> OutcomeRecord:
    """An X-readout record consistent with the given flip pattern.

    Individual outcomes are random in a real run; only their products are
    fixed, so the all-(+1) assignment with flips applied is a valid
    representative for every product-level quantity.
    """
    pattern = frozenset(pattern)
    outcomes = {_face_label(q): -1 if q in pattern else 1 for q in FACE_QUBITS}
    return OutcomeRecord(outcomes, {q: "x" for q in outcomes})


def extract_syndrome(outcomes: OutcomeRecord) -> SyndromeVector:
    """(lambda1 lambda2, lambda2 lambda5, lambda3 lambda6, lambda3 lambda4)."""
    return SyndromeVector(
        *(
            outcomes.value(_face_label(a)) * outcomes.value(_face_label(b))
            for a, b in SYNDROME_PAIRS
        )
    )


@lru_cache(maxsize=1)
def build_decode_table() -> dict[SyndromeVector, frozenset]:
    """Map every syndrome to its unique minimum-weight flip pattern.

    Built by enumerating all 64 patterns; a tie at minimum weight would be
    a decoding ambiguity and raises instead of being broken silently.
    """
    by_syndrome: dict[SyndromeVector, list[frozenset]] = {}
    for pattern in _ALL_PATTERNS:
        by_syndrome.setdefault(syndrome_of_pattern(pattern), []).append(pattern)
    table: dict[SyndromeVector, frozenset] = {}
    for syndrome, patterns in by_syndrome.items():
        best = min(len(p) for p in patterns)
        minimal = [p for p in patterns if len(p) == best]
        if len(minimal) != 1:
            raise AssertionError(f"minimum-weight tie for syndrome {syndrome}")
        table[syndrome] = minimal[0]
    if len(table) != 16:
        raise AssertionError(f"decode table has {len(table)} entries, expected 16")
    return table


def decode_and_correct(outcomes: OutcomeRecord) -> tuple[int, frozenset]:
    """Corrected protected product lambda5 lambda6 and the correction used.

    The correction is applied classically: one sign flip per corrected
    qubit that lies on the protected pair.
    """
    correction = build_decode_table()[extract_syndrome(outcomes)]
    protected = outcomes.product(_face_label(q) for q in PROTECTED_QUBITS)
    if len(correction & set(PROTECTED_QUBITS)) % 2:
        protected = -protected
    return protected, correction


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


@lru_cache(maxsize=1)
def _failure_patterns() -> tuple[frozenset, ...]:
    """The flip patterns whose corrected protected product is -1."""
    return tuple(p for p in _ALL_PATTERNS if decode_and_correct(representative_record(p))[0] == -1)


def exact_enumeration(p: float) -> float:
    """Failure probability summed over all 64 patterns through the decoder.

    Independent oracle for :func:`analytic_protected`: every pattern runs
    the real inject -> syndrome -> decode -> correct pipeline.
    """
    _check_probability(p)
    total = 0.0
    for pattern in _failure_patterns():
        w = len(pattern)
        total += p**w * (1.0 - p) ** (6 - w)
    return total


def success_weight_profile() -> dict[int, int]:
    """Pattern count per weight among the decoder's success set."""
    profile: dict[int, int] = {}
    failures = set(_failure_patterns())
    for pattern in _ALL_PATTERNS:
        if pattern not in failures:
            profile[len(pattern)] = profile.get(len(pattern), 0) + 1
    return profile


# ----------------------------------------------------------------------
# Monte Carlo

@lru_cache(maxsize=None)
def _base_state(engine: str, frame: str) -> ClusterState:
    """The g8 cluster state, Hadamard-rotated in the x frame; callers copy it."""
    state = build_cluster(interaction_graph(build_g8_complex()), engine)
    if frame == "x":
        for q in range(state.graph.qubit_count):
            state.backend.apply_gate("H", q)
    return state


def run_pattern(
    pattern, rng: np.random.Generator, engine: str = "tableau", frame: str = "z"
) -> tuple[int, frozenset, OutcomeRecord]:
    """Inject a fixed flip pattern, read out, decode.

    Returns (corrected protected product, correction, outcome record).
    The readout basis follows the frame: X readout for Z flips on the
    graph state, Z readout for X flips on the rotated state.
    """
    if frame not in ("z", "x"):
        raise ValueError(f"frame must be 'z' or 'x', got {frame!r}")
    state = _base_state(engine, frame).copy()
    flip_gate = "Z" if frame == "z" else "X"
    for q in pattern:
        state.backend.apply_gate(flip_gate, state.index(_face_label(q)))
    record = measure_all(state, rng, "x" if frame == "z" else "z")
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
    corrected, _, record = run_pattern(pattern, rng, engine, model.frame)
    unprotected = record.product(_face_label(q) for q in PROTECTED_QUBITS)
    return corrected == -1, unprotected == -1, pattern


# Trials drawn per chunk by the fast kernel, so its memory does not grow with trials.
_FAST_CHUNK = 1 << 16


@lru_cache(maxsize=1)
def _fast_failure_tables() -> np.ndarray:
    """Rows protected, unprotected: failure per 6-bit pattern index (bit q-1 <-> face q)."""
    failures = set(_failure_patterns())
    tables = np.zeros((2, 64), dtype=np.int64)
    for pattern in _ALL_PATTERNS:
        idx = sum(1 << (q - 1) for q in pattern)
        tables[:, idx] = pattern in failures, len(pattern & set(PROTECTED_QUBITS)) % 2
    tables.setflags(write=False)  # cached and shared by every caller
    return tables


def _count_failures_fast(p: float, trials: int, seed: int, point_index: int) -> tuple[int, int]:
    """Vectorized classical-outcome path: count the 64 flip patterns, then look up.

    Z flips commute with X readout products, so a trial's verdicts depend on
    its flip pattern alone; tests pin both tables per pattern against the
    tableau pipeline. The point's one Philox stream is read in chunks, the
    same doubles in the same order as one ``(trials, 6)`` draw.
    """
    rng = philox_generator(seed, point_index)
    bits = 1 << np.arange(6, dtype=np.uint8)
    counts = np.zeros(64, dtype=np.int64)
    for start in range(0, trials, _FAST_CHUNK):
        flips = rng.random((min(_FAST_CHUNK, trials - start), 6)) < p  # column q-1 <-> qubit q
        counts += np.bincount(flips.view(np.uint8) @ bits, minlength=64)
    return tuple((_fast_failure_tables() @ counts).tolist())


def _count_failures_engine(
    p: float, trials: int, seed: int, point_index: int, engine: str
) -> tuple[int, int]:
    model = NoiseModel(p)
    protected = unprotected = 0
    for rng in trial_generators(seed, point_index, trials):
        pf, uf, _ = simulate_trial(model, rng, engine)
        protected += pf
        unprotected += uf
    return protected, unprotected


def _sweep_job(args) -> tuple[int, int, int]:
    point_index, p, trials, seed, engine = args
    if engine == "fast":
        prot, unprot = _count_failures_fast(p, trials, seed, point_index)
    else:
        prot, unprot = _count_failures_engine(p, trials, seed, point_index, engine)
    return point_index, prot, unprot


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
    results: dict[int, tuple[int, int]] = {}
    if workers > 1 and len(jobs) > 1:
        # a fork pool starts all its workers at once, so never more than there are jobs
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            for idx, prot, unprot in pool.map(_sweep_job, jobs):
                results[idx] = (prot, unprot)
    else:
        for job in jobs:
            idx, prot, unprot = _sweep_job(job)
            results[idx] = (prot, unprot)
    return [
        SweepPoint(p, trials, results[i][0], results[i][1])
        for i, p in enumerate(p_values)
    ]
