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
    for w in range(7):
        for combo in combinations(FACE_QUBITS, w):
            by_syndrome.setdefault(syndrome_of_pattern(frozenset(combo)), []).append(
                frozenset(combo)
            )
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
    """Residual error rate after decoding, closed form."""
    _check_probability(p)
    q = 1.0 - p
    return (
        1.0
        - (q**6 + p**6)
        - (6.0 * p * q**5 + 6.0 * q * p**5)
        - (9.0 * p**2 * q**4 + 9.0 * q**2 * p**4)
    )


def _pattern_fails(pattern: frozenset) -> bool:
    corrected, _ = decode_and_correct(representative_record(pattern))
    return corrected == -1


@lru_cache(maxsize=1)
def _failure_patterns() -> tuple[frozenset, ...]:
    out = []
    for w in range(7):
        for combo in combinations(FACE_QUBITS, w):
            if _pattern_fails(frozenset(combo)):
                out.append(frozenset(combo))
    return tuple(out)


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
    for w in range(7):
        for combo in combinations(FACE_QUBITS, w):
            if frozenset(combo) not in failures:
                profile[w] = profile.get(w, 0) + 1
    return profile


# ----------------------------------------------------------------------
# Monte Carlo

_STATE_CACHE: dict[tuple[str, str], ClusterState] = {}


def _base_state(engine: str, frame: str) -> ClusterState:
    key = (engine, frame)
    if key not in _STATE_CACHE:
        graph = interaction_graph(build_g8_complex())
        state = build_cluster(graph, engine)
        if frame == "x":
            if engine == "tableau":
                for q in range(graph.qubit_count):
                    state.tableau.h(q)
            else:
                for q in range(graph.qubit_count):
                    state.vector.apply_gate("H", q)
        _STATE_CACHE[key] = state
    return _STATE_CACHE[key]


def run_pattern(
    pattern, rng: np.random.Generator, engine: str = "tableau", frame: str = "z"
) -> tuple[int, frozenset, OutcomeRecord]:
    """Inject a fixed flip pattern, read out, decode.

    Returns (corrected protected product, correction, outcome record).
    The readout basis follows the frame: X readout for Z flips on the
    graph state, Z readout for X flips on the rotated state.
    """
    if engine not in ("tableau", "dense"):
        raise ValueError(f"trial engine must be tableau or dense, got {engine!r}")
    if frame not in ("z", "x"):
        raise ValueError(f"frame must be 'z' or 'x', got {frame!r}")
    state = _base_state(engine, frame).copy()
    flip_gate = "Z" if frame == "z" else "X"
    for q in pattern:
        i = state.index(_face_label(q))
        if engine == "tableau":
            state.tableau.apply_gate(flip_gate, i)
        else:
            state.vector.apply_gate(flip_gate, i)
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


@lru_cache(maxsize=1)
def _correction_parity_table() -> np.ndarray:
    """Per syndrome index, the parity of the correction on qubits {5, 6}."""
    table = build_decode_table()
    out = np.zeros(16, dtype=np.uint8)
    for syndrome, correction in table.items():
        idx = sum((1 << i) for i, c in enumerate(syndrome) if c == -1)
        out[idx] = len(correction & set(PROTECTED_QUBITS)) % 2
    return out


def _count_failures_fast(p: float, trials: int, seed: int, point_index: int) -> tuple[int, int]:
    """Vectorized classical-outcome path: flip ideal +1 outcomes per pattern.

    Z flips commute classically with X readout products, so sampling the
    pattern and flipping signs reproduces the engine statistics exactly;
    the equivalence is pinned by tests against the tableau pipeline.
    """
    rng = philox_generator(seed, point_index)
    flips = rng.random((trials, 6)) < p  # column q-1 <-> face qubit q
    idx = np.zeros(trials, dtype=np.uint8)
    for bit, (a, b) in enumerate(SYNDROME_PAIRS):
        idx |= (flips[:, a - 1] ^ flips[:, b - 1]).astype(np.uint8) << bit
    corr56 = _correction_parity_table()[idx].astype(bool)
    unprotected_fail = flips[:, 4] ^ flips[:, 5]
    protected_fail = unprotected_fail ^ corr56
    return int(protected_fail.sum()), int(unprotected_fail.sum())


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
    """Binomial standard error of ``rate`` over ``trials`` draws.

    A rate that roundoff put a hair outside [0, 1] (the closed form gives
    about -1e-16 at p = 1e-9) has zero spread.
    """
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)


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
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
