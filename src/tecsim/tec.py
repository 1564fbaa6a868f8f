"""Topological error correction on the cluster state of a cell complex.

:func:`build_code` derives the code from the complex: the volume boundaries
are the parity checks, a nontrivial closed surface carries the protected
correlation, and the decoder maps each syndrome to its unique minimum-weight
flip pattern. The eight-qubit demo (:data:`G8_CODE`) adds flip noise,
Monte-Carlo sweeps and the analytic error curves that enumeration reproduces.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cluster import ClusterState, OutcomeRecord, build_cluster, interaction_graph, measure_all
from .complexes import (
    G8_PROTECTED_SURFACE,
    CellComplex,
    build_g8_complex,
    homology_class_key,
    is_closed,
    volume_boundary_masks,
)
from .errors import CapacityError
from .rng import philox_generator, trial_generators

SWEEP_ENGINES = ("fast", "tableau", "dense")

MAX_CODE_FACES = 20  # the decoder enumerates all 2^F flip patterns of F faces


def _mask(pattern) -> int:
    return sum(1 << (q - 1) for q in pattern)


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
        """Each check's "c" and face numbers: c12, c25, c36, c34 for g8."""
        return tuple("c" + "".join(map(str, sorted(_pattern(c)))) for c in self.checks)

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
    """Independent flip noise on a set of g8 face qubits, by face number.

    ``frame`` selects the Pauli applied: "z" flips Z on the graph state,
    "x" flips X on the Hadamard-rotated (experimental) state; the two give
    identical readout statistics.
    """

    p: float
    targets: tuple[int, ...] = tuple(range(1, len(G8_CODE.faces) + 1))
    frame: str = "z"

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"flip probability must be in [0, 1], got {self.p}")
        if not self.targets:
            raise ValueError("noise model needs at least one target qubit")
        unknown = [q for q in self.targets if not 1 <= q <= len(G8_CODE.faces)]
        if unknown:
            raise ValueError(f"unknown target qubits {sorted(unknown)}")
        if self.frame not in ("z", "x"):
            raise ValueError(f"frame must be 'z' or 'x', got {self.frame!r}")


def theta_to_p(theta: float) -> float:
    """Half-wave-plate angle to bit-flip probability: sin^2(2 theta)."""
    return math.sin(2.0 * theta) ** 2


def sample_errors(model: NoiseModel, rng: np.random.Generator) -> frozenset:
    """Include each target independently with probability p."""
    draws = rng.random(len(model.targets))
    return frozenset(q for q, u in zip(model.targets, draws) if u < model.p)


def extract_syndrome(outcomes: OutcomeRecord) -> tuple[int, ...]:
    """The g8 syndrome (lambda1 lambda2, lambda2 lambda5, lambda3 lambda6, lambda3 lambda4)."""
    return G8_CODE.syndrome(G8_CODE.flips(outcomes))


@lru_cache(maxsize=1)
def build_decode_table() -> dict[tuple[int, ...], frozenset]:
    """Map every g8 syndrome to its unique minimum-weight flip pattern."""
    return {syndrome: _pattern(leader) for syndrome, leader in G8_CODE.leaders.items()}


def decode_and_correct(outcomes: OutcomeRecord) -> tuple[int, frozenset]:
    """Corrected protected product lambda5 lambda6 and the correction used, applied classically."""
    correction = build_decode_table()[extract_syndrome(outcomes)]
    return -1 if G8_CODE.flipped(G8_CODE.flips(outcomes) ^ _mask(correction)) else 1, correction


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


def success_weight_profile() -> dict[int, int]:
    """Pattern count per weight among the g8 decoder's success set."""
    weights = np.bitwise_count(np.flatnonzero(G8_CODE.tables[0] == 0)).tolist()
    return dict(sorted(Counter(weights).items()))


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
    if not set(pattern) <= set(NoiseModel.targets):
        raise ValueError(f"unknown face numbers in {sorted(pattern)}")
    state = _base_state(engine, frame).copy()
    flip_gate = "Z" if frame == "z" else "X"
    for q in pattern:
        state.backend.apply_gate(flip_gate, state.index(G8_CODE.faces[q - 1]))
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
    counts = np.zeros(1 << n, dtype=np.int64)
    for start in range(0, trials, _FAST_CHUNK):
        flips = rng.random((min(_FAST_CHUNK, trials - start), n)) < p  # column i <-> face bit i
        counts += np.bincount(flips.view(np.uint8) @ bits, minlength=1 << n)
    return tuple((code.tables @ counts).tolist())


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
