"""Topological error correction on the cluster state of a cell complex.

:func:`build_code` derives the code from the complex in one numpy pass over the flip
patterns: the volume boundaries are the parity checks, a nontrivial closed surface carries
the protected correlation, the decoder maps each syndrome to its unique minimum-weight flip
pattern, and the verdicts' weight enumerators give the error rates. The code owns the
complex's cluster state, faces first, and its X reader, each built on first use per engine,
and reads every trial through it. The per-trial names and analytic curves here are the
eight-qubit demo :data:`G8_CODE`'s methods and rates. Monte-Carlo sweeps of any code follow.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .cluster import ENGINES, ClusterState, OutcomeRecord, build_cluster, interaction_graph
from .cluster import measure_all  # noqa: F401  perfbench/tracing.py patches tec.measure_all
from .complexes import (
    G8_PROTECTED_SURFACE,
    CellComplex,
    _gf2_echelon,
    _gf2_reduce,
    build_g8_complex,
    is_closed,
    volume_boundary_masks,
)
from .errors import CapacityError
from .rng import philox_generator

SWEEP_ENGINES = ("fast", *ENGINES)

MAX_CODE_FACES = 20  # the decoder enumerates all 2^F flip patterns of F faces


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")


def _pattern(mask: int) -> frozenset:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True, eq=False)
class TopologicalCode:
    """Parity checks, protected surface and lookup decoder of a cell complex.

    Flip patterns, checks and the surface are face bitmasks: bit i is ``faces[i]``, face number i + 1 in the
    public frozenset form, and qubit i of :meth:`state`. A syndrome holds one +-1 per check, the product of the
    face outcomes around that volume; its key sets bit j where the j-th of the r independent checks reads -1.
    Read-only, ``leaders[k]`` is key k's unique minimum-weight flip bitmask; ``cells[c, w]`` counts the weight-w
    patterns of class c = 2 * (protected fails) + (unprotected fails), and ``members`` lists them cell by cell,
    in ``cells.ravel()`` order, mask order inside each. ``enumerators`` has each verdict's A_0..A_m over its support.
    """

    complex: CellComplex = field(repr=False)
    faces: tuple[str, ...]
    checks: tuple[int, ...]
    independent: tuple[int, ...] = field(repr=False)  # the r checks' positions, in key bit order
    surface: int
    leaders: np.ndarray = field(repr=False)
    cells: np.ndarray = field(repr=False)
    members: np.ndarray = field(repr=False)
    enumerators: tuple[tuple[int, ...], ...]
    _states: dict[str, ClusterState] = field(default_factory=dict, init=False, repr=False)
    _readers: dict = field(default_factory=dict, init=False, repr=False)  # engine -> the shared state's X reader

    def rates(self, p: float) -> tuple[float, float]:
        """Protected and unprotected rates at p: A_w p^w (1 - p)^(m - w) summed from int 0 over A_w != 0."""
        _check_probability(p)
        q = 1.0 - p
        return tuple(sum(a * p**w * q ** (len(A) - 1 - w) for w, a in enumerate(A) if a) for A in self.enumerators)

    def state(self, engine: str = "tableau") -> ClusterState:
        """A copy of the complex's cluster state on ``engine``, so no caller can change another's."""
        return self._state(engine).copy()

    def _state(self, engine: str) -> ClusterState:
        """The shared state, built on first use, once per engine; only for readers that leave it as is."""
        if engine not in self._states:
            self._states[engine] = build_cluster(interaction_graph(self.complex), engine)
        return self._states[engine]

    def _reader(self, engine: str):
        """The shared state's X reader, its backend's ``reader()``, built on first use, once per engine."""
        return self._readers.get(engine) or self._readers.setdefault(engine, self._state(engine).backend.reader())

    @property
    def check_names(self) -> tuple[str, ...]:
        """Each check's "c" and face numbers: c12, c25, c36, c34 for g8, c9_10 past 9 faces."""
        sep = "" if len(self.faces) < 10 else "_"
        return tuple("c" + sep.join(map(str, sorted(_pattern(c)))) for c in self.checks)

    def syndrome(self, flips: int) -> tuple[int, ...]:
        return tuple(-1 if (flips & check).bit_count() & 1 else 1 for check in self.checks)

    def flips(self, outcomes: OutcomeRecord) -> int:
        """Bitmask of the faces whose outcome is -1; a face without an outcome raises KeyError."""
        return sum(1 << i for i, face in enumerate(self.faces) if outcomes.outcomes[face] == -1)

    def flipped(self, flips: int) -> bool:
        """Whether ``flips`` flips the protected surface's outcome product."""
        return bool((flips & self.surface).bit_count() & 1)

    def sample_errors(self, p: float, rng: np.random.Generator) -> frozenset:
        """Face numbers of the code's faces, each flipped independently with probability p."""
        _check_probability(p)
        return frozenset(q for q, u in enumerate(rng.random(len(self.faces)), 1) if u < p)

    def extract_syndrome(self, outcomes: OutcomeRecord) -> tuple[int, ...]:
        """One product of face outcomes per check, in :attr:`check_names` order."""
        return self.syndrome(self.flips(outcomes))

    def decode_and_correct(self, outcomes: OutcomeRecord) -> tuple[int, frozenset]:
        """Corrected protected product and the correction used, applied classically."""
        flips = self.flips(outcomes)  # read once, for key and verdict
        key = sum(1 << j for j, i in enumerate(self.independent) if (flips & self.checks[i]).bit_count() & 1)
        leader = int(self.leaders[key])
        return -1 if self.flipped(flips ^ leader) else 1, _pattern(leader)

    def run_pattern(
        self, pattern, rng: np.random.Generator, engine: str = "tableau"
    ) -> tuple[int, frozenset, OutcomeRecord]:
        """Z flips on the faces numbered in ``pattern``, X readout, decode: the sweep's readout
        on one row. Returns (corrected protected product, correction, outcome record)."""
        numbers = range(1, len(self.faces) + 1)
        if not set(pattern) <= set(numbers):
            raise ValueError(f"unknown face numbers in {sorted(pattern)}")
        flips = np.array([[q in pattern for q in numbers]])  # face q is qubit q - 1
        outcomes = dict(zip(self._state(engine).graph.vertices, self._reader(engine)(rng, flips)[0].tolist()))
        record = OutcomeRecord(outcomes, "x")
        return *self.decode_and_correct(record), record

    def simulate_trial(
        self, p: float, rng: np.random.Generator, engine: str = "tableau"
    ) -> tuple[bool, bool, frozenset]:
        """One trial, :meth:`sample_errors` then :meth:`run_pattern`: (protected correlation
        failed, unprotected correlation failed, sampled pattern)."""
        pattern = self.sample_errors(p, rng)
        corrected, _, record = self.run_pattern(pattern, rng, engine)
        return corrected == -1, self.flipped(self.flips(record)), pattern


def build_code(cx: CellComplex, surface) -> TopologicalCode:
    """The code of ``cx`` that protects ``surface``, a closed and nontrivial set of face names.

    One numpy pass ranks the 2^F flip patterns by weight, then mask, and makes each key's first its
    leader; another pattern of the leader's weight is a decoding ambiguity and raises, never broken.
    """
    faces = cx.cells(2)
    if len(faces) > MAX_CODE_FACES:
        raise CapacityError(f"{len(faces)} faces exceed the decoder cap of {MAX_CODE_FACES}")
    chain = cx.chain(2, surface)
    if not is_closed(chain, cx):
        raise ValueError(f"surface {sorted(chain.cells)} is not closed")
    surface_mask = sum(1 << i for i, f in enumerate(faces) if f in chain.cells)
    checks = volume_boundary_masks(cx)
    pivots, dependent = _gf2_echelon(checks)
    if not _gf2_reduce(pivots, surface_mask)[0]:  # no residue: a sum of volume boundaries
        raise ValueError(f"surface {sorted(chain.cells)} bounds volumes, so it protects nothing")
    independent = tuple(sorted(set(range(len(checks))) - dependent.keys()))  # outside earlier spans
    basis = [checks[i] for i in independent]
    patterns, all_faces = np.arange(1 << len(faces)), (1 << len(faces)) - 1
    keys = sum((_parities(patterns, c).astype(np.int64) << j for j, c in enumerate(basis)), np.zeros_like(patterns))
    rank = np.bitwise_count(patterns).astype(np.int64) << len(faces) | patterns  # by weight, then mask
    leaders = np.full(1 << len(basis), rank.max())  # the checks are independent, so every key is filled
    np.minimum.at(leaders, keys, rank)
    leaders &= all_faces
    best = leaders[keys]  # each pattern's leader
    tied = rank[(best != patterns) & (np.bitwise_count(best) == np.bitwise_count(patterns))]
    verdicts = _parities(patterns ^ best, surface_mask), _parities(patterns, surface_mask)
    cell = (2 * verdicts[0] + verdicts[1]) * (len(faces) + 1) + np.bitwise_count(patterns)  # (class, weight)
    cells = np.bincount(cell, minlength=4 * (len(faces) + 1)).reshape(4, -1)
    members = cell.argsort(kind="stable").astype("<u4")  # by cell, mask order inside each; little-endian bytes
    for array in (leaders, cells, members):
        array.setflags(write=False)  # shared by every caller
    code = TopologicalCode(
        cx, faces, checks, independent, surface_mask, leaders, cells, members, tuple(map(_enumerator, verdicts))
    )
    if tied.size:
        raise AssertionError(f"minimum-weight tie for syndrome {code.syndrome(int(tied.min()) & all_faces)}")
    return code


def _parities(masks: np.ndarray, check) -> np.ndarray:
    return np.bitwise_count(masks & check) & 1


def _enumerator(row: np.ndarray) -> tuple[int, ...]:
    """A_0..A_m: ``row``'s failing patterns by weight in its support, the m faces it depends on."""
    failing = np.flatnonzero(row)  # face i is in the support iff flipping it mends some failing pattern
    support = sum(1 << i for i in range(row.size.bit_length() - 1) if not row[failing ^ (1 << i)].all())
    inside = np.bitwise_count(failing[(failing & ~support) == 0])
    return tuple(np.bincount(inside, minlength=support.bit_count() + 1).tolist())


G8_CODE = build_code(build_g8_complex(), G8_PROTECTED_SURFACE)
# the g8 demo's per-trial API under its module names: the code's own methods
sample_errors, extract_syndrome, decode_and_correct, run_pattern, simulate_trial = (
    G8_CODE.sample_errors, G8_CODE.extract_syndrome, G8_CODE.decode_and_correct,
    G8_CODE.run_pattern, G8_CODE.simulate_trial,
)

# ----------------------------------------------------------------------
# g8's analytic curves, the rates of its weight enumerators, and the enumeration oracle


def analytic_unprotected(p: float) -> float:
    return G8_CODE.rates(p)[1]


def analytic_protected(p: float) -> float:
    return G8_CODE.rates(p)[0]


def exact_enumeration(p: float, code: TopologicalCode = G8_CODE) -> float:
    """The protected rate over the failing patterns of all F faces, count x term per weight summed exactly and
    rounded once: the correctly rounded sum of one term per failing pattern."""
    _check_probability(p)
    n, q = len(code.faces), 1.0 - p
    total = 0  # in units of 2^-1074, the least subnormal: every double is a whole number of them
    for w, (x, y) in enumerate(zip(*code.cells[2:].tolist())):  # classes 2, 3: failing patterns of weight w
        if x + y:
            a, d = (p**w * q ** (n - w)).as_integer_ratio()  # d is a power of 2, at most 2^1074
            total += (x + y) * a << 1075 - d.bit_length()  # a / d is a << (1074 - log2 d) units
    return total / (1 << 1074)  # int / int rounds once


# ----------------------------------------------------------------------
# Monte Carlo


_BLOCK = 1 << 12  # rows per state-engine readout, so memory does not grow with trials


def _count_failures(
    engine: str, p: float, trials: int, seed: int, point_index: int,
    code: TopologicalCode = G8_CODE,
) -> tuple[int, int]:
    """(protected, unprotected) failures of ``trials`` trials at one grid point on ``engine``.

    A pattern's class fixes its verdicts and its weight w its chance, p^w (1 - p)^(F - w), so the point draws
    how many trials land in each cell: one multinomial over the cells' chances, rarest first, from ``rng =
    philox_generator(seed, point_index)``. Trial t lands in the first cell (``cells.ravel()`` order) whose running
    count passes t. A state engine picks its pattern, member ``int(rng.random() * size)`` of the cell, one double
    per trial in order, reads the rows out per ``_BLOCK`` (X outcomes from ``(seed, point_index, 1)``) and raises
    if a row's faces read as -1, XOR its mask, have odd parity with a check or the surface. All sum cells by class.
    """
    n = len(code.faces)
    chances = (code.cells * [p**w * (1.0 - p) ** (n - w) for w in range(n + 1)]).ravel()  # per cell
    order, rng = chances.argsort(kind="stable"), philox_generator(seed, point_index)  # rarest first, so numpy's
    counts = rng.multinomial(trials, chances[order])[order.argsort()]  # running remainder stays accurate
    if engine != "fast":
        read, outcome_rng = code._reader(engine), philox_generator(seed, point_index, 1)
        ends, sizes, seen = counts.cumsum(), code.cells.ravel(), np.array([*code.checks, code.surface])[:, None]
        bits, firsts = (1 << np.arange(n)).astype(np.uint32), sizes.cumsum() - sizes
        for start in range(0, trials, _BLOCK):
            cell = ends.searchsorted(np.arange(start, min(start + _BLOCK, trials)), "right")
            injected = code.members[firsts[cell] + (rng.random(cell.size) * sizes[cell]).astype(int)]
            flips = np.unpackbits(injected.view(np.uint8).reshape(-1, 4), 1, n, "little").view(bool)  # face i, column i
            faces = read(outcome_rng, flips)[:, :n] < 0  # face i is qubit i
            if _parities(faces.view(np.uint8) @ bits ^ injected, seen).any():  # the read-out pattern's difference
                raise AssertionError(f"the {engine} readout moved a check or the surface")
    return sum(counts[2 * n + 2 :].tolist()), sum(counts.reshape(4, -1)[1::2].ravel().tolist())  # classes 2, 3; 1, 3


@dataclass(frozen=True)
class SweepPoint:
    """Monte-Carlo estimates and analytic values at one error probability."""

    p: float
    trials: int
    protected_failures: int
    unprotected_failures: int
    analytic_protected: float
    analytic_unprotected: float

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
    if not 1 <= trials <= 2**63 - 1:  # numpy draws the cell counts as int64
        raise ValueError("trials must be in [1, 2**63 - 1]")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if engine not in SWEEP_ENGINES:
        raise ValueError(f"engine must be one of {SWEEP_ENGINES}, got {engine!r}")
    p_values = [float(p) for p in p_values]
    for p in p_values:
        _check_probability(p)
    jobs = (repeat(engine), p_values, repeat(trials), repeat(seed), range(len(p_values)))
    # a fork pool starts all its workers at once, so never more than the points or usable CPUs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool_size = min(workers, len(p_values), cpus or 1)
    if pool_size > 1:
        # imported here, as it loads multiprocessing, which a serial sweep never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            counts = list(pool.map(_count_failures, *jobs))  # in grid order, whatever the completion order
    else:
        counts = list(map(_count_failures, *jobs))
    return [SweepPoint(p, trials, *pair, *G8_CODE.rates(p)) for p, pair in zip(p_values, counts)]
