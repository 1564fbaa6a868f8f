"""Topological error correction on the cluster state of a cell complex.

:func:`build_code` derives the code from the complex in one numpy pass over the flip patterns: the volume
boundaries are the parity checks, a nontrivial closed surface carries the protected correlation, the decoder maps
each syndrome to its unique minimum-weight flip pattern, and the verdicts' weight enumerators give the error rates.
The code owns the complex's cluster state, faces first, its X reader and its certificate, that the state holds +X_S
for every check and the surface, each made on first use per engine. The per-trial names and analytic curves here
are the eight-qubit demo :data:`G8_CODE`'s methods and rates. A sweep point's trials have one rule: its cell
counts, then one double per trial picks each mask in its cell (:meth:`TopologicalCode.sample_errors`, read out by
``simulate_trial``). Monte-Carlo sweeps of any code follow; they count each point from its cell counts alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .cluster import ENGINES, ClusterState, build_cluster, interaction_graph
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
from .pauli import PauliOperator, check_flips
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
    public frozenset form, and qubit i of :meth:`state`, so they apply unchanged to an X readout row, the int that
    sets bit q where qubit q reads -1. A syndrome holds one +-1 per check, the product of the face outcomes around
    that volume; its key sets bit j where the j-th of the r independent checks reads -1.
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
    _certified: set[str] = field(default_factory=set, init=False, repr=False)  # engines whose state holds +X_S

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

    def _certify(self, engine: str) -> None:
        """Raise unless the shared state holds +X_S for each check and the surface S (face i is qubit i); once per
        engine. Then a correct X readout after Z on ``flips`` gives (-1)^|flips & S| over S, whatever its coins."""
        if engine not in self._certified:
            state = self._state(engine)
            for name, mask in zip((*self.check_names, "the surface"), (*self.checks, self.surface)):
                value = state.expectation(PauliOperator(state.graph.qubit_count, mask, 0))
                if abs(value - 1.0) > 1e-9:
                    raise AssertionError(f"the {engine} state reads <X> = {value:.3g} on {name}, not +1")
            self._certified.add(engine)

    @property
    def check_names(self) -> tuple[str, ...]:
        """Each check's "c" and face numbers: c12, c25, c36, c34 for g8, c9_10 past 9 faces."""
        sep = "" if len(self.faces) < 10 else "_"
        return tuple("c" + sep.join(map(str, sorted(_pattern(c)))) for c in self.checks)

    def syndrome(self, flips: int) -> tuple[int, ...]:
        """One product of face outcomes per check, in :attr:`check_names` order, of a flip or outcome mask."""
        check_flips(flips, len(self.faces) + len(self.complex.edges))
        return tuple(-1 if (flips & check).bit_count() & 1 else 1 for check in self.checks)

    def flipped(self, flips: int) -> bool:
        """Whether ``flips`` flips the protected surface's outcome product."""
        return bool((flips & self.surface).bit_count() & 1)

    def decode_and_correct(self, outcomes: int) -> tuple[int, frozenset]:
        """Corrected protected product and the correction used, applied classically, of an X readout row."""
        check_flips(outcomes, len(self.faces) + len(self.complex.edges))  # one bit per qubit, faces then edges
        key = sum(1 << j for j, i in enumerate(self.independent) if (outcomes & self.checks[i]).bit_count() & 1)
        leader = int(self.leaders[key])
        return -1 if self.flipped(outcomes ^ leader) else 1, _pattern(leader)

    def run_pattern(
        self, pattern, rng: np.random.Generator, engine: str = "tableau"
    ) -> tuple[int, frozenset, int]:
        """Z flips on the faces numbered in ``pattern``, X readout, decode: one row of the code's X reader,
        its flips the pattern's face bitmask. Returns (corrected protected product, correction, outcome mask)."""
        numbers = range(1, len(self.faces) + 1)
        if not set(pattern) <= set(numbers):
            raise ValueError(f"unknown face numbers in {sorted(pattern)}")
        flips = sum(1 << (q - 1) for q in numbers if q in pattern)  # face q is qubit q - 1
        outcomes = self._reader(engine)(rng, flips)
        return *self.decode_and_correct(outcomes), outcomes

    def _cell_counts(self, p: float, trials: int, seed: int, point: int) -> tuple[np.ndarray, np.random.Generator]:
        """How many of a sweep point's trials land in each cell, in ``cells.ravel()`` order, and the point's stream:
        one multinomial from ``(seed, point)`` over the cells' chances, size x p^w (1 - p)^(F - w), rarest first."""
        n = len(self.faces)
        chances = (self.cells * [p**w * (1.0 - p) ** (n - w) for w in range(n + 1)]).ravel()  # per cell
        order = chances.argsort(kind="stable")  # rarest first, so numpy's running remainder stays accurate
        rng = philox_generator(seed, point)
        return rng.multinomial(trials, chances[order])[order.argsort()], rng

    def sample_errors(self, p: float, trials: int, seed: int, point: int) -> np.ndarray:
        """Flip masks of trials 0 .. trials - 1 of sweep point ``point``: trial t, in cell i by the counts, flips
        ``members[first + int(u * size)]``, first the members before cell i, size its own, u the t-th double next."""
        _check_probability(p)
        (counts, rng), sizes = self._cell_counts(p, trials, seed, point), self.cells.ravel()
        picks = (rng.random(trials) * np.repeat(sizes, counts)).astype(np.int64)
        return self.members[np.repeat(np.cumsum(sizes) - sizes, counts) + picks]

    def simulate_trial(
        self, p: float, trials: int, seed: int, point: int, engine: str = "tableau"
    ) -> Iterator[tuple[int, int, frozenset, int]]:
        """Trials 0 .. trials - 1 of sweep point ``point`` on ``engine``, in order: each :meth:`sample_errors` mask
        read out from ``(seed, point, 1)`` in turn and decoded, as (flips, corrected, correction, outcomes)."""
        masks, read = self.sample_errors(p, trials, seed, point).tolist(), self._reader(engine)
        stream = philox_generator(seed, point, 1)
        return ((k, *self.decode_and_correct(row), row) for k in masks for row in [read(stream, k)])


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
# the g8 demo's per-trial API under its module names: the code's own methods, extract_syndrome its syndrome
sample_errors, extract_syndrome, decode_and_correct, run_pattern, simulate_trial = (
    G8_CODE.sample_errors, G8_CODE.syndrome, G8_CODE.decode_and_correct,
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


def _count_failures(
    engine: str, p: float, trials: int, seed: int, point_index: int,
    code: TopologicalCode = G8_CODE,
) -> tuple[int, int]:
    """(protected, unprotected) failures of ``trials`` trials at one grid point on ``engine``: its cell counts summed
    by class, no per-trial draw. A state engine reads no row: once :meth:`TopologicalCode._certify` has shown that its
    state holds +X_S, a correct readout keeps each pattern in its class, as :meth:`TopologicalCode.simulate_trial`'s."""
    if engine != "fast":
        code._certify(engine)
    n, counts = len(code.faces), code._cell_counts(p, trials, seed, point_index)[0]
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


def monte_carlo_sweep(p_values, trials: int, seed: int, engine: str = "fast") -> list[SweepPoint]:
    """Estimate both error rates across a probability grid.

    Each grid point draws from its own (seed, point) Philox stream, in grid
    order in this process, and every engine gives the same counts.
    """
    if not 1 <= trials <= 2**63 - 1:  # numpy draws the cell counts as int64
        raise ValueError("trials must be in [1, 2**63 - 1]")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if engine not in SWEEP_ENGINES:
        raise ValueError(f"engine must be one of {SWEEP_ENGINES}, got {engine!r}")
    p_values = [float(p) for p in p_values]
    for p in p_values:
        _check_probability(p)
    return [
        SweepPoint(p, trials, *_count_failures(engine, p, trials, seed, i), *G8_CODE.rates(p))
        for i, p in enumerate(p_values)
    ]
