"""From cell complexes to cluster states and topological correlations.

Qubits live on the faces and edges of a complex; the interaction graph
joins each face qubit to the qubits on its boundary edges. Two engines sit
behind one interface: the stabilizer tableau for scale, the dense oracle
for cross-validation and non-Clifford observables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dense
from .complexes import CellComplex
from .pauli import PauliOperator
from .tableau import StabilizerTableau

ENGINES = ("tableau", "dense")


@dataclass(frozen=True)
class InteractionGraph:
    """Qubit vertices tagged face|edge plus unordered interaction edges."""

    vertices: tuple[str, ...]
    kinds: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        pos = {v: i for i, v in enumerate(self.vertices)}
        if len(pos) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        object.__setattr__(self, "_pos", pos)  # label -> qubit index, shared by every lookup
        if len(self.kinds) != len(self.vertices):
            raise ValueError("one kind tag required per vertex")
        for kind in self.kinds:
            if kind not in ("face", "edge"):
                raise ValueError(f"unknown vertex kind {kind!r}")
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop at {a!r}")
            if a not in pos or b not in pos:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown vertices")
            key = frozenset((a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({a!r}, {b!r})")
            seen.add(key)

    @property
    def qubit_count(self) -> int:
        return len(self.vertices)

    def index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise KeyError(f"unknown qubit {label!r}") from None

    def edge_indexes(self) -> list[tuple[int, int]]:
        pos = self._pos
        return [(pos[a], pos[b]) for a, b in self.edges]


@dataclass(frozen=True)
class OutcomeRecord:
    """Per-qubit measurement outcomes (+-1) and the basis used for each."""

    outcomes: dict[str, int]
    basis: dict[str, str]

    def __post_init__(self):
        if set(self.outcomes) != set(self.basis):
            raise ValueError("outcomes and basis must cover the same qubits")
        for q, v in self.outcomes.items():
            if v not in (-1, 1):
                raise ValueError(f"outcome for {q!r} must be +-1, got {v}")

    def value(self, label: str) -> int:
        if label not in self.outcomes:
            raise KeyError(f"no recorded outcome for qubit {label!r}")
        return self.outcomes[label]

    def product(self, labels) -> int:
        out = 1
        for label in labels:
            out *= self.value(label)
        return out


def interaction_graph(cx: CellComplex) -> InteractionGraph:
    """One qubit per face and per edge cell; graph edge (f, e) iff e in df."""
    face_names = cx.cells(2)
    edge_names = cx.cells(1)
    if not face_names:
        raise ValueError("complex has no faces")
    vertices = face_names + edge_names
    kinds = ("face",) * len(face_names) + ("edge",) * len(edge_names)
    edges = tuple(
        (f, e) for f in face_names for e in sorted(cx.faces[f])
    )
    return InteractionGraph(vertices, kinds, edges)


def stabilizer_generators(graph: InteractionGraph) -> list[PauliOperator]:
    """K_v = X_v Z_N(v): X on vertex v, Z on each interaction neighbour, in vertex order."""
    n = graph.qubit_count
    pos = graph._pos
    zmask_of = {v: 0 for v in graph.vertices}
    for a, b in graph.edges:
        zmask_of[a] |= 1 << pos[b]
        zmask_of[b] |= 1 << pos[a]
    return [PauliOperator(n, 1 << pos[v], zmask_of[v], 0) for v in graph.vertices]


@dataclass
class ClusterState:
    """A cluster state bound to its interaction graph and one state backend.

    ``backend`` is a :class:`StabilizerTableau` or a :class:`dense.StateVector`.
    Both speak the same protocol, so nothing here or in the sweep asks which one
    it holds: ``copy()``, ``apply_gate(gate, *targets)``, ``measure_pauli(op, rng)``,
    ``measure_x(q, rng)``, ``measure_z(q, rng)``, ``expectation_pauli(op)`` and
    ``readout_x(rng, flips=None)``, the X outcomes of the state or, given a (trials, k)
    bool array, of one copy per row with Z on qubit q wherever ``flips[t, q]`` is set.
    """

    graph: InteractionGraph
    backend: StabilizerTableau | dense.StateVector

    def copy(self) -> "ClusterState":
        return ClusterState(self.graph, self.backend.copy())

    def index(self, label: str) -> int:
        return self.graph.index(label)

    def expectation(self, op: PauliOperator) -> float:
        return float(self.backend.expectation_pauli(op))

    def measure(self, op: PauliOperator, rng: np.random.Generator) -> int:
        return self.backend.measure_pauli(op, rng)


def build_cluster(graph: InteractionGraph, engine: str = "tableau") -> ClusterState:
    """The graph state of ``graph``: stabilizer v is X_v Z_N(v), signs +1.

    The tableau engine writes these rows in closed form
    (:meth:`StabilizerTableau.graph_state`), with no gate sequence; the
    dense engine phase-flips the uniform superposition on every edge.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "dense":
        return ClusterState(graph, dense.build_graph_state_dense(graph))
    masks = [g.z_bits for g in stabilizer_generators(graph)]
    return ClusterState(graph, StabilizerTableau.graph_state(masks))


def surface_correlation(state: ClusterState, face_qubits) -> int:
    """Expectation of the product of X over the listed qubits, rounded to {-1, 0, +1}.

    Equals +1 whenever the qubit set is a closed surface of the source
    complex and no errors were applied. A repeated label cancels, as X·X = I.
    """
    labels = list(face_qubits)
    if not labels:
        raise ValueError("surface must contain at least one qubit")
    n = state.graph.qubit_count
    xmask = 0
    for label in labels:
        xmask ^= 1 << state.index(label)
    value = state.expectation(PauliOperator(n, xmask, 0, 0))
    rounded = round(value)
    if abs(value - rounded) > 1e-9 or rounded not in (-1, 0, 1):
        raise AssertionError(f"non-stabilizer correlation value {value}")
    return int(rounded)


def measure_all(
    state: ClusterState, rng: np.random.Generator, basis: str = "x"
) -> OutcomeRecord:
    """Single-basis readout of every qubit, in vertex order; ``state`` is left as is."""
    if basis not in ("x", "z"):
        raise ValueError(f"basis must be 'x' or 'z', got {basis!r}")
    if basis == "x":
        values = state.backend.readout_x(rng)
    else:
        work = state.backend.copy()
        values = [work.measure_z(i, rng) for i in range(state.graph.qubit_count)]
    outcomes = dict(zip(state.graph.vertices, values))
    return OutcomeRecord(outcomes, dict.fromkeys(outcomes, basis))
