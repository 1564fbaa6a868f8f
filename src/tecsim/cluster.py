"""From cell complexes to cluster states and topological correlations.

Qubits live on the faces and edges of a complex; the interaction graph
joins each face qubit to the qubits on its boundary edges. Two engines sit
behind one interface: the stabilizer tableau for scale, the dense oracle
for cross-validation and non-Clifford observables. Either reads all qubits
out in X or Z through one reader, the tableau in closed form from any of its states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dense
from .complexes import CellComplex
from .pauli import PauliOperator, check_basis
from .tableau import StabilizerTableau

ENGINES = ("tableau", "dense")


@dataclass(frozen=True)
class InteractionGraph:
    """Qubit labels in qubit order, and each interaction edge as a pair a < b of qubit indexes."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # stored as tuples first, so the checks see what is kept and no caller's list is kept
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        pos = {v: i for i, v in enumerate(self.vertices)}
        if len(pos) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        object.__setattr__(self, "_pos", pos)  # label -> qubit index, shared by every lookup
        n, edges = len(pos), self.edges
        if not all(0 <= a < b < n for a, b in edges) or len(set(edges)) != len(edges):
            seen = set()
            for a, b in edges:  # the error path alone names the first bad edge
                if not 0 <= a < b < n:
                    raise ValueError(f"edge {(a, b)} is not a pair a < b of qubit indexes below {n}")
                if (a, b) in seen:
                    raise ValueError(f"duplicate edge {(a, b)}")
                seen.add((a, b))

    @property
    def qubit_count(self) -> int:
        return len(self.vertices)

    def index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise KeyError(f"unknown qubit {label!r}") from None


@dataclass(frozen=True)
class OutcomeRecord:
    """Per-qubit measurement outcomes (+-1), all in one basis, "x" or "z"."""

    outcomes: dict[str, int]
    basis: str

    def __post_init__(self):
        check_basis(self.basis)
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
    """One qubit per face and then per edge cell; graph edge (face i, F + j) iff edge j is in
    the boundary of face i, F being the face count."""
    face_names = cx.cells(2)
    edge_names = cx.cells(1)
    if not face_names:
        raise ValueError("complex has no faces")
    qubit = {e: q for q, e in enumerate(edge_names, len(face_names))}
    edges = tuple((i, qubit[e]) for i, f in enumerate(face_names) for e in sorted(cx.faces[f]))
    return InteractionGraph(face_names + edge_names, edges)


def _neighbor_masks(graph: InteractionGraph) -> list[int]:
    """Bit u of entry v is set iff qubits u and v share an interaction edge, in vertex order."""
    masks = [0] * graph.qubit_count
    for a, b in graph.edges:
        masks[a], masks[b] = masks[a] | 1 << b, masks[b] | 1 << a
    return masks


@dataclass
class ClusterState:
    """A cluster state bound to its interaction graph and one state backend.

    ``backend`` is a :class:`StabilizerTableau` or a :class:`dense.StateVector`.
    Both speak the same protocol, so nothing here or in the sweep asks which one
    it holds: ``copy()``, ``apply_gate(gate, *targets)``, ``measure_pauli(op, rng)``,
    ``measure_x(q, rng)``, ``expectation_pauli(op)`` and ``reader(basis="x")``, a
    snapshot of the state as a callable ``(rng, flips=0)`` that reads every qubit in
    one basis, "x" or "z", of the state after the Pauli that anticommutes with that
    basis (Z in X, X in Z) on each qubit q whose bit is set in the int mask ``flips``,
    and returns the outcomes as one int, bit q set where qubit q reads -1. Callers
    find qubits by ``graph.index`` and measure through ``backend``; the state adds
    only ``copy()`` and ``expectation(op)``, either engine's value as a float.
    """

    graph: InteractionGraph
    backend: StabilizerTableau | dense.StateVector

    def copy(self) -> "ClusterState":
        return ClusterState(self.graph, self.backend.copy())

    def expectation(self, op: PauliOperator) -> float:
        return float(self.backend.expectation_pauli(op))


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
    return ClusterState(graph, StabilizerTableau.graph_state(_neighbor_masks(graph)))


def surface_correlation(state: ClusterState, face_qubits) -> int:
    """Expectation of the product of X over the listed qubits, rounded to {-1, 0, +1}.

    Equals +1 whenever the qubit set is a closed surface of the source
    complex and no errors were applied. A repeated label cancels, as X·X = I.
    """
    labels = list(face_qubits)
    if not labels:
        raise ValueError("surface must contain at least one qubit")
    xmask = 0
    for label in labels:
        xmask ^= 1 << state.graph.index(label)
    value = state.expectation(PauliOperator(state.graph.qubit_count, xmask, 0, 0))
    rounded = round(value)
    if abs(value - rounded) > 1e-9 or rounded not in (-1, 0, 1):
        raise AssertionError(f"non-stabilizer correlation value {value}")
    return int(rounded)


def measure_all(state: ClusterState, rng: np.random.Generator, basis: str = "x") -> OutcomeRecord:
    """Single-basis readout of every qubit by the backend's ``reader``, labelled in vertex order; ``state`` is left
    as is."""
    out, n = state.backend.reader(basis)(rng), state.graph.qubit_count
    return OutcomeRecord(dict(zip(state.graph.vertices, [-1 if b == "1" else 1 for b in f"{out:0{n}b}"[::-1]])), basis)
