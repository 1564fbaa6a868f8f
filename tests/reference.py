"""Oracles the tests share: replayed draws, per-qubit readouts, Pauli matrices, paper data, fixtures.

Test modules import it as ``from reference import ...``; ``tests/`` has no
``__init__.py``, so pytest, and ``python tests/<module>.py``, put this
directory on ``sys.path``.
"""

import json
from pathlib import Path

import numpy as np

from tecsim.pauli import PauliOperator

RING5 = Path(__file__).resolve().parent / "fixtures" / "ring5.json"


def shared_boundary_json(k: int) -> str:
    """A JSON complex of k faces on one boundary {e1, e2}: k(k - 1)/2 two-face closed surfaces."""
    faces = {f"f{i}": ["e1", "e2"] for i in range(k)}
    return json.dumps({"volumes": {}, "faces": faces, "edges": {"e1": ["s", "t"], "e2": ["s", "t"]}})


# The paper's Table 1: the g8 syndrome of a Z flip on each face qubit alone
SINGLE_ERROR_SYNDROMES = {
    1: (-1, 1, 1, 1),
    2: (-1, -1, 1, 1),
    3: (1, 1, -1, -1),
    4: (1, 1, 1, -1),
    5: (1, -1, 1, 1),
    6: (1, 1, -1, 1),
}

MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def to_matrix(op: PauliOperator) -> np.ndarray:
    """Independent oracle: the literal matrix of a Pauli string, qubit 0 the leftmost factor."""
    out = np.array([[1.0 + 0j]])
    for q in range(op.n):
        out = np.kron(out, MATS[op.letter(q)])
    return op.phase * out


class Replay:
    """Stands in for a Generator: ``random`` hands out ``doubles`` and ``integers(0, 2)``
    hands out ``bits``, in order, one per scalar draw or a block of the asked shape at once."""

    def __init__(self, doubles=(), bits=()):
        self.queues = {"random": list(doubles), "integers": list(bits)}
        self.used = 0

    def _take(self, name, size):
        queue, count = self.queues[name], 1 if size is None else int(np.prod(size))
        taken, queue[:count] = queue[:count], []
        assert len(taken) == count, f"{name} drew past the replayed values"
        self.used += count
        return taken[0] if size is None else np.array(taken).reshape(size)

    def random(self, size=None):
        return self._take("random", size)

    def integers(self, low, high, size=None):
        assert (low, high) == (0, 2)
        return self._take("integers", size)


def per_qubit_readout(state, rng, basis="x"):
    """Reference readout: one single-qubit collapse per qubit, in vertex order, on a copy."""
    work = state.backend.copy()
    measure = work.measure_x if basis == "x" else work.measure_z
    return [measure(q, rng) for q in range(state.graph.qubit_count)]
