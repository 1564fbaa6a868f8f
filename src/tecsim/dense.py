"""Dense complex-amplitude oracle for up to 20 qubits.

Serves two roles: an independent check on the tableau engine, and the only
engine able to evaluate non-Pauli observables such as rotated measurement
settings. Qubit 0 maps to the most significant bit of the flat amplitude
index, so reading a basis label left to right matches qubit order, as
:meth:`StateVector.readout` reads every qubit out in X or Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .pauli import PauliOperator, check_basis, check_flips, check_gate, check_operator

QUBIT_CAP = 20

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_EYE = np.eye(2, dtype=complex)

GATE_MATRICES = {"H": _H, "S": _S, "X": _X, "Y": _Y, "Z": _Z}


def _check_capacity(n: int) -> None:
    if n > QUBIT_CAP:
        raise CapacityError(f"dense engine capped at {QUBIT_CAP} qubits, got {n}")


def _apply_products(amps: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """(T, 2^n): ``amps`` after each term's tensor product of its factors ``mats[t]``, (T, n, 2, 2).

    Qubits that are the identity in every term are skipped. Each other qubit a outside an earlier run starts
    a run that ends at the last such qubit below a + 4, and applies the terms' Kronecker products over it,
    built by broadcasting. A run that ends at the last qubit acts from the right, so on eight qubits, with X
    the 16x16 amplitude matrix, a term is A X B^T. If every qubit is skipped, the rows are views of ``amps``.
    """
    n, out, end = mats.shape[1], amps[None], 0
    busy = np.flatnonzero((mats != _EYE).any(axis=(0, 2, 3))).tolist()
    for a in busy:
        if a < end:
            continue  # inside the previous run
        end = 1 + max(q for q in busy if q < a + 4)
        g = mats[:, a]
        for f in mats[:, a + 1 : end].swapaxes(0, 1):
            g = (g[:, :, None, :, None] * f[:, None, :, None, :]).reshape(len(g), 2 * len(g[0]), -1)
        if end == n:
            out = out.reshape(len(out), -1, len(g[0])) @ g.swapaxes(1, 2)
        else:
            out = g[:, None] @ out.reshape(len(out), 1 << a, len(g[0]), -1)
    out = out.reshape(len(out), -1)
    return out if len(out) == len(mats) else np.broadcast_to(out, (len(mats), amps.size))


class StateVector:
    """Normalized pure state on ``n`` qubits as 2**n complex amplitudes."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray):
        _check_capacity(n)
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes, got {amps.shape}")
        deviation = abs(np.linalg.norm(amps) - 1.0)
        if deviation > 1e-12:
            raise ValueError(f"state not normalized: |norm - 1| = {deviation:.3g}")
        self.n = n
        self.amps = amps

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        amps = np.asarray(amps, dtype=complex)
        n = int(amps.size - 1).bit_length()
        if amps.size != 1 << n:
            raise ValueError(f"amplitude count {amps.size} is not a power of two")
        return cls(n, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amps.copy())

    # ------------------------------------------------------------------
    # unitaries

    def apply_gate(self, gate: str, *targets: int) -> "StateVector":
        """The tableau engine's gates, :data:`pauli.GATE_TARGETS`; a bad call raises before any change."""
        gate = check_gate(gate, targets, self.n)
        if gate == "CZ":
            self.amps[_odd_edges(self.n, [targets])] *= -1.0
            return self
        local = _EYE[None, None].repeat(self.n, 1)
        local[0, targets[-1]] = GATE_MATRICES.get(gate, _H)  # CNOT is H CZ H on its target
        self.amps = _apply_products(self.amps, local)[0]
        if gate == "CNOT":
            self.amps[_odd_edges(self.n, [targets])] *= -1.0
            self.amps = _apply_products(self.amps, local)[0]
        return self

    # ------------------------------------------------------------------
    # Pauli action

    def apply_pauli(self, op: PauliOperator) -> np.ndarray:
        """Return the amplitudes of ``op|psi>`` (the state is untouched)."""
        if op.n != self.n:
            raise ValueError(f"operator acts on {op.n} qubits, state has {self.n}")
        mats = _EYE[None, None].repeat(self.n, 1)
        for q in op.support():
            mats[0, q] = GATE_MATRICES[op.letter(q)]
        return op.phase * _apply_products(self.amps, mats)[0]

    def expectation_pauli(self, op: PauliOperator) -> float:
        """<psi|op|psi>, real as op is Hermitian."""
        check_operator(op, self.n)
        return float(np.vdot(self.amps, self.apply_pauli(op)).real)

    def measure_pauli(self, op: PauliOperator, rng: np.random.Generator) -> int:
        """Projectively measure a Hermitian Pauli; returns +-1, updates state."""
        check_operator(op, self.n)
        if op.is_identity_string:
            raise ValueError("cannot measure the identity operator")
        transformed = self.apply_pauli(op)
        expect = float(np.vdot(self.amps, transformed).real)
        if expect > 1.0 - 1e-9:
            return 1
        if expect < -1.0 + 1e-9:
            return -1
        outcome = 1 if rng.random() < 0.5 * (1.0 + expect) else -1
        post = 0.5 * (self.amps + outcome * transformed)
        self.amps = post / np.sqrt(0.5 * (1.0 + outcome * expect))
        return outcome

    def measure_x(self, q: int, rng: np.random.Generator) -> int:
        """Projective single-qubit X measurement."""
        return self.measure_pauli(PauliOperator.single(self.n, q, "X"), rng)

    def readout(self, rng: np.random.Generator, flips: np.ndarray | None = None, basis="x") -> list[int] | np.ndarray:
        """Outcomes (+-1) of every qubit in ``basis``, "x" or "z", measured in qubit order; the state is left as is.

        With ``flips``, a (trials, k) bool array, it returns a (trials, n) array whose row t is this call's
        readout, given the same draws, of the copy with Z (X in the Z basis) on each qubit q < k where
        ``flips[t, q]`` is set. Qubit q is measured and dropped in turn: with a0 and a1 the halves where it
        is 0 and 1, outcome s of P_q leaves (a0 + s a1) / sqrt(1 + s <X_q>) in X, ((1 + s) a0 + (1 - s) a1)
        / sqrt(2 + 2 s <Z_q>) in Z. A flip on q is a sign z that turns s into the unflipped outcome c = s z,
        so rows whose products c agree so far share what is left. A part of 512 rows holds one state per such
        history that some row reached, a node: a level holds at most min(rows, 2^q) nodes, so 2^n amplitudes,
        or 2^R on a state with R random outcomes, and reads <P_q> once per node. Thresholds and draws are
        :meth:`measure_pauli`'s. Each step is a real linear map, so nodes hold float64: a real state's real
        parts, else the interleaved real and imaginary parts. Each copy reads n doubles of ``rng``; its k-th
        random outcome, double k.
        """
        n, block = self.n, np.zeros((1, 0), bool) if flips is None else check_flips(flips, self.n)
        x = check_basis(basis) == "x"
        floats = self.amps.real if not self.amps.imag.any() else self.amps.view(np.float64)
        outcomes = np.empty((len(block), n), dtype=np.int64)
        for first in range(0, len(block), 512):  # each part draws its rows' doubles, in row order
            part = block[first : first + 512]
            draws, every, cursor = rng.random((len(part), n)), np.arange(len(part)), np.zeros(len(part), np.intp)
            signs = 1.0 - 2.0 * np.concatenate([part, np.zeros((len(part), n - part.shape[1]), bool)], 1)  # each z
            rest, node, paths = floats[None], np.zeros(len(part), np.intp), np.empty((1, n))  # one node: the state
            for q in range(n):
                halves = rest.reshape(len(rest), 2, -1)
                a0, a1 = halves[:, 0], halves[:, 1]  # each node's <P_q>: Re <X_q> = 2 a0.a1, <Z_q> = a0.a0 - a1.a1
                dots = 2.0 * np.einsum("ij,ij->i", a0, a1) if x else np.einsum("ij,ij->i", a0 - a1, a0 + a1)
                random, parent, paths[:, q] = np.abs(dots) <= 1.0 - 1e-9, np.arange(len(rest)), np.sign(dots)
                if random.any():  # c = s z, s drawn where the row's node is random, else c is the sign
                    hit, expect = random[node], signs[:, q] * dots[node]
                    drawn = np.where(draws[every, cursor] < 0.5 * (1.0 + expect), 1.0, -1.0)
                    cursor += hit  # each row's next unread draw
                    key = 2 * node + np.where(hit, drawn != signs[:, q], paths[node, q] < 0)  # child (node, c < 0)
                    reached = np.bincount(key, minlength=2 * len(rest)) > 0
                    children, node = np.flatnonzero(reached), reached.cumsum()[key] - 1
                    parent, paths = children >> 1, paths[children >> 1]
                    paths[:, q] = 1.0 - 2.0 * (children & 1)  # paths[i]: the products c that lead to node i
                c = paths[:, q]
                scale = 1.0 / np.sqrt((1.0 if x else 2.0) * (1.0 + c * dots[parent]))
                pair = [scale, c * scale] if x else [(1.0 + c) * scale, (1.0 - c) * scale]  # of a0 and a1
                coefs = np.stack(pair, 1)[:, None]
                rest, step = np.empty((len(parent), halves.shape[2])), max(1, (1 << 16) // halves.shape[2])
                for lo in range(0, len(parent), step):  # gathers at most max(2^17, 2 width) floats at once
                    np.matmul(coefs[lo : lo + step], halves[parent[lo : lo + step]], out=rest[lo : lo + step, None])
            outcomes[first : first + len(part)] = paths[node] * signs  # s = c z
        return outcomes[0].tolist() if flips is None else outcomes


def build_graph_state_dense(graph) -> StateVector:
    """CZ over the interaction edges applied to the uniform superposition.

    ``graph`` needs ``qubit_count`` and ``edges``, qubit-index pairs, as in
    :class:`tecsim.cluster.InteractionGraph`.
    """
    n = graph.qubit_count
    _check_capacity(n)
    return StateVector(n, np.where(_odd_edges(n, graph.edges), -1.0, 1.0) / np.sqrt(1 << n))


def _odd_edges(n: int, edges) -> np.ndarray:
    """Whether each basis label x holds both ends of an odd number of ``edges``: the sum over vertices a of bit_a(x)
    times the popcount of x and a's later neighbours. Vertices with the same later neighbours are summed as one
    popcount, and an edge listed twice cancels, as CZ twice does."""
    labels, later, groups = np.arange(1 << n, dtype=np.uint32), [0] * n, {}
    for a, b in edges:
        later[min(a, b)] ^= 1 << (n - 1 - max(a, b))  # qubit q is bit n - 1 - q
    for a, neighbours in enumerate(later):
        groups[neighbours] = groups.get(neighbours, 0) | 1 << (n - 1 - a)
    terms = (np.bitwise_count(labels & vertices) & np.bitwise_count(labels & m) for m, vertices in groups.items() if m)
    return (sum(terms, np.zeros(1 << n, np.uint8)) & 1).view(bool)  # bit 0 of a sum is its parity


@dataclass(frozen=True)
class DensityModel:
    """Mixed state as a pure-state ensemble plus a uniform-mixture weight.

    The maximally mixed component is kept analytic: its contribution to any
    expectation is tr(observable) / 2**n, never 2**n ensemble members.
    """

    n: int
    components: tuple[tuple[float, StateVector], ...]
    mixed_weight: float = 0.0

    def __post_init__(self):
        total = self.mixed_weight
        for w, state in self.components:
            if w < -1e-15:
                raise ValueError(f"negative ensemble weight {w}")
            if state.n != self.n:
                raise ValueError("ensemble member qubit count mismatch")
            total += w
        if self.mixed_weight < -1e-15:
            raise ValueError(f"negative mixed weight {self.mixed_weight}")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1")


def expectation_observable(model: DensityModel, terms) -> np.ndarray:
    """Expectations of T tensor-product observables over a density model, as T floats.

    ``terms`` is a (T, n, 2, 2) array, or T lists of one 2x2 Hermitian matrix per qubit (``None`` for
    the identity); one observable is a stack of one. Linear in the ensemble weights; the
    uniform-mixture part is each term's product of factor traces over 2**n.
    """
    try:
        if not isinstance(terms, np.ndarray):
            terms = [[_EYE if f is None else f for f in term] for term in terms]
        mats = np.asarray(terms, dtype=complex)
    except (TypeError, ValueError) as err:  # a term that is not a list of factors, or a ragged stack
        raise ValueError(f"expected terms of {model.n} 2x2 factors: {err}") from None
    if mats.shape[1:] != (model.n, 2, 2):
        raise ValueError(f"expected terms of {model.n} 2x2 factors, got a stack of shape {mats.shape}")
    if (np.abs(mats - mats.conj().swapaxes(2, 3)) > 1e-10).any():
        raise ValueError("observable factor is not Hermitian within 1e-10")
    total = np.zeros(len(mats), dtype=complex)
    for weight, state in model.components:  # einsum, not a BLAS gemv, which OpenBLAS may thread
        total += weight * np.einsum("ti,i->t", _apply_products(state.amps, mats), state.amps.conj())
    total += model.mixed_weight * np.prod(np.trace(mats, axis1=2, axis2=3) / 2.0, axis=1)
    if (np.abs(total.imag) > 1e-10).any():
        raise AssertionError(f"expectation has imaginary part {np.abs(total.imag).max():.3g}")
    return total.real
