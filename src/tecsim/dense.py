"""Dense complex-amplitude oracle for up to 20 qubits.

Serves two roles: an independent check on the tableau engine, and the only
engine able to evaluate non-Pauli observables such as rotated measurement
settings. Qubit 0 maps to the most significant bit of the flat amplitude
index, so reading a basis label left to right matches qubit order, and the
labels that share their first outcomes are adjacent: :meth:`StateVector.reader`
reads X or Z from pairwise sums of one table of Born weights, built once per reader.
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

    Each run of four qubits from qubit 0, the last run those left, applies the terms' Kronecker products over it,
    built by broadcasting. The last run acts from the right, so on eight qubits, with X the 16x16 amplitude matrix,
    a term is A X B^T. On zero qubits no factor acts, and the one row is ``amps``.
    """
    n, out = mats.shape[1], amps[None]
    for a in range(0, n, 4):
        g = mats[:, a]
        for f in mats[:, a + 1 : a + 4].swapaxes(0, 1):
            g = (g[:, :, None, :, None] * f[:, None, :, None, :]).reshape(len(g), 2 * len(g[0]), -1)
        if a + 4 >= n:
            out = out.reshape(len(out), -1, len(g[0])) @ g.swapaxes(1, 2)
        else:
            out = g[:, None] @ out.reshape(len(out), 1 << a, len(g[0]), -1)
    return out.reshape(len(out), -1)


class StateVector:
    """Normalized pure state on ``n`` qubits as 2**n complex amplitudes."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray):
        _check_capacity(n)
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes, got {amps.shape}")
        deviation = abs(np.linalg.norm(amps) - 1.0)
        if not deviation <= 1e-12:  # so a NaN norm fails too
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
        t = targets[-1]
        u = GATE_MATRICES.get(gate, _H)  # CNOT is H CZ H on its target
        self.amps = (u @ self.amps.reshape(1 << t, 2, -1)).reshape(-1)
        if gate == "CNOT":
            self.amps[_odd_edges(self.n, [targets])] *= -1.0
            self.amps = (u @ self.amps.reshape(1 << t, 2, -1)).reshape(-1)
        return self

    # ------------------------------------------------------------------
    # Pauli action

    def apply_pauli(self, op: PauliOperator) -> np.ndarray:
        """Return the amplitudes of ``op|psi>`` (the state is untouched): Z is the sign (-1)^|label & z|, qubit q
        being label bit n - 1 - q, X flips the label's X bits, and each Y, iXZ, adds a factor of i."""
        if op.n != self.n:
            raise ValueError(f"operator acts on {op.n} qubits, state has {self.n}")
        n, amps = self.n, self.amps
        if op.z_bits:
            z = sum(1 << (n - 1 - q) for q in range(n) if op.z_bits >> q & 1)
            amps = np.where(np.bitwise_count(np.arange(1 << n, dtype=np.uint32) & z) & 1, -amps, amps)
        amps = np.flip(amps.reshape((2,) * n), [q for q in range(n) if op.x_bits >> q & 1]).reshape(-1)
        return (1, 1j, -1, -1j)[(op.phase_exp + (op.x_bits & op.z_bits).bit_count()) % 4] * amps

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

    def reader(self, basis="x"):
        """The readout in ``basis`` of the state as it is now, as a callable ``(rng, flips=0)``; see
        :class:`tecsim.cluster.ClusterState`. One table of Born weights (in X, 2^n times them, after n butterflies)
        sums pairwise into <P_q> = (w0 - w1) / (w0 + w1) after each history of q outcomes, w0 and w1 its weight with
        qubit q at 0 and at 1, kept as one table per level. A flip on q is a sign z that turns outcome s into the
        unflipped outcome c = s z and <P_q> into z <P_q>, so a row walks the tables along its products c.
        Thresholds and draws are :meth:`measure_pauli`'s; a row draws n doubles, in order."""
        n, weights = self.n, self.amps.real if not self.amps.imag.any() else self.amps
        for _ in range(n if check_basis(basis) == "x" else 0):
            weights = _butterfly(weights)
        weights = np.abs(weights)
        weights *= weights  # in place: a real state's X readout holds at most two tables at once
        tables = [None] * n  # <P_q> per history of q outcomes
        for q in range(n - 1, -1, -1):  # the deeper weights go as soon as they are summed
            weights, d = weights[0::2] + weights[1::2], weights[0::2] - weights[1::2]
            tables[q] = np.divide(d, weights, out=d, where=weights > 0)  # 0 where the history has no weight
        def read(rng: np.random.Generator, flips: int = 0) -> int:
            check_flips(flips, n)
            draws, history = iter(rng.random(n).tolist()), 0  # the row's products c so far, a 1 bit where c < 0
            for q, table in enumerate(tables):
                d, z = table.item(history), flips >> q & 1  # z = 1 where the flip's sign is -1
                if abs(d) <= 1.0 - 1e-9:  # s = 1 where up, so c < 0 where up matches z < 0
                    history = 2 * history + ((next(draws) < 0.5 * (1.0 + (-d if z else d))) == z)
                else:
                    history = 2 * history + (d < 0)
            return int(f"{history:0{n}b}"[::-1], 2) ^ flips  # qubit q is bit q, and s = c z

        return read


def _butterfly(amps: np.ndarray) -> np.ndarray:
    """The top qubit's sum a0 + a1 and difference a0 - a1, written as the bottom bit of the other n - 1."""
    out, (a0, a1) = np.empty_like(amps), amps.reshape(2, -1)
    np.add(a0, a1, out=out.reshape(-1, 2)[:, 0])
    np.subtract(a0, a1, out=out.reshape(-1, 2)[:, 1])
    return out


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
            if not w >= -1e-15:
                raise ValueError(f"negative ensemble weight {w}")
            if state.n != self.n:
                raise ValueError("ensemble member qubit count mismatch")
            total += w
        if not self.mixed_weight >= -1e-15:
            raise ValueError(f"negative mixed weight {self.mixed_weight}")
        if not abs(total - 1.0) <= 1e-12:
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
    if not (np.abs(mats - mats.conj().swapaxes(2, 3)) <= 1e-10).all():  # a NaN entry fails too
        raise ValueError("observable factor is not Hermitian within 1e-10")
    total = np.zeros(len(mats), dtype=complex)
    for weight, state in model.components:  # einsum, not a BLAS gemv, which OpenBLAS may thread
        total += weight * np.einsum("ti,i->t", _apply_products(state.amps, mats), state.amps.conj())
    total += model.mixed_weight * np.prod(np.trace(mats, axis1=2, axis2=3) / 2.0, axis=1)
    if (np.abs(total.imag) > 1e-10).any():
        raise AssertionError(f"expectation has imaginary part {np.abs(total.imag).max():.3g}")
    return total.real
