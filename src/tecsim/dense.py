"""Dense complex-amplitude oracle for up to 20 qubits.

Serves two roles: an independent check on the tableau engine, and the only
engine able to evaluate non-Pauli observables such as rotated measurement
settings. Qubit 0 maps to the most significant bit of the flat amplitude
index, so reading a basis label left to right matches qubit order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .pauli import PauliOperator

QUBIT_CAP = 20

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

GATE_MATRICES = {"H": _H, "S": _S, "X": _X, "Y": _Y, "Z": _Z}


def _check_capacity(n: int) -> None:
    if n > QUBIT_CAP:
        raise CapacityError(f"dense engine capped at {QUBIT_CAP} qubits, got {n}")


class StateVector:
    """Normalized pure state on ``n`` qubits as 2**n complex amplitudes."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray):
        _check_capacity(n)
        if amps.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes, got {amps.shape}")
        self.n = n
        self.amps = np.asarray(amps, dtype=complex)

    @classmethod
    def computational_zero(cls, n: int) -> "StateVector":
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = 1.0
        return cls(n, amps)

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        amps = np.asarray(amps, dtype=complex)
        n = int(amps.size - 1).bit_length()
        if amps.size != 1 << n:
            raise ValueError(f"amplitude count {amps.size} is not a power of two")
        deviation = abs(np.linalg.norm(amps) - 1.0)
        if deviation > 1e-12:
            raise ValueError(f"state not normalized: |norm - 1| = {deviation:.3g}")
        return cls(n, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amps.copy())

    # ------------------------------------------------------------------
    # unitaries

    def _apply_2x2(self, u: np.ndarray, target: int) -> None:
        if not 0 <= target < self.n:
            raise IndexError(f"target {target} out of range for {self.n} qubits")
        a = self.amps.reshape(1 << target, 2, -1)
        self.amps = np.einsum("ij,ajb->aib", u, a).reshape(-1)

    def apply_gate(self, gate: str, *targets: int) -> "StateVector":
        """Same gate alphabet as the tableau engine (H, S, X, Z, CZ, CNOT)."""
        gate = gate.upper()
        if gate in GATE_MATRICES:
            (t,) = targets
            self._apply_2x2(GATE_MATRICES[gate], t)
        elif gate == "CZ":
            a, b = targets
            if a == b:
                raise ValueError("CZ targets must be distinct")
            self._phase_flip_both_set(a, b)
        elif gate == "CNOT":
            c, t = targets
            if c == t:
                raise ValueError("CNOT targets must be distinct")
            self._apply_2x2(_H, t)
            self._phase_flip_both_set(c, t)
            self._apply_2x2(_H, t)
        else:
            raise ValueError(f"unknown gate {gate!r}")
        return self

    def _phase_flip_both_set(self, a: int, b: int) -> None:
        for t in (a, b):
            if not 0 <= t < self.n:
                raise IndexError(f"target {t} out of range for {self.n} qubits")
        idx = np.arange(1 << self.n, dtype=np.uint32)
        mask = ((idx >> (self.n - 1 - a)) & (idx >> (self.n - 1 - b)) & 1).astype(bool)
        self.amps[mask] *= -1.0

    # ------------------------------------------------------------------
    # Pauli action

    def _flat_mask(self, qubit_bits: int) -> int:
        m = 0
        for q in range(self.n):
            if (qubit_bits >> q) & 1:
                m |= 1 << (self.n - 1 - q)
        return m

    def apply_pauli(self, op: PauliOperator) -> np.ndarray:
        """Return the amplitudes of ``op|psi>`` (the state is untouched)."""
        if op.n != self.n:
            raise ValueError(f"operator acts on {op.n} qubits, state has {self.n}")
        xf = self._flat_mask(op.x_bits)
        zf = self._flat_mask(op.z_bits)
        idx = np.arange(1 << self.n, dtype=np.uint32)
        src = idx ^ xf
        signs = 1.0 - 2.0 * (np.bitwise_count(src & np.uint32(zf)) & 1)
        k = (op.phase_exp + (op.x_bits & op.z_bits).bit_count()) % 4
        return (1j**k) * signs * self.amps[src]

    def expectation_pauli(self, op: PauliOperator) -> float:
        """<psi|op|psi>, guaranteed real for Hermitian op."""
        val = np.vdot(self.amps, self.apply_pauli(op))
        return float(val.real)

    def measure_pauli(self, op: PauliOperator, rng: np.random.Generator) -> int:
        """Projectively measure a Hermitian Pauli; returns +-1, updates state."""
        if not op.is_hermitian:
            raise ValueError("operator phase must be +-1 for measurement")
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

    def measure_z(self, q: int, rng: np.random.Generator) -> int:
        """Projective single-qubit Z measurement."""
        return self.measure_pauli(PauliOperator.single(self.n, q, "Z"), rng)

    def readout_x(self, rng: np.random.Generator, flips: np.ndarray | None = None) -> list[int] | np.ndarray:
        """X outcomes (+-1) of every qubit, measured in qubit order; the state is left as is.

        With ``flips``, a (trials, k) bool array, it returns a (trials, n) array whose row t
        is this call's readout, given the same draws, of the copy with Z on each qubit q < k
        where ``flips[t, q]`` is set. The copies are sign vectors on the amplitudes, at most
        2^16 amplitudes (1 MiB) at a time; the state alone is a block of one. Each X
        measurement is :meth:`measure_pauli`'s, row by row: expectation, thresholds, a draw
        only where the outcome is random, the projection. Each copy reads n doubles of
        ``rng``, and its k-th random outcome reads double k.
        """
        n, block = self.n, np.zeros((1, 0), bool) if flips is None else flips
        step = max(1, (1 << 16) >> n)
        if len(block) > step:  # each part draws its rows' doubles, in row order
            return np.concatenate([self.readout_x(rng, block[i : i + step]) for i in range(0, len(block), step)])
        size, k = block.shape
        draws = rng.random((size, n))
        flipped = block @ (1 << np.arange(n - 1, n - 1 - k, -1))  # qubit 0 is the top bit
        amps = self.amps * (1.0 - 2.0 * (np.bitwise_count(flipped[:, None] & np.arange(1 << n)) & 1))
        cursor = np.zeros(size, np.intp)  # each row's next unread draw
        outcomes = np.empty((size, n), dtype=np.int64)
        for q in range(n):
            pairs = amps.reshape(size, 1 << q, 2, 1 << (n - 1 - q))  # X_q swaps pairs[:, :, 0] and [:, :, 1]
            re = pairs.view(np.float64)
            expect = 2.0 * np.einsum("iab,iab->i", re[:, :, 0], re[:, :, 1])  # Re <psi|X_q|psi>
            outcome = np.where(expect > 1.0 - 1e-9, 1, np.where(expect < -1.0 + 1e-9, -1, 0))
            rows = np.flatnonzero(outcome == 0)
            draw = draws[rows, cursor[rows]]
            cursor[rows] += 1
            outcome[rows] = sign = np.where(draw < 0.5 * (1.0 + expect[rows]), 1, -1)
            # 0.5 (psi + sign X_q psi), whose two halves differ by the factor sign
            sign = sign[:, None, None]
            half = 0.5 * (pairs[rows, :, 0] + sign * pairs[rows, :, 1])
            half /= np.sqrt(0.5 * (1.0 + sign * expect[rows, None, None]))
            pairs[rows, :, 0], pairs[rows, :, 1] = half, sign * half
            outcomes[:, q] = outcome
        return outcomes[0].tolist() if flips is None else outcomes


def build_graph_state_dense(graph) -> StateVector:
    """CZ over the interaction edges applied to the uniform superposition.

    ``graph`` needs ``qubit_count`` and ``edges``, qubit-index pairs, as in
    :class:`tecsim.cluster.InteractionGraph`.
    """
    n = graph.qubit_count
    _check_capacity(n)
    amps = np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=complex)
    state = StateVector(n, amps)
    for a, b in graph.edges:
        state._phase_flip_both_set(a, b)
    return state


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 - global-phase insensitive."""
    if a.n != b.n:
        raise ValueError(f"states act on different qubit counts: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


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

    @classmethod
    def pure(cls, state: StateVector) -> "DensityModel":
        return cls(state.n, ((1.0, state),))


def _check_factor(f: np.ndarray) -> None:
    if f.shape != (2, 2):
        raise ValueError(f"expected a 2x2 factor, got {f.shape}")
    if np.max(np.abs(f - f.conj().T)) > 1e-10:
        raise ValueError("observable factor is not Hermitian within 1e-10")


def expectation_observable(model: DensityModel, factors) -> float:
    """Expectation of a tensor-product observable over a density model.

    ``factors`` lists one 2x2 Hermitian matrix per qubit (``None`` for
    identity). Linear in the ensemble weights; the uniform-mixture part is
    the product of factor traces over 2**n.
    """
    factors = list(factors)
    if len(factors) != model.n:
        raise ValueError(f"expected {model.n} factors, got {len(factors)}")
    mats = []
    for f in factors:
        if f is None:
            mats.append(None)
        else:
            f = np.asarray(f, dtype=complex)
            _check_factor(f)
            mats.append(f)
    total = 0.0 + 0.0j
    for weight, state in model.components:
        work = state.amps.copy()
        for q, f in enumerate(mats):
            if f is None:
                continue
            work = np.einsum(
                "ij,ajb->aib", f, work.reshape(1 << q, 2, -1)
            ).reshape(-1)
        total += weight * np.vdot(state.amps, work)
    if model.mixed_weight:
        trace_ratio = 1.0 + 0.0j
        for f in mats:
            if f is not None:
                trace_ratio *= np.trace(f) / 2.0
        total += model.mixed_weight * trace_ratio
    if abs(total.imag) > 1e-10:
        raise AssertionError(f"expectation has imaginary part {total.imag:.3g}")
    return float(total.real)
