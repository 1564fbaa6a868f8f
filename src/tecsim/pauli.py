"""Exact n-qubit Pauli strings in binary symplectic form.

An operator is stored as two integer bitsets plus a power of i:
bit q of ``x_bits``/``z_bits`` selects the X/Z component on qubit q, with
(x, z) = (1, 1) meaning a literal Y, and the full operator is
``i**phase_exp * W_0 x W_1 x ...`` with each ``W_q`` in {I, X, Y, Z}.
Integer bitsets make every group operation a handful of word-parallel
bit operations regardless of qubit count.
"""

from __future__ import annotations

from dataclasses import dataclass

_LETTERS = "IXZY"  # index = x_bit + 2 * z_bit
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}
_PHASE_VALUE = {0: 1, 1: 1j, 2: -1, 3: -1j}


@dataclass(frozen=True)
class PauliOperator:
    """An n-qubit Pauli string with an exact phase in {+1, +i, -1, -i}."""

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bitset extends past the declared qubit count")
        if not 0 <= self.phase_exp <= 3:
            raise ValueError(f"phase exponent must be in 0..3, got {self.phase_exp}")

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliOperator":
        """One non-identity letter on ``qubit``, identity elsewhere."""
        if not 0 <= qubit < n:
            raise IndexError(f"qubit {qubit} out of range for {n} qubits")
        code = _LETTERS.index(letter)
        return cls(n, (code & 1) << qubit, (code >> 1) << qubit, 0)

    @property
    def phase(self) -> complex:
        return _PHASE_VALUE[self.phase_exp]

    @property
    def is_identity_string(self) -> bool:
        """True when every letter is I (any phase)."""
        return self.x_bits == 0 and self.z_bits == 0

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exp in (0, 2)

    def support(self) -> tuple[int, ...]:
        bits = self.x_bits | self.z_bits
        return tuple(q for q in range(self.n) if (bits >> q) & 1)

    def letter(self, qubit: int) -> str:
        return _LETTERS[((self.x_bits >> qubit) & 1) + 2 * ((self.z_bits >> qubit) & 1)]

    def __str__(self) -> str:
        return pauli_to_text(self)


def pauli_to_text(op: PauliOperator) -> str:
    """Canonical text form: a phase prefix (none, ``i``, ``-`` or ``-i``), then one letter per qubit."""
    letters = "".join(op.letter(q) for q in range(op.n))
    return _PHASE_PREFIX[op.phase_exp] + letters


# Both state engines' gate alphabet, the CHP gates plus Y, and each gate's target count
GATE_TARGETS = {"H": 1, "S": 1, "X": 1, "Y": 1, "Z": 1, "CZ": 2, "CNOT": 2}


def check_gate(gate: str, targets, n: int) -> str:
    """``gate`` upper-cased, once it is known and ``targets`` are its count of distinct qubits below ``n``."""
    name = gate.upper()
    if name not in GATE_TARGETS:
        raise ValueError(f"unknown gate {gate!r}")
    if len(targets) != GATE_TARGETS[name]:
        raise ValueError(f"{name} takes {GATE_TARGETS[name]} target(s), got {len(targets)}")
    if len(set(targets)) != len(targets):
        raise ValueError(f"{name} targets must be distinct")
    for t in targets:
        if not 0 <= t < n:
            raise IndexError(f"target {t} out of range for {n} qubits")
    return name


def check_flips(flips, n: int):
    """``flips`` once it is a 2-D bool array of at most ``n`` columns: a block readout's Z flips, a row per copy."""
    if getattr(flips, "dtype", None) != bool or flips.ndim != 2 or flips.shape[1] > n:
        raise ValueError(f"flips must be a 2-D bool array of at most {n} columns, got {flips!r:.80}")
    return flips


def check_operator(op: PauliOperator, n: int) -> None:
    """Raise ``ValueError`` unless ``op`` is an observable of an ``n``-qubit state: ``n`` qubits, phase +-1."""
    if op.n != n:
        raise ValueError(f"operator acts on {op.n} qubits, state has {n}")
    if not op.is_hermitian:
        raise ValueError(f"operator {op} is not Hermitian: its phase must be +-1")
