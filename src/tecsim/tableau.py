"""Stabilizer tableau engine with destabilizer rows.

Rows are stored as integer bitsets (one x word-set and one z word-set per
row) so gate and measurement updates cost O(n/word) per row. Rows 0..n-1
hold destabilizers, rows n..2n-1 the stabilizers; keeping destabilizers
makes deterministic-outcome detection a single O(n^2) pass instead of a
Gaussian elimination per measurement.

A sign is a GF(2) affine form held as an int: bit 0 is the constant, each
higher bit a variable. Concrete states use 0 and 1 only; the symbolic
readout :meth:`StabilizerTableau.readout_forms_x` adds variables.
"""

from __future__ import annotations

from itertools import count
from types import SimpleNamespace

import numpy as np

from .pauli import PauliOperator, _product_i_exponent

_GATES_1 = frozenset({"H", "S", "X", "Z"})
_GATES_2 = frozenset({"CZ", "CNOT"})


class StabilizerTableau:
    """A pure stabilizer state on ``n`` qubits.

    Value-like: instances own their rows, ``copy()`` is cheap, and all
    mutation happens through explicit method calls.
    """

    __slots__ = ("n", "_xs", "_zs", "_rs")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        self.n = n
        # destabilizer i = X_i, stabilizer i = Z_i: the all-zeros state
        self._xs = [1 << i for i in range(n)] + [0] * n
        self._zs = [0] * n + [1 << i for i in range(n)]
        self._rs = [0] * (2 * n)

    @classmethod
    def graph_state(cls, neighbor_masks: list[int]) -> "StabilizerTableau":
        """Graph state of a simple undirected graph, written without gates.

        ``neighbor_masks[v]`` has bit u set iff u and v are adjacent.
        Destabilizer v is Z_v and stabilizer v is X_v Z_N(v), all signs +1:
        exactly the rows that H on every qubit and CZ on every edge leave.
        """
        n = len(neighbor_masks)
        tab = cls(n)
        # H on every qubit swaps the x and z halves of the all-zeros tableau
        tab._xs, tab._zs = tab._zs, tab._xs
        tab._zs[n:] = neighbor_masks
        return tab

    def copy(self) -> "StabilizerTableau":
        dup = object.__new__(StabilizerTableau)
        dup.n = self.n
        dup._xs = self._xs.copy()
        dup._zs = self._zs.copy()
        dup._rs = self._rs.copy()
        return dup

    # ------------------------------------------------------------------
    # gates

    def apply_gate(self, gate: str, *targets: int) -> "StabilizerTableau":
        """Conjugate the stabilizer group by a named Clifford gate."""
        gate = gate.upper()
        if gate in _GATES_1:
            if len(targets) != 1:
                raise ValueError(f"{gate} takes one target, got {len(targets)}")
        elif gate in _GATES_2:
            if len(targets) != 2:
                raise ValueError(f"{gate} takes two targets, got {len(targets)}")
            if targets[0] == targets[1]:
                raise ValueError(f"{gate} targets must be distinct")
        else:
            raise ValueError(f"unknown gate {gate!r}")
        for t in targets:
            if not 0 <= t < self.n:
                raise IndexError(f"target {t} out of range for {self.n} qubits")
        getattr(self, gate.lower())(*targets)
        return self

    def h(self, q: int) -> None:
        bit = 1 << q
        xs, zs, rs = self._xs, self._zs, self._rs
        for j in range(2 * self.n):
            xb, zb = xs[j] & bit, zs[j] & bit
            if xb and zb:
                rs[j] ^= 1
            elif xb or zb:
                xs[j] ^= bit
                zs[j] ^= bit

    def s(self, q: int) -> None:
        bit = 1 << q
        xs, zs, rs = self._xs, self._zs, self._rs
        for j in range(2 * self.n):
            if xs[j] & bit:
                if zs[j] & bit:
                    rs[j] ^= 1
                zs[j] ^= bit

    def x(self, q: int) -> None:
        bit = 1 << q
        zs, rs = self._zs, self._rs
        for j in range(2 * self.n):
            if zs[j] & bit:
                rs[j] ^= 1

    def z(self, q: int) -> None:
        bit = 1 << q
        xs, rs = self._xs, self._rs
        for j in range(2 * self.n):
            if xs[j] & bit:
                rs[j] ^= 1

    def cz(self, a: int, b: int) -> None:
        ba, bb = 1 << a, 1 << b
        xs, zs, rs = self._xs, self._zs, self._rs
        for j in range(2 * self.n):
            xa, xb = xs[j] & ba, xs[j] & bb
            if xa and xb and bool(zs[j] & ba) != bool(zs[j] & bb):
                rs[j] ^= 1
            if xa:
                zs[j] ^= bb
            if xb:
                zs[j] ^= ba

    def cnot(self, control: int, target: int) -> None:
        bc, bt = 1 << control, 1 << target
        xs, zs, rs = self._xs, self._zs, self._rs
        for j in range(2 * self.n):
            if xs[j] & bc and zs[j] & bt and (bool(xs[j] & bt) == bool(zs[j] & bc)):
                rs[j] ^= 1
            if xs[j] & bc:
                xs[j] ^= bt
            if zs[j] & bt:
                zs[j] ^= bc

    # ------------------------------------------------------------------
    # measurement

    def measure_pauli(self, op: PauliOperator, rng: np.random.Generator) -> int:
        """Projectively measure a Hermitian Pauli; returns +-1, updates state.

        Deterministic outcomes (op in the +-stabilizer group) leave the
        state untouched; random outcomes draw one bit from ``rng``.
        """
        self._check_operator(op)
        if op.is_identity_string:
            raise ValueError("cannot measure the identity operator")
        xm, zm = op.x_bits, op.z_bits
        return 1 - 2 * self._collapse(self._anticommuting(xm, zm), xm, zm, op.phase_exp >> 1, rng)

    def measure_x(self, q: int, rng: np.random.Generator) -> int:
        """Projective single-qubit X measurement."""
        if not 0 <= q < self.n:
            raise IndexError(f"qubit {q} out of range for {self.n} qubits")
        return 1 - 2 * self._collapse_x(q, rng)

    def _collapse_x(self, q: int, rng) -> int:
        bit = 1 << q
        zs = self._zs
        anti = [j for j in range(2 * self.n) if zs[j] & bit]
        return self._collapse(anti, bit, 0, 0, rng)

    def readout_forms_x(self, flip_qubits) -> list[int]:
        """Sign forms of an X readout of every qubit, in qubit order, after Z flips.

        Variable v (bit v + 1) is a Z on ``flip_qubits[v]``; each random
        outcome takes the next free bit, in readout order. Qubit i reads -1
        exactly when ``forms[i]`` has odd overlap with ``1 | flips << 1 |
        bits << (1 + len(flip_qubits))``, the bits being the random outcomes.
        The state is not disturbed.
        """
        work = self.copy()
        xs, rs = work._xs, work._rs
        for v, q in enumerate(flip_qubits):
            bit = 1 << q
            for j in range(2 * self.n):
                if xs[j] & bit:
                    rs[j] ^= 2 << v
        fresh = count(1 + len(flip_qubits))  # each random outcome draws a new variable
        variables = SimpleNamespace(integers=lambda low, high: 1 << next(fresh))
        return [work._collapse_x(q, variables) for q in range(self.n)]

    def measure_z(self, q: int, rng: np.random.Generator) -> int:
        """Projective single-qubit Z measurement."""
        if not 0 <= q < self.n:
            raise IndexError(f"qubit {q} out of range for {self.n} qubits")
        bit = 1 << q
        xs = self._xs
        anti = [j for j in range(2 * self.n) if xs[j] & bit]
        return 1 - 2 * self._collapse(anti, 0, bit, 0, rng)

    def expectation_pauli(self, op: PauliOperator) -> int:
        """Exact expectation in {-1, 0, +1}; the state is not disturbed."""
        self._check_operator(op)
        if op.is_identity_string:
            return 1 if op.phase_exp == 0 else -1
        anti = self._anticommuting(op.x_bits, op.z_bits)
        if anti and anti[-1] >= self.n:
            return 0
        return 1 - 2 * self._deterministic_sign(anti, op.x_bits, op.z_bits, op.phase_exp >> 1)

    def _check_operator(self, op: PauliOperator) -> None:
        if op.n != self.n:
            raise ValueError(f"operator acts on {op.n} qubits, state has {self.n}")
        if not op.is_hermitian:
            raise ValueError("operator phase must be +-1 for measurement")

    def _anticommuting(self, xm: int, zm: int) -> list[int]:
        """Row indices whose symplectic product with (xm, zm) is odd."""
        xs, zs = self._xs, self._zs
        return [
            j
            for j in range(2 * self.n)
            if ((xs[j] & zm).bit_count() + (zs[j] & xm).bit_count()) & 1
        ]

    def _collapse(self, anti: list[int], xm: int, zm: int, r_in: int, rng) -> int:
        """Measure +-(xm, zm) and return the outcome's sign form (0 for +1, 1 for -1).

        A random outcome is ``rng.integers(0, 2)``: a drawn bit, or a fresh
        variable in :meth:`readout_forms_x`.
        """
        n = self.n
        if not anti or anti[-1] < n:
            # only destabilizers anticommute: the outcome is fixed
            return self._deterministic_sign(anti, xm, zm, r_in)
        xs, zs, rs = self._xs, self._zs, self._rs
        pivot = next(j for j in anti if j >= n)
        px, pz, pr = xs[pivot], zs[pivot], rs[pivot]
        for j in anti:
            if j == pivot:
                continue
            if j >= n:
                # stabilizer rows commute with the pivot, so the product
                # phase is even and only adds a constant
                rs[j] ^= pr ^ (_product_i_exponent(px, pz, xs[j], zs[j]) >> 1)
            xs[j] ^= px
            zs[j] ^= pz
        xs[pivot - n], zs[pivot - n], rs[pivot - n] = px, pz, pr
        bit = int(rng.integers(0, 2))
        xs[pivot], zs[pivot], rs[pivot] = xm, zm, r_in ^ bit
        return bit

    def _deterministic_sign(self, destab_anti: list[int], xm: int, zm: int, r_in: int) -> int:
        """Sign form of +-(xm, zm) inside the stabilizer group (0 for +1).

        Destabilizer row i anticommutes with the target exactly when
        stabilizer row i appears in its expansion, so ``destab_anti``
        already lists the factors to accumulate.
        """
        xs, zs, rs = self._xs, self._zs, self._rs
        n = self.n
        sx = sz = exp = sign = 0
        for i in destab_anti:
            j = i + n
            exp += _product_i_exponent(sx, sz, xs[j], zs[j])
            sign ^= rs[j]
            sx ^= xs[j]
            sz ^= zs[j]
        if sx != xm or sz != zm or exp & 1:
            raise AssertionError("tableau rows lost GF(2) independence")
        return sign ^ (exp >> 1 & 1) ^ r_in

    # ------------------------------------------------------------------
    # inspection

    def stabilizer(self, i: int) -> PauliOperator:
        j = i + self.n
        return PauliOperator(self.n, self._xs[j], self._zs[j], 2 * self._rs[j])

    def destabilizer(self, i: int) -> PauliOperator:
        return PauliOperator(self.n, self._xs[i], self._zs[i], 2 * self._rs[i])

    def stabilizers(self) -> list[PauliOperator]:
        return [self.stabilizer(i) for i in range(self.n)]

    def __repr__(self) -> str:
        rows = ", ".join(s.to_text() for s in self.stabilizers())
        return f"StabilizerTableau(n={self.n}, stabilizers=[{rows}])"
