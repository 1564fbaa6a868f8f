"""Stabilizer tableau engine with destabilizer rows.

Rows are stored as integer bitsets (one x word-set and one z word-set per
row) so gate and measurement updates cost O(n/word) per row. Rows 0..n-1
hold destabilizers, rows n..2n-1 the stabilizers; keeping destabilizers
makes deterministic-outcome detection a single O(n^2) pass instead of a
Gaussian elimination per measurement. A graph state's X readout skips both:
:func:`_graph_readout_x` reads it from one echelon of the neighbour masks.

Signs are bits and only ever add by XOR. So :func:`_graph_readout_x` also
runs on numpy bit columns, one entry per copy of a block readout; and signs
may be GF(2) affine forms held as ints, bit 0 the constant and each higher
bit a variable, which only the tests' symbolic reference uses.
"""

from __future__ import annotations

import numpy as np

from .complexes import _gf2_echelon
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
        return self.measure_pauli(PauliOperator.single(self.n, q, "X"), rng)

    def measure_z(self, q: int, rng: np.random.Generator) -> int:
        """Projective single-qubit Z measurement."""
        return self.measure_pauli(PauliOperator.single(self.n, q, "Z"), rng)

    def readout_x(self, rng: np.random.Generator, flips: np.ndarray | None = None) -> list[int] | np.ndarray:
        """X outcomes (+-1) of every qubit, measured in qubit order; the state is left as is.

        With ``flips``, a (trials, k) bool array, it returns a (trials, n) array whose row t
        is this call's readout, given the same draws, of the copy with Z on each qubit q < k
        where ``flips[t, q]`` is set. Stabilizers +-X_v Z_N(v), whatever the destabilizers,
        are read out in closed form, and a Z on qubit q flips stabilizer q's sign alone. The
        R random outcomes are one ``rng.integers(0, 2, R)``, a block's ``rng.integers(0, 2,
        (trials, R))``: per copy, the numbers of R scalar ``rng.integers(0, 2)`` in order. Other
        rows collapse qubit by qubit on a copy, one scalar draw per random outcome.
        """
        n, masks, signs = self.n, self._zs[self.n :], self._rs[self.n :]
        if not all(x == 1 << v and not m >> v & 1 for v, (x, m) in enumerate(zip(self._xs[n:], masks))):
            rows = []
            for row in np.zeros((1, 0), bool) if flips is None else flips:
                work = self.copy()
                for q in np.flatnonzero(row).tolist():
                    work.z(q)
                rows.append([work.measure_x(q, rng) for q in range(n)])
            return rows[0] if flips is None else np.array(rows, np.int8).reshape(-1, n)
        dependent = _gf2_echelon(masks)[1]
        if flips is None:
            coins = iter(rng.integers(0, 2, n - len(dependent)).tolist())
            return [1 - 2 * bit for bit in _graph_readout_x(masks, dependent, signs, coins.__next__)]
        columns = np.repeat(np.array(signs, np.int8)[:, None], len(flips), 1)
        columns[: flips.shape[1]] ^= flips.T
        # drawn as int64 and cast: numpy buffers narrower draws, which reorders the stream
        draws = iter(rng.integers(0, 2, (len(flips), n - len(dependent))).T.astype(np.int8))
        return 1 - 2 * np.array(_graph_readout_x(masks, dependent, columns, draws.__next__)).T

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
        variable when ``rng`` hands out sign forms.
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

    def stabilizers(self) -> list[PauliOperator]:
        return [self.stabilizer(i) for i in range(self.n)]

    def __repr__(self) -> str:
        rows = ", ".join(s.to_text() for s in self.stabilizers())
        return f"StabilizerTableau(n={self.n}, stabilizers=[{rows}])"


def _graph_readout_x(masks: list[int], dependent: dict[int, int], signs: list[int], draw) -> list[int]:
    """Outcome signs (1 for -1) of the X readout, qubit by qubit in order, of a graph state.

    Stabilizer v is (-1)^signs[v] X_v Z_masks[v]. Outcome i is fixed iff masks[i] reduces to
    zero against masks[0..i-1], so iff ``dependent``, from ``_gf2_echelon(masks)``, holds i.
    The chooser S of that zero sum holds i, and K_S = (-1)^(e(S) + sum of signs over S) X_S,
    e(S) being the graph edges inside S; so outcome i is that sign plus the outcomes of
    S - {i}. Any other outcome is ``draw()``. Everything adds by XOR and no operand is
    updated in place, so signs and draws may be bits, numpy bit columns or sign forms.
    """
    out: list[int] = []
    for i, mask in enumerate(masks):
        chooser = dependent.get(i)
        if chooser is None:
            out.append(draw())
            continue
        form, edges, rest = signs[i], (mask & chooser).bit_count(), chooser ^ (1 << i)
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest ^= 1 << v
            form = form ^ signs[v] ^ out[v]
            edges += (masks[v] & chooser).bit_count()
        out.append(form ^ (edges >> 1 & 1))
    return out
