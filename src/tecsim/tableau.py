"""Stabilizer tableau engine: the n stabilizer generators of a pure state.

Rows are integer bitsets, one x and one z word-set each. H, S and CZ update
each row in place; CNOT is H, CZ, H on its target, and X, Y and Z flip the
sign of every row that anticommutes with them. No X or Z readout collapses a
row: :meth:`_readout_plan` finds the group's strings, which fix outcomes.
Rows in graph form, row v +-X_v Z_N(v) as in every cluster state, are read in
closed form: the X strings are the zero sums of the neighbour masks, and a
Pauli's one candidate row product is over its X qubits (Hein, Eisert and
Briegel, arXiv:quant-ph/0307130). Other rows take echelons of the rows.

Signs only ever add by XOR, so a readout's flips enter each fixed outcome as
one more parity, and signs may be GF(2) affine forms held as ints, bit 0 the
constant and each higher bit a variable, which only the tests' symbolic
reference uses.
"""

from __future__ import annotations

import numpy as np

from .complexes import _gf2_echelon, _gf2_reduce
from .pauli import PauliOperator, check_basis, check_flips, check_gate, check_operator


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
        # stabilizer i = Z_i: the all-zeros state
        self._xs = [0] * n
        self._zs = [1 << i for i in range(n)]
        self._rs = [0] * n

    @classmethod
    def graph_state(cls, neighbor_masks: list[int]) -> "StabilizerTableau":
        """Graph state of a simple undirected graph, written without gates.

        ``neighbor_masks[v]`` has bit u set iff u and v are adjacent.
        Stabilizer v is X_v Z_N(v), sign +1: exactly the rows that H on
        every qubit and CZ on every edge leave.
        """
        tab = cls(len(neighbor_masks))
        # H on every qubit turns each Z_v into X_v
        tab._xs, tab._zs = tab._zs, list(neighbor_masks)
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
        """Conjugate the stabilizer group by a named gate of :data:`pauli.GATE_TARGETS`."""
        getattr(self, check_gate(gate, targets, self.n).lower())(*targets)
        return self

    def h(self, q: int) -> None:
        bit = 1 << q
        xs, zs, rs = self._xs, self._zs, self._rs
        for j in range(self.n):
            xb, zb = xs[j] & bit, zs[j] & bit
            if xb and zb:
                rs[j] ^= 1
            elif xb or zb:
                xs[j] ^= bit
                zs[j] ^= bit

    def s(self, q: int) -> None:
        bit = 1 << q
        xs, zs, rs = self._xs, self._zs, self._rs
        for j in range(self.n):
            if xs[j] & bit:
                if zs[j] & bit:
                    rs[j] ^= 1
                zs[j] ^= bit

    def cz(self, a: int, b: int) -> None:
        ba, bb = 1 << a, 1 << b
        xs, zs, rs = self._xs, self._zs, self._rs
        for j in range(self.n):
            xa, xb = xs[j] & ba, xs[j] & bb
            if xa and xb and bool(zs[j] & ba) != bool(zs[j] & bb):
                rs[j] ^= 1
            if xa:
                zs[j] ^= bb
            if xb:
                zs[j] ^= ba

    def cnot(self, control: int, target: int) -> None:
        self.h(target)
        self.cz(control, target)
        self.h(target)

    def x(self, q: int) -> None:
        self._pauli(1 << q, 0)

    def y(self, q: int) -> None:
        self._pauli(1 << q, 1 << q)

    def z(self, q: int) -> None:
        self._pauli(0, 1 << q)

    def _pauli(self, xm: int, zm: int) -> None:
        """Conjugate by the Pauli (xm, zm): every row that anticommutes with it changes sign."""
        for j in self._anticommuting(xm, zm):
            self._rs[j] ^= 1

    # ------------------------------------------------------------------
    # measurement

    def measure_pauli(self, op: PauliOperator, rng: np.random.Generator) -> int:
        """Projectively measure a Hermitian Pauli; returns +-1, updates state.

        Deterministic outcomes (op in the +-stabilizer group) leave the
        state untouched; random outcomes draw one bit from ``rng``.
        """
        check_operator(op, self.n)
        if op.is_identity_string:
            raise ValueError("cannot measure the identity operator")
        xm, zm = op.x_bits, op.z_bits
        return 1 - 2 * self._collapse(self._anticommuting(xm, zm), xm, zm, op.phase_exp >> 1, rng)

    def measure_x(self, q: int, rng: np.random.Generator) -> int:
        """Projective single-qubit X measurement."""
        return self.measure_pauli(PauliOperator.single(self.n, q, "X"), rng)

    def reader(self, basis="x"):
        """The readout in ``basis`` of the state as it is now, as a callable ``(rng, flips=0)``, from one
        :meth:`_readout_plan`; see :class:`tecsim.cluster.ClusterState`. Its R random outcomes, as a collapse draws
        them, are ``rng.integers(0, 2, R)``; a flip on q flips each fixed outcome whose string T holds q."""
        plan, n = self._readout_plan(check_basis(basis)), self.n
        def read(rng: np.random.Generator, flips: int = 0) -> int:
            check_flips(flips, n)
            coins, out = iter(rng.integers(0, 2, plan.count(None)).tolist()), 0  # the outcomes so far as one int
            for i, step in enumerate(plan):
                out |= (next(coins) if step is None else step[1] ^ ((out ^ flips) & step[0]).bit_count() & 1) << i
            return out

        return read

    def expectation_pauli(self, op: PauliOperator) -> int:
        """Exact expectation in {-1, 0, +1}; the state is not disturbed."""
        check_operator(op, self.n)
        if op.is_identity_string:
            return 1 if op.phase_exp == 0 else -1
        x, z, sign = _product_sign(self._xs, self._zs, self._rs, op.x_bits)  # the rows on op's X qubits
        if (x, z) == (op.x_bits, op.z_bits):
            return 1 - 2 * (sign ^ op.phase_exp >> 1)
        if self._anticommuting(op.x_bits, op.z_bits):  # always so in graph form, where no other product fits
            return 0
        return 1 - 2 * self._deterministic_sign(op.x_bits, op.z_bits, op.phase_exp >> 1)

    def _graph_form(self) -> bool:
        """Whether row v is +-X_v Z_zs[v] for every v, as Z, Paulis, CZ and S keep it."""
        return all(x == 1 << v for v, x in enumerate(self._xs))

    def _anticommuting(self, xm: int, zm: int) -> list[int]:
        """Row indices whose symplectic product with (xm, zm) is odd."""
        rows = enumerate(zip(self._xs, self._zs))
        return [j for j, (x, z) in rows if ((x & zm).bit_count() + (z & xm).bit_count()) & 1]

    def _collapse(self, anti: list[int], xm: int, zm: int, r_in: int, rng) -> int:
        """Measure +-(xm, zm) and return the outcome's sign form (0 for +1, 1 for -1).

        A random outcome is ``rng.integers(0, 2)``: a drawn bit, or a fresh
        variable when ``rng`` hands out sign forms.
        """
        if not anti:  # the outcome is fixed
            return self._deterministic_sign(xm, zm, r_in)
        xs, zs, rs = self._xs, self._zs, self._rs
        pivot, *others = anti
        for j in others:
            xs[j], zs[j], rs[j] = _product_sign(xs, zs, rs, 1 << pivot | 1 << j)
        bit = int(rng.integers(0, 2))
        xs[pivot], zs[pivot], rs[pivot] = xm, zm, r_in ^ bit
        return bit

    def _deterministic_sign(self, xm: int, zm: int, r_in: int) -> int:
        """Sign form of +-(xm, zm) inside the stabilizer group (0 for +1): reducing the target against one
        echelon of the rows, written z | x << n, chooses the rows whose product it is."""
        xs, zs, n = self._xs, self._zs, self.n
        pivots = _gf2_echelon([z | x << n for x, z in zip(xs, zs)])[0]
        chooser = _gf2_reduce(pivots, zm | xm << n)[1]
        x, z, sign = _product_sign(xs, zs, self._rs, chooser)
        if x != xm or z != zm:
            raise AssertionError("tableau rows lost GF(2) independence")
        return sign ^ r_in

    def _readout_plan(self, basis: str) -> list[tuple[int, int] | None]:
        """Per qubit, read in order: (T, sign bit) of the group's +-X_T whose last qubit it is, or None.

        With X_0 ... X_(i-1) measured, the group holds +-X_i, so fixes outcome i, iff the stabilizer
        group holds some +-X_T whose last qubit is i. One echelon of the rows' Z parts chooses row
        products whose Z parts cancel: a basis of the group's X strings. A second, of their X parts
        with the sign bit below, puts one string at each last qubit: X strings multiply without phase.
        In graph form each chooser is itself a T, whose last qubit is its top bit, signed by :func:`_string_sign`.
        In Z it reads the rows of H on every qubit, X and Z parts swapped. H also sends Y to -Y, but the rows
        of a product whose X parts cancel hold an even count of Y: commuting rows have sum x_j.z_j = 0 mod 2
        there, as it equals (sum x_j).(sum z_j). Graph-form Z parts are unit vectors: every Z outcome is a coin.
        """
        plan: list[tuple[int, int] | None] = [None] * self.n
        if (graph := self._graph_form()) and basis == "z":
            return plan
        xs, zs, rs = (self._zs, self._xs, self._rs) if basis == "z" else (self._xs, self._zs, self._rs)
        choosers = _gf2_echelon(zs)[1].values()
        if graph:
            for chooser in choosers:
                plan[chooser.bit_length() - 1] = chooser, _string_sign(zs, rs, chooser)
            return plan
        products = (_product_sign(xs, zs, rs, chooser) for chooser in choosers)
        for top, (string, _) in _gf2_echelon([x << 1 | sign for x, _, sign in products])[0].items():
            plan[top - 1] = string >> 1, string & 1
        return plan


def _product_sign(xs: list[int], zs: list[int], rs: list[int], chooser: int) -> tuple[int, int, int]:
    """(x, z, sign form) of the product of the rows that ``chooser`` holds.

    Row j is (-1)^rs[j] i^(#Y) X^xs[j] Z^zs[j], as Y = iXZ. Multiplied from the last row down, each X
    that passes a Z of a row already in the product costs a -1, and the product's own Y letters take
    back their i's. Rows that commute may come in any order and leave an even power of i; odd raises.
    """
    x = z = sign = exp = 0
    while chooser:
        j = chooser.bit_length() - 1
        chooser ^= 1 << j
        xj, zj = xs[j], zs[j]
        exp += (xj & zj).bit_count() + 2 * (z & xj).bit_count()
        sign ^= rs[j]
        x ^= xj
        z ^= zj
    exp -= (x & z).bit_count()
    if exp & 1:
        raise AssertionError("tableau rows do not commute")
    return x, z, sign ^ exp >> 1 & 1


def _string_sign(zs: list[int], rs: list[int], chooser: int) -> int:
    """Sign form of +-X_chooser, the product of the graph-form rows in ``chooser``, as :func:`_product_sign` finds
    it: their signs, and half of the sum over them of |zs[j] & chooser|, each edge inside twice and each Y once."""
    rest, sign, twice = chooser, 0, 0
    while rest:
        j = rest.bit_length() - 1
        rest ^= 1 << j
        sign ^= rs[j]
        twice += (zs[j] & chooser).bit_count()
    return sign ^ twice >> 1 & 1
