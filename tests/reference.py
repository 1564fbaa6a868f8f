"""Oracles the tests share: replayed draws, rows of flips read in turn, per-row and per-qubit readouts, the
closed-form X outcomes of a readout plan, per-edge CZ masks, Pauli and gate matrices, the Kronecker Pauli action
and gates, paper data, a Python decoder walk and its cells, the per-pattern enumeration, flip-pattern chances and
g8's hand-written error polynomials, fixtures, the two-chain ring and the nested-list cuboid builder, a per-term
dense expectation, and the Pauli, state, stabilizer and homology helpers that only tests call.

Test modules import it as ``from reference import ...``; ``tests/`` has no
``__init__.py``, so pytest, and ``python tests/<module>.py``, put this
directory on ``sys.path``.
"""

import json
import math
from functools import reduce
from pathlib import Path

import numpy as np

from tecsim.cluster import ClusterState, InteractionGraph, _neighbor_masks
from tecsim.complexes import (
    _BOUNDARY_MAPS,
    _CUBOID_SPANS,
    CellComplex,
    Chain,
    _face_mask,
    _gf2_reduce,
    _volume_echelon,
    is_closed,
)
from tecsim.dense import DensityModel, StateVector, _apply_products
from tecsim.pauli import _LETTERS, PauliOperator
from tecsim.tableau import StabilizerTableau

RING5 = Path(__file__).resolve().parent / "fixtures" / "ring5.json"


def two_chain_ring(a: int, b: int) -> CellComplex:
    """Two chains, of a and b faces, around the defect, all sharing the edges {e1, e2}."""
    chains = {"a": a, "b": b}
    return CellComplex(
        volumes={f"v{c}{i}": {f"{c}{i}", f"{c}{i + 1}"} for c, m in chains.items() for i in range(1, m)},
        faces={f"{c}{i}": {"e1", "e2"} for c, m in chains.items() for i in range(1, m + 1)},
        edges={"e1": {"s", "t"}, "e2": {"s", "t"}},
    )


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


def walk_decoder(checks, surface: int, n: int) -> tuple[dict, np.ndarray]:
    """Leaders and tables from a Python walk over the 2^n flip patterns in weight order: each
    syndrome's first pattern leads it, and another pattern at its weight raises the tie."""
    def syndrome(flips):
        return tuple(-1 if (flips & check).bit_count() & 1 else 1 for check in checks)

    leaders, tables = {}, np.zeros((2, 1 << n), np.int64)
    for flips in sorted(range(1 << n), key=int.bit_count):
        best = leaders.setdefault(syndrome(flips), flips)
        if best != flips and best.bit_count() == flips.bit_count():
            raise AssertionError(f"minimum-weight tie for syndrome {syndrome(flips)}")
        tables[:, flips] = ((flips ^ best) & surface).bit_count() & 1, (flips & surface).bit_count() & 1
    return leaders, tables


def walk_cells(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A walk's tables as a code's cells and members: the bincount of each pattern's (class, weight), class
    2 * protected + unprotected failure, and the patterns sorted by (class, weight), mask order inside each."""
    n = tables.shape[1].bit_length() - 1
    classes = (2 * tables[0] + tables[1]).tolist()
    cell = [classes[k] * (n + 1) + k.bit_count() for k in range(1 << n)]
    members = sorted(range(1 << n), key=cell.__getitem__)  # a stable sort
    return np.bincount(cell, minlength=4 * (n + 1)).reshape(4, n + 1), np.array(members, np.uint32)


def code_verdicts(code) -> np.ndarray:
    """(protected, unprotected) failure of each flip bitmask, read back from ``code.cells`` and
    ``code.members``: the members run class by class, so class c holds the next cells[c].sum() of them."""
    classes = np.repeat(np.arange(4), code.cells.sum(1))
    verdicts = np.zeros((2, code.members.size), np.int64)
    verdicts[:, code.members] = classes >> 1, classes & 1
    return verdicts


def g8_unprotected_polynomial(p: float) -> float:
    """The paper's bare two-qubit correlation error rate, 2p(1 - p), written out by hand."""
    return 2.0 * p * (1.0 - p)


def g8_protected_polynomial(p: float) -> float:
    """The paper's residual error rate after decoding, written out by hand: g8 fails on
    6 patterns of weight 2, all 20 of weight 3 and 6 of weight 4, so no cancellation at tiny p."""
    q = 1.0 - p
    return 6.0 * p**2 * q**4 + 20.0 * p**3 * q**3 + 6.0 * p**4 * q**2


def per_pattern_enumeration(p: float, code) -> float:
    """The protected rate as ``math.fsum`` over one term p^w (1 - p)^(F - w) per failing pattern, listed from
    ``code.cells``' classes 2 and 3: 2^(F - 1) floats on a two-chain ring."""
    terms = [p**w * (1.0 - p) ** (len(code.faces) - w) for w in range(len(code.faces) + 1)]  # by weight
    return math.fsum(np.repeat(terms * 2, code.cells[2:].ravel()).tolist())


def pattern_chances(p: float, n: int) -> list[float]:
    """pi_k = p^|k| (1 - p)^(n - |k|): the chance that one trial flips exactly the faces of bitmask k."""
    return [p ** k.bit_count() * (1.0 - p) ** (n - k.bit_count()) for k in range(1 << n)]


MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
GATES = {  # each gate's 2x2 matrix, a two-qubit gate's the one on its target when its control is 1
    **MATS,
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2.0),
    "S": np.diag([1, 1j]),
    "CZ": MATS["Z"],
    "CNOT": MATS["X"],
}


def kronecker_pauli(state: StateVector, op: PauliOperator) -> np.ndarray:
    """Reference Pauli action: the amplitudes of ``op|psi>`` through ``dense._apply_products``, one 2x2 factor per
    qubit, the identity where ``op`` has none."""
    mats = MATS["I"][None, None].repeat(state.n, 1)
    for q in op.support():
        mats[0, q] = MATS[op.letter(q)]
    return op.phase * _apply_products(state.amps, mats)[0]


def kronecker_gate(n: int, gate: str, *targets: int) -> np.ndarray:
    """Reference gate: its literal 2^n x 2^n matrix, qubit 0 the leftmost factor. CZ and CNOT are |0><0| on the
    control plus |1><1| on the control times Z or X on the target."""
    def product(factors: dict) -> np.ndarray:
        return reduce(np.kron, [factors.get(q, MATS["I"]) for q in range(n)])

    if len(targets) == 1:
        return product({targets[0]: GATES[gate]})
    control, target = targets
    return product({control: np.diag([1.0, 0.0])}) + product({control: np.diag([0.0, 1.0]), target: GATES[gate]})


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


def flip_mask(row) -> int:
    """A bool row of flips as a reader's int qubit mask: bit q set where column q is."""
    return sum(1 << q for q in np.flatnonzero(row).tolist())


def read_rows(read, rng, flips: np.ndarray) -> list[list[int]]:
    """The outcomes of the reader ``read`` on each bool row of ``flips`` in turn, as its mask, from one ``rng``."""
    return [read(rng, flip_mask(row)) for row in flips]


def x_outcomes(plan: list[tuple[int, int] | None], flips, draw) -> list:
    """Outcome signs (1 for -1), in qubit order, of the X readout that a tableau's ``_readout_plan`` describes,
    after Z on each qubit q where ``flips[q]`` is set: Z on q flips every X_T with q in T.

    Fixed outcome i adds T's sign, its flips and the outcomes of T - {i}; any other is ``draw()``.
    No operand is updated in place, so flips, signs and draws may be bits or sign forms.
    """
    out: list = []
    for i, step in enumerate(plan):
        form, rest = (draw(), 0) if step is None else (step[1] ^ flips[i], step[0] ^ 1 << i)
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            form = form ^ flips[v] ^ out[v]
        out.append(form)
    return out


def per_row_readout(state: StateVector, rng, flips: np.ndarray, basis: str = "x") -> np.ndarray:
    """Reference block readout in ``basis``: each row of ``flips`` projects its own copy of the 2^n amplitudes.

    Row t measures qubit q, the top bit of what is left, and drops it, with a0 and a1 the halves where q
    is 0 and 1. In X, outcome s leaves (a0 + s a1) / sqrt(1 + s <X_q>), and Z on q is the sign of a1. In
    Z, X on q swaps a0 and a1, and outcome s keeps a0 (s = 1) or a1 (s = -1), over sqrt((1 + s <Z_q>) / 2).
    Parts of max(1, 2^16 >> n) rows each draw their rows' n doubles, in row order.
    """
    n, step = state.n, max(1, (1 << 16) >> state.n)
    if len(flips) > step:
        parts = [per_row_readout(state, rng, flips[i : i + step], basis) for i in range(0, len(flips), step)]
        return np.concatenate(parts)
    size, k = flips.shape
    draws, every, cursor = rng.random((size, n)), np.arange(size), np.zeros(size, np.intp)
    signs = 1.0 - 2.0 * np.concatenate([flips, np.zeros((size, n - k), bool)], 1)
    floats = state.amps.real if not state.amps.imag.any() else state.amps.view(np.float64)
    rest, outcomes = floats[None], np.empty((size, n), dtype=np.int64)
    for q in range(n):
        halves = rest.reshape(len(rest), 2, rest.shape[1] >> 1)  # a0, a1
        if basis == "x":
            expect = 2.0 * signs[:, q] * np.einsum("ij,ij->i", halves[:, 0], halves[:, 1])  # Re <psi|X_q|psi>
        else:
            halves = np.where(signs[:, q, None, None] < 0, halves[:, ::-1], halves)  # X on q swaps a0 and a1
            expect = (halves[:, 0] ** 2).sum(1) - (halves[:, 1] ** 2).sum(1)  # <psi|Z_q|psi>
        random = np.abs(expect) <= 1.0 - 1e-9
        outcome = np.where(random, np.where(draws[every, cursor] < 0.5 * (1.0 + expect), 1, -1), np.sign(expect))
        cursor += random
        if basis == "x":
            scale = 1.0 / np.sqrt(1.0 + outcome * expect)
            coefs = np.stack([scale, outcome * signs[:, q] * scale], 1)  # of a0 and a1
        else:
            scale = 1.0 / np.sqrt(0.5 * (1.0 + outcome * expect))
            coefs = np.stack([(outcome > 0) * scale, (outcome < 0) * scale], 1)
        rest = (coefs[:, None] @ halves)[:, 0]
        outcomes[:, q] = outcome
    return outcomes


def phase_flip_both_set(amps: np.ndarray, a: int, b: int) -> None:
    """Reference CZ on qubits a and b: negate, in place, the amplitudes whose labels set both, found by a 2^n mask."""
    n = amps.size.bit_length() - 1
    idx = np.arange(1 << n, dtype=np.uint32)
    amps[((idx >> (n - 1 - a)) & (idx >> (n - 1 - b)) & 1).astype(bool)] *= -1.0


def per_edge_graph_state(n: int, edges) -> np.ndarray:
    """Reference dense graph state: the uniform superposition's amplitudes after one CZ mask per edge, in order."""
    amps = np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=complex)
    for a, b in edges:
        phase_flip_both_set(amps, a, b)
    return amps


def unlabelled(backend) -> ClusterState:
    """``backend`` as the state of a cluster state with no interaction edges, as ``per_qubit_readout`` takes."""
    return ClusterState(InteractionGraph(tuple(f"q{i}" for i in range(backend.n)), ()), backend)


def per_qubit_readout(state, rng, basis="x"):
    """Reference readout: one single-qubit collapse per qubit in ``basis``, in vertex order, on a copy."""
    work, n = state.backend.copy(), state.graph.qubit_count
    return [work.measure_pauli(PauliOperator.single(n, q, basis.upper()), rng) for q in range(n)]


# ----------------------------------------------------------------------
# Pauli algebra


def identity(n: int) -> PauliOperator:
    return PauliOperator(n, 0, 0, 0)


def weight(op: PauliOperator) -> int:
    return (op.x_bits | op.z_bits).bit_count()


def pauli_from_text(text: str) -> PauliOperator:
    """Parse a string like ``"XZ"``, ``"-Y"`` or ``"iXY"`` into an operator."""
    if not text:
        raise ValueError("empty Pauli string")
    phase_exp = 0
    pos = 0
    if text[pos] in "+-":
        phase_exp = 2 if text[pos] == "-" else 0
        pos += 1
    if pos < len(text) and text[pos] == "i":
        phase_exp = (phase_exp + 1) % 4
        pos += 1
    body = text[pos:]
    if not body:
        raise ValueError(f"no Pauli letters after prefix in {text!r}")
    x_bits = z_bits = 0
    for q, ch in enumerate(body):
        if ch not in _LETTERS:
            raise ValueError(
                f"invalid character {ch!r} at position {pos + q} in {text!r}"
            )
        code = _LETTERS.index(ch)
        x_bits |= (code & 1) << q
        z_bits |= (code >> 1) << q
    return PauliOperator(len(body), x_bits, z_bits, phase_exp)


def _product_i_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """i-exponent (mod 4) picked up by the qubit-wise product of two strings.

    Per qubit the product of the literal Paulis selected by (x1, z1) and
    (x2, z2) is i**g times the literal Pauli selected by the XOR of the
    bits; ``pos``/``neg`` mark the qubits with g = +1 / g = -1.
    """
    pos = (x1 & z1 & z2 & ~x2) | (x1 & ~z1 & x2 & z2) | (z1 & ~x1 & x2 & ~z2)
    neg = (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & ~x2 & z2) | (z1 & ~x1 & x2 & z2)
    return (pos.bit_count() - neg.bit_count()) % 4


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Matrix product a @ b with the exact group phase."""
    if a.n != b.n:
        raise ValueError(f"operator sizes differ: {a.n} vs {b.n}")
    exp = (a.phase_exp + b.phase_exp + _product_i_exponent(a.x_bits, a.z_bits, b.x_bits, b.z_bits)) % 4
    return PauliOperator(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits, exp)


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff the symplectic product of the two strings is 0."""
    if a.n != b.n:
        raise ValueError(f"operator sizes differ: {a.n} vs {b.n}")
    return (((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) & 1) == 0


# ----------------------------------------------------------------------
# stabilizers and dense states


def stabilizer_generators(graph: InteractionGraph) -> list[PauliOperator]:
    """K_v = X_v Z_N(v): X on vertex v, Z on each interaction neighbour, in vertex order."""
    return [PauliOperator(graph.qubit_count, 1 << v, m, 0) for v, m in enumerate(_neighbor_masks(graph))]


def stabilizer(tab: StabilizerTableau, i: int) -> PauliOperator:
    return PauliOperator(tab.n, tab._xs[i], tab._zs[i], 2 * tab._rs[i])


def stabilizers(tab: StabilizerTableau) -> list[PauliOperator]:
    return [stabilizer(tab, i) for i in range(tab.n)]


def computational_zero(n: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


def pure(state: StateVector) -> DensityModel:
    return DensityModel(state.n, ((1.0, state),))


def apply_factors(amps: np.ndarray, factors) -> np.ndarray:
    """Amplitudes after each (qubit, 2x2 matrix) of ``factors``, one full-size einsum per qubit."""
    for q, u in factors:
        amps = np.einsum("ij,ajb->aib", u, amps.reshape(1 << q, 2, -1)).reshape(-1)
    return amps


def term_expectation(model: DensityModel, factors) -> float:
    """Per-term oracle: one tensor-product observable's expectation, ``factors`` one 2x2 matrix per
    qubit (None for the identity), applied to each ensemble member qubit by qubit, then ``vdot``;
    the uniform mixture adds the product of factor traces over 2**n."""
    local = [(q, np.asarray(f, dtype=complex)) for q, f in enumerate(factors) if f is not None]
    total = sum(weight * np.vdot(state.amps, apply_factors(state.amps, local)) for weight, state in model.components)
    trace_ratio = np.prod([np.trace(f) / 2.0 for _, f in local])
    return float((total + model.mixed_weight * trace_ratio).real)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 - global-phase insensitive."""
    if a.n != b.n:
        raise ValueError(f"states act on different qubit counts: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


# ----------------------------------------------------------------------
# complexes


def homology_class_key(surface: Chain, cx: CellComplex) -> frozenset[str]:
    """Canonical representative of a closed surface's homology class.

    Reduces the face set against a fixed echelon basis of the volume
    boundary space; equal keys mean homologically equivalent surfaces.
    """
    if surface.dimension != 2 or not is_closed(surface, cx):
        raise ValueError("expected a closed 2-chain")
    face_index, pivots = _volume_echelon(cx)
    result, _ = _gf2_reduce(pivots, _face_mask(surface.cells, face_index))
    return frozenset(name for name, i in face_index.items() if (result >> i) & 1)


def homologically_equivalent(
    surface: Chain, other: Chain, cx: CellComplex
) -> frozenset[str] | None:
    """Volume set V with surface + other = boundary(V), or None if inequivalent.

    Both chains must be closed 2-chains. Solved by Gaussian elimination
    over the faces x volumes boundary matrix; the empty witness means the
    surfaces are equal.
    """
    for c in (surface, other):
        if c.dimension != 2:
            raise ValueError("homological equivalence is defined for 2-chains")
        if not is_closed(c, cx):
            raise ValueError(f"chain {sorted(c.cells)} is not closed")
    face_index, pivots = _volume_echelon(cx)
    residue, combo = _gf2_reduce(pivots, _face_mask(surface.cells ^ other.cells, face_index))
    if residue:
        return None
    return frozenset(v for i, v in enumerate(cx.cells(3)) if (combo >> i) & 1)


def _cuboid_column(cells: list, ranges: list[range], step) -> list[str]:
    """Names ``cells[i + di][j + dj][k + dk]`` over the corners in ``ranges``, in corner order."""
    (nx, ny, nz), (di, dj, dk) = map(len, ranges), step
    return [c for plane in cells[di : di + nx] for row in plane[dj : dj + ny] for c in row[dk : dk + nz]]


def cuboid_reference(length: int, width: int, depth: int) -> CellComplex:
    """The cuboid lattice by the nested-list rule: each span's names in ``[i][j][k]`` lists, each boundary
    column a comprehension over them in corner order. The oracle for ``build_cuboid_complex``'s names,
    boundaries and map insertion order; it makes no capacity check."""
    dims = (length, width, depth)
    names: dict[str, list] = {}  # span -> [i][j][k] -> cell name
    maps: list[dict[str, frozenset[str]]] = [{}, {}, {}, {}]  # by dimension
    for span in _CUBOID_SPANS:
        kind, tag = "pefv"[len(span)], f"|{span}" if 0 < len(span) < 3 else ""
        rx, ry, rz = ranges = [range(n + (axis not in span)) for n, axis in zip(dims, "xyz")]
        names[span] = [[[f"{kind}({i},{j},{k}{tag})" for k in rz] for j in ry] for i in rx]
        # per spanned axis, the cells without it: at the corner, then a unit further along it
        columns = [_cuboid_column(names[span.replace(a, "")], ranges, [s * (b == a) for b in "xyz"])
                   for a in span for s in (0, 1)]
        maps[len(span)].update(zip(_cuboid_column(names[span], ranges, (0, 0, 0)), map(frozenset, zip(*columns))))
    return CellComplex(volumes=maps[3], faces=maps[2], edges=maps[1])


def complex_to_json(cx: CellComplex) -> str:
    """Lossless JSON form: boundary maps keyed by cell name."""
    payload = {key: {k: sorted(v) for k, v in getattr(cx, key).items()} for key in _BOUNDARY_MAPS}
    return json.dumps(payload, indent=2, sort_keys=True)
