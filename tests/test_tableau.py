from itertools import count
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tecsim.cluster import (
    ClusterState,
    InteractionGraph,
    build_cluster,
    interaction_graph,
    measure_all,
    stabilizer_generators,
)
from tecsim.complexes import _gf2_echelon, build_cuboid_complex, build_elementary_cell, build_g8_complex
from tecsim.dense import StateVector
from tecsim.pauli import PauliOperator, multiply, pauli_from_text, pauli_to_text
from tecsim.rng import philox_generator
from tecsim.tableau import StabilizerTableau, _graph_readout_x

GATE_POOL = (("H", 1), ("S", 1), ("X", 1), ("Z", 1), ("CZ", 2), ("CNOT", 2))


def random_circuit(rng, n, depth):
    ops = []
    for _ in range(depth):
        name, arity = GATE_POOL[int(rng.integers(len(GATE_POOL)))]
        if arity == 2 and n < 2:
            name, arity = "H", 1
        targets = rng.choice(n, size=arity, replace=False)
        ops.append((name, tuple(int(t) for t in targets)))
    return ops


def random_hermitian_pauli(rng, n):
    while True:
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        if x or z:
            return PauliOperator(n, x, z, 2 * int(rng.integers(0, 2)))


def test_init_single_qubit():
    t = StabilizerTableau(1)
    assert [pauli_to_text(s) for s in t.stabilizers()] == ["Z"]


def test_init_three_qubits():
    t = StabilizerTableau(3)
    assert [pauli_to_text(s) for s in t.stabilizers()] == ["ZII", "IZI", "IIZ"]


def test_fresh_state_has_no_x_expectation():
    t = StabilizerTableau(3)
    for q in range(3):
        assert t.expectation_pauli(PauliOperator.single(3, q, "X")) == 0
        assert t.expectation_pauli(PauliOperator.single(3, q, "Z")) == 1


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        StabilizerTableau(2).expectation_pauli(pauli_from_text("X"))


def test_init_rejects_zero_qubits():
    with pytest.raises(ValueError):
        StabilizerTableau(0)


def test_h_on_zero_gives_x_stabilizer():
    t = StabilizerTableau(1)
    t.apply_gate("H", 0)
    assert t.expectation_pauli(pauli_from_text("X")) == 1


def test_cz_on_plus_plus_gives_graph_state():
    t = StabilizerTableau(2)
    t.h(0)
    t.h(1)
    t.cz(0, 1)
    assert t.expectation_pauli(pauli_from_text("XZ")) == 1
    assert t.expectation_pauli(pauli_from_text("ZX")) == 1


def test_hzh_matches_dense_oracle():
    t = StabilizerTableau(1)
    for gate in ("H", "Z", "H"):
        t.apply_gate(gate, 0)
    s = StateVector.computational_zero(1)
    for gate in ("H", "Z", "H"):
        s.apply_gate(gate, 0)
    z = pauli_from_text("Z")
    assert t.expectation_pauli(z) == -1
    assert abs(s.expectation_pauli(z) - (-1.0)) < 1e-12
    assert t.expectation_pauli(pauli_from_text("-Z")) == 1


def test_measure_z_on_zero_is_deterministic():
    t = StabilizerTableau(1)
    rng = philox_generator(0)
    before = [pauli_to_text(s) for s in t.stabilizers()]
    assert t.measure_pauli(pauli_from_text("Z"), rng) == 1
    assert [pauli_to_text(s) for s in t.stabilizers()] == before


def test_measure_x_reproducible_per_seed():
    outcomes = []
    for _ in range(2):
        t = StabilizerTableau(1)
        outcomes.append(t.measure_pauli(pauli_from_text("X"), philox_generator(42)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] in (-1, 1)


def test_measuring_current_stabilizer_returns_plus_one():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(2, 6))
        t = StabilizerTableau(n)
        for name, targets in random_circuit(rng, n, 10):
            t.apply_gate(name, *targets)
        stabs = t.stabilizers()
        mrng = philox_generator(100 + trial)
        for s in stabs:
            if s.is_identity_string:
                continue
            assert t.measure_pauli(s, mrng) == 1
        # the stabilizer group is unchanged
        for s in stabs:
            assert t.expectation_pauli(s) == 1


def test_gate_validation():
    t = StabilizerTableau(2)
    with pytest.raises(IndexError):
        t.apply_gate("H", 2)
    with pytest.raises(ValueError):
        t.apply_gate("CZ", 1, 1)
    with pytest.raises(ValueError):
        t.apply_gate("CZ", 0)
    with pytest.raises(ValueError):
        t.apply_gate("SWAP", 0, 1)


def test_measure_validation():
    t = StabilizerTableau(2)
    rng = philox_generator(0)
    with pytest.raises(ValueError):
        t.measure_pauli(PauliOperator.identity(2), rng)
    with pytest.raises(ValueError):
        t.measure_pauli(pauli_from_text("iXZ"), rng)
    with pytest.raises(ValueError):
        t.measure_pauli(pauli_from_text("X"), rng)
    with pytest.raises(IndexError):
        t.measure_x(5, rng)


def test_copy_is_independent():
    t = StabilizerTableau(2)
    dup = t.copy()
    dup.h(0)
    assert t.expectation_pauli(pauli_from_text("ZI")) == 1
    assert dup.expectation_pauli(pauli_from_text("ZI")) == 0


def test_random_circuits_agree_with_dense_oracle():
    """1000 random Clifford circuits: expectations exact, outcomes unbiased."""
    rng = np.random.default_rng(2026)
    random_plus_tab = random_plus_dense = draws = 0
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        circuit = random_circuit(rng, n, 12)
        tab = StabilizerTableau(n)
        vec = StateVector.computational_zero(n)
        for name, targets in circuit:
            tab.apply_gate(name, *targets)
            vec.apply_gate(name, *targets)
        op = random_hermitian_pauli(rng, n)
        expect_tab = tab.expectation_pauli(op)
        expect_dense = vec.expectation_pauli(op)
        assert abs(expect_dense - expect_tab) < 1e-9, (trial, pauli_to_text(op))
        out_tab = tab.measure_pauli(op, philox_generator(trial, 0))
        out_dense = vec.measure_pauli(op, philox_generator(trial, 1))
        if expect_tab != 0:
            assert out_tab == expect_tab
            assert out_dense == expect_tab
        else:
            draws += 1
            random_plus_tab += out_tab == 1
            random_plus_dense += out_dense == 1
        # post-measurement state is an eigenstate of the measured operator
        assert tab.expectation_pauli(op) == out_tab
        assert abs(vec.expectation_pauli(op) - out_dense) < 1e-9
    assert draws > 300  # random-outcome branch was exercised
    bound = 3 * 0.5 * np.sqrt(draws)
    assert abs(random_plus_tab - draws / 2) < bound
    assert abs(random_plus_dense - draws / 2) < bound


class ForcedOutcome:
    """A dense-engine rng whose one ``random()`` draw picks ``outcome`` on a random measurement."""

    def __init__(self, outcome):
        self.outcome = outcome

    def random(self):
        return 0.0 if self.outcome == 1 else 1.0 - 2**-53


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_tableau_follows_dense_oracle_on_random_circuits(data):
    """Gates and Hermitian Pauli measurements in any order: same expectations, same states.

    The tableau draws each random outcome from a Philox path; the dense
    state is sent down the same branch, so the two stay equal throughout.
    """
    n = data.draw(st.integers(1, 6), label="qubits")
    seed = data.draw(st.integers(0, 2**64 + 5), label="seed")
    pool = GATE_POOL if n > 1 else GATE_POOL[:4]
    tab, vec = StabilizerTableau(n), StateVector.computational_zero(n)
    for k, measure in enumerate(data.draw(st.lists(st.booleans(), max_size=24), label="steps")):
        if not measure:
            name, arity = data.draw(st.sampled_from(pool))
            targets = data.draw(st.permutations(range(n)))[:arity]
            tab.apply_gate(name, *targets)
            vec.apply_gate(name, *targets)
            continue
        x, z = data.draw(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
                         .filter(lambda xz: xz != (0, 0)))
        op = PauliOperator(n, x, z, data.draw(st.sampled_from((0, 2))))
        expected = tab.expectation_pauli(op)
        assert abs(vec.expectation_pauli(op) - expected) < 1e-9, pauli_to_text(op)
        outcome = tab.measure_pauli(op, philox_generator(seed, k))
        assert expected in (0, outcome)
        assert vec.measure_pauli(op, ForcedOutcome(outcome)) == outcome
    # each stabilizer and each product of two is +1 on both; products carry the i-phases
    stabilizers = tab.stabilizers()
    for i, a in enumerate(stabilizers):
        for b in stabilizers[i:]:
            product = a if a is b else multiply(a, b)
            assert tab.expectation_pauli(product) == 1, pauli_to_text(product)
            assert abs(vec.expectation_pauli(product) - 1.0) < 1e-9, pauli_to_text(product)


def test_graph_state_generators_all_plus_one():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        edges = {
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.4
        }
        t = StabilizerTableau(n)
        for q in range(n):
            t.h(q)
        for a, b in edges:
            t.cz(a, b)
        for i in range(n):
            zmask = 0
            for a, b in edges:
                if a == i:
                    zmask |= 1 << b
                elif b == i:
                    zmask |= 1 << a
            k = PauliOperator(n, 1 << i, zmask, 0)
            assert t.expectation_pauli(k) == 1


# ----------------------------------------------------------------------
# closed-form graph states against the gate sequence they replace


def gate_sequence_graph_state(n, edges):
    """Reference build: H on every qubit, then CZ on every edge."""
    t = StabilizerTableau(n)
    for q in range(n):
        t.h(q)
    for a, b in edges:
        t.cz(a, b)
    return t


def neighbor_masks(n, edges):
    masks = [0] * n
    for a, b in edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def rows(t):
    return t._xs, t._zs, t._rs


@st.composite
def random_graphs(draw, max_qubits=14):
    n = draw(st.integers(1, max_qubits))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    # CZ gates commute, so any edge order must give the same rows
    order = draw(st.permutations(sorted(chosen)))
    return n, [(b, a) if draw(st.booleans()) else (a, b) for a, b in order]


@given(random_graphs())
def test_graph_state_matches_gate_sequence_on_random_graphs(graph):
    n, edges = graph
    closed = StabilizerTableau.graph_state(neighbor_masks(n, edges))
    assert rows(closed) == rows(gate_sequence_graph_state(n, edges))


COMPLEXES = {
    "g8": build_g8_complex,
    "elementary": build_elementary_cell,
    "cuboid 2x2x2": lambda: build_cuboid_complex(2, 2, 2),
    "cuboid 3x3x2": lambda: build_cuboid_complex(3, 3, 2),
    "cuboid 3x3x3": lambda: build_cuboid_complex(3, 3, 3),
}


@pytest.mark.parametrize("name", COMPLEXES)
def test_build_cluster_rows_match_gate_sequence(name):
    graph = interaction_graph(COMPLEXES[name]())
    built = build_cluster(graph, "tableau").backend
    reference = gate_sequence_graph_state(graph.qubit_count, graph.edges)
    assert rows(built) == rows(reference)


@pytest.mark.parametrize("name", ["g8", "elementary", "cuboid 2x2x2"])
def test_seeded_x_readout_matches_gate_sequence(name):
    graph = interaction_graph(COMPLEXES[name]())
    reference = ClusterState(
        graph, gate_sequence_graph_state(graph.qubit_count, graph.edges)
    )
    built = build_cluster(graph, "tableau")
    for seed in (0, 7, 2026):
        assert measure_all(built, philox_generator(seed, 0), "x") == measure_all(
            reference, philox_generator(seed, 0), "x"
        )


class ScriptedBits:
    """An rng whose ``integers(0, 2, size)`` hands out the given bits in order: one bit,
    or an array of ``size`` of them."""

    def __init__(self, bits):
        self.bits = bits
        self.used = 0

    def integers(self, low, high, size=None):
        start = self.used
        self.used += 1 if size is None else size
        return self.bits[start] if size is None else np.array(self.bits[start : self.used], np.int64)


def readout_forms_x(tab, flip_qubits):
    """Reference symbolic readout: sign forms of an X readout of every qubit, after Z flips.

    Qubits are read in order. Variable v (bit v + 1) is a Z on
    ``flip_qubits[v]``; each random outcome takes the next free bit, in
    readout order. Qubit i reads -1 exactly when ``forms[i]`` has odd overlap
    with ``1 | flips << 1 | bits << (1 + len(flip_qubits))``, the bits being
    the random outcomes. Runs the per-qubit tableau collapse on a copy, with
    an rng that hands out variables instead of bits.
    """
    work = tab.copy()
    xs, rs = work._xs, work._rs
    for v, q in enumerate(flip_qubits):
        bit = 1 << q
        for j in range(2 * tab.n):
            if xs[j] & bit:
                rs[j] ^= 2 << v
    fresh = count(1 + len(flip_qubits))  # each random outcome draws a new variable
    variables = SimpleNamespace(integers=lambda low, high: 1 << next(fresh))
    return [work._collapse(work._anticommuting(1 << q, 0), 1 << q, 0, 0, variables) for q in range(tab.n)]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(random_graphs(max_qubits=10), st.data())
def test_readout_forms_match_concrete_x_readout(graph, data):
    """The symbolic X readout, evaluated at some flips and bits, is the concrete readout."""
    n, edges = graph
    labels = tuple(f"q{i}" for i in range(n))
    state = build_cluster(
        InteractionGraph(labels, tuple((min(e), max(e)) for e in edges))
    )
    # local H and S make Y rows and nontrivial product phases
    for gate, q in data.draw(st.lists(st.tuples(st.sampled_from("HS"), st.integers(0, n - 1)))):
        state.backend.apply_gate(gate, q)
    flip_qubits = data.draw(st.lists(st.integers(0, n - 1), unique=True), label="flip qubits")
    flips = data.draw(st.lists(st.booleans(), min_size=len(flip_qubits), max_size=len(flip_qubits)))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="bits")

    before = [row.copy() for row in rows(state.backend)]
    forms = readout_forms_x(state.backend, flip_qubits)
    assert list(rows(state.backend)) == before  # the symbolic pass leaves the state alone
    values = [1, *flips, *bits]
    point = sum(v << i for i, v in enumerate(values))
    symbolic = [1 - 2 * ((form & point).bit_count() & 1) for form in forms]

    concrete = state.copy()
    for q, flip in zip(flip_qubits, flips):
        if flip:
            concrete.backend.apply_gate("Z", q)
    feed = ScriptedBits(bits)
    record = measure_all(concrete, feed, "x")
    assert symbolic == [record.value(label) for label in labels]
    # one variable per random outcome, none beyond them
    assert max(form.bit_length() for form in forms) <= 1 + len(flip_qubits) + feed.used


# ----------------------------------------------------------------------
# closed-form X readout of graph states against per-qubit collapse


def labelled_cluster(n, edges):
    labels = tuple(f"q{i}" for i in range(n))
    graph = InteractionGraph(labels, tuple((min(e), max(e)) for e in edges))
    return build_cluster(graph)


@settings(derandomize=True, deadline=None)
@given(random_graphs(max_qubits=20))
def test_build_cluster_masks_are_the_generators_z_bits(graph):
    n, edges = graph
    state = labelled_cluster(n, edges)
    z_bits = [g.z_bits for g in stabilizer_generators(state.graph)]
    assert state.backend._zs[n:] == z_bits == neighbor_masks(n, edges)


def per_qubit_x_readout(state, rng):
    """Reference X readout: one ``measure_x`` collapse per qubit, on a copy."""
    work = state.backend.copy()
    return [work.measure_x(q, rng) for q in range(work.n)]


@st.composite
def dense_graphs(draw, max_qubits=40):
    """Graphs with each pair joined by a coin flip, so odd cycles, where e(S) is odd, are common."""
    n = draw(st.integers(1, max_qubits))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    joined = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [pair for pair, join in zip(pairs, joined) if join]


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.one_of(random_graphs(max_qubits=40), dense_graphs()), st.data())
def test_closed_form_x_readout_matches_per_qubit_collapse(graph, data):
    n, edges = graph
    state = labelled_cluster(n, edges)
    for q in data.draw(st.sets(st.integers(0, n - 1)), label="Z flips"):
        state.backend.apply_gate("Z", q)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    record = measure_all(state, philox_generator(seed, 0), "x")
    assert [record.value(label) for label in state.graph.vertices] == per_qubit_x_readout(
        state, philox_generator(seed, 0)
    )
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="bits")
    ours, reference = ScriptedBits(bits), ScriptedBits(bits)
    record = measure_all(state, ours, "x")
    assert [record.value(label) for label in state.graph.vertices] == per_qubit_x_readout(
        state, reference
    )
    assert ours.used == reference.used


@pytest.mark.parametrize("name", ["g8", "elementary", "cuboid 2x2x2", "cuboid 3x3x2"])
def test_closed_form_sign_forms_equal_reference_forms(name):
    state = build_cluster(interaction_graph(COMPLEXES[name]()))
    tab = state.backend
    rng = np.random.default_rng(len(name))
    for _ in range(5):
        flip_qubits = [int(q) for q in rng.choice(tab.n, size=min(12, tab.n), replace=False)]
        signs = [0] * tab.n
        for v, q in enumerate(flip_qubits):
            signs[q] ^= 2 << v
        fresh = count(1 + len(flip_qubits))
        masks = [s.z_bits for s in tab.stabilizers()]
        forms = _graph_readout_x(masks, _gf2_echelon(masks)[1], signs, lambda: 1 << next(fresh))
        assert forms == readout_forms_x(tab, flip_qubits)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.one_of(random_graphs(max_qubits=20), dense_graphs(max_qubits=20)), st.integers(0, 2**32 - 1))
def test_closed_form_x_readout_runs_on_bit_columns(graph, seed):
    """Each column of a readout on bit columns is that trial's readout on bits; signs stay as given."""
    n, edges = graph
    masks = neighbor_masks(n, edges)
    dependent = _gf2_echelon(masks)[1]
    rng = np.random.default_rng(seed)
    signs, draws = rng.integers(0, 2, (2, n, 16)).astype(bool)
    given_signs = signs.copy()
    columns = iter(draws)
    out = _graph_readout_x(masks, dependent, list(signs), lambda: next(columns))
    assert np.array_equal(signs, given_signs)
    for t in range(16):
        bits = iter(draws[:, t].tolist())
        scalar = _graph_readout_x(masks, dependent, signs[:, t].tolist(), lambda: next(bits))
        assert [int(column[t]) for column in out] == [int(bit) for bit in scalar], t
