from itertools import count
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tecsim.cluster import (
    ENGINES,
    ClusterState,
    InteractionGraph,
    build_cluster,
    interaction_graph,
    measure_all,
)
from tecsim.complexes import build_cuboid_complex, build_elementary_cell, build_g8_complex
from tecsim.dense import GATE_MATRICES
from tecsim.pauli import GATE_TARGETS, PauliOperator, pauli_to_text
from tecsim.rng import philox_generator
from tecsim.tableau import StabilizerTableau, _product_sign

from reference import (
    Replay,
    computational_zero,
    flip_mask,
    identity,
    multiply,
    pauli_from_text,
    per_qubit_readout,
    read_rows,
    stabilizer,
    stabilizer_generators,
    stabilizers,
    to_matrix,
    unlabelled,
    x_outcomes,
)

GATE_POOL = tuple(GATE_TARGETS.items())


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
    assert [pauli_to_text(s) for s in stabilizers(t)] == ["Z"]


def test_init_three_qubits():
    t = StabilizerTableau(3)
    assert [pauli_to_text(s) for s in stabilizers(t)] == ["ZII", "IZI", "IIZ"]


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
    s = computational_zero(1)
    for gate in ("H", "Z", "H"):
        s.apply_gate(gate, 0)
    z = pauli_from_text("Z")
    assert t.expectation_pauli(z) == -1
    assert abs(s.expectation_pauli(z) - (-1.0)) < 1e-12
    assert t.expectation_pauli(pauli_from_text("-Z")) == 1


def test_measure_z_on_zero_is_deterministic():
    t = StabilizerTableau(1)
    rng = philox_generator(0)
    before = [pauli_to_text(s) for s in stabilizers(t)]
    assert t.measure_pauli(pauli_from_text("Z"), rng) == 1
    assert [pauli_to_text(s) for s in stabilizers(t)] == before


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
        stabs = stabilizers(t)
        mrng = philox_generator(100 + trial)
        for s in stabs:
            if s.is_identity_string:
                continue
            assert t.measure_pauli(s, mrng) == 1
        # the stabilizer group is unchanged
        for s in stabs:
            assert t.expectation_pauli(s) == 1


def test_dependent_rows_fail_the_independence_check():
    """Row 1 a copy of row 0: Z_1 commutes with both rows but is no product of them."""
    tab = StabilizerTableau(2)
    tab._xs[1], tab._zs[1], tab._rs[1] = tab._xs[0], tab._zs[0], tab._rs[0]
    with pytest.raises(AssertionError, match=r"lost GF\(2\) independence"):
        tab.expectation_pauli(PauliOperator.single(2, 1, "Z"))


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


def test_engines_share_one_gate_alphabet():
    assert {*GATE_MATRICES, "CZ", "CNOT"} == GATE_TARGETS.keys()
    assert all(callable(getattr(StabilizerTableau, gate.lower(), None)) for gate in GATE_TARGETS)


# each gate as a sum of Pauli strings on its targets, in order: (coefficient, letters)
GATE_EXPANSIONS = {
    "H": ((2**-0.5, "X"), (2**-0.5, "Z")),
    "S": ((0.5 + 0.5j, "I"), (0.5 - 0.5j, "Z")),
    "X": ((1, "X"),),
    "Y": ((1, "Y"),),
    "Z": ((1, "Z"),),
    "CZ": ((0.5, "II"), (0.5, "ZI"), (0.5, "IZ"), (-0.5, "ZZ")),
    "CNOT": ((0.5, "II"), (0.5, "ZI"), (0.5, "IX"), (-0.5, "ZX")),
}


def gate_unitary(gate, targets, n):
    """The gate's 2^n x 2^n matrix, summed from its Pauli expansion by ``to_matrix``."""
    total = 0
    for coefficient, letters in GATE_EXPANSIONS[gate]:
        text = ["I"] * n
        for t, letter in zip(targets, letters):
            text[t] = letter
        total = total + coefficient * to_matrix(pauli_from_text("".join(text)))
    return total


def row_matrices(tab):
    """Every stabilizer row as the matrix of its signed Pauli."""
    return [to_matrix(PauliOperator(tab.n, x, z, 2 * r)) for x, z, r in zip(tab._xs, tab._zs, tab._rs)]


@pytest.mark.parametrize("gate", GATE_TARGETS)
def test_each_gate_maps_every_row_to_its_conjugate(gate):
    """Row j after the gate is U P_j U^dagger, P_j being row j before it, signs included."""
    rng = np.random.default_rng(len(gate) + 100 * GATE_TARGETS[gate])
    for _ in range(40):
        n = int(rng.integers(GATE_TARGETS[gate], 4))
        tab = StabilizerTableau(n)
        for name, targets in random_circuit(rng, n, int(rng.integers(0, 10))):
            tab.apply_gate(name, *targets)
        targets = [int(t) for t in rng.choice(n, size=GATE_TARGETS[gate], replace=False)]
        u = gate_unitary(gate, targets, n)
        assert np.allclose(u @ u.conj().T, np.eye(1 << n))
        before = row_matrices(tab)
        tab.apply_gate(gate, *targets)
        for j, (old, new) in enumerate(zip(before, row_matrices(tab))):
            assert np.allclose(new, u @ old @ u.conj().T), (gate, targets, j)


def _contents(state):
    if isinstance(state, StabilizerTableau):
        return state._xs.copy(), state._zs.copy(), state._rs.copy()
    return state.amps.tobytes()


@pytest.mark.parametrize("engine", [StabilizerTableau, computational_zero])
@pytest.mark.parametrize(
    "gate, targets, error",
    [
        ("SWAP", (0, 1), ValueError),
        ("H", (), ValueError),
        ("CZ", (0, 1, 2), ValueError),
        ("CZ", (1, 1), ValueError),
        ("H", (3,), IndexError),
        ("X", (-1,), IndexError),
        ("CNOT", (5, 0), IndexError),  # a bad control, after a target the gate would touch first
        ("cnot", (-1, 2), IndexError),
    ],
)
def test_bad_gate_calls_raise_alike_and_change_nothing(engine, gate, targets, error):
    state = engine(3).apply_gate("H", 0).apply_gate("CNOT", 0, 1).apply_gate("S", 2)
    before = _contents(state)
    with pytest.raises(error):
        state.apply_gate(gate, *targets)
    assert _contents(state) == before


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("text", ["iXZ", "-iXZ", "XZZ"])
def test_non_observables_raise_alike_on_both_engines(engine, text):
    """A Pauli with phase +-i, or on the wrong qubit count, has no expectation and no outcome."""
    state = build_cluster(InteractionGraph(("a", "b"), ((0, 1),)), engine)
    before = _contents(state.backend)
    with pytest.raises(ValueError, match="not Hermitian|acts on 3 qubits") as expectation:
        state.backend.expectation_pauli(pauli_from_text(text))
    assert "measurement" not in str(expectation.value)
    with pytest.raises(ValueError, match="not Hermitian|acts on 3 qubits"):
        state.backend.measure_pauli(pauli_from_text(text), philox_generator(0))
    assert _contents(state.backend) == before


def test_measure_validation():
    t = StabilizerTableau(2)
    rng = philox_generator(0)
    with pytest.raises(ValueError):
        t.measure_pauli(identity(2), rng)
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
        vec = computational_zero(n)
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


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_tableau_follows_dense_oracle_on_random_circuits(data):
    """Gates and Hermitian Pauli measurements in any order: same expectations, same states.

    The tableau draws each random outcome from a Philox path; the dense
    state is sent down the same branch, so the two stay equal throughout.
    """
    n = data.draw(st.integers(1, 6), label="qubits")
    seed = data.draw(st.integers(0, 2**64 + 5), label="seed")
    pool = tuple(gate for gate in GATE_POOL if gate[1] <= n)
    tab, vec = StabilizerTableau(n), computational_zero(n)
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
        # a dense random outcome is +1 iff its one double is below its probability
        assert vec.measure_pauli(op, Replay([0.0] if outcome == 1 else [1 - 2**-53])) == outcome
    # each stabilizer and each product of two is +1 on both; products carry the i-phases
    rows = stabilizers(tab)
    for i, a in enumerate(rows):
        for b in rows[i:]:
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
        for j in range(tab.n):
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
    feed = Replay(bits=bits)
    record = measure_all(concrete, feed, "x")
    assert symbolic == [record.value(label) for label in labels]
    # one variable per random outcome, none beyond them
    assert max(form.bit_length() for form in forms) <= 1 + len(flip_qubits) + feed.used


# ----------------------------------------------------------------------
# closed-form X readout of every tableau against per-qubit collapse


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
    assert state.backend._zs == z_bits == neighbor_masks(n, edges)


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
    assert [record.value(label) for label in state.graph.vertices] == per_qubit_readout(
        state, philox_generator(seed, 0)
    )
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="bits")
    ours, reference = Replay(bits=bits), Replay(bits=bits)
    record = measure_all(state, ours, "x")
    assert [record.value(label) for label in state.graph.vertices] == per_qubit_readout(
        state, reference
    )
    assert ours.used == reference.used


def off_graph_form(tab, rng):
    """A copy of ``tab`` after H and S on a few qubits, a CNOT and a Z measurement: Y rows and mixed products."""
    work = tab.copy()
    for q in rng.choice(work.n, size=min(3, work.n), replace=False):
        work.apply_gate(str(rng.choice(["H", "S"])), int(q))
    if work.n > 1:
        work.apply_gate("CNOT", *(int(q) for q in rng.choice(work.n, size=2, replace=False)))
    z = PauliOperator.single(work.n, int(rng.integers(work.n)), "Z")
    work.measure_pauli(z, philox_generator(int(rng.integers(2**32))))
    return work


@pytest.mark.parametrize("name", ["g8", "elementary", "cuboid 2x2x2", "cuboid 3x3x2"])
def test_closed_form_sign_forms_equal_reference_forms(name):
    """The readout plan evaluated on sign forms, a variable per flip and per random outcome, gives the
    symbolic per-qubit collapse's forms: on the graph state and on a copy taken off graph form."""
    graph_state = build_cluster(interaction_graph(COMPLEXES[name]())).backend
    rng = np.random.default_rng(len(name))
    for tab in (graph_state, off_graph_form(graph_state, rng)):
        plan = tab._readout_plan("x")
        for _ in range(5):
            flip_qubits = [int(q) for q in rng.choice(tab.n, size=min(12, tab.n), replace=False)]
            flips = [0] * tab.n
            for v, q in enumerate(flip_qubits):
                flips[q] = 2 << v
            fresh = count(1 + len(flip_qubits))
            assert x_outcomes(plan, flips, lambda: 1 << next(fresh)) == readout_forms_x(tab, flip_qubits)


@st.composite
def clifford_tableaus(draw, max_qubits=12):
    """A tableau after up to 40 steps: gates of the CHP set plus Y, Z measurements and Pauli measurements.
    Half start from |+>^n, whose group holds every X string, so the strings' last qubits often collide."""
    n = draw(st.integers(1, max_qubits), label="qubits")
    tab, pool = StabilizerTableau(n), tuple(gate for gate in GATE_POOL if gate[1] <= n)
    if draw(st.booleans(), label="from |+>^n"):
        for q in range(n):
            tab.h(q)
    for k, step in enumerate(draw(st.lists(st.sampled_from(["gate"] * 8 + ["z", "pauli"]), max_size=40))):
        if step == "gate":
            name, arity = draw(st.sampled_from(pool))
            tab.apply_gate(name, *draw(st.permutations(range(n)))[:arity])
        elif step == "z":
            tab.measure_pauli(PauliOperator.single(n, draw(st.integers(0, n - 1)), "Z"), philox_generator(n, k))
        else:
            x, z = draw(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)).filter(any))
            tab.measure_pauli(PauliOperator(n, x, z, draw(st.sampled_from((0, 2)))), philox_generator(n, k))
    return tab


@settings(derandomize=True, deadline=None, max_examples=150)
@given(clifford_tableaus(), st.data())
def test_x_readout_of_any_tableau_is_the_per_qubit_collapse(tab, data):
    """In X or Z, one state and rows of flipped copies (Z in X, X in Z), read in turn through one reader as their
    masks, read out, in closed form, as each copy's per-qubit collapse in that basis given the same draws, and take
    as many draws; no readout collapses a row. A fresh reader per row on one stream reads the same rows from
    the same draws."""
    n, basis = tab.n, data.draw(st.sampled_from("xz"), label="basis")
    bits = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=4))
    flips = np.array(data.draw(st.lists(st.booleans(), min_size=len(bits) * n, max_size=len(bits) * n)))
    flips = flips.reshape(len(bits), n)[:, : data.draw(st.integers(0, n), label="flipped columns")]
    expected, feeds = [], [Replay(bits=row) for row in bits]
    for row, feed in zip(flips, feeds):
        copy = tab.copy()
        for q in np.flatnonzero(row).tolist():
            copy.apply_gate("Z" if basis == "x" else "X", q)
        expected.append(per_qubit_readout(unlabelled(copy), feed, basis))
    coins = feeds[0].used  # every copy has the same random outcomes
    alone = per_qubit_readout(unlabelled(tab), Replay(bits=bits[0]), basis)
    before, collapse, calls = [row.copy() for row in rows(tab)], StabilizerTableau._collapse, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StabilizerTableau, "_collapse", lambda *args: calls.append(args) or collapse(*args))
        single, block = Replay(bits=bits[0]), Replay(bits=[b for row in bits for b in row[:coins]])
        assert tab.reader(basis)(single) == alone
        assert read_rows(tab.reader(basis), block, flips) == expected
        stream = Replay(bits=[b for row in bits for b in row[:coins]])
        assert [tab.reader(basis)(stream, flip_mask(row)) for row in flips] == expected
    assert calls == [] and single.used == coins and block.used == stream.used == coins * len(bits)
    assert list(rows(tab)) == before


@settings(derandomize=True, deadline=None, max_examples=100)
@given(clifford_tableaus(), st.data())
def test_row_product_sign_is_a_fold_of_multiply(tab, data):
    """The rows of a tableau commute; the helper's product of any of them is the left-to-right
    ``multiply`` fold of their operators."""
    chooser = data.draw(st.integers(0, (1 << tab.n) - 1), label="rows")
    x, z, sign = _product_sign(tab._xs, tab._zs, tab._rs, chooser)
    product = identity(tab.n)
    for j in range(tab.n):
        if chooser >> j & 1:
            product = multiply(product, stabilizer(tab, j))
    assert PauliOperator(tab.n, x, z, 2 * sign) == product


def test_row_product_of_anticommuting_rows_raises():
    with pytest.raises(AssertionError, match="do not commute"):
        _product_sign([1, 0], [0, 1], [0, 0], 0b11)  # X and Z on one qubit


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.one_of(
        st.one_of(random_graphs(max_qubits=6), dense_graphs(max_qubits=6)).map(
            lambda graph: StabilizerTableau.graph_state(neighbor_masks(*graph))
        ),
        clifford_tableaus(max_qubits=6),
    ),
    st.integers(0, 2**32 - 1),
)
def test_x_reader_is_the_reference_x_outcomes_for_every_flip_mask(tab, seed):
    """For each of the 2^n int flip masks and its own coins, the X reader reads the reference ``x_outcomes`` of
    the tableau's readout plan, the mask's bits as the flips, and draws one coin per random outcome."""
    plan, read = tab._readout_plan("x"), tab.reader("x")
    coins = np.random.default_rng(seed).integers(0, 2, (1 << tab.n, plan.count(None))).tolist()
    for flips, row in enumerate(coins):
        feed, bits = Replay(bits=row), iter(row)
        expected = x_outcomes(plan, [flips >> q & 1 for q in range(tab.n)], bits.__next__)
        assert read(feed, flips) == [1 - 2 * sign for sign in expected], flips
        assert feed.used == len(row), flips


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.one_of(random_graphs(12), dense_graphs(12)).filter(lambda graph: graph[0] > 1), st.data())  # dense: odd cycles
def test_graph_form_reads_and_expects_as_the_collapse_the_dense_oracle_and_its_rows_reversed(graph, data):
    """A graph state after X, Y, Z, CZ and S gates keeps its rows in graph form, +-X_v Z_zs[v] with diagonal
    Z bits from S and signs from the Paulis. In X and Z it reads out, flipped or not, as the per-qubit collapse
    given the same draws, and each Hermitian Pauli, in its group or not, has the dense oracle's expectation.
    Its rows in reverse order are the same group off graph form, on the general path: they read out bit for
    bit the same and give the same expectations."""
    n, edges = graph
    state = labelled_cluster(n, edges)
    tab, vec = state.backend, build_cluster(state.graph, "dense").backend
    for letter in data.draw(st.lists(st.sampled_from("XYZSC"), max_size=24), label="gates"):
        name, targets = ("CZ", 2) if letter == "C" else (letter, 1)
        targets = data.draw(st.permutations(range(n)))[:targets]
        tab.apply_gate(name, *targets)
        vec.apply_gate(name, *targets)
    reversed_rows = tab.copy()
    for part in rows(reversed_rows):
        part.reverse()
    assert tab._graph_form() and not reversed_rows._graph_form()
    masks = tab._zs  # graph-form rows commute iff their neighbour masks are symmetric, which `_string_sign` relies on
    assert all((masks[u] >> v ^ masks[v] >> u) & 1 == 0 for u in range(n) for v in range(u))
    for basis in "xz":
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="bits")
        flips = data.draw(st.integers(0, (1 << n) - 1), label="flips")
        flipped = tab.copy()
        for q in range(n):
            if flips >> q & 1:
                flipped.apply_gate("Z" if basis == "x" else "X", q)
        expected = per_qubit_readout(unlabelled(flipped), Replay(bits=bits), basis)
        assert tab.reader(basis)(Replay(bits=bits), flips) == expected, basis
        assert reversed_rows.reader(basis)(Replay(bits=bits), flips) == expected, basis
    generators = stabilizers(tab)
    for _ in range(6):
        chooser = data.draw(st.integers(0, (1 << n) - 1), label="rows")
        moved = data.draw(st.one_of(st.just(0), st.integers(0, (1 << n) - 1)), label="Z bits moved")
        product = identity(n)
        for j in range(n):
            if chooser >> j & 1:
                product = multiply(product, generators[j])
        negated = data.draw(st.integers(0, 1), label="negated")
        op = PauliOperator(n, product.x_bits, product.z_bits ^ moved, (product.phase_exp + 2 * negated) % 4)
        value = tab.expectation_pauli(op)
        assert abs(vec.expectation_pauli(op) - value) < 1e-9, pauli_to_text(op)
        assert reversed_rows.expectation_pauli(op) == value, pauli_to_text(op)
        assert value == (0 if moved else 1 - 2 * negated), pauli_to_text(op)  # only +-a product of rows is in
