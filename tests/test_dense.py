from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tecsim.cluster import InteractionGraph, interaction_graph, measure_all
from tecsim.complexes import build_g8_complex
from tecsim.dense import (
    DensityModel,
    StateVector,
    _apply_products,
    build_graph_state_dense,
    expectation_observable,
)
from tecsim.errors import CapacityError
from tecsim.pauli import GATE_TARGETS, PauliOperator
from tecsim.rng import philox_generator

from reference import (
    Replay,
    computational_zero,
    fidelity,
    flip_mask,
    kronecker_gate,
    kronecker_pauli,
    outcome_mask,
    pauli_from_text,
    per_edge_graph_state,
    per_qubit_readout,
    per_row_readout,
    phase_flip_both_set,
    pure,
    read_rows,
    term_expectation,
    unlabelled,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def eq3_amplitudes() -> np.ndarray:
    """The experimental eight-qubit state written out by hand."""
    amps = np.zeros(256, dtype=complex)
    amps[0b00000000] = 0.5
    amps[0b00000011] = 0.5
    amps[0b11111100] = 0.5
    amps[0b11111111] = -0.5
    return amps


def single_vertex_graph() -> InteractionGraph:
    return InteractionGraph(("q0",), ())


def two_vertex_graph() -> InteractionGraph:
    return InteractionGraph(("q0", "q1"), ((0, 1),))


def test_graph_state_single_vertex():
    state = build_graph_state_dense(single_vertex_graph())
    assert np.allclose(state.amps, np.array([1, 1]) / np.sqrt(2))


def test_graph_state_single_edge():
    state = build_graph_state_dense(two_vertex_graph())
    assert np.allclose(state.amps, np.array([1, 1, 1, -1]) / 2.0)


def test_g8_graph_state_matches_experimental_state():
    graph = interaction_graph(build_g8_complex())
    state = build_graph_state_dense(graph)
    for q in range(8):
        state.apply_gate("H", q)
    target = StateVector.from_amplitudes(eq3_amplitudes())
    assert abs(fidelity(state, target) - 1.0) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_graph_state_is_the_per_edge_reference(data):
    """Random graphs of 1 to 12 qubits, edges in any order and orientation, some listed twice. The real parts are
    the reference's bit for bit; its zero imaginary parts carry the sign of each label's flip count (-0.0 after two
    flips), so they compare by value."""
    n = data.draw(st.integers(1, 12), label="qubits")
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=3 * n), label="edges") if pairs else []
    got, want = build_graph_state_dense(SimpleNamespace(qubit_count=n, edges=edges)).amps, per_edge_graph_state(n, edges)
    assert got.real.tobytes() == want.real.tobytes() and np.array_equal(got.imag, want.imag)


@pytest.mark.parametrize("gate", ["CZ", "CNOT"])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_cz_and_cnot_are_the_per_edge_reference_bit_for_bit(gate, data):
    """On random complex states of 2 to 10 qubits; CNOT is H CZ H on its target."""
    n = data.draw(st.integers(2, 10), label="qubits")
    a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True), label="qubits acted on")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="amplitude seed"))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector(n, amps / np.linalg.norm(amps))
    want = state.copy().apply_gate("H", b) if gate == "CNOT" else state.copy()
    phase_flip_both_set(want.amps, a, b)
    if gate == "CNOT":
        want.apply_gate("H", b)
    assert state.apply_gate(gate, a, b).amps.tobytes() == want.amps.tobytes()


@pytest.mark.parametrize("gate", sorted(GATE_TARGETS))
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_gates_are_the_kronecker_reference_on_random_states(gate, data):
    """On random complex states of 1 to 10 qubits, each gate on any target, or ordered pair of targets, gives the
    literal 2^n x 2^n matrix's amplitudes within 1e-12."""
    count = GATE_TARGETS[gate]
    n = data.draw(st.integers(count, 10), label="qubits")
    targets = data.draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count, unique=True), label="targets")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="amplitude seed"))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector(n, amps / np.linalg.norm(amps))
    want = kronecker_gate(n, gate, *targets) @ state.amps
    assert np.abs(state.apply_gate(gate, *targets).amps - want).max() <= 1e-12


def test_graph_state_capacity():
    n = 21
    graph = InteractionGraph(tuple(f"q{i}" for i in range(n)), ())
    with pytest.raises(CapacityError):
        build_graph_state_dense(graph)


def test_apply_hadamard():
    s = computational_zero(1)
    s.apply_gate("H", 0)
    assert np.allclose(s.amps, np.array([1, 1]) / np.sqrt(2))


def test_apply_identity_is_noop():
    s = build_graph_state_dense(two_vertex_graph())
    before = s.amps.copy()
    stack = np.tile(np.eye(2, dtype=complex), (3, 2, 1, 1))
    assert _apply_products(s.amps, stack).shape == (3, 4)  # one row per term, even when none acts
    assert np.allclose(_apply_products(s.amps, stack), before)
    stack[1, 0] = X
    assert np.allclose(_apply_products(s.amps, stack)[[0, 2]], before)
    assert np.array_equal(s.amps, before)  # the input is left as is


def test_random_unitaries_preserve_norm():
    rng = np.random.default_rng(8)
    s = build_graph_state_dense(two_vertex_graph())
    for _ in range(40):
        gate = str(rng.choice(["H", "S", "X", "Y", "Z", "CZ", "CNOT"]))
        targets = rng.permutation(2) if gate in ("CZ", "CNOT") else rng.integers(0, 2, size=1)
        s.apply_gate(gate, *map(int, targets))
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12


def test_setting_expectations_on_ideal_state():
    model = pure(StateVector.from_amplitudes(eq3_amplitudes()))
    plus, minus = expectation_observable(model, [[P0] * 6 + [X, X], [P1] * 6 + [X, X]])
    a0 = plus - minus
    plus, minus = expectation_observable(model, [[P0] * 6 + [Y, Y], [P1] * 6 + [Y, Y]])
    a1 = plus - minus
    assert abs(a0 - 1.0) < 1e-12
    assert abs(a1 + 1.0) < 1e-12
    for k in range(6):
        mk = np.cos(k * np.pi / 6) * X + np.sin(k * np.pi / 6) * Y
        plus, minus = expectation_observable(model, [[mk] * 6 + [P0, P0], [mk] * 6 + [P1, P1]])
        bk = plus - minus
        assert abs(bk - (-1.0) ** k) < 1e-12, k


def test_expectation_observable_rejects_non_hermitian():
    model = pure(computational_zero(1))
    with pytest.raises(ValueError):
        expectation_observable(model, [[np.array([[0, 1], [0, 0]])]])


def test_expectation_observable_identity_factors():
    model = pure(computational_zero(2))
    assert expectation_observable(model, [[None, None]]).tolist() == pytest.approx([1.0])
    assert expectation_observable(pure(computational_zero(0)), np.zeros((2, 0, 2, 2))).tolist() == [1.0, 1.0]  # no qubit


def test_expectation_linear_in_ensemble():
    rng = np.random.default_rng(19)
    amps_a = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps_b = rng.normal(size=4) + 1j * rng.normal(size=4)
    a = StateVector.from_amplitudes(amps_a / np.linalg.norm(amps_a))
    b = StateVector.from_amplitudes(amps_b / np.linalg.norm(amps_b))
    terms = [[np.diag([1.0, -1.0]), X], [None, Y], [X, None]]
    for w in (0.0, 0.25, 0.7, 1.0):
        mixed = DensityModel(2, ((w, a), (1.0 - w, b)))
        expected = w * expectation_observable(pure(a), terms) + (1.0 - w) * expectation_observable(pure(b), terms)
        assert expectation_observable(mixed, terms) == pytest.approx(expected)


def random_state(rng, n: int) -> StateVector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_factor(rng):
    """None, the identity, a Pauli or a random Hermitian matrix scaled to spectral norm 1."""
    kind = rng.integers(4)
    if kind < 2:
        return None if kind == 0 else np.eye(2)
    if kind == 2:
        return [X, Y, np.diag([1.0, -1.0])][rng.integers(3)]
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = (m + m.conj().T) / 2.0
    return h / np.abs(np.linalg.eigvalsh(h)).max()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_batched_expectations_match_the_per_term_oracle(data):
    """T products on n qubits in one call, as lists with Nones or as one (T, n, 2, 2) array, equal
    the per-term oracle; one bad factor anywhere in the stack raises."""
    n = data.draw(st.integers(1, 10), label="qubits")
    count = data.draw(st.integers(1, 20), label="terms")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    mixed = data.draw(st.floats(0.05, 0.9), label="mixed weight")
    members = [random_state(rng, n) for _ in range(data.draw(st.integers(1, 3), label="members"))]
    weights = (rng.dirichlet(np.ones(len(members))) * (1.0 - mixed)).tolist()
    model = DensityModel(n, tuple(zip(weights, members)), mixed_weight=mixed)
    terms = [[random_factor(rng) for _ in range(n)] for _ in range(count)]
    stack = [[np.eye(2) if f is None else f for f in term] for term in terms]
    got = expectation_observable(model, np.array(stack) if data.draw(st.booleans(), label="array") else terms)
    expected = [term_expectation(model, term) for term in terms]
    assert got.shape == (count,)
    assert np.abs(got - expected).max() <= 1e-12, (got, expected)

    t, q = int(rng.integers(count)), int(rng.integers(n))
    for bad in (np.array([[0, 1], [0, 0]]), np.eye(3), np.ones(2)):
        wrong = [list(term) for term in terms]
        wrong[t][q] = bad
        with pytest.raises(ValueError):
            expectation_observable(model, wrong)
    with pytest.raises(ValueError, match="Hermitian"):
        expectation_observable(model, np.array(stack) + np.array([[0, 1e-9], [0, 0]]))
    with pytest.raises(ValueError, match="2x2 factors"):
        expectation_observable(model, np.tile(np.eye(3), (count, n, 1, 1)))
    for size in (n - 1, n + 1):
        with pytest.raises(ValueError, match="2x2 factors"):
            expectation_observable(model, [[None] * size] * count)
    with pytest.raises(ValueError, match="2x2 factors"):  # one term of the wrong length among right ones
        expectation_observable(model, [[None] * n] * count + [[None] * (n + 1)])
    with pytest.raises(ValueError, match="2x2 factors"):  # one observable's factors, not a stack of one
        expectation_observable(model, [X] + [None] * (n - 1))


def next_words(rng) -> list[int]:
    """The stream's next raw words: equal for two generators of one seed only at the same position."""
    return rng.bit_generator.random_raw(8).tolist()


@pytest.mark.parametrize("kind", ["real", "complex", "graph", "product"])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_block_readout_is_the_per_row_reference_bit_for_bit(kind, data):
    """Real, complex, graph and product states of 1 to 12 qubits, 1 to 1,100 rows read in turn as their masks,
    flips on the first 0 to n qubits (Z in X, X in Z): in either basis the outcomes equal the per-row reference's
    bit for bit, and both leave the stream rows x n doubles on. The first rows are also each flipped copy's
    per-qubit collapse, given that row's doubles. Graph states have fixed outcomes and rows that share a history
    in the weight table. A product of |0>, |1>, |+> and |-> makes each outcome fixed or a fair coin, and in either
    basis the table holds histories of zero weight, whose expectations it sets to 0. A fresh reader for each of 2
    or 3 consecutive parts of the rows, on one stream, reads the same rows and leaves the stream as far on."""
    basis = data.draw(st.sampled_from("xz"), label="basis")
    n = data.draw(st.integers(1, 12), label="qubits")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="amplitude seed"))
    if kind == "graph":
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = tuple(pair for pair in pairs if rng.random() < 0.4)
        state = build_graph_state_dense(InteractionGraph(tuple(f"q{i}" for i in range(n)), edges))
    elif kind == "product":  # |0>, |1>, |+> or |-> on each qubit
        amps = reduce(np.kron, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])[rng.integers(0, 4, n)])
        state = StateVector(n, amps / np.linalg.norm(amps))
    else:
        amps = rng.normal(size=1 << n) + (1j * rng.normal(size=1 << n) if kind == "complex" else 0.0)
        state = StateVector(n, amps / np.linalg.norm(amps))
    rows = data.draw(st.sampled_from([1, 512, 513, 1100]) | st.integers(1, 1100), label="rows")
    k = data.draw(st.integers(0, n), label="flipped qubits")
    flips = rng.random((rows, k)) < data.draw(st.floats(0.0, 1.0), label="flip rate")
    seed = data.draw(st.integers(0, 2**64), label="seed")
    block, reference, skipped, stream = (philox_generator(seed) for _ in range(4))
    got = read_rows(state.reader(basis), block, flips)
    assert all(0 <= row < 1 << n for row in got)
    expected = per_row_readout(state, reference, flips, basis)
    assert got == [outcome_mask(row) for row in expected]
    ends = sorted(data.draw(st.lists(st.integers(0, rows), min_size=1, max_size=2), label="block ends"))
    assert [row for part in np.split(flips, ends) for row in read_rows(state.reader(basis), stream, part)] == got
    doubles = skipped.random((rows, n))
    assert next_words(block) == next_words(reference) == next_words(skipped) == next_words(stream)
    for t in range(min(rows, 4)):
        copy = state.copy()
        for q in np.flatnonzero(flips[t]).tolist():
            copy.apply_gate("Z" if basis == "x" else "X", q)
        feed = Replay(doubles=doubles[t])
        assert got[t] == outcome_mask(per_qubit_readout(unlabelled(copy), feed, basis)), t
        assert got[t] == state.reader(basis)(Replay(doubles=doubles[t]), flip_mask(flips[t])), t


@pytest.mark.parametrize("flips", [(0,), ()], ids=["given", "default"])
@pytest.mark.parametrize("basis", ["x", "z"])
def test_an_unflipped_dense_readout_reads_the_state_and_draws_n_doubles(basis, flips):
    """``flips=0``, given or by default, reads the state itself, as ``measure_all`` does, the per-qubit collapse of
    the row's doubles, and draws exactly n doubles, though g8 after H on qubit 2 has fewer random outcomes than
    qubits in either basis."""
    state = build_graph_state_dense(interaction_graph(build_g8_complex())).apply_gate("H", 2)
    for seed in range(5):
        rng, skipped = philox_generator(seed), philox_generator(seed)
        doubles = skipped.random(8)
        record = measure_all(unlabelled(state), philox_generator(seed), basis)
        assert state.reader(basis)(rng, *flips) == outcome_mask(record.outcomes.values())
        assert next_words(rng) == next_words(skipped)
        feed, reference = Replay(doubles=doubles), Replay(doubles=doubles)
        assert state.reader(basis)(feed, *flips) == outcome_mask(per_qubit_readout(unlabelled(state), reference, basis))
        assert feed.used == 8 > reference.used, seed


def test_density_model_validation():
    s = computational_zero(1)
    with pytest.raises(ValueError):
        DensityModel(1, ((0.7, s),), mixed_weight=0.2)
    with pytest.raises(ValueError):
        DensityModel(1, ((-0.1, s),), mixed_weight=1.1)
    with pytest.raises(ValueError):
        DensityModel(2, ((1.0, s),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: StateVector.from_amplitudes([np.nan, 0.0]), "state not normalized"),
        (lambda: DensityModel(1, ((np.nan, computational_zero(1)),)), "negative ensemble weight nan"),
        (lambda: DensityModel(1, ((1.0, computational_zero(1)),), mixed_weight=np.nan), "negative mixed weight nan"),
        (lambda: expectation_observable(pure(computational_zero(1)), [[[[np.nan, 0], [0, 1]]]]), "not Hermitian"),
    ],
    ids=["amplitude", "ensemble-weight", "mixed-weight", "observable-factor"],
)
def test_dense_validators_reject_nan(build, message):
    """Each check is written so that NaN fails it, as a comparison with NaN is always false."""
    with pytest.raises(ValueError, match=message):
        build()


def test_fidelity_examples():
    zero = computational_zero(1)
    one = StateVector.from_amplitudes([0.0, 1.0])
    assert fidelity(zero, zero) == pytest.approx(1.0)
    assert fidelity(zero, one) == pytest.approx(0.0)
    assert fidelity(one, zero) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        fidelity(zero, computational_zero(2))


def test_fidelity_is_global_phase_insensitive():
    s = build_graph_state_dense(two_vertex_graph())
    rotated = StateVector(2, np.exp(0.7j) * s.amps)
    assert fidelity(s, rotated) == pytest.approx(1.0)


def test_pauli_expectation_examples():
    graph = interaction_graph(build_g8_complex())
    state = build_graph_state_dense(graph)
    x1 = PauliOperator.single(8, 0, "X")
    assert abs(state.expectation_pauli(x1)) < 1e-12
    x1x2 = pauli_from_text("XXIIIIII")
    assert state.expectation_pauli(x1x2) == pytest.approx(1.0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_pauli_action_is_the_kronecker_reference(data):
    """Random complex states of 1 to 8 qubits, and Paulis of any x and z bits, Y included, and any of the four
    phases: the index flip and sign of ``apply_pauli`` give the Kronecker form's amplitudes exactly, and leave the
    state as it was."""
    n = data.draw(st.integers(1, 8), label="qubits")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="amplitude seed"))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state, bits = StateVector(n, amps / np.linalg.norm(amps)), st.integers(0, (1 << n) - 1)
    x, z = data.draw(bits, label="x bits"), data.draw(bits, label="z bits")
    op = PauliOperator(n, x, z, data.draw(st.integers(0, 3), label="phase"))
    before = state.amps.tobytes()
    assert np.array_equal(state.apply_pauli(op), kronecker_pauli(state, op))
    assert state.amps.tobytes() == before


def test_measure_pauli_projects_to_eigenstate():
    rng = philox_generator(123)
    s = computational_zero(1)
    outcome = s.measure_pauli(pauli_from_text("X"), rng)
    assert outcome in (-1, 1)
    assert s.expectation_pauli(pauli_from_text("X")) == pytest.approx(outcome)
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12


def test_state_vector_takes_a_list_of_amplitudes():
    state = StateVector(1, [1, 0])
    assert state.amps.dtype == complex
    assert state.amps.tolist() == [1, 0]
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        StateVector(2, [1, 0])


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector.from_amplitudes([1.0, 1.0])
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, [1, 1])  # every constructor checks the norm
    with pytest.raises(ValueError):
        StateVector.from_amplitudes([1.0, 0.0, 0.0])
    with pytest.raises(CapacityError):
        computational_zero(21)
