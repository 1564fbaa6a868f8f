import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tecsim.cluster import (
    ENGINES,
    ClusterState,
    InteractionGraph,
    OutcomeRecord,
    build_cluster,
    interaction_graph,
    measure_all,
    surface_correlation,
)
from tecsim.complexes import (
    CellComplex,
    Chain,
    boundary,
    build_cuboid_complex,
    build_elementary_cell,
    build_g8_complex,
    complex_from_json,
)
from tecsim.dense import StateVector
from tecsim.errors import CapacityError
from tecsim.pauli import PauliOperator, pauli_to_text
from tecsim.rng import philox_generator
from tecsim.tableau import StabilizerTableau
from tecsim.witness import build_target_states

from reference import (
    RING5,
    Replay,
    commutes,
    fidelity,
    pauli_from_text,
    per_qubit_readout,
    stabilizer_generators,
)

G8_FACES = tuple(f"f{i}" for i in range(1, 7))


def neighbors(graph, label):
    """Sorted neighbour labels of one vertex by a scan of every edge."""
    v = graph.index(label)
    return tuple(sorted(graph.vertices[b if a == v else a] for a, b in graph.edges if v in (a, b)))


@pytest.fixture(scope="module")
def g8_graph():
    return interaction_graph(build_g8_complex())


@pytest.fixture(scope="module")
def g8_tableau(g8_graph):
    return build_cluster(g8_graph, "tableau")


def test_g8_graph_structure(g8_graph):
    assert g8_graph.vertices == ("f1", "f2", "f3", "f4", "f5", "f6", "e7", "e8")
    assert g8_graph.edges == tuple((f, e) for f in range(6) for e in (6, 7))  # face i, edge qubit 6 + j
    for f in G8_FACES:
        assert neighbors(g8_graph, f) == ("e7", "e8")
    assert neighbors(g8_graph, "e7") == G8_FACES


def test_elementary_graph_structure():
    cx = build_elementary_cell()
    graph = interaction_graph(cx)
    assert graph.qubit_count == 18
    for v in cx.cells(2):
        assert len(neighbors(graph, v)) == 4


@pytest.mark.parametrize(
    "builder", [build_elementary_cell, build_g8_complex, lambda: build_cuboid_complex(2, 2, 1)]
)
def test_derived_graphs_are_bipartite(builder):
    cx = builder()
    faces = len(cx.faces)  # the face qubits come first
    for a, b in interaction_graph(cx).edges:
        assert a < faces <= b


def test_dense_engine_handles_the_full_elementary_cell():
    graph = interaction_graph(build_elementary_cell())
    state = build_cluster(graph, "dense")
    for gen in stabilizer_generators(graph):
        assert abs(state.expectation(gen) - 1.0) < 1e-12


def test_single_face_star_graph():
    cx = CellComplex(
        volumes={},
        faces={"f": frozenset({"e1", "e2", "e3", "e4"})},
        edges={
            "e1": frozenset({"a", "b"}),
            "e2": frozenset({"b", "c"}),
            "e3": frozenset({"c", "d"}),
            "e4": frozenset({"a", "d"}),
        },
    )
    graph = interaction_graph(cx)
    assert neighbors(graph, "f") == ("e1", "e2", "e3", "e4")
    for e in ("e1", "e2", "e3", "e4"):
        assert neighbors(graph, e) == ("f",)


def test_graph_validation():
    with pytest.raises(ValueError, match=r"edge \(0, 0\) is not a pair a < b"):  # a self-loop
        InteractionGraph(("a", "b"), ((0, 0),))
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
        InteractionGraph(("a", "b"), ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match=r"edge \(1, 0\) is not a pair a < b"):  # the same edge reversed
        InteractionGraph(("a", "b"), ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match=r"edge \(0, 1\) .* below 1"):  # an unknown qubit
        InteractionGraph(("a",), ((0, 1),))
    with pytest.raises(ValueError, match=r"edge \(-1, 0\) .* below 2"):
        InteractionGraph(("a", "b"), ((-1, 0),))
    with pytest.raises(ValueError, match="duplicate vertex labels"):
        InteractionGraph(("a", "a"), ())


def test_graph_keeps_no_caller_list():
    labels, edges = ["a", "b", "c"], [[0, 1], [1, 2]]
    graph = InteractionGraph(labels, edges)
    assert graph.vertices == ("a", "b", "c") and graph.edges == ((0, 1), (1, 2))
    labels.append("d")
    edges.append((0, 0))  # a self-loop the graph's check never saw
    edges[0][1] = 0
    assert graph.vertices == ("a", "b", "c") and graph.edges == ((0, 1), (1, 2))
    assert graph.qubit_count == 3 and graph.index("c") == 2


def test_generator_for_isolated_vertex():
    graph = InteractionGraph(("q",), ())
    (gen,) = stabilizer_generators(graph)
    assert pauli_to_text(gen) == "X"


def test_g8_generators(g8_graph):
    gens = dict(zip(g8_graph.vertices, stabilizer_generators(g8_graph)))
    assert pauli_to_text(gens["e7"]) == "ZZZZZZXI"
    assert pauli_to_text(gens["f1"]) == "XIIIIIZZ"
    ops = list(gens.values())
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            assert commutes(a, b)


def test_generator_support_is_center_plus_neighbors(g8_graph):
    for center, gen in zip(g8_graph.vertices, stabilizer_generators(g8_graph)):
        expected = {g8_graph.index(v) for v in (center, *neighbors(g8_graph, center))}
        assert set(gen.support()) == expected


@pytest.mark.parametrize("engine", ["tableau", "dense"])
def test_build_cluster_satisfies_all_generators(g8_graph, engine):
    state = build_cluster(g8_graph, engine)
    for gen in stabilizer_generators(g8_graph):
        assert abs(state.expectation(gen) - 1.0) < 1e-12


def test_dense_g8_matches_experimental_state(g8_graph):
    state = build_cluster(g8_graph, "dense")
    rotated = state.backend.copy()
    for q in range(8):
        rotated.apply_gate("H", q)
    psi, _ = build_target_states()
    assert abs(fidelity(rotated, psi) - 1.0) < 1e-12


def test_single_vertex_cluster_is_x_eigenstate():
    graph = InteractionGraph(("q",), ())
    state = build_cluster(graph, "tableau")
    assert surface_correlation(state, ["q"]) == 1


def test_dense_engine_capacity():
    graph = interaction_graph(build_cuboid_complex(2, 1, 1))  # 31 qubits
    with pytest.raises(CapacityError):
        build_cluster(graph, "dense")
    build_cluster(graph, "tableau")  # tableau takes it fine


@pytest.mark.parametrize("engine", ENGINES)
def test_repeated_labels_cancel_in_surface_correlation(g8_graph, engine):
    state = build_cluster(g8_graph, engine)
    assert surface_correlation(state, ["f1", "f1"]) == 1  # X_f1 X_f1 = I
    assert surface_correlation(state, ["f5", "f6", "f6"]) == 0  # X_f5 alone


def test_surface_correlation_examples(g8_tableau):
    assert surface_correlation(g8_tableau, ["f5", "f6"]) == 1
    assert surface_correlation(g8_tableau, ["f2", "f5"]) == 1
    assert surface_correlation(g8_tableau, ["f1"]) == 0
    with pytest.raises(KeyError):
        surface_correlation(g8_tableau, ["f9"])
    with pytest.raises(ValueError):
        surface_correlation(g8_tableau, [])


def test_protected_correlation_measures_plus_one_deterministically(g8_tableau):
    x5x6 = pauli_from_text("IIIIXXII")
    for seed in range(3):
        state = g8_tableau.copy()
        assert state.backend.measure_pauli(x5x6, philox_generator(seed)) == 1
        assert state.expectation(x5x6) == 1


def test_elementary_cell_six_face_correlation():
    cx = build_elementary_cell()
    state = build_cluster(interaction_graph(cx), "tableau")
    faces = cx.cells(2)
    assert surface_correlation(state, faces) == 1


def test_every_closed_surface_has_unit_correlation(g8_tableau):
    """All even face subsets of the defect complex are closed surfaces."""
    cx = build_g8_complex()
    from itertools import combinations

    for size in (2, 4, 6):
        for combo in combinations(G8_FACES, size):
            chain = cx.chain(2, combo)
            assert boundary(chain, cx).cells == frozenset()
            assert surface_correlation(g8_tableau, combo) == 1


def test_closed_surfaces_on_larger_lattice():
    cx = build_cuboid_complex(2, 1, 1)
    state = build_cluster(interaction_graph(cx), "tableau")
    rng = np.random.default_rng(55)
    names = sorted(cx.volumes)
    for _ in range(10):
        chosen = frozenset(v for v in names if rng.random() < 0.5)
        faces = boundary(Chain(3, chosen), cx).cells
        if faces:
            assert surface_correlation(state, faces) == 1


def test_measure_all_x_closed_surface_products(g8_tableau):
    for trial in range(300):
        record = measure_all(g8_tableau, philox_generator(1, trial), "x")
        assert record.product(["f5", "f6"]) == 1
        assert record.product(["f1", "f2"]) == 1
        # R(boundary of V) = +1 for every volume
        cx = build_g8_complex()
        for faces in cx.volumes.values():
            assert record.product(faces) == 1


def test_measure_all_x_elementary_cell():
    cx = build_elementary_cell()
    state = build_cluster(interaction_graph(cx), "tableau")
    faces = cx.cells(2)
    for trial in range(100):
        record = measure_all(state, philox_generator(2, trial), "x")
        assert record.product(faces) == 1


def test_equivalent_surfaces_equal_per_sample(g8_tableau):
    pairs = [
        (("f1", "f2"), ("f2", "f5")),
        (("f5", "f6"), ("f1", "f3")),
        (("f3", "f6"), ("f3", "f4")),
    ]
    for trial in range(300):
        record = measure_all(g8_tableau, philox_generator(3, trial), "x")
        for left, right in pairs:
            assert record.product(left) == record.product(right)


def test_measure_all_x_dense_agrees_on_products(g8_graph):
    state = build_cluster(g8_graph, "dense")
    for trial in range(30):
        record = measure_all(state, philox_generator(4, trial), "x")
        assert record.product(["f5", "f6"]) == 1
        assert record.product(["f1", "f2"]) == 1


def carve(state, labels, rng):
    """A copy of ``state`` with a defect carved out: each listed qubit measured in Z."""
    work, n = state.copy(), state.graph.qubit_count
    z = {label: PauliOperator.single(n, work.graph.index(label), "Z") for label in labels}
    return work, {label: work.backend.measure_pauli(z[label], rng) for label in labels}


@pytest.mark.parametrize("engine", ["tableau", "dense"])
def test_carve_both_edges_leaves_faces_in_x_product(g8_graph, engine):
    state = build_cluster(g8_graph, engine)
    carved, outcomes = carve(state, ["e7", "e8"], philox_generator(5))
    sign = outcomes["e7"] * outcomes["e8"]
    for f in G8_FACES:
        assert surface_correlation(carved, [f]) == sign


def test_carve_empty_list_is_identity(g8_graph, g8_tableau):
    carved, outcomes = carve(g8_tableau, [], philox_generator(6))
    assert outcomes == {}
    for gen in stabilizer_generators(g8_graph):
        assert carved.expectation(gen) == 1


def test_carve_face_breaks_remaining_product():
    cx = build_elementary_cell()
    state = build_cluster(interaction_graph(cx), "tableau")
    faces = cx.cells(2)
    carved, _ = carve(state, [faces[0]], philox_generator(7))
    assert surface_correlation(carved, faces[1:]) == 0


def test_dual_syndrome_check(g8_graph, g8_tableau):
    """X_e7 X_e8, the one bit of dual syndrome: a Z on an edge qubit flips it, one on a face does not."""
    assert surface_correlation(g8_tableau, ["e7", "e8"]) == 1
    flipped = g8_tableau.copy()
    flipped.backend.z(g8_graph.index("e7"))
    assert surface_correlation(flipped, ["e7", "e8"]) == -1
    face_error = g8_tableau.copy()
    face_error.backend.z(g8_graph.index("f3"))
    assert surface_correlation(face_error, ["e7", "e8"]) == 1


def test_measure_all_basis_validation(g8_graph):
    """A basis other than "x" or "z" raises from ``measure_all`` and from either backend's single and
    block readout, before any draw."""
    for engine in ENGINES:
        state, rng = build_cluster(g8_graph, engine), philox_generator(9)
        for basis, call in [
            ("y", lambda basis: measure_all(state, rng, basis)),
            ("X", lambda basis: state.backend.readout(rng, basis=basis)),
            ("xz", lambda basis: state.backend.readout(rng, np.zeros((3, 8), bool), basis)),
        ]:
            with pytest.raises(ValueError, match=f"basis must be 'x' or 'z', got '{basis}'"):
                call(basis)
        words = rng.bit_generator.random_raw(4).tolist()
        assert words == philox_generator(9).bit_generator.random_raw(4).tolist(), engine  # no draw taken


def test_outcome_record_validation():
    with pytest.raises(ValueError):
        OutcomeRecord({"q": 2}, "x")
    with pytest.raises(ValueError, match="basis"):
        OutcomeRecord({"q": 1}, "y")
    record = OutcomeRecord({"q": -1}, "x")
    with pytest.raises(KeyError):
        record.value("other")


def test_build_cluster_rejects_unknown_engine(g8_graph):
    with pytest.raises(ValueError):
        build_cluster(g8_graph, "tensor-network")


@pytest.mark.parametrize("engine", ENGINES)
def test_single_qubit_measurements_match_measure_pauli(g8_graph, engine):
    state = build_cluster(g8_graph, engine).backend
    ours, reference = state.copy(), state.copy()
    rng_ours, rng_reference = philox_generator(4, 1), philox_generator(4, 1)
    for q, letter in [(3, "X"), (0, "Z"), (7, "X"), (5, "Z"), (1, "X"), (6, "X"), (2, "Z"), (4, "X")]:
        expected = reference.measure_pauli(PauliOperator.single(8, q, letter), rng_reference)
        if letter == "X":
            assert ours.measure_x(q, rng_ours) == expected, q
        else:  # a Z between the X measurements, as a defect is carved
            assert ours.measure_pauli(PauliOperator.single(8, q, "Z"), rng_ours) == expected, q
    # same number of draws, and the same post-measurement state
    assert rng_ours.random() == rng_reference.random()
    for q in range(8):
        for letter in "XZ":
            op = PauliOperator.single(8, q, letter)
            assert ours.expectation_pauli(op) == pytest.approx(reference.expectation_pauli(op))


@pytest.mark.parametrize("engine, backend_type", [("tableau", StabilizerTableau), ("dense", StateVector)])
def test_cluster_state_holds_one_backend(g8_graph, engine, backend_type):
    state = build_cluster(g8_graph, engine)
    assert isinstance(state.backend, backend_type)
    rebuilt = ClusterState(g8_graph, state.backend.copy())
    for basis in ("x", "z"):
        assert measure_all(rebuilt, philox_generator(8, 0), basis) == measure_all(
            state, philox_generator(8, 0), basis
        )
    copied = state.copy()
    assert copied.graph is state.graph and copied.backend is not state.backend


def test_graph_index_matches_per_vertex_scans():
    cx = build_cuboid_complex(2, 2, 2)
    graph = interaction_graph(cx)
    assert [graph.index(v) for v in graph.vertices] == list(range(graph.qubit_count))
    labelled = [(f, e) for f in cx.cells(2) for e in sorted(cx.faces[f])]  # face by face, edges sorted
    assert graph.edges == tuple((graph.vertices.index(f), graph.vertices.index(e)) for f, e in labelled)
    with pytest.raises(KeyError, match="unknown qubit"):
        graph.index("nowhere")


# ----------------------------------------------------------------------
# X readout: closed form on every tableau, against per-qubit collapse


def record_values(record, state):
    return [record.value(label) for label in state.graph.vertices]


@pytest.mark.parametrize(
    "dims, seed",
    [
        pytest.param(dims, seed, id=f"{'x'.join(map(str, dims))}-seed{seed}")
        for dims, seeds in [((2, 2, 2), (1, 2, 3)), ((3, 3, 2), (1, 2, 3)), ((3, 3, 3), (1, 2, 3)),
                            ((4, 4, 4), (1, 2, 3)), ((6, 6, 6), (1,))]
        for seed in seeds
    ],
)
def test_cuboid_x_readout_matches_per_qubit_collapse(dims, seed):
    state = build_cluster(interaction_graph(build_cuboid_complex(*dims)), "tableau")
    record = measure_all(state, philox_generator(seed), "x")
    assert record_values(record, state) == per_qubit_readout(state, philox_generator(seed))


class ScalarCoins:
    """Wraps a Generator and counts its ``integers`` calls; with ``scalar``, a call for
    ``size`` coins makes ``size`` scalar ``integers(0, 2)`` draws instead."""

    def __init__(self, rng, scalar):
        self.rng, self.scalar, self.calls = rng, scalar, 0

    def integers(self, low, high, size=None):
        self.calls += 1
        if self.scalar and size is not None:
            return np.array([self.rng.integers(low, high) for _ in range(size)])
        return self.rng.integers(low, high, size)


def test_cuboid_x_readout_draws_its_coins_in_one_call_as_scalar_draws_would():
    state = build_cluster(interaction_graph(build_cuboid_complex(3, 3, 3)), "tableau")
    for seed in range(5):
        block, scalar = ScalarCoins(philox_generator(seed), False), ScalarCoins(philox_generator(seed), True)
        assert measure_all(state, block, "x") == measure_all(state, scalar, "x")
        assert block.calls == 1
        assert repr(block.rng.bit_generator.state) == repr(scalar.rng.bit_generator.state)
        assert block.rng.random() == scalar.rng.random()  # the buffered words agree too


def _h_and_s(state):
    state.backend.apply_gate("H", 2)
    state.backend.apply_gate("S", 6)
    return state


def _carved(state):
    return carve(state, ["f2", "e8"], philox_generator(12))[0]


@pytest.mark.parametrize("prepare", [_h_and_s, _carved], ids=["H and S", "carve_defect"])
def test_x_readout_off_graph_form_takes_no_collapse(g8_tableau, prepare, monkeypatch):
    state = prepare(g8_tableau.copy())
    expected = [per_qubit_readout(state, philox_generator(13, t)) for t in range(20)]

    def collapse(*args):
        raise AssertionError("per-qubit collapse taken by the X readout")

    monkeypatch.setattr(StabilizerTableau, "_collapse", collapse)
    for t in range(20):
        assert record_values(measure_all(state, philox_generator(13, t), "x"), state) == expected[t]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("basis", ["x", "z"])
def test_measure_all_is_one_readout_with_no_copy_or_collapse(g8_graph, engine, basis, monkeypatch):
    """Off graph form, in either basis, on either engine: one backend ``readout`` call, and no copy,
    no Pauli measurement and no collapse. Neither backend keeps ``measure_z`` or ``readout_x``."""
    state = build_cluster(g8_graph, engine)
    state.backend.apply_gate("H", 2)
    state.backend.apply_gate("S", 5)
    expected = per_qubit_readout(state, philox_generator(16), basis)
    backend, readout, calls = type(state.backend), type(state.backend).readout, []
    for name in ("copy", "measure_pauli", "_collapse"):
        monkeypatch.setattr(backend, name, lambda *args, name=name: pytest.fail(f"measure_all called {name}"), False)
    monkeypatch.setattr(backend, "readout", lambda *args, **kwargs: calls.append(kwargs) or readout(*args, **kwargs))
    assert record_values(measure_all(state, philox_generator(16), basis), state) == expected
    assert calls == [{"basis": basis}]
    assert not hasattr(backend, "measure_z") and not hasattr(backend, "readout_x")


@pytest.mark.parametrize("engine", ENGINES)
def test_z_readout_matches_per_qubit_collapse(g8_graph, engine):
    state = build_cluster(g8_graph, engine)
    state.backend.apply_gate("Z", 3)
    for t in range(10):
        record = measure_all(state, philox_generator(14, t), "z")
        expected = per_qubit_readout(state, philox_generator(14, t), "z")
        assert record_values(record, state) == expected
        assert record.basis == "z"


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("change", ["H on qubit 0", "Z measured on qubit 0"])
def test_a_reader_reads_the_state_as_it_was_when_built(g8_graph, engine, change):
    """A reader is a snapshot. After the state changes, a reader built before reads, in either basis, the state as it
    was, one state or a block, and a fresh reader the state as it is: each the per-qubit collapse of its state."""
    state, flips = build_cluster(g8_graph, engine), np.random.default_rng(17).random((5, 8)) < 0.5
    old, before = {basis: state.backend.reader(basis) for basis in "xz"}, state.copy()
    if change == "H on qubit 0":
        state.backend.apply_gate("H", 0)
    else:
        state.backend.measure_pauli(PauliOperator.single(8, 0, "Z"), philox_generator(17))
    for basis in "xz":
        new, moved = state.backend.reader(basis), False
        for t in range(10):
            stream = philox_generator(17, t)
            draws = {"doubles": stream.random(8)} if engine == "dense" else {"bits": stream.integers(0, 2, 8)}
            was = per_qubit_readout(before, Replay(**draws), basis)
            now = per_qubit_readout(state, Replay(**draws), basis)
            assert old[basis](Replay(**draws)) == was and new(Replay(**draws)) == now, (basis, t)
            moved |= was != now
        assert moved, basis  # the change shows in this basis
        block = before.backend.readout(philox_generator(18), flips, basis)
        assert np.array_equal(old[basis](philox_generator(18), flips), block), basis


def test_z_flipped_graph_state_is_read_out_in_closed_form(monkeypatch):
    cx = build_cuboid_complex(3, 3, 2)
    state = build_cluster(interaction_graph(cx), "tableau")
    for q in range(0, state.graph.qubit_count, 3):
        state.backend.apply_gate("Z", q)
    expected = per_qubit_readout(state, philox_generator(15))

    def collapse(*args):
        raise AssertionError("per-qubit collapse taken on a graph state")

    monkeypatch.setattr(StabilizerTableau, "_collapse", collapse)
    record = measure_all(state, philox_generator(15), "x")
    assert record_values(record, state) == expected
    assert state.backend.readout(philox_generator(15)) == expected  # the state is left as is


# ----------------------------------------------------------------------
# block X readout of Z-flipped copies


def check_block_rows(state, flips, seed, first):
    """Row t of a block readout, split after ``first`` rows, is the single-state readout of
    Z-flipped copy t and its per-qubit ``measure_x`` reference, all given the same draws:
    row t of n doubles (dense) or of R ``integers(0, 2)`` (tableau, R random outcomes).
    Single-state readouts of the copies in turn on one stream read the block's draws.
    Returns the draws of one readout: n (dense) or R (tableau)."""
    n, backend = state.graph.qubit_count, state.backend
    rng = philox_generator(seed, 1)
    block = np.concatenate([backend.readout(rng, flips[:first]), backend.readout(rng, flips[first:])])
    assert block.shape == (len(flips), n)
    counter = Replay([0.0] * n, [0] * n)
    backend.readout(counter)
    stream, kind = philox_generator(seed, 1), "doubles" if isinstance(backend, StateVector) else "bits"
    rows = stream.random((len(flips), n)) if kind == "doubles" else stream.integers(0, 2, (len(flips), counter.used))
    shared = philox_generator(seed, 1)  # single-state readouts, one copy after another
    for t, row in enumerate(flips):
        copy = state.copy()
        for q in np.flatnonzero(row).tolist():
            copy.backend.apply_gate("Z", q)
        expected = block[t].tolist()
        assert copy.backend.readout(shared) == expected, t
        single = copy.backend.readout(Replay(**{kind: rows[t]}))
        assert single == expected == per_qubit_readout(copy, Replay(**{kind: rows[t]})), t
    return counter.used


def readout_state(name, engine):
    cx = complex_from_json(RING5.read_text()) if name == "ring5" else build_g8_complex()
    state = build_cluster(interaction_graph(cx), engine)
    if name == "g8 after H on qubit 2":
        state.backend.apply_gate("H", 2)  # off graph form, with an odd count of random outcomes
    return state


def readout_digest(states, basis):
    """sha256 over each state's readouts in ``basis`` for seeds 0 to 4, each as its sorted (label, outcome) pairs."""
    digest = hashlib.sha256()
    for state in states:
        for seed in range(5):
            digest.update(repr(sorted(measure_all(state, philox_generator(seed), basis).outcomes.items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name, engine, expected",
    [
        ("cuboids", "tableau", "9b1b7c4cccafe8edfd2337eaf86fa08e8f3fe872aa7a7216c532b443e8e64628"),
        ("g8", "tableau", "a0e30ef6f463c9b1c7be3ef5f622de99079d81a1bf695321cc20e4c5dc6fff50"),
        ("g8", "dense", "19e5f04f7493084623f6478673b4e127528655d9838a6ae8ec5de9f718f49b19"),
        ("ring5", "tableau", "e373fadf026d9e91fbdb1d8d664ee89911575e3d709b40a4f679fe343579182a"),
        ("ring5", "dense", "f9db1bac9777ab2fc54a9ba7553030b1339e7cde4679fb53221668c38b518679"),
    ],
)
def test_seeded_x_readouts_are_pinned(name, engine, expected):
    """Seeded readouts bit for bit; the per-qubit reference cannot pin them, as it reads the same masks."""
    complexes = {
        "cuboids": [build_cuboid_complex(*dims) for dims in [(1, 1, 1), (2, 2, 2), (3, 3, 2), (3, 2, 4), (3, 3, 3)]],
        "g8": [build_g8_complex()],
        "ring5": [complex_from_json(RING5.read_text())],
    }[name]
    assert readout_digest([build_cluster(interaction_graph(cx), engine) for cx in complexes], "x") == expected


@pytest.mark.parametrize(
    "name, engine, expected",
    [
        ("cuboid 4x4x4", "tableau", "778e46c196dc5477a86a9a4d95674e33208bcd7201777827cecc30bcf2cd87dd"),
        ("g8", "dense", "56c6541a55798203c4f452a050f174baae53bf418142ba664986ea2fee76ac1b"),
    ],
)
def test_seeded_z_readouts_are_pinned(name, engine, expected):
    """Z readouts for seeds 0 to 4 after H on every fifth qubit and S on qubit 3, so that some outcomes
    are fixed and some rows hold Y: the digests the per-qubit Z collapse gave, before one readout read
    both bases."""
    cx = build_cuboid_complex(4, 4, 4) if name == "cuboid 4x4x4" else build_g8_complex()
    state = build_cluster(interaction_graph(cx), engine)
    for q in range(0, state.graph.qubit_count, 5):
        state.backend.apply_gate("H", q)
    state.backend.apply_gate("S", 3)
    assert readout_digest([state], "z") == expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", ["g8", "ring5", "cuboid 1x1x1"])
def test_graph_state_z_readout_is_a_coin_per_qubit(engine, name):
    """No Z string but the identity stabilizes a graph state, so every Z outcome is a fair coin: the
    tableau's are ``1 - 2 integers(0, 2, n)``, the dense engine's are +1 where double q is below 1/2."""
    cx = {"g8": build_g8_complex, "ring5": lambda: complex_from_json(RING5.read_text())}.get(
        name, lambda: build_cuboid_complex(1, 1, 1)
    )()
    state = build_cluster(interaction_graph(cx), engine)
    n = state.graph.qubit_count
    for seed in range(5):
        rng = philox_generator(seed)
        coins = 1 - 2 * rng.integers(0, 2, n) if engine == "tableau" else np.where(rng.random(n) < 0.5, 1, -1)
        assert record_values(measure_all(state, philox_generator(seed), "z"), state) == coins.tolist()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name, randoms", [("g8", 2), ("ring5", 2), ("g8 after H on qubit 2", 3)])
def test_block_rows_are_each_copys_single_and_per_qubit_readout(engine, name, randoms):
    state = readout_state(name, engine)
    n = state.graph.qubit_count
    flips = np.random.default_rng(n).random((40, n)) < 0.3
    used = check_block_rows(state, flips, 2**64 + 3, 17)
    assert used == (n if engine == "dense" else randoms)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", ["g8", "g8 after H on qubit 2"])
@pytest.mark.parametrize(
    "flips",
    [
        np.array([[2, 0, 1]]),  # int64: the tableau read a 2 as outcome -3, the dense engine as sign -3
        np.zeros((1, 9), bool),  # more columns than g8's 8 qubits
        np.zeros(8, bool),  # one row, not a block of one
        np.zeros((1, 1, 8), bool),
        np.array([[0.0, 1.0]]),
        [[True, False]],  # a list, not an array
    ],
    ids=["int64", "nine columns", "1-D", "3-D", "float", "list"],
)
def test_block_readouts_take_only_a_2d_bool_array_of_at_most_n_columns(engine, name, flips):
    backend = readout_state(name, engine).backend
    with pytest.raises(ValueError, match="flips must be a 2-D bool array of at most 8 columns"):
        backend.readout(philox_generator(3), flips)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(engine=st.sampled_from(ENGINES), data=st.data())
def test_block_rows_are_each_copys_readout_on_random_graphs(engine, data):
    """Random graphs, some with H and S on a few qubits: the tableau leaves graph form, and
    S makes the dense amplitudes complex."""
    n = data.draw(st.integers(1, 9), label="qubits")
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    labels = tuple(f"q{i}" for i in range(n))
    graph = InteractionGraph(labels, tuple(edges))
    state = build_cluster(graph, engine)
    for q in data.draw(st.sets(st.integers(0, n - 1), max_size=2), label="H qubits"):
        state.backend.apply_gate("H", q)
    for q in data.draw(st.sets(st.integers(0, n - 1), max_size=2), label="S qubits"):
        state.backend.apply_gate("S", q)
    trials = data.draw(st.integers(0, 12), label="trials")
    k = data.draw(st.integers(0, n), label="flipped qubits")
    bits = data.draw(st.lists(st.booleans(), min_size=trials * k, max_size=trials * k))
    flips = np.array(bits, bool).reshape(trials, k)
    check_block_rows(state, flips, data.draw(st.integers(0, 2**64), label="seed"),
                     data.draw(st.integers(0, trials), label="split"))


def test_off_graph_cuboid_readout_is_pinned_and_takes_no_collapse(monkeypatch):
    """Cuboid 8x8x8 with H on every 50th qubit and S on qubit 7, seeds 0 and 1: the digest the
    per-qubit collapse gave, read in closed form."""
    state = build_cluster(interaction_graph(build_cuboid_complex(8, 8, 8)), "tableau")
    for q in range(0, state.graph.qubit_count, 50):
        state.backend.apply_gate("H", q)
    state.backend.apply_gate("S", 7)
    monkeypatch.setattr(StabilizerTableau, "_collapse", lambda *args: pytest.fail("per-qubit collapse taken"))
    digest = hashlib.sha256()
    for seed in range(2):
        digest.update(repr(sorted(measure_all(state, philox_generator(seed), "x").outcomes.items())).encode())
    assert digest.hexdigest() == "29bbb77272b2ec04cebe1b3382f68c76c4884dbe93d7e0efd5bdc6c5024579de"
