import numpy as np
import pytest

from tecsim.cluster import InteractionGraph, interaction_graph
from tecsim.complexes import build_g8_complex
from tecsim.dense import (
    DensityModel,
    StateVector,
    build_graph_state_dense,
    expectation_observable,
    fidelity,
)
from tecsim.errors import CapacityError
from tecsim.pauli import PauliOperator, pauli_from_text
from tecsim.rng import philox_generator

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


def test_graph_state_capacity():
    n = 21
    graph = InteractionGraph(tuple(f"q{i}" for i in range(n)), ())
    with pytest.raises(CapacityError):
        build_graph_state_dense(graph)


def test_apply_hadamard():
    s = StateVector.computational_zero(1)
    s.apply_gate("H", 0)
    assert np.allclose(s.amps, np.array([1, 1]) / np.sqrt(2))


def test_apply_identity_is_noop():
    s = build_graph_state_dense(two_vertex_graph())
    before = s.amps.copy()
    s._apply_2x2(np.eye(2, dtype=complex), 1)
    assert np.allclose(s.amps, before)


def test_random_unitaries_preserve_norm():
    rng = np.random.default_rng(8)
    s = build_graph_state_dense(two_vertex_graph())
    for _ in range(40):
        gate = str(rng.choice(["H", "S", "X", "Y", "Z", "CZ", "CNOT"]))
        targets = rng.permutation(2) if gate in ("CZ", "CNOT") else rng.integers(0, 2, size=1)
        s.apply_gate(gate, *map(int, targets))
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12


def test_setting_expectations_on_ideal_state():
    model = DensityModel.pure(StateVector.from_amplitudes(eq3_amplitudes()))
    a0 = expectation_observable(model, [P0] * 6 + [X, X]) - expectation_observable(
        model, [P1] * 6 + [X, X]
    )
    a1 = expectation_observable(model, [P0] * 6 + [Y, Y]) - expectation_observable(
        model, [P1] * 6 + [Y, Y]
    )
    assert abs(a0 - 1.0) < 1e-12
    assert abs(a1 + 1.0) < 1e-12
    for k in range(6):
        mk = np.cos(k * np.pi / 6) * X + np.sin(k * np.pi / 6) * Y
        bk = expectation_observable(model, [mk] * 6 + [P0, P0]) - expectation_observable(
            model, [mk] * 6 + [P1, P1]
        )
        assert abs(bk - (-1.0) ** k) < 1e-12, k


def test_expectation_observable_rejects_non_hermitian():
    model = DensityModel.pure(StateVector.computational_zero(1))
    with pytest.raises(ValueError):
        expectation_observable(model, [np.array([[0, 1], [0, 0]])])


def test_expectation_observable_identity_factors():
    model = DensityModel.pure(StateVector.computational_zero(2))
    assert expectation_observable(model, [None, None]) == pytest.approx(1.0)


def test_expectation_linear_in_ensemble():
    rng = np.random.default_rng(19)
    amps_a = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps_b = rng.normal(size=4) + 1j * rng.normal(size=4)
    a = StateVector.from_amplitudes(amps_a / np.linalg.norm(amps_a))
    b = StateVector.from_amplitudes(amps_b / np.linalg.norm(amps_b))
    factors = [np.diag([1.0, -1.0]), X]
    for w in (0.0, 0.25, 0.7, 1.0):
        mixed = DensityModel(2, ((w, a), (1.0 - w, b)))
        expected = w * expectation_observable(DensityModel.pure(a), factors) + (
            1.0 - w
        ) * expectation_observable(DensityModel.pure(b), factors)
        assert expectation_observable(mixed, factors) == pytest.approx(expected)


def test_density_model_validation():
    s = StateVector.computational_zero(1)
    with pytest.raises(ValueError):
        DensityModel(1, ((0.7, s),), mixed_weight=0.2)
    with pytest.raises(ValueError):
        DensityModel(1, ((-0.1, s),), mixed_weight=1.1)
    with pytest.raises(ValueError):
        DensityModel(2, ((1.0, s),))


def test_fidelity_examples():
    zero = StateVector.computational_zero(1)
    one = StateVector.from_amplitudes([0.0, 1.0])
    assert fidelity(zero, zero) == pytest.approx(1.0)
    assert fidelity(zero, one) == pytest.approx(0.0)
    assert fidelity(one, zero) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        fidelity(zero, StateVector.computational_zero(2))


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


def test_measure_pauli_projects_to_eigenstate():
    rng = philox_generator(123)
    s = StateVector.computational_zero(1)
    outcome = s.measure_pauli(pauli_from_text("X"), rng)
    assert outcome in (-1, 1)
    assert s.expectation_pauli(pauli_from_text("X")) == pytest.approx(outcome)
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector.from_amplitudes([1.0, 1.0])
    with pytest.raises(ValueError):
        StateVector.from_amplitudes([1.0, 0.0, 0.0])
    with pytest.raises(CapacityError):
        StateVector.computational_zero(21)
