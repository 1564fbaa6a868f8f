import json
import tracemalloc

import numpy as np
import pytest

from tecsim import cli, witness
from tecsim.cluster import build_cluster, interaction_graph
from tecsim.complexes import build_g8_complex
from tecsim.dense import DensityModel, StateVector
from tecsim.witness import (
    build_target_states,
    build_witness,
    fidelity_bound,
    rotated_setting_matrix,
    setting_expectations,
    white_noise_model,
    witness_expectation,
    witness_from_settings,
)

from reference import computational_zero, fidelity, pure, term_expectation


@pytest.fixture(scope="module")
def targets():
    return build_target_states()


@pytest.fixture(scope="module")
def witness_op():
    return build_witness()


def random_product_state(rng) -> StateVector:
    amps = np.array([1.0 + 0.0j])
    for _ in range(8):
        local = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(amps, local / np.linalg.norm(local))
    return StateVector.from_amplitudes(amps)


def test_target_states_are_normalized_and_orthogonal(targets):
    psi, psi_prime = targets
    assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-12
    assert abs(np.linalg.norm(psi_prime.amps) - 1.0) < 1e-12
    assert abs(np.vdot(psi_prime.amps, psi.amps)) < 1e-12


def test_target_state_matches_rotated_cluster_state(targets):
    psi, _ = targets
    state = build_cluster(interaction_graph(build_g8_complex()), "dense")
    rotated = state.backend.copy()
    for q in range(8):
        rotated.apply_gate("H", q)
    assert abs(fidelity(rotated, psi) - 1.0) < 1e-12


def test_target_amplitude_on_all_h(targets):
    psi, _ = targets
    assert psi.amps[0] == pytest.approx(0.5)


def test_witness_has_eight_settings(witness_op):
    assert len(witness_op.settings) == 8
    assert [s.name for s in witness_op.settings] == [
        "A0",
        "A1",
        "B0",
        "B1",
        "B2",
        "B3",
        "B4",
        "B5",
    ]
    factors = [f for s in witness_op.settings for _, term in s.terms for f in term]  # no None: both forms read these
    assert len(factors) == 16 * 8 and all(np.shape(f) == (2, 2) for f in factors)


def test_rotated_settings_have_unit_eigenvalues():
    for k in range(6):
        eigenvalues = np.linalg.eigvalsh(rotated_setting_matrix(k))
        assert np.allclose(sorted(eigenvalues), [-1.0, 1.0])


def test_witness_forms_agree_as_operators(witness_op):
    deviation = np.max(
        np.abs(witness_op.projector_matrix() - witness_op.settings_matrix())
    )
    assert deviation <= 1e-10


@pytest.mark.parametrize("lead", [(0,), (1,), (0, 1), (1, 1, 0), (1, 0, 1, 1)])
def test_witness_column_blocks_are_the_full_matrices_columns(witness_op, lead):
    start = int("".join(map(str, lead)), 2) << (8 - len(lead))
    cols = slice(start, start + (256 >> len(lead)))
    for form in ("projector_matrix", "settings_matrix"):
        full = getattr(witness_op, form)()
        assert np.array_equal(getattr(witness_op, form)(lead), full[:, cols]), form


def test_witness_check_stays_within_two_mib():
    """build_witness compares the forms by column blocks, never holding both 256x256 forms."""
    build_witness.cache_clear()
    tracemalloc.start()
    try:
        build_witness()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_witness_is_hermitian(witness_op):
    mat = witness_op.projector_matrix()
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12


def test_expectation_on_ideal_state(targets):
    psi, _ = targets
    model = pure(psi)
    assert witness_expectation(model) == pytest.approx(-0.5)
    assert witness_from_settings(setting_expectations(model)) == pytest.approx(-0.5)


def test_expectation_on_orthogonal_partner(targets):
    _, psi_prime = targets
    model = pure(psi_prime)
    assert witness_expectation(model) == pytest.approx(1.5)
    assert witness_from_settings(setting_expectations(model)) == pytest.approx(1.5)


def test_expectation_on_maximally_mixed():
    model = DensityModel(8, (), mixed_weight=1.0)
    assert witness_expectation(model) == pytest.approx(0.5)
    assert witness_from_settings(setting_expectations(model)) == pytest.approx(0.5)


def test_per_setting_values_on_ideal_state(targets):
    psi, _ = targets
    values = setting_expectations(pure(psi))
    assert values["A0"] == pytest.approx(1.0)
    assert values["A1"] == pytest.approx(-1.0)
    for k in range(6):
        assert values[f"B{k}"] == pytest.approx((-1.0) ** k)


def test_setting_expectations_evaluate_all_sixteen_terms_in_one_call(monkeypatch, targets):
    calls = []
    def counted(model, terms, _original=witness.expectation_observable):
        calls.append(len(terms))
        return _original(model, terms)

    monkeypatch.setattr(witness, "expectation_observable", counted)
    models = [white_noise_model(0.605), pure(targets[1]), DensityModel(8, (), mixed_weight=1.0)]
    for model in models:
        setting_expectations(model)
    assert calls == [16] * len(models)


def test_witness_output_is_the_per_term_reference(capsys):
    """Every number ``tecsim witness`` prints at its default visibilities, against term-by-term
    evaluation. Not a golden file: OpenBLAS kernels may round the last bit differently on other CPUs."""
    assert cli.main(["witness"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["visibility"] for r in results] == list(cli.DEFAULT_VISIBILITIES)
    settings = build_witness().settings
    for result in results:
        v, model = result["visibility"], white_noise_model(result["visibility"])
        values = {s.name: sum(c * term_expectation(model, factors) for c, factors in s.terms) for s in settings}
        assert result["settings"].keys() == values.keys()
        assert max(abs(result["settings"][name] - x) for name, x in values.items()) <= 1e-12, (v, result)
        w = 0.5 + sum(s.coefficient * values[s.name] for s in settings)
        assert abs(result["witness_expectation"] - w) <= 1e-12, (v, result)
        assert abs(result["fidelity_bound"] - (0.5 - w)) <= 1e-12, (v, result)
        assert abs(w - (0.5 - v)) <= 1e-12, v  # white noise: W = 1/2 - v
    assert abs(results[0]["settings"]["A0"] - 1.0) <= 1e-12  # v = 1


def test_white_noise_family():
    assert witness_expectation(white_noise_model(1.0)) == pytest.approx(-0.5)
    assert witness_expectation(white_noise_model(0.0)) == pytest.approx(0.5)
    assert witness_expectation(white_noise_model(0.5)) == pytest.approx(0.0)
    for v in np.linspace(0.0, 1.0, 11):
        model = white_noise_model(float(v))
        assert witness_expectation(model) == pytest.approx(0.5 - v)
        assert witness_from_settings(setting_expectations(model)) == pytest.approx(0.5 - v)


def test_reported_anchor_values():
    w = witness_expectation(white_noise_model(0.605))
    assert w == pytest.approx(-0.105)
    assert fidelity_bound(w) == pytest.approx(0.605)


def test_negativity_threshold():
    for v in (0.501, 0.6, 0.9):
        assert witness_expectation(white_noise_model(v)) < 0
    for v in (0.5, 0.4, 0.0):
        assert witness_expectation(white_noise_model(v)) >= 0


def test_fidelity_bound_examples():
    assert fidelity_bound(-0.105) == pytest.approx(0.605)
    assert fidelity_bound(-0.5) == pytest.approx(1.0)
    assert fidelity_bound(0.0) == pytest.approx(0.5)


def test_methods_agree_on_random_product_states():
    rng = np.random.default_rng(404)
    for _ in range(100):
        model = pure(random_product_state(rng))
        proj = witness_expectation(model)
        sett = witness_from_settings(setting_expectations(model))
        assert abs(proj - sett) < 1e-9


def test_bound_never_exceeds_true_fidelity(targets):
    psi, _ = targets
    rng = np.random.default_rng(405)
    for _ in range(30):
        states = [random_product_state(rng) for _ in range(2)]
        w1, w2 = rng.dirichlet((1.0, 1.0)) * 0.8
        model = DensityModel(
            8, ((float(w1), states[0]), (float(w2), states[1])), mixed_weight=float(1 - w1 - w2)
        )
        true_fidelity = sum(
            w * abs(np.vdot(psi.amps, s.amps)) ** 2 for w, s in model.components
        ) + model.mixed_weight / 256.0
        bound = fidelity_bound(witness_expectation(model))
        assert bound <= true_fidelity + 1e-12


def test_witness_floor(targets):
    psi, _ = targets
    rng = np.random.default_rng(406)
    for _ in range(20):
        model = pure(random_product_state(rng))
        assert witness_expectation(model) >= -0.5 - 1e-12
    assert witness_expectation(pure(psi)) >= -0.5 - 1e-12


def test_validation():
    with pytest.raises(ValueError):
        white_noise_model(-0.1)
    with pytest.raises(ValueError):
        white_noise_model(1.2)
    small = pure(computational_zero(2))
    with pytest.raises(ValueError):
        witness_expectation(small)
