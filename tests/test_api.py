"""tecsim's public names, pinned: a name that leaves or joins ``__all__`` is a deliberate change."""

import tecsim

PUBLIC_NAMES = (
    "CapacityError", "CellComplex", "Chain", "ClusterState", "DensityModel", "G8_CODE",
    "InteractionGraph", "MeasurementSetting", "OutcomeRecord", "PauliOperator",
    "SelfCheckError", "StabilizerTableau", "StateVector", "SweepPoint", "TopologicalCode",
    "WitnessOperator", "analytic_protected", "analytic_unprotected", "boundary",
    "build_cluster", "build_code", "build_cuboid_complex", "build_elementary_cell",
    "build_g8_complex", "build_graph_state_dense", "build_target_states", "build_witness",
    "cluster", "commutes", "complex_from_json", "complex_to_json", "complexes",
    "decode_and_correct", "dense", "errors", "exact_enumeration", "expectation_observable",
    "extract_syndrome", "fidelity", "fidelity_bound", "homologically_equivalent",
    "interaction_graph", "is_closed", "measure_all", "monte_carlo_sweep", "multiply", "pauli",
    "pauli_from_text", "pauli_to_text", "philox_generator", "rng", "sample_errors",
    "simulate_trial", "stabilizer_generators", "surface_correlation", "tableau", "tec",
    "white_noise_model", "witness", "witness_expectation",
)


def test_all_is_the_pinned_sorted_list_of_public_names():
    assert tecsim.__all__ == list(PUBLIC_NAMES) == sorted(PUBLIC_NAMES)
    assert all(hasattr(tecsim, name) for name in PUBLIC_NAMES)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tecsim import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(PUBLIC_NAMES)
