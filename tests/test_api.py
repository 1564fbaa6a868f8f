"""tecsim's public names, pinned: a name that leaves or joins ``__all__`` is a deliberate change."""

import tecsim
from tecsim import cluster, complexes, dense, pauli, tableau

import reference

PUBLIC_NAMES = (
    "CapacityError", "CellComplex", "Chain", "ClusterState", "DensityModel", "G8_CODE",
    "InteractionGraph", "MeasurementSetting", "OutcomeRecord", "PauliOperator",
    "SelfCheckError", "StabilizerTableau", "StateVector", "SweepPoint", "TopologicalCode",
    "WitnessOperator", "analytic_protected", "analytic_unprotected", "boundary",
    "build_cluster", "build_code", "build_cuboid_complex", "build_elementary_cell",
    "build_g8_complex", "build_graph_state_dense", "build_target_states", "build_witness",
    "cluster", "complex_from_json", "complexes", "decode_and_correct", "dense", "errors",
    "exact_enumeration", "expectation_observable", "extract_syndrome", "fidelity_bound",
    "interaction_graph", "is_closed", "measure_all", "monte_carlo_sweep", "pauli",
    "pauli_to_text", "philox_generator", "rng", "sample_errors", "simulate_trial",
    "surface_correlation", "tableau", "tec", "white_noise_model", "witness",
    "witness_expectation",
)


def test_all_is_the_pinned_sorted_list_of_public_names():
    assert tecsim.__all__ == list(PUBLIC_NAMES) == sorted(PUBLIC_NAMES)
    assert all(hasattr(tecsim, name) for name in PUBLIC_NAMES)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tecsim import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(PUBLIC_NAMES)


# functions that only tests call: (owner in tecsim, its name there, its name in reference or None)
TEST_ONLY = (
    (pauli, "pauli_from_text", "pauli_from_text"),
    (pauli, "multiply", "multiply"),
    (pauli, "commutes", "commutes"),
    (pauli, "_product_i_exponent", "_product_i_exponent"),
    (pauli.PauliOperator, "identity", "identity"),
    (pauli.PauliOperator, "weight", "weight"),
    (tableau.StabilizerTableau, "stabilizer", "stabilizer"),
    (tableau.StabilizerTableau, "stabilizers", "stabilizers"),
    (tableau.StabilizerTableau, "__repr__", None),
    (tableau, "_x_outcomes", "x_outcomes"),
    (dense.StateVector, "computational_zero", "computational_zero"),
    (dense.DensityModel, "pure", "pure"),
    (dense, "fidelity", "fidelity"),
    (dense, "_apply_factors", "apply_factors"),
    (complexes, "homologically_equivalent", "homologically_equivalent"),
    (complexes, "homology_class_key", "homology_class_key"),
    (complexes, "complex_to_json", "complex_to_json"),
    (complexes, "_column", "cuboid_reference"),
    (complexes, "_corner_ranges", "cuboid_reference"),
    (cluster, "stabilizer_generators", "stabilizer_generators"),
)


def test_test_only_functions_live_in_the_tests_reference_module():
    for owner, name, moved_to in TEST_ONLY:
        # a class's __repr__ is inherited from object, so look only at the class's own attributes
        defined = name in vars(owner) if isinstance(owner, type) else hasattr(owner, name)
        assert not defined, f"{owner.__name__}.{name} is back in tecsim"
        if moved_to is not None:
            assert callable(getattr(reference, moved_to, None)), f"reference.{moved_to} is missing"


def test_a_readout_row_is_one_int_from_reader_to_verdict():
    """Both backends' readers, in either basis, flipped or not, return one int in [0, 2^n), bit q set where qubit q
    reads -1. The code reads that int as it is: ``TopologicalCode`` has no ``flips`` or ``extract_syndrome``, and
    the module name ``extract_syndrome`` is G8_CODE's ``syndrome``, so ``__all__`` keeps its 53 names."""
    for engine in cluster.ENGINES:
        state = tecsim.G8_CODE.state(engine)
        for basis in "xz":
            for flips in (0, 0b10110101):
                row = state.backend.reader(basis)(tecsim.philox_generator(5), flips)
                assert type(row) is int and 0 <= row < 1 << state.graph.qubit_count, (engine, basis, flips)
    assert not any(hasattr(tecsim.TopologicalCode, name) for name in ("flips", "extract_syndrome"))
    syndrome = tecsim.extract_syndrome
    assert syndrome.__self__ is tecsim.G8_CODE and syndrome.__func__ is tecsim.TopologicalCode.syndrome
    assert syndrome is tecsim.tec.extract_syndrome and len(tecsim.__all__) == len(PUBLIC_NAMES) == 53
