"""Desk-scale simulator for topological error correction on cluster states."""

__version__ = "0.1.0"

from .cluster import (
    ClusterState,
    InteractionGraph,
    OutcomeRecord,
    build_cluster,
    interaction_graph,
    measure_all,
    surface_correlation,
)
from .complexes import (
    CellComplex,
    Chain,
    boundary,
    build_cuboid_complex,
    build_elementary_cell,
    build_g8_complex,
    complex_from_json,
    is_closed,
)
from .dense import (
    DensityModel,
    StateVector,
    build_graph_state_dense,
    expectation_observable,
)
from .errors import CapacityError, SelfCheckError
from .pauli import PauliOperator, pauli_to_text
from .rng import philox_generator
from .tableau import StabilizerTableau
from .tec import (
    G8_CODE,
    SweepPoint,
    TopologicalCode,
    analytic_protected,
    analytic_unprotected,
    build_code,
    decode_and_correct,
    exact_enumeration,
    extract_syndrome,
    monte_carlo_sweep,
    sample_errors,
    simulate_trial,
)
from .witness import (
    MeasurementSetting,
    WitnessOperator,
    build_target_states,
    build_witness,
    fidelity_bound,
    white_noise_model,
    witness_expectation,
)

__all__ = [
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
]
