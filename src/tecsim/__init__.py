"""Desk-scale simulator for topological error correction on cluster states."""

__version__ = "0.1.0"

from .cluster import (
    ClusterState,
    InteractionGraph,
    OutcomeRecord,
    build_cluster,
    interaction_graph,
    measure_all,
    stabilizer_generators,
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
    complex_to_json,
    homologically_equivalent,
    is_closed,
)
from .dense import (
    DensityModel,
    StateVector,
    build_graph_state_dense,
    expectation_observable,
    fidelity,
)
from .errors import CapacityError, SelfCheckError
from .pauli import PauliOperator, commutes, multiply, pauli_from_text, pauli_to_text
from .rng import philox_generator
from .tableau import StabilizerTableau
from .tec import (
    G8_CODE,
    NoiseModel,
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

__all__ = [name for name in dir() if not name.startswith("_")]
