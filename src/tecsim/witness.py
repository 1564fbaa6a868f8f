"""Entanglement witness for the eight-qubit cluster state.

The witness is 1/2 - |psi><psi| + |psi'><psi'| for the target state and a
fixed orthogonal partner. It decomposes into eight local measurement
settings: two computational-basis settings with X7 X8 / Y7 Y8 on the last
pair, and six settings rotating all first six qubits through
M_k = cos(k pi/6) X + sin(k pi/6) Y. Everything here is dense (256-dim):
the rotated settings are not Pauli strings, so no tableau shortcut exists.
Each setting is the difference of two tensor-product terms, and the settings
form evaluates all 16 terms in one batched call of
:func:`tecsim.dense.expectation_observable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import product

import numpy as np

from .dense import _X, _Y, DensityModel, StateVector, expectation_observable

N_QUBITS = 8
_DIM = 1 << N_QUBITS

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)  # |H><H|
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)  # |V><V|


def rotated_setting_matrix(k: int) -> np.ndarray:
    """M_k = cos(k pi/6) X + sin(k pi/6) Y; eigenvalues +-1."""
    angle = k * np.pi / 6.0
    return np.cos(angle) * _X + np.sin(angle) * _Y


def build_target_states() -> tuple[StateVector, StateVector]:
    """The ideal state and its orthogonal witness partner.

    Both are written directly from their four computational-basis
    amplitudes (qubit 1 is the leftmost bit), independent of any circuit
    construction.
    """
    psi = np.zeros(_DIM, dtype=complex)
    psi[0b00000000] = 0.5
    psi[0b00000011] = 0.5
    psi[0b11111100] = 0.5
    psi[0b11111111] = -0.5
    psi_prime = np.zeros(_DIM, dtype=complex)
    psi_prime[0b00000011] = 0.5
    psi_prime[0b00000000] = -0.5
    psi_prime[0b11111100] = 0.5
    psi_prime[0b11111111] = 0.5
    return StateVector.from_amplitudes(psi), StateVector.from_amplitudes(psi_prime)


@dataclass(frozen=True)
class MeasurementSetting:
    """One local setting: a +-1-coefficient sum of per-qubit factor products.

    ``coefficient`` is the setting's weight inside the witness combination
    W = 1/2 + sum_s coefficient_s * <setting_s>.
    """

    name: str
    coefficient: float
    terms: tuple[tuple[float, tuple], ...]

    def observable_matrix(self, lead: tuple[int, ...] = ()) -> np.ndarray:
        """The setting's matrix, or its columns of the leading qubits' basis state ``lead``."""
        total = np.zeros((_DIM, _DIM >> len(lead)), dtype=complex)
        for coeff, factors in self.terms:
            mats = list(factors)
            mats[: len(lead)] = [m[:, [bit]] for m, bit in zip(mats, lead)]
            total += coeff * reduce(np.kron, mats)
        return total


@dataclass(frozen=True)
class WitnessOperator:
    """Witness in projector form and in its eight-setting decomposition."""

    psi: StateVector
    psi_prime: StateVector
    settings: tuple[MeasurementSetting, ...]

    def projector_matrix(self, lead: tuple[int, ...] = ()) -> np.ndarray:
        cols = _columns(lead)
        proj_psi = np.outer(self.psi.amps, self.psi.amps[cols].conj())
        proj_prime = np.outer(self.psi_prime.amps, self.psi_prime.amps[cols].conj())
        return 0.5 * np.eye(_DIM)[:, cols] - proj_psi + proj_prime

    @cached_property
    def term_factors(self) -> np.ndarray:
        """Every setting's terms, in setting order, as one (terms, 8, 2, 2) stack of factors."""
        return np.array([factors for s in self.settings for _, factors in s.terms], dtype=complex)

    def settings_matrix(self, lead: tuple[int, ...] = ()) -> np.ndarray:
        total = 0.5 * np.eye(_DIM, dtype=complex)[:, _columns(lead)]
        for setting in self.settings:
            total += setting.coefficient * setting.observable_matrix(lead)
        return total


def _columns(lead: tuple[int, ...]) -> slice:
    """The columns in which the leading qubits (qubit 1 the top bit) are in state ``lead``."""
    start = sum(bit << (N_QUBITS - 1 - i) for i, bit in enumerate(lead))
    return slice(start, start + (_DIM >> len(lead)))


def _computational_settings() -> list[MeasurementSetting]:
    all_h = (_P0,) * 6
    all_v = (_P1,) * 6
    out = []
    for name, pair, weight in (("A0", _X, -0.25), ("A1", _Y, +0.25)):
        terms = (
            (1.0, all_h + (pair, pair)),
            (-1.0, all_v + (pair, pair)),
        )
        out.append(MeasurementSetting(name, weight, terms))
    return out


def _rotated_settings() -> list[MeasurementSetting]:
    out = []
    for k in range(6):
        mk = rotated_setting_matrix(k)
        terms = (
            (1.0, (mk,) * 6 + (_P0, _P0)),
            (-1.0, (mk,) * 6 + (_P1, _P1)),
        )
        out.append(MeasurementSetting(f"B{k}", -((-1.0) ** k) / 12.0, terms))
    return out


@lru_cache(maxsize=1)
def build_witness() -> WitnessOperator:
    """Construct both forms and verify they agree as 256x256 operators, 64 columns at a time."""
    psi, psi_prime = build_target_states()
    settings = tuple(_computational_settings() + _rotated_settings())
    witness = WitnessOperator(psi, psi_prime, settings)
    deviation = max(
        np.max(np.abs(witness.projector_matrix(lead) - witness.settings_matrix(lead)))
        for lead in product((0, 1), repeat=2)
    )
    if deviation > 1e-10:
        raise AssertionError(
            f"witness forms disagree: max entry deviation {deviation:.3g}"
        )
    return witness


def setting_expectations(model: DensityModel) -> dict[str, float]:
    """Per-setting expectation values for a density model, from one evaluation of all 16 terms."""
    witness = build_witness()
    values = iter(expectation_observable(model, witness.term_factors).tolist())
    return {s.name: sum(coeff * next(values) for coeff, _ in s.terms) for s in witness.settings}


def witness_from_settings(values: dict[str, float]) -> float:
    """<W> in the settings form: 1/2 plus each coefficient times its setting's value, in setting order."""
    return 0.5 + sum(s.coefficient * values[s.name] for s in build_witness().settings)


def witness_expectation(model: DensityModel) -> float:
    """<W> over a density model in the projector form; it stays >= -1/2."""
    if model.n != N_QUBITS:
        raise ValueError(f"witness needs {N_QUBITS}-qubit models, got {model.n}")
    witness = build_witness()
    value = 0.5
    for weight, state in model.components:
        value += weight * (
            abs(np.vdot(witness.psi_prime.amps, state.amps)) ** 2
            - abs(np.vdot(witness.psi.amps, state.amps)) ** 2
        )
    # both projectors contribute 1/256 to the mixed part and cancel
    if value < -0.5 - 1e-9:
        raise AssertionError(f"witness expectation {value} below its floor of -1/2")
    return value


def white_noise_model(visibility: float) -> DensityModel:
    """v |psi><psi| + (1 - v) * uniform mixture; <W> = 1/2 - v analytically."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    psi, _ = build_target_states()
    if visibility == 0.0:
        return DensityModel(N_QUBITS, (), mixed_weight=1.0)
    return DensityModel(N_QUBITS, ((visibility, psi),), mixed_weight=1.0 - visibility)


def fidelity_bound(witness_value: float) -> float:
    """Lower bound on the fidelity to the target state: 1/2 - <W>."""
    return 0.5 - witness_value
