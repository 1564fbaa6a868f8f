"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report including wall-clock timings against the stated limits.
"""

import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import tecsim as ts
from tecsim import tec
from tecsim.complexes import Chain, boundary
from tecsim.rng import philox_generator
from tecsim.witness import setting_expectations, witness_from_settings

from reference import (
    SINGLE_ERROR_SYNDROMES,
    code_verdicts,
    fidelity,
    homologically_equivalent,
    pure,
    stabilizer_generators,
)


@contextmanager
def criterion(num: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {num} exceeded its runtime limit: {elapsed:.2f}s >= {limit_seconds}s"
    )
    print(f"PASS criterion {num} ({elapsed:.2f}s < {limit_seconds:.0f}s): {description}")


def _g8_state(engine):
    return ts.build_cluster(ts.interaction_graph(ts.build_g8_complex()), engine)


def test_criterion_1_stabilizer_identity():
    with criterion(1, "all 8 generators of |G8> have expectation +1", 1.0):
        graph = ts.interaction_graph(ts.build_g8_complex())
        generators = stabilizer_generators(graph)
        assert len(generators) == 8
        tableau_state = ts.build_cluster(graph, "tableau")
        for gen in generators:
            assert tableau_state.expectation(gen) == 1
        dense_state = ts.build_cluster(graph, "dense")
        for gen in generators:
            assert abs(dense_state.expectation(gen) - 1.0) <= 1e-12


def test_criterion_2_state_equivalence():
    with criterion(2, "H^8 |G8> equals the experimental state, fidelity 1", 1.0):
        rotated = _g8_state("dense").backend
        for q in range(8):
            rotated.apply_gate("H", q)
        psi, _ = ts.build_target_states()
        assert abs(fidelity(rotated, psi) - 1.0) <= 1e-12


def test_criterion_3_table_1_reproduction():
    with criterion(3, "each single Z error lands on its unique syndrome row and decodes away", 1.0):
        for q, row in SINGLE_ERROR_SYNDROMES.items():
            syndromes = set()
            for seed in (0, 1):
                corrected, correction, outcomes = tec.run_pattern(
                    1 << (q - 1), philox_generator(seed, q), engine="tableau"
                )
                syndromes.add(tec.extract_syndrome(outcomes))
                assert corrected == 1
                assert correction == 1 << (q - 1)
            assert syndromes == {row}, f"qubit {q} syndrome not deterministic/exact"


def test_criterion_4_enumeration_oracle_identity():
    with criterion(4, "64-pattern enumeration equals the closed form", 1.0):
        for p in np.linspace(0.0, 1.0, 101):
            assert abs(tec.exact_enumeration(float(p)) - tec.analytic_protected(float(p))) <= 1e-12
        weights = np.bitwise_count(np.flatnonzero(code_verdicts(tec.G8_CODE)[0] == 0)).tolist()
        assert Counter(weights) == {0: 1, 1: 6, 2: 9, 4: 9, 5: 6, 6: 1}
        assert tec.G8_CODE.cells[:2].sum(0).tolist() == [1, 6, 9, 0, 9, 6, 1]  # the same, per cell


def test_criterion_5_error_rate_sweep():
    with criterion(5, "10^5-trial sweep matches both analytic curves", 60.0):
        grid = [round(0.05 * i, 2) for i in range(21)]
        points = tec.monte_carlo_sweep(grid, 100_000, seed=2026)
        for pt in points:
            for est, se, ref in (
                (pt.mc_protected, pt.se_protected, pt.analytic_protected),
                (pt.mc_unprotected, pt.se_unprotected, pt.analytic_unprotected),
            ):
                assert abs(est - ref) <= 3.0 * se, f"p={pt.p}: {est} vs {ref}"
            if 0.0 < pt.p < 0.5:
                assert pt.mc_protected < pt.mc_unprotected, f"ordering broken at p={pt.p}"
                assert pt.analytic_protected < pt.analytic_unprotected


def test_criterion_6_closed_surface_correlations():
    with criterion(6, "closed-surface products are +1 on every sample", 10.0):
        cell = ts.build_elementary_cell()
        cell_graph = ts.interaction_graph(cell)
        cell_state = ts.build_cluster(cell_graph, "tableau")
        faces = cell.cells(2)
        assert len(faces) == 6 and cell_graph.qubit_count == 18
        for trial in range(10_000):
            record = ts.measure_all(cell_state, philox_generator(60, trial), "x")
            assert record.product(faces) == 1
        g8_state = _g8_state("tableau")
        for trial in range(10_000):
            record = ts.measure_all(g8_state, philox_generator(61, trial), "x")
            assert record.product(("f5", "f6")) == 1
            assert record.product(("f1", "f2")) == 1


def test_criterion_7_homology_suite():
    with criterion(7, "boundary algebra, equivalence classes, equal R(F)", 10.0):
        rng = np.random.default_rng(7000)
        complexes = (
            ts.build_elementary_cell(),
            ts.build_g8_complex(),
            ts.build_cuboid_complex(2, 2, 2),
        )
        for cx in complexes:
            face_names = sorted(cx.faces)
            volume_names = sorted(cx.volumes)
            for _ in range(1000):
                if volume_names and rng.random() < 0.5:
                    chain = Chain(3, frozenset(v for v in volume_names if rng.random() < 0.5))
                else:
                    chain = Chain(2, frozenset(f for f in face_names if rng.random() < 0.5))
                assert not boundary(boundary(chain, cx), cx).cells

        g8 = ts.build_g8_complex()
        assert homologically_equivalent(
            g8.chain(2, ["f1", "f2"]), g8.chain(2, ["f5", "f6"]), g8
        ) is None
        witness = homologically_equivalent(
            g8.chain(2, ["f1", "f2"]), g8.chain(2, ["f2", "f5"]), g8
        )
        assert witness == frozenset({"v", "w"})

        state = _g8_state("tableau")
        equivalent_pairs = (
            (("f1", "f2"), ("f2", "f5")),
            (("f5", "f6"), ("f1", "f3")),
            (("f3", "f6"), ("f3", "f4")),
        )
        for trial in range(10_000):
            record = ts.measure_all(state, philox_generator(62, trial), "x")
            for left, right in equivalent_pairs:
                assert record.product(left) == record.product(right)


def test_criterion_8_witness_suite():
    with criterion(8, "witness forms, settings, and white-noise anchors", 5.0):
        witness_op = ts.build_witness()
        deviation = np.max(
            np.abs(witness_op.projector_matrix() - witness_op.settings_matrix())
        )
        assert deviation <= 1e-10
        psi, _ = ts.build_target_states()
        ideal = pure(psi)
        values = setting_expectations(ideal)
        for form in (ts.witness_expectation(ideal), witness_from_settings(values)):
            assert abs(form + 0.5) <= 1e-12
        assert abs(values["A0"] - 1.0) <= 1e-12
        assert abs(values["A1"] + 1.0) <= 1e-12
        for k in range(6):
            assert abs(values[f"B{k}"] - (-1.0) ** k) <= 1e-12
        anchor = ts.witness_expectation(ts.white_noise_model(0.605))
        assert abs(anchor - (-0.105)) <= 1e-12
        assert abs(ts.fidelity_bound(anchor) - 0.605) <= 1e-12


def test_criterion_9_out_of_scope_figures_documented_not_tested():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for figure in ("3.2", "200:1", "4.5", "0.7%", "1.1%"):
        assert figure in readme, f"README must document the untested figure {figure}"
    print(
        "PASS criterion 9: experimental count rate, signal-to-noise, significance "
        "and fault-tolerance threshold are documented as not reproduced"
    )
