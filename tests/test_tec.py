import math
import tracemalloc
from collections import Counter
from itertools import combinations, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tecsim import cli, tableau, tec
from tecsim.cluster import OutcomeRecord, build_cluster, interaction_graph, measure_all
from tecsim.complexes import (
    G8_PROTECTED_SURFACE,
    build_g8_complex,
    is_closed,
    volume_boundary_masks,
)
from tecsim.rng import philox_generator
from tecsim.tec import (
    G8_CODE,
    SWEEP_ENGINES,
    analytic_protected,
    analytic_unprotected,
    build_code,
    decode_and_correct,
    exact_enumeration,
    extract_syndrome,
    monte_carlo_sweep,
    run_pattern,
    sample_errors,
    simulate_trial,
)

from reference import (
    SINGLE_ERROR_SYNDROMES,
    Replay,
    code_verdicts,
    g8_protected_polynomial,
    g8_unprotected_polynomial,
    homologically_equivalent,
    homology_class_key,
    pattern_chances,
    walk_decoder,
)

FACE_NUMBERS = (1, 2, 3, 4, 5, 6)
G8_PAIRS = ((1, 2), (2, 5), (3, 6), (3, 4))  # the volume boundaries v, w, y, z by face number

ALL_PATTERNS = [
    frozenset(combo) for w in range(7) for combo in combinations(FACE_NUMBERS, w)
]


# syndrome -> the decoder's correction, as a set of face numbers, from each entry of the leader array
DECODE_TABLE = {
    G8_CODE.syndrome(leader): frozenset(q for q in FACE_NUMBERS if leader >> (q - 1) & 1)
    for leader in G8_CODE.leaders.tolist()
}


def syndrome_of_pattern(pattern):
    """The four volume parities of a flip pattern, from the literal g8 pairs."""
    return tuple(-1 if len(set(pattern) & {a, b}) % 2 else 1 for a, b in G8_PAIRS)


def representative_record(pattern):
    """All-(+1) X outcomes with the pattern's faces flipped: fixes every face product."""
    outcomes = {f"f{q}": -1 if q in pattern else 1 for q in FACE_NUMBERS}
    return OutcomeRecord(outcomes, "x")


def test_sample_errors_extremes():
    rng = philox_generator(0)
    for _ in range(50):
        assert sample_errors(0.0, rng) == frozenset()
        assert sample_errors(1.0, rng) == frozenset(FACE_NUMBERS)


def test_sample_errors_binomial_mean():
    rng = philox_generator(1)
    trials = 100_000
    total = sum(len(sample_errors(0.5, rng)) for _ in range(trials))
    mean = total / trials
    sigma = math.sqrt(6 * 0.25 / trials)
    assert abs(mean - 3.0) < 3 * sigma


def test_noise_model_validation():
    rng = philox_generator(0)
    for p in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match="probability must be in"):
            sample_errors(p, rng)
        with pytest.raises(ValueError, match="probability must be in"):
            simulate_trial(p, rng)


@pytest.mark.parametrize("qubit,row", SINGLE_ERROR_SYNDROMES.items())
def test_single_error_syndrome_rows(qubit, row):
    assert tuple(syndrome_of_pattern({qubit})) == row
    record = representative_record({qubit})
    assert tuple(extract_syndrome(record)) == row


def test_no_error_syndrome():
    assert tuple(syndrome_of_pattern(frozenset())) == (1, 1, 1, 1)


def test_extract_syndrome_requires_all_faces():
    record = representative_record({1})
    trimmed = dict(record.outcomes)
    del trimmed["f4"]
    partial = OutcomeRecord(trimmed, "x")
    with pytest.raises(KeyError):
        extract_syndrome(partial)


def test_decode_table_examples():
    table = DECODE_TABLE
    assert len(table) == 16
    assert table[(-1, 1, 1, 1)] == frozenset({1})
    assert table[(1, 1, 1, 1)] == frozenset()
    assert table[(1, -1, -1, 1)] == frozenset({5, 6})
    assert all(len(c) <= 2 for c in table.values())


def test_decode_table_is_minimum_weight():
    table = DECODE_TABLE
    for pattern in ALL_PATTERNS:
        correction = table[syndrome_of_pattern(pattern)]
        assert len(correction) <= len(pattern)


def test_decode_and_correct_examples():
    corrected, correction = decode_and_correct(representative_record({5}))
    assert (corrected, correction) == (1, frozenset({5}))
    corrected, correction = decode_and_correct(representative_record(frozenset()))
    assert (corrected, correction) == (1, frozenset())
    # two errors collide with the single-error signature of qubit 5
    corrected, correction = decode_and_correct(representative_record({1, 2}))
    assert correction == frozenset({5})
    assert corrected == -1


def test_single_error_completeness():
    for q in FACE_NUMBERS:
        corrected, _ = decode_and_correct(representative_record({q}))
        assert corrected == 1


def test_analytic_unprotected_values():
    assert analytic_unprotected(0.0) == pytest.approx(0.0)
    assert analytic_unprotected(0.5) == pytest.approx(0.5)
    assert analytic_unprotected(0.25) == pytest.approx(0.375)
    assert analytic_unprotected(0.1) == pytest.approx(0.18)


def test_analytic_protected_values():
    assert analytic_protected(0.0) == pytest.approx(0.0)
    assert analytic_protected(0.5) == pytest.approx(0.5)
    assert analytic_protected(0.1) == pytest.approx(0.054432, abs=1e-9)
    assert analytic_protected(1.0) == pytest.approx(0.0)


@pytest.mark.parametrize("p", [1e-9, 1e-6, 1.0 - 1e-9])
def test_analytic_protected_is_relatively_accurate_near_the_ends(p):
    # the enumeration sums the failing patterns' probabilities, all positive
    assert analytic_protected(p) > 0.0
    assert analytic_protected(p) == pytest.approx(exact_enumeration(p), rel=1e-9)


@pytest.mark.parametrize("steps", [3, 5, 11, 21, 101])
def test_analytic_protected_is_the_two_chain_form(steps):
    """g8's faces form two chains of three; decoding fails when exactly one chain's majority
    flips, with chance f = 3p^2 q + p^3 each."""
    for p in cli._grid(0.0, 1.0, steps):
        f = 3.0 * p**2 * (1.0 - p) + p**3
        assert abs(analytic_protected(p) - 2.0 * f * (1.0 - f)) <= 1e-15, p


def test_g8_enumerators_are_the_papers_weight_counts():
    """Protected: 6 failing patterns of weight 2, 20 of 3, 6 of 4 over all six faces;
    unprotected: the two one-face flips of the surface {f5, f6}, over those two faces."""
    assert G8_CODE.enumerators == ((0, 0, 6, 20, 6, 0, 0), (0, 2, 0))


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 11, 21, 101, 256, 1000, 1001])
def test_g8_rates_are_the_hand_written_polynomials_bit_for_bit(steps):
    """The enumerator sum runs the hand-written polynomials' operations in their order, so the
    derived curves equal them exactly, on the sweep grid and at 1,000 uniform p per case."""
    for p in cli._grid(0.0, 1.0, steps) + np.random.default_rng(steps).random(1000).tolist():
        expected = g8_protected_polynomial(p), g8_unprotected_polynomial(p)
        assert G8_CODE.rates(p) == (analytic_protected(p), analytic_unprotected(p)) == expected, p


def test_probability_domain_checks():
    for func in (analytic_protected, analytic_unprotected, exact_enumeration, G8_CODE.rates):
        with pytest.raises(ValueError):
            func(-0.01)
        with pytest.raises(ValueError):
            func(1.01)


def test_enumeration_matches_analytic_curve():
    for p in np.linspace(0.0, 1.0, 101):
        assert abs(exact_enumeration(float(p)) - analytic_protected(float(p))) < 1e-12


def test_success_weight_profile():
    weights = np.bitwise_count(np.flatnonzero(code_verdicts(G8_CODE)[0] == 0)).tolist()
    assert Counter(weights) == {0: 1, 1: 6, 2: 9, 4: 9, 5: 6, 6: 1}
    assert G8_CODE.cells[:2].sum(0).tolist() == [1, 6, 9, 0, 9, 6, 1]  # classes 0 and 1: protected holds


def test_success_set_closed_under_complementation():
    def fails(pattern):
        corrected, _ = decode_and_correct(representative_record(pattern))
        return corrected == -1

    full = frozenset(FACE_NUMBERS)
    for pattern in ALL_PATTERNS:
        assert fails(pattern) == fails(full - pattern)


def test_crossover_ordering():
    for p in np.linspace(0.01, 0.49, 25):
        assert analytic_protected(float(p)) < analytic_unprotected(float(p))
    for p in (0.0, 0.5, 1.0):
        assert analytic_protected(p) == pytest.approx(analytic_unprotected(p))


def test_tableau_pipeline_matches_classical_map():
    """Every one of the 64 patterns gives the classical syndrome and product."""
    for idx, pattern in enumerate(ALL_PATTERNS):
        corrected, correction, record = run_pattern(
            pattern, philox_generator(40, idx), engine="tableau"
        )
        assert extract_syndrome(record) == syndrome_of_pattern(pattern)
        assert correction == DECODE_TABLE[syndrome_of_pattern(pattern)]
        reference, _ = decode_and_correct(representative_record(pattern))
        assert corrected == reference


@pytest.mark.parametrize("engine", ["dense", "tableau"])
def test_frame_equivalence(engine):
    """X flips on the Hadamard-rotated (experimental) state, read out in Z, match Z flips read out in X."""
    rotated = build_cluster(interaction_graph(build_g8_complex()), engine)
    for q in range(rotated.graph.qubit_count):
        rotated.backend.apply_gate("H", q)
    for idx, pattern in enumerate(ALL_PATTERNS):
        z_corr, z_fix, z_rec = run_pattern(pattern, philox_generator(41, idx), engine=engine)
        state = rotated.copy()
        for q in pattern:
            state.backend.apply_gate("X", state.graph.index(G8_CODE.faces[q - 1]))
        x_rec = measure_all(state, philox_generator(42, idx), "z")
        x_corr, x_fix = decode_and_correct(x_rec)
        assert extract_syndrome(z_rec) == extract_syndrome(x_rec)
        assert z_fix == x_fix
        assert z_corr == x_corr


def test_pipeline_determinism_across_seeds():
    for seed in (0, 1, 2):
        corrected, _, record = run_pattern({3}, philox_generator(seed), "tableau")
        assert tuple(extract_syndrome(record)) == SINGLE_ERROR_SYNDROMES[3]
        assert corrected == 1


def test_simulate_trial_reproducible():
    a = simulate_trial(0.3, philox_generator(9, 0), "tableau")
    b = simulate_trial(0.3, philox_generator(9, 0), "tableau")
    assert a == b


def test_run_pattern_validation():
    with pytest.raises(ValueError):
        run_pattern(frozenset(), philox_generator(0), engine="fast")


@pytest.mark.parametrize("pattern", [{0}, {7}, {-1, 2}])
def test_run_pattern_rejects_unknown_face_numbers(pattern):
    with pytest.raises(ValueError, match="unknown face numbers"):
        run_pattern(pattern, philox_generator(0))


def test_sweep_zero_probability_is_exactly_zero():
    (point,) = monte_carlo_sweep([0.0], 5000, seed=3)
    assert point.mc_protected == 0.0
    assert point.mc_unprotected == 0.0
    assert point.se_protected == 0.0


def test_sweep_points_carry_g8s_rates_bit_for_bit():
    grid = [0.0, 5e-324, 1e-300, 0.1, 0.3, 0.5, 1.0 - 2**-53, 1.0]
    for pt in monte_carlo_sweep(grid, 1000, seed=3):
        got = pt.analytic_protected, pt.analytic_unprotected
        assert tuple(map(float.hex, got)) == tuple(map(float.hex, G8_CODE.rates(pt.p))), pt.p


def test_sweep_is_bitwise_reproducible():
    grid = [0.1, 0.3]
    a = monte_carlo_sweep(grid, 20_000, seed=77)
    b = monte_carlo_sweep(grid, 20_000, seed=77)
    assert a == b
    c = monte_carlo_sweep(grid, 20_000, seed=78)
    assert a != c


def test_sweep_worker_count_does_not_change_results():
    grid = [0.05, 0.2, 0.4]
    serial = monte_carlo_sweep(grid, 10_000, seed=5, workers=1)
    parallel = monte_carlo_sweep(grid, 10_000, seed=5, workers=3)
    assert serial == parallel


def test_sweep_fast_estimates_track_analytic():
    points = monte_carlo_sweep([0.05, 0.15, 0.3], 100_000, seed=11)
    for pt in points:
        assert abs(pt.mc_protected - pt.analytic_protected) < 3 * pt.se_protected
        assert abs(pt.mc_unprotected - pt.analytic_unprotected) < 3 * pt.se_unprotected


@pytest.mark.parametrize("engine,trials,tol_sigma", [("tableau", 400, 4), ("dense", 150, 4)])
def test_sweep_engine_paths_track_analytic(engine, trials, tol_sigma):
    (pt,) = monte_carlo_sweep([0.3], trials, seed=13, engine=engine)
    se = math.sqrt(pt.analytic_protected * (1 - pt.analytic_protected) / trials)
    assert abs(pt.mc_protected - pt.analytic_protected) < tol_sigma * se
    se_u = math.sqrt(pt.analytic_unprotected * (1 - pt.analytic_unprotected) / trials)
    assert abs(pt.mc_unprotected - pt.analytic_unprotected) < tol_sigma * se_u


def test_sweep_validation():
    with pytest.raises(ValueError):
        monte_carlo_sweep([0.1], 0, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_sweep([1.5], 10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_sweep([0.1], 10, seed=0, engine="warp")
    for trials in (2**63, 10**30):  # numpy draws the pattern counts as int64
        with pytest.raises(ValueError, match=r"trials must be in \[1, 2\*\*63 - 1\]"):
            monte_carlo_sweep([0.1], trials, seed=0)
    (point,) = monte_carlo_sweep([0.1], 2**63 - 1, seed=0)
    assert point.trials == 2**63 - 1 and 0.0 < point.mc_protected < point.mc_unprotected < 1.0


def random_outcome_count(code):
    """R: the coins the code's tableau draws for one X readout, counted by a replayed rng."""
    state = code.state("tableau")
    probe = Replay(bits=[0] * state.graph.qubit_count)
    state.backend.readout(probe)
    return probe.used


def verdict_classes(code=G8_CODE):
    """Each flip bitmask's class, 2 * (protected fails) + (unprotected fails): g8's from the brute-force
    verdicts, any other code's from the reference walk, neither read from the code's cells."""
    if code is G8_CODE:
        verdicts = _brute_force_verdicts()
    else:
        verdicts = walk_decoder(volume_boundary_masks(code.complex), code.surface, len(code.faces))[1]
    return (2 * verdicts[0] + verdicts[1]).tolist()


def cell_chances(p, classes):
    """Each (class, weight) cell's bitmasks in mask order, and its chance: its size times p^w (1 - p)^(n - w)."""
    n = len(classes).bit_length() - 1
    cells = {(c, w): [] for c, w in product(range(4), range(n + 1))}
    for k, c in enumerate(classes):
        cells[c, k.bit_count()].append(k)
    return list(cells.values()), [len(masks) * (p**w * (1.0 - p) ** (n - w)) for (_, w), masks in cells.items()]


def cell_counts(p, trials, seed, point, classes):
    """How many of a point's trials land in each cell: one multinomial from the (seed, point) stream, its
    categories rarest first and equal chances in cell order. Returns the cells, the counts and the stream."""
    cells, chances = cell_chances(p, classes)
    order = sorted(range(len(cells)), key=chances.__getitem__)  # a stable sort
    rng = philox_generator(seed, point)
    drawn = rng.multinomial(trials, [chances[i] for i in order]).tolist()
    return cells, [count for _, count in sorted(zip(order, drawn))], rng


def class_sums(counts):
    """(protected, unprotected) failures of per-cell counts: the cells run class by class, a quarter each."""
    per_class = [sum(counts[c * len(counts) // 4 : (c + 1) * len(counts) // 4]) for c in range(4)]
    return per_class[2] + per_class[3], per_class[1] + per_class[3]


def trial_patterns(p, trials, seed, point, code=G8_CODE):
    """Each trial's flip bitmask: trial t lands in cell i while the counts of the cells before i sum to at
    most t, and then, in trial order from the same stream, flips the cell's mask ``int(random() * size)``."""
    cells, counts, rng = cell_counts(p, trials, seed, point, verdict_classes(code))
    return [cell[int(rng.random() * len(cell))] for cell, count in zip(cells, counts) for _ in range(count)]


def trial_draws(engine, p, seed, point, trials, code=G8_CODE):
    """Each trial's flipped face numbers and outcome draws, replayed in the sweep's layout: trial t's
    pattern from :func:`trial_patterns`, then row t of the (seed, point, 1) stream, R
    ``integers(0, 2)`` (tableau, R random outcomes, two on g8) or n doubles (dense, n qubits)."""
    n, masks = len(code.faces), trial_patterns(p, trials, seed, point, code)
    patterns = [frozenset(i + 1 for i in range(n) if k >> i & 1) for k in masks]
    outcomes = philox_generator(seed, point, 1)
    if engine == "tableau":
        draws = outcomes.integers(0, 2, (trials, random_outcome_count(code)))
        return [(q, Replay(bits=d)) for q, d in zip(patterns, draws)]
    draws = outcomes.random((trials, code.state("dense").graph.qubit_count))
    return [(q, Replay(d)) for q, d in zip(patterns, draws)]


def reference_counts(code, p, trials, seed, point, engine="tableau"):
    """(protected, unprotected) failures of a ``code.run_pattern`` loop over the replayed trials.

    A k-trial multinomial is no prefix of a (k + 1)-trial one, so each trial count has its own."""
    prot = unprot = 0
    for pattern, rng in trial_draws(engine, p, seed, point, trials, code):
        corrected, _, record = code.run_pattern(pattern, rng, engine)
        prot += corrected == -1
        unprot += code.flipped(code.flips(record))
    return prot, unprot


@pytest.mark.parametrize("engine,trials", [("tableau", 120), ("dense", 40)])
def test_engine_sweep_counts_match_per_trial_reference(ring5, engine, trials):
    grid, seed = [0.15, 0.4], 21
    expected = [reference_counts(G8_CODE, p, trials, seed, i, engine) for i, p in enumerate(grid)]
    for eng, workers in ((engine, 1), (engine, 2), ("fast", 1)):
        points = monte_carlo_sweep(grid, trials, seed=seed, engine=eng, workers=workers)
        got = [(pt.protected_failures, pt.unprotected_failures) for pt in points]
        assert got == expected, (eng, workers)
    for i, p in enumerate(grid):  # ring5's loop replays its own draws: 1,024 patterns, R or 12 outcomes
        got = tec._count_failures(engine, p, trials, seed, i, ring5)
        assert got == reference_counts(ring5, p, trials, seed, i, engine), p


@pytest.mark.parametrize("seed", [0, 13, 2**64 + 3])
@pytest.mark.parametrize("p", [0.0, 1e-9, 0.05, 0.5, 1.0])
def test_sign_frame_counts_match_per_trial_loop(monkeypatch, p, seed):
    block = 64  # a small block puts every block edge in reach of a short reference loop
    monkeypatch.setattr(tec, "_BLOCK", block)
    for point in (0, 5):
        for trials in (1, block - 1, block, block + 1, 2 * block + 7):
            got = tec._count_failures("tableau", p, trials, seed, point)
            assert got == reference_counts(G8_CODE, p, trials, seed, point), (point, trials)
            assert got == tec._count_failures("fast", p, trials, seed, point), (point, trials)


def test_sign_frame_counts_match_per_trial_loop_at_the_tableau_block():
    block, seed = tec._BLOCK, 2**64 + 3
    for trials in (1, block - 1, block, block + 1, 2 * block + 7):
        expected = reference_counts(G8_CODE, 0.05, trials, seed, 1)
        assert tec._count_failures("tableau", 0.05, trials, seed, 1) == expected, trials


@pytest.mark.parametrize("seed", [0, 2**64 + 3])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_dense_block_counts_match_per_trial_loop(monkeypatch, p, seed):
    block = 16  # a small block puts every block edge in reach of a short reference loop
    monkeypatch.setattr(tec, "_BLOCK", block)
    for point in (0, 5):
        for trials in (1, block - 1, block, block + 1, 2 * block + 7):
            got = tec._count_failures("dense", p, trials, seed, point)
            assert got == reference_counts(G8_CODE, p, trials, seed, point, "dense"), (point, trials)
            assert got == tec._count_failures("fast", p, trials, seed, point), (point, trials)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    engine=st.sampled_from(["tableau", "dense"]),
    seed=st.integers(0, 2**64 + 5),
    point=st.integers(0, 2**40),
    p=st.floats(0.0, 1.0),
    trials=st.integers(1, 300),
    block=st.integers(1, 128),
)
def test_state_engine_counts_equal_the_fast_counts(engine, seed, point, p, trials, block):
    """The random X outcomes change no verdict, so any block size gives the fast counts."""
    with patch.object(tec, "_BLOCK", block):
        got = tec._count_failures(engine, p, trials, seed, point)
    assert got == tec._count_failures("fast", p, trials, seed, point)


@pytest.mark.parametrize("engine", ["tableau", "dense"])
@pytest.mark.parametrize("p", [0.05, 0.5])
def test_block_outcomes_are_each_trials_readout(p, engine):
    """Every qubit's outcome, random ones included, is that of the trial's ``run_pattern`` record.

    The counts cannot show the random outcomes: on g8 they flip all six faces
    together, which changes no verdict. The second block reads the outcome stream
    from where the first left it.
    """
    seed, point, size, first = 2**64 + 3, 2, 40, 17
    state = G8_CODE.state(engine)
    draws = trial_draws(engine, p, seed, point, size)
    flips = np.array([[q in pattern for q in FACE_NUMBERS] for pattern, _ in draws])
    outcome_rng = philox_generator(seed, point, 1)
    got = np.concatenate(
        [state.backend.readout(outcome_rng, flips[:first]), state.backend.readout(outcome_rng, flips[first:])]
    )
    for i, (pattern, rng) in enumerate(draws):
        _, _, record = run_pattern(pattern, rng, engine)
        assert got[i].tolist() == [record.outcomes[label] for label in state.graph.vertices], i


@pytest.mark.parametrize("engine", ["tableau", "dense"])
def test_sweep_blocks_read_the_points_outcome_stream_in_order(monkeypatch, engine):
    """The counts cannot show which stream the random outcomes come from; the outcomes can."""
    seed, point, trials, p = 11, 3, 50, 0.5
    read, outcomes = G8_CODE._reader(engine), []
    def spy(rng, flips=None):
        outcomes.append(read(rng, flips))
        return outcomes[-1]

    monkeypatch.setitem(G8_CODE._readers, engine, spy)
    monkeypatch.setattr(tec, "_BLOCK", 16)
    tec._count_failures(engine, p, trials, seed, point)
    flips = np.array([[k >> i & 1 for i in range(6)] for k in trial_patterns(p, trials, seed, point)], bool)
    expected = G8_CODE.state(engine).backend.readout(philox_generator(seed, point, 1), flips)
    assert len(outcomes) == 4 and np.array_equal(np.concatenate(outcomes), expected)


@pytest.mark.parametrize("engine", ["tableau", "dense"])
def test_run_pattern_is_a_block_of_one(monkeypatch, engine):
    """``run_pattern`` copies no state, applies no gate and measures nothing itself."""
    backend = type(G8_CODE.state(engine).backend)
    for name in ("copy", "apply_gate", "measure_x", "measure_pauli"):
        monkeypatch.setattr(backend, name, lambda *args, name=name: pytest.fail(f"run_pattern called {name}"))
    monkeypatch.setattr(tec, "measure_all", lambda *args: pytest.fail("run_pattern called measure_all"))
    corrected, correction, record = run_pattern({5}, philox_generator(3), engine)
    assert (corrected, correction) == (1, frozenset({5}))
    assert extract_syndrome(record) == SINGLE_ERROR_SYNDROMES[5]


def test_tableau_readout_runs_one_plan_per_code_state(monkeypatch):
    """One readout plan per code state: the code's X reader keeps its plan for every block of every sweep point.
    A ``readout`` call, one per record, builds a plan in the call's basis."""
    block = 64
    monkeypatch.setattr(tec, "_BLOCK", block)
    code = build_code(build_g8_complex(), G8_PROTECTED_SURFACE)
    calls = []
    plan = tableau.StabilizerTableau._readout_plan
    def counted(self, basis):
        calls.append(basis)
        return plan(self, basis)

    monkeypatch.setattr(tableau.StabilizerTableau, "_readout_plan", counted)
    for point in range(3):  # 3 blocks each, the last one partial
        got = tec._count_failures("tableau", 0.2, 2 * block + 5, 4, point, code)
        assert got == tec._count_failures("fast", 0.2, 2 * block + 5, 4, point)
    assert calls == ["x"]
    measure_all(code.state("tableau"), philox_generator(4), "x")
    measure_all(code.state("tableau"), philox_generator(4), "z")
    assert calls == ["x"] * 2 + ["z"]


@pytest.mark.parametrize(
    "p,trials,seed,point,counts",
    [
        (0.5, 200, 1, 0, (93, 102)),
        (0.25, 1000, 7, 0, (278, 390)),
        (0.1, 3000, 13, 0, (149, 515)),
        (0.5, 4100, 3, 1, (2065, 2126)),
    ],
)
def test_tableau_and_dense_sweeps_agree_on_g8(p, trials, seed, point, counts):
    """Every engine reads each trial's flips from the same stream; on g8 the
    random outcomes flip all six faces together, so their draws change no verdict."""
    for engine in SWEEP_ENGINES:
        assert tec._count_failures(engine, p, trials, seed, point) == counts, engine


@pytest.mark.parametrize("engine", ["tableau", "dense"])
def test_no_engine_sweep_simulates_each_trial(monkeypatch, engine):
    """Both state engines run whole blocks of trials; any code's ``simulate_trial`` and
    ``run_pattern``, and the module names bound to G8_CODE's, are the tests' reference."""
    monte_carlo_sweep([0.3], 5, seed=1, engine=engine)  # lazy states outside the count
    calls = []
    def counted(*args):
        calls.append(args)
        return False, False, frozenset()

    for owner in (tec, tec.TopologicalCode):
        for name in ("simulate_trial", "run_pattern"):
            monkeypatch.setattr(owner, name, counted)
    monte_carlo_sweep([0.3], 50, seed=1, engine=engine)
    assert calls == []


def sweep_peaks(engine, trial_counts):
    """tracemalloc peak of a one-point sweep per trial count, lazy builds paid beforehand."""
    monte_carlo_sweep([0.3], 10, seed=1, engine=engine)
    peaks = {}
    for trials in trial_counts:
        tracemalloc.start()
        try:
            monte_carlo_sweep([0.3], trials, seed=1, engine=engine)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_tableau_sweep_memory_does_not_grow_with_trials():
    peaks = sweep_peaks("tableau", (5_000, 25_000))
    assert max(peaks.values()) < 3 * 2**20, peaks
    assert peaks[25_000] - peaks[5_000] < 2**18, peaks


def test_dense_sweep_memory_does_not_grow_with_trials():
    peaks = sweep_peaks("dense", (2_000, 10_000))
    assert max(peaks.values()) < 8 * 2**20, peaks
    assert peaks[10_000] - peaks[2_000] < 2**18, peaks


@settings(derandomize=True, deadline=None, max_examples=10)
@given(
    grid=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3),
    trials=st.integers(1, 200),
    seed=st.integers(0, 2**64 + 5),
    engine=st.sampled_from(["fast", "tableau", "dense"]),
)
def test_sweep_is_invariant_to_the_worker_count(grid, trials, seed, engine):
    serial = monte_carlo_sweep(grid, trials, seed, engine, workers=1)
    assert monte_carlo_sweep(grid, trials, seed, engine, workers=2) == serial


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs jobs in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "grid, workers, expected",
    [([0.1, 0.2], 1000, 2), ([0.1, 0.2, 0.3], 2, 2), ([0.1, 0.2, 0.3, 0.4, 0.5], 1000, 3)],
)
def test_sweep_pool_is_capped_at_the_grid_size(monkeypatch, grid, workers, expected):
    """The pool is no larger than the workers asked for, the grid or the usable CPUs (three here)."""
    monkeypatch.setattr(tec.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(tec.os, "cpu_count", lambda: 3)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    points = monte_carlo_sweep(grid, 2000, seed=3, workers=workers)
    assert RecordingPool.sizes == [expected]
    assert points == monte_carlo_sweep(grid, 2000, seed=3, workers=1)


def test_syndrome_pairs_are_the_g8_volume_boundaries():
    cx = build_g8_complex()
    assert cx.cells(3) == ("v", "w", "y", "z")
    pairs = tuple(tuple(sorted(int(f[1:]) for f in cx.volumes[v])) for v in cx.cells(3))
    assert pairs == G8_PAIRS
    assert G8_CODE.checks == tuple((1 << (a - 1)) | (1 << (b - 1)) for a, b in G8_PAIRS)
    assert G8_CODE.checks == (0b11, 0b10010, 0b100100, 0b1100)
    assert G8_CODE.check_names == ("c12", "c25", "c36", "c34")


def test_face_qubits_are_the_g8_faces():
    assert tuple(f"f{q}" for q in FACE_NUMBERS) == build_g8_complex().cells(2) == G8_CODE.faces


def test_protected_pair_is_a_closed_surface_no_volumes_bound():
    cx = build_g8_complex()
    assert G8_PROTECTED_SURFACE == {"f5", "f6"}
    assert G8_CODE.surface == 0b110000
    surface = cx.chain(2, G8_PROTECTED_SURFACE)
    assert is_closed(surface, cx)
    assert homology_class_key(surface, cx)
    assert homologically_equivalent(surface, cx.chain(2, ()), cx) is None


def _brute_force_verdicts():
    """(protected, unprotected) failure of each of the 64 bitmasks, the correction parity per
    syndrome found by brute force, not read from the decoder the fast tables come from."""
    parity, verdicts = {}, np.zeros((2, 64), dtype=np.int64)
    for pattern in sorted(ALL_PATTERNS, key=len, reverse=True):  # the lightest one writes last
        parity[syndrome_of_pattern(pattern)] = len(pattern & {5, 6}) % 2
    for pattern in ALL_PATTERNS:
        unprotected, mask = len(pattern & {5, 6}) % 2, sum(1 << (q - 1) for q in pattern)
        verdicts[:, mask] = unprotected ^ parity[syndrome_of_pattern(pattern)], unprotected
    return verdicts


# 65,536 +- 1 were the edges of the fast kernel's chunked draw before it drew pattern counts
@pytest.mark.parametrize("trials", [1, 65_535, 65_536, 65_537, 196_615, 10**12])
@pytest.mark.parametrize("p", [0.0, 1e-9, 0.05, 0.5, 0.97, 1.0])
def test_chunked_fast_kernel_matches_whole_array_draw(trials, p):
    """The fast counts are the brute-force classes' sums of the point's whole multinomial cell draw."""
    classes = verdict_classes()
    for seed in (0, 13, 2**64 + 3):
        for point in (0, 5):
            expected = class_sums(cell_counts(p, trials, seed, point, classes)[1])
            assert tec._count_failures("fast", p, trials, seed, point) == expected, (seed, point)


@pytest.mark.parametrize("p", [1e-6, 1e-4, 0.3, 1.0 - 1e-6])
def test_huge_points_draw_no_trials_onto_patterns_they_cannot_reach(p):
    """numpy draws a multinomial a category at a time against the running remainder
    1 - sum(chances so far). Rarest first, that remainder never falls below the commonest cell's
    chance, so even 2^63 - 1 trials leave every cell with under 10^-6 expected trials empty. Drawn in
    cell order at p = 1e-6 from this stream, the remainder's rounding put 1,383 trials on the last
    cell, (class 3, weight 6), which holds no pattern (numpy 2.4.6)."""
    trials, classes = 2**63 - 1, verdict_classes()
    _, counts, _ = cell_counts(p, trials, 3, 0, classes)
    _, chances = cell_chances(p, classes)
    assert sum(counts) == trials and min(counts) >= 0
    assert all(count == 0 for count, chance in zip(counts, chances) if chance * trials < 1e-6), counts
    assert tec._count_failures("fast", p, trials, 3, 0) == class_sums(counts)


def test_state_engine_rows_flip_each_pattern_at_its_chance(monkeypatch):
    """Given the cell counts, each trial's pattern is uniform over its cell (up to the rounding of a
    double times the cell's size), so the rows' pattern counts are multinomial(trials, pi). Pooled over 4,000 g8 points of 50 tableau trials at p = 0.2, the
    chi^2 of the 64 pattern counts against 200,000 pi_k (63 degrees of freedom, the rarest pattern
    expects 12.8) must stay under the chi^2 upper 10^-6 quantile, from the Wilson-Hilferty form."""
    read, rows = G8_CODE._reader("tableau"), []
    def spy(rng, flips=None):
        rows.append(flips)
        return read(rng, flips)

    monkeypatch.setitem(G8_CODE._readers, "tableau", spy)
    p, trials, seeds = 0.2, 50, 4000
    for seed in range(seeds):
        tec._count_failures("tableau", p, trials, seed, 0)
    observed = np.bincount(np.concatenate(rows) @ (1 << np.arange(6)), minlength=64)
    expected = seeds * trials * np.array(pattern_chances(p, 6))
    chi2, dof, z = ((observed - expected) ** 2 / expected).sum(), 63, 4.753  # z: the normal's 10^-6 tail
    bound = dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3  # 131.7
    assert observed.sum() == seeds * trials and chi2 < bound, (chi2, bound)


def test_the_largest_double_below_1_picks_inside_every_cell():
    """A trial picks member int(u * size) of its cell; u < 1 keeps it below the size for every cell
    size up to 2^20, so for every code up to the decoder cap."""
    sizes = np.arange(1, 2**20 + 1)
    assert np.all((np.nextafter(1.0, 0.0) * sizes).astype(int) == sizes - 1)


def test_a_fast_point_of_10_10_trials_lies_within_5_sigma_of_the_rates():
    points = monte_carlo_sweep(cli._grid(0.0, 1.0, 21), 10**10, seed=29)
    for pt in points:
        for mc, rate in ((pt.mc_protected, pt.analytic_protected), (pt.mc_unprotected, pt.analytic_unprotected)):
            assert abs(mc - rate) <= 5 * tec.binomial_se(rate, pt.trials), (pt.p, mc, rate)


@pytest.mark.parametrize("engine", ["tableau", "dense"])
def test_a_readout_that_drops_a_z_flip_makes_the_sweep_exit_3(monkeypatch, capsys, engine):
    """Each row's read-out pattern may differ from its injected one only where no check and not
    the surface sees it, so a readout that ignores face 1's Z flips is an internal error."""
    read = G8_CODE._reader(engine)
    def drop_face_1(rng, flips=None):
        flips = flips.copy()
        flips[:, 0] = False
        return read(rng, flips)

    argv = ["sweep", "--engine", engine, "--trials", "40", "--steps", "1", "--p-min", "0.5", "--p-max", "0.5"]
    monkeypatch.setitem(G8_CODE._readers, engine, drop_face_1)
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"tecsim: internal error: the {engine} readout moved a check or the surface\n"


def test_fast_tables_match_tableau_pipeline_per_pattern():
    protected, unprotected = code_verdicts(G8_CODE)
    assert len(ALL_PATTERNS) == 64
    for n, pattern in enumerate(ALL_PATTERNS):
        idx = sum(1 << (q - 1) for q in pattern)
        corrected, _, record = run_pattern(pattern, philox_generator(43, n), "tableau")
        assert protected[idx] == (corrected == -1), pattern
        assert unprotected[idx] == (record.product(("f5", "f6")) == -1), pattern


@pytest.mark.parametrize("trials", [100_000, 2_000_000])
def test_fast_sweep_memory_does_not_grow_with_trials(trials):
    monte_carlo_sweep([0.3], 10, seed=1)  # lazy tables outside the measurement
    tracemalloc.start()
    try:
        monte_carlo_sweep([0.3], trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
