import math
import tracemalloc
from collections import Counter
from itertools import combinations
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
    homology_class_key,
    is_closed,
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
    g8_protected_polynomial,
    g8_unprotected_polynomial,
    homologically_equivalent,
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
    weights = np.bitwise_count(np.flatnonzero(G8_CODE.tables[0] == 0)).tolist()
    assert Counter(weights) == {0: 1, 1: 6, 2: 9, 4: 9, 5: 6, 6: 1}


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


def random_outcome_count(code):
    """R: the coins the code's tableau draws for one X readout, counted by a replayed rng."""
    state = code.state("tableau")
    probe = Replay(bits=[0] * state.graph.qubit_count)
    state.backend.readout_x(probe)
    return probe.used


def trial_draws(engine, seed, point, trials, code=G8_CODE):
    """Each trial's draws, replayed in the sweep's layout: row t of the (seed, point) stream's
    F doubles for its flips, then row t of the (seed, point, 1) stream's outcome draws, R
    ``integers(0, 2)`` (tableau, R random outcomes, two on g8) or n doubles (dense, n qubits)."""
    doubles = philox_generator(seed, point).random((trials, len(code.faces)))
    outcomes = philox_generator(seed, point, 1)
    if engine == "tableau":
        draws = outcomes.integers(0, 2, (trials, random_outcome_count(code)))
    else:
        draws = outcomes.random((trials, code.state("dense").graph.qubit_count))
    return [Replay(d, r) if engine == "tableau" else Replay([*d, *r]) for d, r in zip(doubles, draws)]


def running_reference(code, p, trials, seed, point, engine="tableau"):
    """(protected, unprotected) failures of a ``code.simulate_trial`` loop after each trial."""
    prot = unprot = 0
    running = []
    for rng in trial_draws(engine, seed, point, trials, code):
        pf, uf, _ = code.simulate_trial(p, rng, engine)
        prot += pf
        unprot += uf
        running.append((prot, unprot))
    return running


@pytest.mark.parametrize("engine,trials", [("tableau", 120), ("dense", 40)])
def test_engine_sweep_counts_match_per_trial_reference(ring5, engine, trials):
    grid, seed = [0.15, 0.4], 21
    expected = [running_reference(G8_CODE, p, trials, seed, i, engine)[-1] for i, p in enumerate(grid)]
    for eng, workers in ((engine, 1), (engine, 2), ("fast", 1)):
        points = monte_carlo_sweep(grid, trials, seed=seed, engine=eng, workers=workers)
        got = [(pt.protected_failures, pt.unprotected_failures) for pt in points]
        assert got == expected, (eng, workers)
    for i, p in enumerate(grid):  # ring5's loop replays its own draws: 10 flips, R or 12 outcomes
        got = tec._count_failures(engine, p, trials, seed, i, ring5)
        assert got == running_reference(ring5, p, trials, seed, i, engine)[-1], p


@pytest.mark.parametrize("seed", [0, 13, 2**64 + 3])
@pytest.mark.parametrize("p", [0.0, 1e-9, 0.05, 0.5, 1.0])
def test_sign_frame_counts_match_per_trial_loop(monkeypatch, p, seed):
    block = 64  # a small block puts every block edge in reach of a short reference loop
    monkeypatch.setitem(tec._BLOCKS, "tableau", block)
    for point in (0, 5):
        running = running_reference(G8_CODE, p, 2 * block + 7, seed, point)
        for trials in (1, block - 1, block, block + 1, 2 * block + 7):
            got = tec._count_failures("tableau", p, trials, seed, point)
            assert got == running[trials - 1], (point, trials)
            assert got == tec._count_failures("fast", p, trials, seed, point), (point, trials)


def test_sign_frame_counts_match_per_trial_loop_at_the_tableau_block():
    block, seed = tec._BLOCKS["tableau"], 2**64 + 3
    running = running_reference(G8_CODE, 0.05, 2 * block + 7, seed, 1)
    for trials in (1, block - 1, block, block + 1, 2 * block + 7):
        assert tec._count_failures("tableau", 0.05, trials, seed, 1) == running[trials - 1], trials


@pytest.mark.parametrize("seed", [0, 2**64 + 3])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_dense_block_counts_match_per_trial_loop(monkeypatch, p, seed):
    block = 16  # a small block puts every block edge in reach of a short reference loop
    monkeypatch.setitem(tec._BLOCKS, "dense", block)
    for point in (0, 5):
        running = running_reference(G8_CODE, p, 2 * block + 7, seed, point, "dense")
        for trials in (1, block - 1, block, block + 1, 2 * block + 7):
            got = tec._count_failures("dense", p, trials, seed, point)
            assert got == running[trials - 1], (point, trials)
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
    with patch.dict(tec._BLOCKS, {engine: block}):
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
    rngs = trial_draws(engine, seed, point, size)
    flips = philox_generator(seed, point).random((size, len(G8_CODE.faces))) < p  # the flips rngs replay
    outcome_rng = philox_generator(seed, point, 1)
    got = np.concatenate(
        [state.backend.readout_x(outcome_rng, flips[:first]), state.backend.readout_x(outcome_rng, flips[first:])]
    )
    for i, rng in enumerate(rngs):
        _, _, record = run_pattern(sample_errors(p, rng), rng, engine)
        assert got[i].tolist() == [record.outcomes[label] for label in state.graph.vertices], i


@pytest.mark.parametrize("engine", ["tableau", "dense"])
def test_sweep_blocks_read_the_points_outcome_stream_in_order(monkeypatch, engine):
    """The counts cannot show which stream the random outcomes come from; the outcomes can."""
    seed, point, trials, p = 11, 3, 50, 0.5
    backend = G8_CODE.state(engine).backend
    readout, outcomes = type(backend).readout_x, []
    def spy(self, rng, flips=None):
        outcomes.append(readout(self, rng, flips))
        return outcomes[-1]

    monkeypatch.setattr(type(backend), "readout_x", spy)
    monkeypatch.setitem(tec._BLOCKS, engine, 16)
    tec._count_failures(engine, p, trials, seed, point)
    flips = philox_generator(seed, point).random((trials, len(G8_CODE.faces))) < p
    expected = readout(backend, philox_generator(seed, point, 1), flips)
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


def test_tableau_readout_runs_one_echelon_per_call(monkeypatch):
    """One echelon of the neighbour masks per ``readout_x`` call: per sweep block, per record."""
    block = 64
    monkeypatch.setitem(tec._BLOCKS, "tableau", block)
    code = build_code(build_g8_complex(), G8_PROTECTED_SURFACE)
    calls = []
    echelon = tableau._gf2_echelon
    def counted(masks):
        calls.append(masks)
        return echelon(masks)

    monkeypatch.setattr(tableau, "_gf2_echelon", counted)
    got = tec._count_failures("tableau", 0.2, 3 * block + 5, 4, 0, code)
    assert got == tec._count_failures("fast", 0.2, 3 * block + 5, 4, 0)
    assert len(calls) == 4
    measure_all(code.state("tableau"), philox_generator(4), "x")
    assert len(calls) == 5


@pytest.mark.parametrize(
    "p,trials,seed,point,counts",
    [
        (0.5, 200, 1, 0, (102, 99)),
        (0.25, 1000, 7, 0, (287, 377)),
        (0.1, 3000, 13, 0, (160, 518)),
        (0.5, 4100, 3, 1, (2101, 2085)),
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


def _whole_array_fast_counts(p, trials, seed, point_index):
    """The fast kernel before chunking: one (trials, 6) draw and column XORs.

    The correction parity per syndrome is found here by brute force, not read
    from the decoder the fast tables come from.
    """
    parity = np.zeros(16, dtype=np.uint8)
    for pattern in sorted(ALL_PATTERNS, key=len, reverse=True):  # the lightest one writes last
        idx = sum(1 << i for i, (a, b) in enumerate(G8_PAIRS) if len(pattern & {a, b}) % 2)
        parity[idx] = len(pattern & {5, 6}) % 2
    flips = philox_generator(seed, point_index).random((trials, 6)) < p
    idx = np.zeros(trials, dtype=np.uint8)
    for bit, (a, b) in enumerate(G8_PAIRS):
        idx |= (flips[:, a - 1] ^ flips[:, b - 1]).astype(np.uint8) << bit
    unprotected_fail = flips[:, 4] ^ flips[:, 5]
    protected_fail = unprotected_fail ^ parity[idx].astype(bool)
    return int(protected_fail.sum()), int(unprotected_fail.sum())


_CHUNK = tec._BLOCKS["fast"]


@pytest.mark.parametrize("trials", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
@pytest.mark.parametrize("p", [0.0, 1e-9, 0.05, 0.5, 0.97, 1.0])
def test_chunked_fast_kernel_matches_whole_array_draw(trials, p):
    for seed in (0, 13, 2**64 + 3):
        for point in (0, 5):
            expected = _whole_array_fast_counts(p, trials, seed, point)
            assert tec._count_failures("fast", p, trials, seed, point) == expected, (seed, point)


def test_fast_tables_match_tableau_pipeline_per_pattern():
    protected, unprotected = G8_CODE.tables
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
