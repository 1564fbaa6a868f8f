"""The code derived from a cell complex: checks, surface, decoder and fast tables."""

import math
import tracemalloc
from functools import reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import tecsim
from tecsim import tec
from tecsim.cluster import build_cluster, interaction_graph, measure_all, surface_correlation
from tecsim.complexes import (
    CellComplex,
    G8_PROTECTED_SURFACE,
    build_cuboid_complex,
    build_g8_complex,
    complex_from_json,
    volume_boundary_masks,
)
from tecsim.errors import CapacityError
from tecsim.rng import philox_generator
from tecsim.tec import G8_CODE, MAX_CODE_FACES, build_code, exact_enumeration

from reference import RING5, walk_decoder


def _ring(a: int, b: int) -> CellComplex:
    """Two chains, of a and b faces, around the defect, all sharing the edges {e1, e2}."""
    chains = {"a": a, "b": b}
    return CellComplex(
        volumes={f"v{c}{i}": {f"{c}{i}", f"{c}{i + 1}"} for c, m in chains.items() for i in range(1, m)},
        faces={f"{c}{i}": {"e1", "e2"} for c, m in chains.items() for i in range(1, m + 1)},
        edges={"e1": {"s", "t"}, "e2": {"s", "t"}},
    )


def _chain_fails(k: int, p: float) -> float:
    """f_k: the chance that more than k/2 of a chain's k faces flip, so decoding flips it."""
    return sum(math.comb(k, j) * p**j * (1 - p) ** (k - j) for j in range(k // 2 + 1, k + 1))


def test_g8_code_is_rebuilt_identically_from_its_complex():
    code = build_code(build_g8_complex(), G8_PROTECTED_SURFACE)
    assert (code.faces, code.checks, code.surface) == (G8_CODE.faces, G8_CODE.checks, G8_CODE.surface)
    assert np.array_equal(code.leaders, G8_CODE.leaders) and not code.leaders.flags.writeable
    assert np.array_equal(code.tables, G8_CODE.tables)
    assert code.leaders.shape == (16,)


@pytest.mark.parametrize("a", ["f1", "f2", "f5"])
@pytest.mark.parametrize("b", ["f3", "f4", "f6"])
def test_every_surface_of_the_nontrivial_class_gives_the_same_verdicts(a, b):
    code = build_code(build_g8_complex(), {a, b})
    assert np.array_equal(code.leaders, G8_CODE.leaders)
    assert np.array_equal(code.tables[0], G8_CODE.tables[0])


@pytest.mark.parametrize(
    "surface, message",
    [
        ({"f5"}, "is not closed"),
        ({"f1", "f2"}, "bounds volumes"),  # the boundary of volume v
        ({"f1", "f2", "f3", "f4"}, "bounds volumes"),  # of v + z
        (set(), "bounds volumes"),
    ],
)
def test_surface_must_be_closed_and_nontrivial(surface, message):
    with pytest.raises(ValueError, match=message):
        build_code(build_g8_complex(), surface)


def test_unknown_surface_face_is_rejected():
    with pytest.raises(KeyError):
        build_code(build_g8_complex(), {"f5", "f9"})


def test_face_cap_is_checked_before_enumerating():
    cx = build_cuboid_complex(2, 2, 2)  # 36 faces: 2^36 patterns are never enumerated
    with pytest.raises(CapacityError, match="36 faces exceed the decoder cap of 20"):
        build_code(cx, set())


def test_a_20_face_build_traces_under_80_mib():
    """The 2^20-pattern pass holds a few numpy arrays of 2^20 entries, and its decoder is one array."""
    cx = _ring(9, 11)
    tracemalloc.start()
    try:
        code = build_code(cx, {"a9", "b11"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20, peak
    assert code.leaders.shape == (2**18,)


def test_minimum_weight_tie_raises():
    """An even chain's half and its complement share a syndrome and a weight; the message names
    the syndrome of the first tied pattern in weight order."""
    for (a, b), syndrome in (((4, 4), "(-1, 1, -1, 1, 1, 1)"), ((2, 3), "(-1, 1, 1)"), ((1, 2), "(-1,)")):
        with pytest.raises(AssertionError) as caught:
            build_code(_ring(a, b), {f"a{a}", f"b{b}"})
        assert str(caught.value) == f"minimum-weight tie for syndrome {syndrome}", (a, b)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_numpy_pass_matches_the_weight_order_walk(data):
    """Two chains of faces in shuffled bit order, plus checks that are sums of the chain checks:
    each walk syndrome's leader at its key, tables, and each tie's message (even chains tie)
    are the walk's."""
    a, b = (data.draw(st.sampled_from((1, 3, 5, 2, 4)), name) for name in "ab")
    names = data.draw(st.permutations([f"f{i}" for i in range(a + b)]), "bit order")
    chains = names[:a], names[a:]
    ring = [{chain[i], chain[i + 1]} for chain in chains for i in range(len(chain) - 1)]
    sums = st.lists(st.sets(st.sampled_from(range(len(ring))), min_size=1), max_size=3) if ring else st.just([])
    volumes = ring + [reduce(xor, (ring[k] for k in ks)) for ks in data.draw(sums, "dependent checks")]
    cx = CellComplex(
        volumes={f"v{k}": faces for k, faces in enumerate(volumes)},
        faces={name: {"e1", "e2"} for name in names},
        edges={"e1": {"s", "t"}, "e2": {"s", "t"}},
    )
    surface = {data.draw(st.sampled_from(chain), "surface face") for chain in chains}
    mask = sum(1 << i for i, name in enumerate(cx.cells(2)) if name in surface)
    try:
        leaders, tables = walk_decoder(volume_boundary_masks(cx), mask, a + b)
    except AssertionError as tie:
        with pytest.raises(AssertionError) as caught:
            build_code(cx, surface)
        assert str(caught.value) == str(tie)
        event("tie")
        return
    code = build_code(cx, surface)
    event(f"{len(code.checks) - len(ring)} dependent checks")
    # a key's bit j is independent check j's -1; each walk syndrome has its own leader, so
    # equal entries mean distinct keys
    independent = tec._independent(code.checks)
    assert len(code.leaders) == len(leaders) == 2 ** len(ring)
    for syndrome, leader in leaders.items():
        assert code.leaders[sum(1 << j for j, i in enumerate(independent) if syndrome[i] == -1)] == leader
    assert np.array_equal(code.tables, tables) and code.tables.dtype == tables.dtype
    assert code.enumerators[1] == (0, 2, 0)  # one of the surface's two faces flipped
    for p in (0.1, 0.5, 0.7):
        fa, fb = _chain_fails(a, p), _chain_fails(b, p)
        assert code.rates(p)[0] == pytest.approx(fa * (1 - fb) + fb * (1 - fa), abs=1e-15), p


def test_ring5_fixture_is_the_m5_ring():
    cx = complex_from_json(RING5.read_text())
    assert cx.volumes == _ring(5, 5).volumes
    assert cx.faces == _ring(5, 5).faces


# every odd pair a <= b up to the decoder cap of 20 faces
ODD_PAIRS = [(a, b) for a in range(1, MAX_CODE_FACES, 2) for b in range(a, MAX_CODE_FACES + 1 - a, 2)]


@pytest.mark.parametrize("a,b", ODD_PAIRS)
def test_two_chain_codes_match_the_chain_formula_on_every_engine(a, b):
    """Decoding fails when one chain's majority flips: f_a (1 - f_b) + f_b (1 - f_a).

    Undecoded, the surface's X product flips when one of its two faces does: (1 - (1 - 2p)^2) / 2.
    The tableau runs every pair; dense checks correlations up to 14 faces and counts up to 10.
    """
    surface = {f"a{a}", f"b{b}"}
    code = build_code(_ring(a, b), surface)
    for p in (0.05, 0.3, 0.5, 0.8):
        fa, fb = _chain_fails(a, p), _chain_fails(b, p)
        protected, unprotected = code.rates(p)
        for rate in (exact_enumeration(p, code), protected):
            assert rate == pytest.approx(fa * (1 - fb) + fb * (1 - fa), abs=1e-13), p
        assert unprotected == pytest.approx((1 - (1 - 2 * p) ** 2) / 2, abs=1e-13), p
    # each volume boundary and the protected pair is a stabilizer; a dense ring state has 2^(a+b+2) amplitudes
    for engine in ("tableau", "dense") if a + b <= 14 else ("tableau",):
        state = code.state(engine)
        for faces in (*code.complex.volumes.values(), surface):
            assert surface_correlation(state, faces) == 1, (engine, sorted(faces))
    # a ring has a + b + 2 qubits, and at 16 qubits a dense block holds one row
    engines = ("tableau", "dense") if a + b <= 10 else ("tableau",)
    for p, seed in ((0.2, 3), (0.5, 8)):
        expected = tec._count_failures("fast", p, 400, seed, 0, code)
        for engine in engines:
            assert tec._count_failures(engine, p, 400, seed, 0, code) == expected, (engine, p)


def test_ring5_has_256_syndromes_and_distance_5(ring5):
    assert len(ring5.faces) == 10
    assert ring5.check_names == (
        "c1_2", "c2_3", "c3_4", "c4_5", "c6_7", "c7_8", "c8_9", "c9_10"
    )
    assert ring5.leaders.shape == (256,)
    assert np.bitwise_count(ring5.leaders).max() == 4
    failing = [m.bit_count() for m in range(1 << 10) if ring5.tables[0][m]]
    assert min(failing) == 3


def test_ring5_pipeline_gives_its_tables_verdicts_per_pattern(ring5):
    """Each of the 1,024 flip patterns, run through ring5's own per-trial pipeline on the
    tableau, gets the protected and unprotected verdicts of its fast tables."""
    protected, unprotected = ring5.tables
    for mask in range(1 << len(ring5.faces)):
        pattern = {i + 1 for i in range(len(ring5.faces)) if mask >> i & 1}
        corrected, _, record = ring5.run_pattern(pattern, philox_generator(45, mask), "tableau")
        assert (corrected == -1) == protected[mask], mask
        assert ring5.flipped(ring5.flips(record)) == unprotected[mask], mask


def test_code_reprs_leave_out_the_complex_and_the_decoder(ring5):
    """A repr, or a bound method's, names the faces, checks and surface, not 2^checks leaders."""
    for text in (repr(ring5), repr(tecsim.simulate_trial)):
        assert len(text) < 300 and "leaders" not in text and "complex=" not in text, text


def test_ring5_check_names_parse_back_to_their_faces(ring5):
    for name, check in zip(ring5.check_names, ring5.checks):
        faces = frozenset(int(number) for number in name.removeprefix("c").split("_"))
        assert faces == frozenset(i + 1 for i in range(len(ring5.faces)) if check >> i & 1)


@pytest.mark.parametrize("p", [0.0, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0])
def test_ring5_enumeration_matches_its_closed_form(ring5, p):
    # a chain fails when 3 or more of its 5 faces flip; decoding fails when one chain does
    chain = sum(math.comb(5, k) * p**k * (1 - p) ** (5 - k) for k in range(3, 6))
    assert exact_enumeration(p, ring5) == pytest.approx(2 * chain * (1 - chain), abs=1e-15)


def test_ring5_monte_carlo_matches_its_enumeration(ring5):
    p, trials = 0.2, 200_000
    protected, unprotected = tec._count_failures("fast", p, trials, 5, 0, ring5)
    for count, rate in ((protected, exact_enumeration(p, ring5)), (unprotected, 2 * p * (1 - p))):
        assert abs(count / trials - rate) < 4 * math.sqrt(rate * (1 - rate) / trials)


@pytest.mark.parametrize("engine,trials", [("tableau", 3000), ("dense", 600)])
def test_ring5_state_engine_counts_equal_the_fast_counts(ring5, engine, trials):
    """The readouts take the code: ring5's random X outcomes change no verdict either."""
    for p, seed in ((0.2, 5), (0.5, 11)):
        expected = tec._count_failures("fast", p, trials, seed, 1, ring5)
        assert tec._count_failures(engine, p, trials, seed, 1, ring5) == expected, p


@pytest.mark.parametrize("engine", ["tableau", "dense"])
def test_face_i_is_qubit_i_of_the_codes_state(ring5, engine):
    for code in (G8_CODE, ring5):
        state = code.state(engine)
        assert code._state(engine) is code._state(engine)  # built once per engine
        assert state.backend is not code.state(engine).backend  # each caller gets a copy
        assert state.graph.vertices[: len(code.faces)] == code.faces
        assert state.graph.vertices == interaction_graph(code.complex).vertices


@pytest.mark.parametrize("engine", ["tableau", "dense"])
def test_changing_a_handed_out_state_changes_no_later_sweep(engine):
    """A Z on qubit 0 of the shared state would flip face 1 in every later trial."""
    code = build_code(build_g8_complex(), G8_PROTECTED_SURFACE)
    expected = tec._count_failures("fast", 0.1, 2000, 7, 0, code)
    code.state(engine).backend.apply_gate("Z", 0)
    assert tec._count_failures(engine, 0.1, 2000, 7, 0, code) == expected


def test_ring5_dense_sweep_holds_its_blocks_to_2_16_amplitudes(ring5):
    """A dense block readout holds 16 copies of ring5's 12 qubits, not a whole sweep block."""
    ring5.state("dense")  # the lazy build outside the measurement
    tracemalloc.start()
    try:
        got = tec._count_failures("dense", 0.3, 300, 5, 0, ring5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert got == tec._count_failures("fast", 0.3, 300, 5, 0, ring5)


def test_ring5_syndromes_match_the_measured_face_products(ring5):
    cx = complex_from_json(RING5.read_text())
    base = build_cluster(interaction_graph(cx), "tableau")
    for flips in range(1 << len(ring5.faces)):
        state = base.copy()
        for i, face in enumerate(ring5.faces):
            if flips >> i & 1:
                state.backend.apply_gate("Z", state.graph.index(face))
        record = measure_all(state, philox_generator(44, flips), "x")
        measured = tuple(record.product(cx.volumes[v]) for v in cx.cells(3))
        assert measured == ring5.syndrome(flips) == ring5.syndrome(ring5.flips(record)), flips
        assert ring5.flipped(ring5.flips(record)) == ring5.flipped(flips)
