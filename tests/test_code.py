"""The code derived from a cell complex: checks, surface, decoder and fast tables."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tecsim import tec
from tecsim.cluster import build_cluster, interaction_graph, measure_all
from tecsim.complexes import (
    CellComplex,
    G8_PROTECTED_SURFACE,
    build_cuboid_complex,
    build_g8_complex,
    complex_from_json,
)
from tecsim.errors import CapacityError
from tecsim.rng import philox_generator
from tecsim.tec import G8_CODE, build_code, exact_enumeration

RING5 = Path(__file__).resolve().parent / "fixtures" / "ring5.json"


def _ring(m: int) -> CellComplex:
    """Two chains of m faces around the defect, all sharing the edges {e1, e2}."""
    chains = ("a", "b")
    return CellComplex(
        volumes={f"v{c}{i}": {f"{c}{i}", f"{c}{i + 1}"} for c in chains for i in range(1, m)},
        faces={f"{c}{i}": {"e1", "e2"} for c in chains for i in range(1, m + 1)},
        edges={"e1": {"s", "t"}, "e2": {"s", "t"}},
    )


@pytest.fixture(scope="module")
def ring5():
    return build_code(complex_from_json(RING5.read_text()), {"a5", "b5"})


def test_g8_code_is_rebuilt_identically_from_its_complex():
    code = build_code(build_g8_complex(), G8_PROTECTED_SURFACE)
    assert (code.faces, code.checks, code.surface) == (G8_CODE.faces, G8_CODE.checks, G8_CODE.surface)
    assert code.leaders == G8_CODE.leaders
    assert np.array_equal(code.tables, G8_CODE.tables)
    assert len(code.leaders) == 16


@pytest.mark.parametrize("a", ["f1", "f2", "f5"])
@pytest.mark.parametrize("b", ["f3", "f4", "f6"])
def test_every_surface_of_the_nontrivial_class_gives_the_same_verdicts(a, b):
    code = build_code(build_g8_complex(), {a, b})
    assert code.leaders == G8_CODE.leaders
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


def test_minimum_weight_tie_raises():
    # chains of 4 faces: a weight-2 pattern and its complement on one chain share a syndrome
    with pytest.raises(AssertionError, match="minimum-weight tie"):
        build_code(_ring(4), {"a4", "b4"})


def test_ring5_fixture_is_the_m5_ring():
    cx = complex_from_json(RING5.read_text())
    assert cx.volumes == _ring(5).volumes
    assert cx.faces == _ring(5).faces


def test_ring5_has_256_syndromes_and_distance_5(ring5):
    assert len(ring5.faces) == 10
    assert ring5.check_names == (
        "c1_2", "c2_3", "c3_4", "c4_5", "c6_7", "c7_8", "c8_9", "c9_10"
    )
    assert len(ring5.leaders) == 256
    assert max(leader.bit_count() for leader in ring5.leaders.values()) == 4
    failing = [m.bit_count() for m in range(1 << 10) if ring5.tables[0][m]]
    assert min(failing) == 3
    assert all(ring5.fails(m) == bool(ring5.tables[0][m]) for m in range(1 << 10))


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
                state.backend.apply_gate("Z", state.index(face))
        record = measure_all(state, philox_generator(44, flips), "x")
        measured = tuple(record.product(cx.volumes[v]) for v in cx.cells(3))
        assert measured == ring5.syndrome(flips) == ring5.syndrome(ring5.flips(record)), flips
        assert ring5.flipped(ring5.flips(record)) == ring5.flipped(flips)
