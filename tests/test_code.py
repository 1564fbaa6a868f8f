"""The code derived from a cell complex: checks, surface, decoder, and its class x weight cells."""

import math
import tracemalloc
from functools import cache, partial, reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import tecsim
from tecsim import complexes, tec
from tecsim.cluster import build_cluster, interaction_graph, measure_all, surface_correlation
from tecsim.complexes import (
    CellComplex,
    G8_PROTECTED_SURFACE,
    build_cuboid_complex,
    build_g8_complex,
    complex_from_json,
    volume_boundary_masks,
)
from tecsim.dense import build_graph_state_dense
from tecsim.errors import CapacityError
from tecsim.rng import philox_generator
from tecsim.tec import G8_CODE, MAX_CODE_FACES, build_code, exact_enumeration

from reference import (
    RING5,
    code_verdicts,
    pattern_chances,
    per_edge_graph_state,
    per_pattern_enumeration,
    per_row_readout,
    two_chain_ring,
    walk_cells,
    walk_decoder,
)


def _chain_fails(k: int, p: float) -> float:
    """f_k: the chance that more than k/2 of a chain's k faces flip, so decoding flips it."""
    return sum(math.comb(k, j) * p**j * (1 - p) ** (k - j) for j in range(k // 2 + 1, k + 1))


def test_g8_code_is_rebuilt_identically_from_its_complex():
    code = build_code(build_g8_complex(), G8_PROTECTED_SURFACE)
    assert (code.faces, code.checks, code.surface) == (G8_CODE.faces, G8_CODE.checks, G8_CODE.surface)
    assert np.array_equal(code.leaders, G8_CODE.leaders) and not code.leaders.flags.writeable
    assert np.array_equal(code.cells, G8_CODE.cells) and np.array_equal(code.members, G8_CODE.members)
    assert not code.cells.flags.writeable and not code.members.flags.writeable
    cells, members = walk_cells(walk_decoder(volume_boundary_masks(code.complex), code.surface, 6)[1])
    assert np.array_equal(code.cells, cells) and np.array_equal(code.members, members)
    assert code.leaders.shape == (16,)


@pytest.mark.parametrize("a", ["f1", "f2", "f5"])
@pytest.mark.parametrize("b", ["f3", "f4", "f6"])
def test_every_surface_of_the_nontrivial_class_gives_the_same_verdicts(a, b):
    code = build_code(build_g8_complex(), {a, b})
    assert np.array_equal(code.leaders, G8_CODE.leaders)
    assert np.array_equal(code_verdicts(code)[0], code_verdicts(G8_CODE)[0])


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


def test_build_code_runs_one_echelon(monkeypatch):
    """The checks' echelon gives both the independent checks and the surface's residue, whose 0 rejects it."""
    echelon, calls = complexes._gf2_echelon, []
    def counted(vectors):
        calls.append(tuple(vectors))
        return echelon(vectors)

    monkeypatch.setattr(tec, "_gf2_echelon", counted)
    monkeypatch.setattr(complexes, "_gf2_echelon", counted)
    code = build_code(build_g8_complex(), G8_PROTECTED_SURFACE)
    assert calls == [code.checks]
    calls.clear()
    with pytest.raises(ValueError) as caught:
        build_code(build_g8_complex(), {"f1", "f2", "f3", "f4"})
    assert str(caught.value) == "surface ['f1', 'f2', 'f3', 'f4'] bounds volumes, so it protects nothing"
    assert len(calls) == 1


def test_unknown_surface_face_is_rejected():
    with pytest.raises(KeyError):
        build_code(build_g8_complex(), {"f5", "f9"})


def test_face_cap_is_checked_before_enumerating():
    cx = build_cuboid_complex(2, 2, 2)  # 36 faces: 2^36 patterns are never enumerated
    with pytest.raises(CapacityError, match="36 faces exceed the decoder cap of 20"):
        build_code(cx, set())


def test_a_20_face_build_traces_under_80_mib():
    """The 2^20-pattern pass holds a few numpy arrays of 2^20 entries, and its decoder is one array."""
    cx = two_chain_ring(9, 11)
    tracemalloc.start()
    try:
        code = build_code(cx, {"a9", "b11"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20, peak
    assert code.leaders.shape == (2**18,)


def test_a_20_000_trial_tableau_point_of_a_20_face_code_traces_under_2_mib():
    """Each 4,096-row block expands its own injected masks into flip rows and audits its readout against them, so a
    state-engine point builds no table of the 2^20 patterns."""
    code = build_code(two_chain_ring(9, 11), {"a9", "b11"})
    code._state("tableau")  # the lazy build outside the measurement
    tracemalloc.start()
    try:
        counts = tec._count_failures("tableau", 0.3, 20_000, 7, 0, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert counts == tec._count_failures("fast", 0.3, 20_000, 7, 0, code)


def test_a_20_face_fast_point_of_10_9_trials_traces_under_64_kib():
    """A fast point draws the counts of the code's 84 class x weight cells: no array of the 2^20
    patterns, and none that grows with the trials."""
    code, trials = build_code(two_chain_ring(9, 11), {"a9", "b11"}), 10**9
    tec._count_failures("fast", 0.3, 10, 7, 0, code)  # numpy's lazy imports outside the measurement
    tracemalloc.start()
    try:
        counts = tec._count_failures("fast", 0.3, trials, 7, 0, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.cells.size == 84 and peak < 64 * 2**10, peak
    for count, rate in zip(counts, code.rates(0.3)):
        assert abs(count / trials - rate) <= 5 * tec.binomial_se(rate, trials), (count, rate)


def test_minimum_weight_tie_raises():
    """An even chain's half and its complement share a syndrome and a weight; the message names
    the syndrome of the first tied pattern in weight order."""
    for (a, b), syndrome in (((4, 4), "(-1, 1, -1, 1, 1, 1)"), ((2, 3), "(-1, 1, 1)"), ((1, 2), "(-1,)")):
        with pytest.raises(AssertionError) as caught:
            build_code(two_chain_ring(a, b), {f"a{a}", f"b{b}"})
        assert str(caught.value) == f"minimum-weight tie for syndrome {syndrome}", (a, b)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_numpy_pass_matches_the_weight_order_walk(data):
    """Two chains of faces in shuffled bit order, plus checks that are sums of the chain checks:
    each walk syndrome's leader at its key, the cells and members of its verdicts, and each tie's
    message (even chains tie) are the walk's; ``exact_enumeration`` is the fsum over its failing patterns."""
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
    assert len(code.leaders) == len(leaders) == 2 ** len(ring)
    for syndrome, leader in leaders.items():
        assert code.leaders[sum(1 << j for j, i in enumerate(code.independent) if syndrome[i] == -1)] == leader
    cells, members = walk_cells(tables)
    assert np.array_equal(code.cells, cells) and code.cells.dtype == np.int64
    assert np.array_equal(code.members, members) and code.members.dtype == np.uint32
    assert np.array_equal(code_verdicts(code), tables)
    assert code.enumerators[1] == (0, 2, 0)  # one of the surface's two faces flipped
    failing = [k.bit_count() for k in np.flatnonzero(tables[0]).tolist()]  # the weights, one per pattern
    for p in (0.1, 0.5, 0.7):
        fa, fb = _chain_fails(a, p), _chain_fails(b, p)
        assert code.rates(p)[0] == pytest.approx(fa * (1 - fb) + fb * (1 - fa), abs=1e-15), p
        assert exact_enumeration(p, code) == math.fsum(p**w * (1.0 - p) ** (a + b - w) for w in failing), p


def test_ring5_fixture_is_the_m5_ring():
    cx = complex_from_json(RING5.read_text())
    assert cx.volumes == two_chain_ring(5, 5).volumes
    assert cx.faces == two_chain_ring(5, 5).faces


# every odd pair a <= b up to the decoder cap of 20 faces
ODD_PAIRS = [(a, b) for a in range(1, MAX_CODE_FACES, 2) for b in range(a, MAX_CODE_FACES + 1 - a, 2)]
# both ends, the least subnormal and a tiny normal p, and the largest double below 1
ENUMERATION_GRID = (0.0, 5e-324, 1e-300, 0.3, 0.5, 1.0 - 2**-53, 1.0)


@cache
def _ring_code(a: int, b: int) -> tec.TopologicalCode:
    return build_code(two_chain_ring(a, b), {f"a{a}", f"b{b}"})


def test_exact_enumeration_is_the_per_pattern_fsum_bit_for_bit(ring5):
    """Summed exactly per weight and rounded once, it is the correctly rounded per-pattern sum, as ``math.fsum``
    is; ``test_two_chain_codes_match_the_chain_formula_on_every_engine`` checks every odd ring on this grid."""
    for code in (G8_CODE, ring5):
        for p in ENUMERATION_GRID:
            assert exact_enumeration(p, code).hex() == per_pattern_enumeration(p, code).hex(), (len(code.faces), p)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(p=st.floats(0.0, 1.0), pair=st.sampled_from([pair for pair in ODD_PAIRS if sum(pair) <= 14]))
def test_exact_enumeration_is_the_per_pattern_fsum_at_any_p(ring5, p, pair):
    for code in (G8_CODE, ring5, _ring_code(*pair)):
        assert exact_enumeration(p, code).hex() == per_pattern_enumeration(p, code).hex(), (len(code.faces), p)


def test_one_enumeration_of_the_20_face_ring_traces_under_1_mib():
    """A count x term per weight: no list of the 2^19 failing patterns' terms, 20 MiB of Python floats."""
    code = _ring_code(9, 11)
    exact_enumeration(0.3, code)  # lazy imports outside the measurement
    tracemalloc.start()
    try:
        rate = exact_enumeration(0.3, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert rate.hex() == per_pattern_enumeration(0.3, code).hex()


@pytest.mark.parametrize("a,b", ODD_PAIRS)
def test_two_chain_codes_match_the_chain_formula_on_every_engine(a, b):
    """Decoding fails when one chain's majority flips: f_a (1 - f_b) + f_b (1 - f_a).

    Undecoded, the surface's X product flips when one of its two faces does: (1 - (1 - 2p)^2) / 2.
    The tableau runs every pair; dense checks correlations up to 14 faces and audited sweeps up to 18.
    """
    surface = {f"a{a}", f"b{b}"}
    code = build_code(two_chain_ring(a, b), surface)
    for p in (0.05, 0.3, 0.5, 0.8):
        fa, fb = _chain_fails(a, p), _chain_fails(b, p)
        protected, unprotected = code.rates(p)
        for rate in (exact_enumeration(p, code), protected):
            assert rate == pytest.approx(fa * (1 - fb) + fb * (1 - fa), abs=1e-13), p
        assert unprotected == pytest.approx((1 - (1 - 2 * p) ** 2) / 2, abs=1e-13), p
    for p in ENUMERATION_GRID:
        assert exact_enumeration(p, code).hex() == per_pattern_enumeration(p, code).hex(), p
    # each volume boundary and the protected pair is a stabilizer; a dense ring state has 2^(a+b+2) amplitudes
    for engine in ("tableau", "dense") if a + b <= 14 else ("tableau",):
        state = code.state(engine)
        for faces in (*code.complex.volumes.values(), surface):
            assert surface_correlation(state, faces) == 1, (engine, sorted(faces))
    # a ring has a + b + 2 qubits, so dense sweeps, each row audited, run up to the 20-qubit cap
    engines = ("tableau", "dense") if a + b <= 18 else ("tableau",)
    for p, seed in ((0.2, 3), (0.5, 8)):
        expected = tec._count_failures("fast", p, 400, seed, 0, code)
        for engine in engines:
            assert tec._count_failures(engine, p, 400, seed, 0, code) == expected, (engine, p)


def test_a_dense_block_on_the_20_qubit_ring_peaks_under_its_state_and_a_quarter():
    """300 rows of ring (9, 9), whose state is 2^20 complex amplitudes (16 MiB), in X and in Z, through a reader
    built inside the measurement: it sums one table of 2^20 Born weights (8 MiB), real as the state is, into the
    expectations of the levels where a row may draw, at most 2^20 - 1, and maps of the others, at most 4 bytes a
    history. The X transform holds two real copies of the state at a time. In X every row passes the parity audit;
    in either basis the first rows are the per-row reference's."""
    code = build_code(two_chain_ring(9, 9), {"a9", "b9"})
    backend = code._state("dense").backend  # built outside the measurement
    flips = np.random.default_rng(9).random((300, 18)) < 0.5
    for basis in "xz":
        tracemalloc.start()
        try:
            rows = backend.reader(basis)(philox_generator(9, 0, 1), flips)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, (basis, peak)
        if basis == "x":
            read = ((rows[:, :18] < 0) ^ flips) @ (1 << np.arange(18))  # each row's faces read as -1, XOR its flips
            assert not any(tec._parities(read, m).any() for m in (*code.checks, code.surface))
        assert np.array_equal(rows[:8], per_row_readout(backend, philox_generator(9, 0, 1), flips[:8], basis)), basis


def test_the_20_qubit_rings_dense_graph_state_is_the_per_edge_reference():
    """Ring (9, 9), 20 qubits and 36 edges: the real parts bit for bit, the zero imaginary parts by value."""
    graph = interaction_graph(two_chain_ring(9, 9))
    got, want = build_graph_state_dense(graph).amps, per_edge_graph_state(graph.qubit_count, graph.edges)
    assert graph.qubit_count == 20 and len(graph.edges) == 36
    assert got.real.tobytes() == want.real.tobytes() and np.array_equal(got.imag, want.imag)


def test_tables_times_the_pattern_chances_are_the_codes_rates(ring5):
    """pi sums to 1 and equals each pattern's product of per-face chances, up to 14 faces; ``tests/test_tec.py``
    holds the state engines' rows to it. Each code's cells, weighed by p^w (1 - p)^(F - w), give its class rates:
    g8 and ring5 their enumerator rates, and every odd two-chain ring up to 20 faces C(F, w) patterns of each
    weight w, the chain formula when protected and (1 - (1 - 2p)^2) / 2 unprotected."""
    grid = (0.0, 1e-9, 0.05, 0.3, 0.5, 0.8, 1.0 - 1e-9, 1.0)
    for p in grid:
        for n in sorted({len(G8_CODE.faces), len(ring5.faces)} | {a + b for a, b in ODD_PAIRS if a + b <= 14}):
            pi = np.array(pattern_chances(p, n))
            flips = np.arange(1 << n)[:, None] >> np.arange(n) & 1
            assert np.allclose(pi, np.where(flips == 1, p, 1.0 - p).prod(axis=1), rtol=1e-12, atol=0.0), (n, p)
            assert math.fsum(pi.tolist()) == pytest.approx(1.0, abs=1e-12), (n, p)
        for code in (G8_CODE, ring5):
            n = len(code.faces)
            classes = code.cells @ np.array([p**w * (1.0 - p) ** (n - w) for w in range(n + 1)])
            got = classes[2:].sum(), classes[1::2].sum()
            assert got == pytest.approx(code.rates(p), abs=1e-12), (n, p)
    assert len(ODD_PAIRS) == 30
    for a, b in ODD_PAIRS:  # built one at a time: a 20-face code holds 6 MiB
        code, n = build_code(two_chain_ring(a, b), {f"a{a}", f"b{b}"}), a + b
        assert code.cells.sum(0).tolist() == [math.comb(n, w) for w in range(n + 1)], (a, b)
        for p in grid:
            classes = code.cells @ np.array([p**w * (1.0 - p) ** (n - w) for w in range(n + 1)])
            fa, fb = _chain_fails(a, p), _chain_fails(b, p)
            assert classes[2:].sum() == pytest.approx(fa * (1 - fb) + fb * (1 - fa), abs=1e-12), (a, b, p)
            assert classes[1::2].sum() == pytest.approx((1 - (1 - 2 * p) ** 2) / 2, abs=1e-12), (a, b, p)


def test_a_difference_that_moves_no_check_and_not_the_surface_keeps_both_verdicts(ring5):
    """The state engines check each row's read pattern against the injected one and count neither:
    for every pattern k and every d that moves no check and not the surface, k ^ d fails as k does.
    g8, ring5 and every odd two-chain ring up to 14 faces, each with a d besides 0."""
    rings = [build_code(two_chain_ring(a, b), {f"a{a}", f"b{b}"}) for a, b in ODD_PAIRS if a + b <= 14]
    for code in (G8_CODE, ring5, *rings):
        n, verdicts = len(code.faces), code_verdicts(code)
        patterns, seen = np.arange(1 << n), (*code.checks, code.surface)
        unmoved = [d for d in range(1 << n) if not any((d & m).bit_count() & 1 for m in seen)]
        assert len(unmoved) > 1, n
        for d in unmoved:
            assert np.array_equal(verdicts[:, patterns ^ d], verdicts), (n, d)


def _audit_raises(code: tec.TopologicalCode, seed: int) -> bool:
    try:
        tec._count_failures("tableau", 0.3, 8, seed, 0, code)
    except AssertionError as caught:
        assert str(caught) == "the tableau readout moved a check or the surface"
        return True
    return False


def test_the_audit_raises_iff_the_readouts_difference_moves_a_check_or_the_surface(ring5, monkeypatch):
    """A readout that XORs d into every row's face outcomes: a state-engine point raises exactly when d has odd
    parity with a check or the surface. Every d on g8 and ring5; on each odd two-chain ring up to 14 faces, a
    seeded sample of 256 d (all of them up to 8 faces) and every d that moves nothing."""
    signs = [np.ones(0, np.int64)]
    def xor_d(read, rng, flips=None):
        rows = read(rng, flips)
        rows[:, : signs[0].size] *= signs[0]
        return rows

    rings = [build_code(two_chain_ring(a, b), {f"a{a}", f"b{b}"}) for a, b in ODD_PAIRS if a + b <= 14]
    for i, code in enumerate((G8_CODE, ring5, *rings)):
        monkeypatch.setitem(code._readers, "tableau", partial(xor_d, code._reader("tableau")))  # the code's reader
        n, seen = len(code.faces), (*code.checks, code.surface)
        moves = {d: any((d & m).bit_count() & 1 for m in seen) for d in range(1 << n)}
        if i < 2 or n <= 8:
            sample = range(1 << n)
        else:  # a ring's d that move nothing are 2 of 2^n, so the sample takes them too
            unmoved = (d for d, moved in moves.items() if not moved)
            sample = sorted({*np.random.default_rng(i).choice(1 << n, 256, replace=False).tolist(), *unmoved})
        for d in sample:
            signs[0] = 1 - 2 * (d >> np.arange(n) & 1)
            assert _audit_raises(code, d) == moves[d], (n, d)


def test_ring5_has_256_syndromes_and_distance_5(ring5):
    assert len(ring5.faces) == 10
    assert ring5.check_names == (
        "c1_2", "c2_3", "c3_4", "c4_5", "c6_7", "c7_8", "c8_9", "c9_10"
    )
    assert ring5.leaders.shape == (256,)
    assert np.bitwise_count(ring5.leaders).max() == 4
    failing = [m.bit_count() for m in range(1 << 10) if code_verdicts(ring5)[0][m]]
    assert min(failing) == 3 == np.flatnonzero(ring5.cells[2:].sum(0))[0]
    cells, members = walk_cells(walk_decoder(volume_boundary_masks(ring5.complex), ring5.surface, 10)[1])
    assert np.array_equal(ring5.cells, cells) and np.array_equal(ring5.members, members)


def test_ring5_pipeline_gives_its_tables_verdicts_per_pattern(ring5):
    """Each of the 1,024 flip patterns, run through ring5's own per-trial pipeline on the
    tableau, gets the protected and unprotected verdicts of its class in the code's cells."""
    protected, unprotected = code_verdicts(ring5)
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
    """A dense block readout holds at most 2^12 amplitudes of ring5's 12 qubits a level, not a whole sweep block."""
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
