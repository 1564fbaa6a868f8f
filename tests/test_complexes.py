import dataclasses
import hashlib
import json
import re
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tecsim import complexes
from tecsim.complexes import (
    CellComplex,
    Chain,
    boundary,
    build_cuboid_complex,
    build_elementary_cell,
    build_g8_complex,
    closed_surface_summary,
    closed_two_face_surfaces,
    complex_from_json,
    is_closed,
)
from tecsim.errors import CapacityError

from reference import complex_to_json, homologically_equivalent, homology_class_key, shared_boundary_json


def test_elementary_cell_counts():
    cx = build_elementary_cell()
    assert cx.counts() == (1, 6, 12, 8)


def test_elementary_faces_are_squares():
    cx = build_elementary_cell()
    for edges in cx.faces.values():
        assert len(edges) == 4


def test_elementary_volume_boundary_is_all_faces_and_closed():
    cx = build_elementary_cell()
    (volume,) = cx.volumes
    faces = cx.volumes[volume]
    assert faces == frozenset(cx.faces)
    assert is_closed(Chain(2, faces), cx)


def test_g8_counts_and_boundaries():
    cx = build_g8_complex()
    assert cx.counts() == (4, 6, 2, 2)
    for i in range(1, 7):
        assert cx.faces[f"f{i}"] == frozenset({"e7", "e8"})
    assert cx.volumes["v"] == frozenset({"f1", "f2"})
    assert cx.volumes["w"] == frozenset({"f2", "f5"})
    assert cx.volumes["y"] == frozenset({"f3", "f6"})
    assert cx.volumes["z"] == frozenset({"f3", "f4"})
    assert cx.edges["e7"] == frozenset({"s", "t"})
    assert cx.edges["e8"] == frozenset({"s", "t"})


@pytest.mark.parametrize(
    "dims",
    [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1), (5, 5, 2)],
)
def test_cuboid_counts_match_closed_form(dims):
    length, width, depth = dims
    cx = build_cuboid_complex(*dims)
    volumes, faces, edges, vertices = cx.counts()
    lw, wt, lt = length * width, width * depth, length * depth
    assert volumes == length * width * depth
    assert faces == 3 * length * width * depth + lw + wt + lt
    assert edges == 3 * length * width * depth + 2 * (lw + wt + lt) + length + width + depth
    assert vertices == (length + 1) * (width + 1) * (depth + 1)


# sha256 of complex_to_json for cuboids whose axes differ, one with two-digit
# coordinates, so a builder that swaps an axis, a corner or a name format
# changes the digest
CUBOID_JSON_SHA256 = {
    (2, 1, 1): "6b6b111908442af5e074c3c8bb22d17e5286a0356e0946565b72ad6b7e9b7607",
    (1, 3, 2): "7b8b2da12dcad017f069a3b71160eba3fd7492f0b19dbed6f23e8bd39053c09a",
    (3, 3, 3): "9493d9b31e623a324d8e418173f44b42e29b0f6ce4983bdc674cc99597107cd1",
    (4, 2, 3): "90aa63fa21e67dee9c7476159b9a778abdc62c7c61344b94acfc8e70d3dcadfa",
    (10, 1, 1): "bbad719ca14b3326186248d4c7f39ba05108f9a182084a12adb1f95909d4c812",
}


@pytest.mark.parametrize("dims", sorted(CUBOID_JSON_SHA256))
def test_cuboid_cell_names_are_pinned(dims):
    text = complex_to_json(build_cuboid_complex(*dims))
    assert hashlib.sha256(text.encode()).hexdigest() == CUBOID_JSON_SHA256[dims]


def test_cuboid_111_matches_elementary_cell():
    assert build_cuboid_complex(1, 1, 1) == build_elementary_cell()


def test_cuboid_211_example():
    cx = build_cuboid_complex(2, 1, 1)
    assert len(cx.faces) == 11
    assert len(cx.edges) == 20


def test_cuboid_rejects_degenerate_and_oversized(monkeypatch):
    with pytest.raises(ValueError):
        build_cuboid_complex(0, 1, 1)
    monkeypatch.setattr(complexes, "CUBOID_QUBIT_CAP", 50)
    with pytest.raises(CapacityError):
        build_cuboid_complex(2, 2, 2)


def test_boundary_of_single_face():
    cx = build_g8_complex()
    assert boundary(cx.chain(2, ["f3"]), cx).cells == frozenset({"e7", "e8"})


def test_boundary_cancels_over_gf2():
    cx = build_g8_complex()
    assert not boundary(cx.chain(2, ["f1", "f2"]), cx).cells


def test_boundary_of_empty_chain_is_empty():
    cx = build_g8_complex()
    assert not boundary(Chain(2, frozenset()), cx).cells


def test_boundary_rejects_zero_chains():
    cx = build_g8_complex()
    with pytest.raises(ValueError):
        boundary(cx.chain(0, ["s"]), cx)


def test_is_closed_examples():
    g8 = build_g8_complex()
    assert is_closed(g8.chain(2, ["f5", "f6"]), g8)
    assert not is_closed(g8.chain(2, ["f1"]), g8)
    cell = build_elementary_cell()
    assert is_closed(Chain(2, frozenset(cell.faces)), cell)


def test_chain_algebra():
    c = Chain(2, frozenset({"f1", "f2"}))
    assert not (c ^ c).cells
    assert (c ^ Chain(2, frozenset({"f2", "f5"}))).cells == frozenset({"f1", "f5"})
    with pytest.raises(ValueError):
        c ^ Chain(1, frozenset({"e7"}))


def test_chain_unknown_cells_rejected():
    cx = build_g8_complex()
    with pytest.raises(KeyError):
        cx.chain(2, ["f1", "nope"])


def test_equivalence_witness_v_w():
    cx = build_g8_complex()
    witness = homologically_equivalent(
        cx.chain(2, ["f1", "f2"]), cx.chain(2, ["f2", "f5"]), cx
    )
    assert witness == frozenset({"v", "w"})
    # independent re-check: the witness boundary really is the difference
    assert boundary(Chain(3, witness), cx).cells == frozenset({"f1", "f5"})


def test_equivalence_witness_v_w_y():
    cx = build_g8_complex()
    witness = homologically_equivalent(
        cx.chain(2, ["f5", "f6"]), cx.chain(2, ["f1", "f3"]), cx
    )
    assert witness == frozenset({"v", "w", "y"})
    assert boundary(Chain(3, witness), cx).cells == frozenset(
        {"f1", "f3", "f5", "f6"}
    )


def test_inequivalence_against_exhaustive_scan():
    cx = build_g8_complex()
    target = frozenset({"f1", "f2"}) ^ frozenset({"f5", "f6"})
    for size in range(5):
        for combo in combinations(sorted(cx.volumes), size):
            assert boundary(Chain(3, frozenset(combo)), cx).cells != target
    assert (
        homologically_equivalent(
            cx.chain(2, ["f1", "f2"]), cx.chain(2, ["f5", "f6"]), cx
        )
        is None
    )


def test_equivalence_rejects_open_chains():
    cx = build_g8_complex()
    with pytest.raises(ValueError):
        homologically_equivalent(cx.chain(2, ["f1"]), cx.chain(2, ["f2"]), cx)


def _random_closed_surface(cx, rng, extra=None):
    names = sorted(cx.volumes)
    chosen = frozenset(v for v in names if rng.random() < 0.5)
    cells = boundary(Chain(3, chosen), cx).cells
    if extra is not None and rng.random() < 0.5:
        cells = cells ^ extra
    return Chain(2, cells)


@pytest.mark.parametrize("builder", [build_g8_complex, lambda: build_cuboid_complex(2, 2, 2)])
def test_equivalence_is_an_equivalence_relation(builder):
    cx = builder()
    rng = np.random.default_rng(71)
    nontrivial = frozenset({"f5", "f6"}) if "f5" in cx.faces else None
    for _ in range(40):
        a = _random_closed_surface(cx, rng, nontrivial)
        b = _random_closed_surface(cx, rng, nontrivial)
        c = _random_closed_surface(cx, rng, nontrivial)
        assert homologically_equivalent(a, a, cx) == frozenset()
        ab = homologically_equivalent(a, b, cx)
        ba = homologically_equivalent(b, a, cx)
        assert (ab is None) == (ba is None)
        bc = homologically_equivalent(b, c, cx)
        if ab is not None and bc is not None:
            ac = homologically_equivalent(a, c, cx)
            assert ac is not None
            # the symmetric difference of the two witnesses is also a witness
            assert boundary(Chain(3, ab ^ bc), cx).cells == a.cells ^ c.cells
        if ab is not None:
            assert boundary(Chain(3, ab), cx).cells == a.cells ^ b.cells


def test_g8_two_face_surfaces_partition_into_two_classes():
    cx = build_g8_complex()
    surfaces = closed_two_face_surfaces(cx)
    assert len(surfaces) == 15
    defect_class = {
        frozenset({f"f{i}", f"f{j}"})
        for i in (1, 2, 5)
        for j in (3, 4, 6)
    }
    reference = cx.chain(2, ["f5", "f6"])
    for chain in surfaces:
        equivalent = homologically_equivalent(chain, reference, cx) is not None
        assert equivalent == (chain.cells in defect_class)
    summary = closed_surface_summary(cx)
    assert summary["homology_classes"] == 2
    assert summary["class_sizes"] == [9, 6]


def test_two_face_surfaces_are_capped_before_any_is_built(monkeypatch):
    monkeypatch.setattr(complexes, "TWO_FACE_SURFACE_CAP", 10)
    assert len(closed_two_face_surfaces(complex_from_json(shared_boundary_json(5)))) == 10
    with pytest.raises(CapacityError, match="15 two-face closed surfaces exceed the cap of 10"):
        closed_two_face_surfaces(complex_from_json(shared_boundary_json(6)))


def test_homology_class_key_constant_on_classes():
    cx = build_g8_complex()
    keys = {homology_class_key(c, cx) for c in closed_two_face_surfaces(cx)}
    assert len(keys) == 2


@pytest.mark.parametrize(
    "builder",
    [build_elementary_cell, build_g8_complex, lambda: build_cuboid_complex(2, 2, 2)],
)
def test_boundary_of_boundary_vanishes_on_random_chains(builder):
    cx = builder()
    rng = np.random.default_rng(2029)
    for dim, names in ((3, sorted(cx.volumes)), (2, sorted(cx.faces))):
        for _ in range(500):
            cells = frozenset(n for n in names if rng.random() < 0.5)
            chain = Chain(dim, cells)
            assert not boundary(boundary(chain, cx), cx).cells


def test_construction_rejects_broken_boundaries():
    with pytest.raises(ValueError, match="boundary-of-boundary"):
        CellComplex(
            volumes={},
            faces={"f": frozenset({"e1", "e2"})},
            edges={"e1": frozenset({"a", "b"}), "e2": frozenset({"b", "c"})},
        )
    with pytest.raises(ValueError, match="empty boundary"):
        CellComplex(volumes={}, faces={"f": frozenset()}, edges={})
    with pytest.raises(ValueError, match="unknown faces"):
        CellComplex(volumes={"v": frozenset({"f"})}, faces={}, edges={})
    # both faults at once: the existence pass runs first and names the unknown edges, sorted
    with pytest.raises(ValueError, match=re.escape("face 'g' references unknown edges ['x3', 'x9']")):
        CellComplex(
            volumes={"v": frozenset({"f"})},  # the boundary of f is not closed
            faces={"f": frozenset({"e1", "e2"}), "g": frozenset({"e1", "x9", "x3"})},
            edges={"e1": frozenset({"a", "b"}), "e2": frozenset({"a", "b"})},
        )


@pytest.mark.parametrize(
    "volumes, faces, edges, kinds",
    [
        # f2 is a face and an edge, so it would name two qubits of the interaction graph
        ({"v": ["f1", "f2"]}, {"f1": ["e7", "f2"], "f2": ["e7", "f2"]}, {"e7": ["s", "t"], "f2": ["s", "t"]},
         "'f2' is used in two dimensions: face and edge"),
        ({"f": ["f", "g"]}, {"f": ["e1", "e2"], "g": ["e1", "e2"]}, {"e1": ["a", "b"], "e2": ["a", "b"]},
         "'f' is used in two dimensions: volume and face"),
        ({}, {"f": ["e1", "e2"]}, {"e1": ["a", "e2"], "e2": ["a", "e2"]},
         "'e2' is used in two dimensions: edge and vertex"),
    ],
)
def test_construction_rejects_a_name_in_two_dimensions(volumes, faces, edges, kinds):
    with pytest.raises(ValueError, match=re.escape(f"cell name {kinds}")):
        CellComplex(volumes=volumes, faces=faces, edges=edges)


def test_boundary_faults_are_reported_before_a_name_in_two_dimensions():
    with pytest.raises(ValueError, match="face 'f' violates boundary-of-boundary"):  # f is a vertex too
        CellComplex(volumes={}, faces={"f": ["e1", "e2"]}, edges={"e1": ["a", "b"], "e2": ["b", "f"]})


def reference_cuboid_maps(length, width, depth):
    """The cuboid builder cell by cell: each boundary drops one spanned axis, at the corner
    and a unit further along it. Returns the volume, face and edge maps in build order."""
    dims = (length, width, depth)
    names, maps = {}, [{}, {}, {}, {}]
    for span in ("", "x", "y", "z", "xy", "xz", "yz", "xyz"):
        kind, tag = "pefv"[len(span)], f"|{span}" if 0 < len(span) < 3 else ""
        drops = [(names[span.replace(a, "")], [int(b == a) for b in "xyz"]) for a in span]
        at = names[span] = {}
        for i, j, k in product(*[range(n + (axis not in span)) for n, axis in zip(dims, "xyz")]):
            name = at[i, j, k] = f"{kind}({i},{j},{k}{tag})"
            maps[len(span)][name] = frozenset(
                [c for lower, (di, dj, dk) in drops for c in (lower[i, j, k], lower[i + di, j + dj, k + dk])]
            )
    return maps[3], maps[2], maps[1]


@settings(derandomize=True, deadline=None, max_examples=64)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
def test_cuboid_builder_matches_the_cell_by_cell_reference(dims):
    cx = build_cuboid_complex(*dims)
    maps = reference_cuboid_maps(*dims)
    for got, want in zip((cx.volumes, cx.faces, cx.edges), maps):
        assert list(got.items()) == list(want.items())  # the same cells and boundaries, in order
    assert complex_to_json(cx) == complex_to_json(CellComplex(*maps))


@pytest.mark.parametrize(
    "builder",
    [build_elementary_cell, build_g8_complex, lambda: build_cuboid_complex(2, 1, 1)],
)
def test_json_round_trip_is_lossless(builder):
    cx = builder()
    text = complex_to_json(cx)
    again = complex_from_json(text)
    assert again == cx
    assert complex_to_json(again) == text


def test_vertices_are_the_edge_endpoints_and_not_a_constructor_argument():
    maps = ({}, {"f": ["a", "b"]}, {"a": ["s", "t"], "b": ["s", "t"]})
    with pytest.raises(TypeError, match="vertices"):
        CellComplex(*maps, vertices=frozenset({"q"}))
    cx = CellComplex(*maps)
    assert cx.vertices == {"s", "t"}
    assert complex_from_json(complex_to_json(cx)) == cx


def test_boundary_maps_are_read_only_after_validation():
    faces = {"f": {"a", "b"}}
    cx = CellComplex({}, faces, {"a": {"s", "t"}, "b": {"s", "t"}})
    faces["f"] = {"a"}  # the caller's dict is not the complex's
    assert cx.faces["f"] == {"a", "b"}
    for key in ("volumes", "faces", "edges"):
        with pytest.raises(TypeError):
            getattr(cx, key)["f"] = frozenset({"a"})
    with pytest.raises(dataclasses.FrozenInstanceError):
        cx.faces = {}


def test_complexes_hash_consistently_with_equality():
    g8 = build_g8_complex()
    again = complex_from_json(complex_to_json(g8))
    assert again == g8 and hash(again) == hash(g8)
    cuboid = build_cuboid_complex(2, 1, 1)
    assert len({g8, again, cuboid, build_cuboid_complex(2, 1, 1), build_elementary_cell()}) == 3


def test_json_parse_error_reports_location():
    with pytest.raises(ValueError, match=r"line \d+, column \d+"):
        complex_from_json("{broken")
    with pytest.raises(ValueError, match="'faces'"):
        complex_from_json(json.dumps({"volumes": {}, "edges": {}}))


def pair_scan_closed_surfaces(cx):
    """Reference: test every face pair for an empty boundary."""
    names = cx.cells(2)
    return [
        Chain(2, frozenset({a, b}))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if is_closed(Chain(2, frozenset({a, b})), cx)
    ]


# faces listed out of name order, four of them sharing one boundary and two
# another, so grouping must restore the sorted pair order
REPEATED_BOUNDARIES_JSON = json.dumps(
    {
        "volumes": {"V": ["alpha", "beta"], "W": ["mid", "omega"]},
        "faces": {
            "zeta": ["e1", "e2"],
            "mid": ["e3", "e4"],
            "alpha": ["e1", "e2"],
            "quad": ["e1", "e2", "e3", "e4"],
            "omega": ["e3", "e4"],
            "beta": ["e1", "e2"],
            "gamma": ["e2", "e1"],
        },
        "edges": {"e1": ["s", "t"], "e2": ["s", "t"], "e3": ["u", "v"], "e4": ["u", "v"]},
    }
)


@pytest.mark.parametrize(
    "builder",
    [
        build_g8_complex,
        build_elementary_cell,
        lambda: build_cuboid_complex(2, 2, 2),
        lambda: complex_from_json(REPEATED_BOUNDARIES_JSON),
    ],
)
def test_closed_two_face_surfaces_match_pair_scan(builder):
    cx = builder()
    assert closed_two_face_surfaces(cx) == pair_scan_closed_surfaces(cx)


def test_closed_two_face_surfaces_on_repeated_boundaries():
    cx = complex_from_json(REPEATED_BOUNDARIES_JSON)
    assert [sorted(c.cells) for c in closed_two_face_surfaces(cx)] == [
        ["alpha", "beta"], ["alpha", "gamma"], ["alpha", "zeta"], ["beta", "gamma"],
        ["beta", "zeta"], ["gamma", "zeta"], ["mid", "omega"],
    ]
    # V makes alpha and beta interchangeable: {alpha, beta} and {mid, omega}
    # are both boundaries, {alpha|beta, gamma} and {alpha|beta, zeta} pair up,
    # and {gamma, zeta} stands alone
    assert closed_surface_summary(cx) == {
        "two_face_closed_surfaces": 7,
        "homology_classes": 4,
        "class_sizes": [2, 2, 2, 1],
    }


@st.composite
def repeated_boundary_complexes(draw):
    """Faces over k pairs of parallel edges, boundaries drawn from their unions."""
    k = draw(st.integers(1, 3))
    edges = {}
    for i in range(k):
        edges[f"e{2 * i}"] = edges[f"e{2 * i + 1}"] = [f"s{i}", f"t{i}"]
    unions = [
        [f"e{2 * i + d}" for i in range(k) if (bits >> i) & 1 for d in (0, 1)]
        for bits in range(1, 1 << k)
    ]
    names = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=1,
                          max_size=9, unique=True))
    faces = {name: draw(st.sampled_from(unions)) for name in names}
    twins = [(a, b) for a, b in combinations(names, 2) if faces[a] == faces[b]]
    volumes = {}
    if twins:
        for i, pair in enumerate(draw(st.sets(st.sampled_from(twins)))):
            volumes[f"v{i}"] = list(pair)
    return complex_from_json(json.dumps({"volumes": volumes, "faces": faces, "edges": edges}))


@given(repeated_boundary_complexes())
def test_grouped_surfaces_and_class_keys_on_random_complexes(cx):
    surfaces = closed_two_face_surfaces(cx)
    assert surfaces == pair_scan_closed_surfaces(cx)
    for a, b in combinations(surfaces, 2):
        same_key = homology_class_key(a, cx) == homology_class_key(b, cx)
        assert same_key == (homologically_equivalent(a, b, cx) is not None)
    assert complex_from_json(complex_to_json(cx)) == cx


@pytest.mark.parametrize(
    "text, message",
    [
        ("5", "must be an object"),
        ("[]", "must be an object"),
        ('{"volumes": {}, "faces": {"f": 5}, "edges": {}}', "face 'f'"),
        ('{"volumes": {}, "faces": {"f": [[1]]}, "edges": {}}', "face 'f'"),
        ('{"volumes": {}, "faces": {"f": "ab"}, "edges": {"a": [], "b": []}}', "face 'f'"),
        ('{"volumes": {"v": [null]}, "faces": {}, "edges": {}}', "volume 'v'"),
        ('{"volumes": {}, "faces": {}, "edges": {"e": [1, 2]}}', "edge 'e'"),
        # under GF(2) the repeated f1 cancels: the boundary of v would be f2, whose own boundary is not zero
        ('{"volumes": {"v": ["f1", "f2", "f1"]}, "faces": {"f1": ["e7", "e8"], "f2": ["e7", "e8"]},'
         ' "edges": {"e7": ["s", "t"], "e8": ["s", "t"]}}', "volume 'v' lists 'f1' twice"),
    ],
)
def test_json_rejects_malformed_boundaries(text, message):
    with pytest.raises(ValueError, match=message):
        complex_from_json(text)


def _summary_from_class_keys(cx):
    keys = Counter(homology_class_key(s, cx) for s in closed_two_face_surfaces(cx))
    return {
        "two_face_closed_surfaces": sum(keys.values()),
        "homology_classes": len(keys),
        "class_sizes": sorted(keys.values(), reverse=True),
    }


def test_summary_matches_class_keys_on_many_faces_over_one_boundary():
    k = 12
    cx = complex_from_json(json.dumps({
        "volumes": {f"v{i}": [f"f{2 * i:02d}", f"f{2 * i + 1:02d}"] for i in range(k // 2)},
        "faces": {f"f{i:02d}": ["a", "b"] for i in range(k)},
        "edges": {"a": ["s", "t"], "b": ["s", "t"]},
    }))
    summary = closed_surface_summary(cx)
    assert summary["two_face_closed_surfaces"] == k * (k - 1) // 2
    assert summary == _summary_from_class_keys(cx)


@given(repeated_boundary_complexes())
def test_summary_matches_class_keys_on_random_complexes(cx):
    assert closed_surface_summary(cx) == _summary_from_class_keys(cx)
