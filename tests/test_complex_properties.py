"""Property tests for cuboid complexes, checked against closed forms and the X readout."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from tecsim import complexes
from tecsim.cluster import build_cluster, interaction_graph, measure_all
from tecsim.complexes import CellComplex, build_cuboid_complex, complex_from_json
from tecsim.errors import CapacityError
from tecsim.rng import philox_generator

from reference import complex_to_json

derandomized = settings(derandomize=True, deadline=None, max_examples=40)
dims = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


def closed_form_counts(length, width, depth):
    """(volumes, faces, edges, vertices) of a length x width x depth lattice."""
    lwd, lw, wd, ld = length * width * depth, length * width, width * depth, length * depth
    return (
        lwd,
        3 * lwd + lw + wd + ld,
        3 * lwd + 2 * (lw + wd + ld) + length + width + depth,
        (length + 1) * (width + 1) * (depth + 1),
    )


@derandomized
@given(dims)
def test_cuboid_counts_match_the_closed_form(d):
    assert build_cuboid_complex(*d).counts() == closed_form_counts(*d)


@derandomized
@given(dims, st.integers(-3, 3))
def test_capacity_error_exactly_when_the_qubits_exceed_the_cap(d, offset):
    _, faces, edges, _ = closed_form_counts(*d)
    cap = max(0, faces + edges + offset)
    # hypothesis runs every example in one call of the test, so the cap is patched per example
    with mock.patch.object(complexes, "CUBOID_QUBIT_CAP", cap):
        if faces + edges > cap:
            try:
                build_cuboid_complex(*d)
            except CapacityError as exc:
                assert str(exc).startswith(f"{faces + edges} face+edge qubits")
            else:
                raise AssertionError(f"{d} built under a cap of {cap}")
        else:
            assert build_cuboid_complex(*d).counts()[1:3] == (faces, edges)


@derandomized
@given(dims, st.data())
def test_json_round_trips_on_cuboids_and_their_volume_subsets(d, data):
    cx = build_cuboid_complex(*d)
    assert complex_from_json(complex_to_json(cx)) == cx
    kept = data.draw(st.sets(st.sampled_from(sorted(cx.volumes))))
    sub = CellComplex({v: cx.volumes[v] for v in kept}, cx.faces, cx.edges)
    again = complex_from_json(complex_to_json(sub))
    assert again == sub
    assert sorted(again.volumes) == sorted(kept)


@derandomized
@given(st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)), st.integers(0, 2**32))
def test_every_volume_x_product_is_plus_one(d, seed):
    cx = build_cuboid_complex(*d)
    record = measure_all(build_cluster(interaction_graph(cx), "tableau"), philox_generator(seed, 0))
    for volume, faces in cx.volumes.items():
        assert record.product(faces) == 1, volume


@derandomized
@given(dims)
def test_face_qubits_come_first_in_face_order(d):
    cx = build_cuboid_complex(*d)
    graph = interaction_graph(cx)
    assert graph.vertices[: len(cx.faces)] == cx.cells(2)
    assert all(a < len(cx.faces) <= b for a, b in graph.edges)  # each edge joins a face to an edge qubit
