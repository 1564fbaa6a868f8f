"""GF(2) chain complexes on 3D cell structures.

A complex stores, per dimension, each cell's boundary as a set of cells one
dimension down. Chains are GF(2) vectors over the cells of one dimension;
all boundary arithmetic is symmetric difference. Cells carry stable string
identifiers (named for the small fixtures, coordinate-based for lattices)
so golden values stay readable.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations
from math import prod
from types import MappingProxyType

from .errors import CapacityError

# face+edge qubits of the largest cuboid build_cuboid_complex makes
CUBOID_QUBIT_CAP = 4096
# faces sharing one boundary pair up quadratically: k of them make k(k - 1)/2 surfaces
TWO_FACE_SURFACE_CAP = 1 << 16
# CellComplex's boundary maps, volumes down to edges; vertices have none
_BOUNDARY_MAPS = ("volumes", "faces", "edges")


@dataclass(frozen=True)
class Chain:
    """GF(2) vector over the cells of one dimension."""

    dimension: int
    cells: frozenset[str]

    def __post_init__(self):
        if not 0 <= self.dimension <= 3:
            raise ValueError(f"chain dimension must be 0..3, got {self.dimension}")
        object.__setattr__(self, "cells", frozenset(self.cells))

    def __xor__(self, other: "Chain") -> "Chain":
        if self.dimension != other.dimension:
            raise ValueError("cannot add chains of different dimensions")
        return Chain(self.dimension, self.cells ^ other.cells)

    def __bool__(self) -> bool:
        return bool(self.cells)


@dataclass(frozen=True)
class CellComplex:
    """Volumes, faces, edges and vertices with GF(2) boundary maps.

    The maps are read-only once validated, and the vertices are exactly the
    edge endpoints, so the three maps are the whole complex.
    """

    volumes: Mapping[str, frozenset[str]]
    faces: Mapping[str, frozenset[str]]
    edges: Mapping[str, frozenset[str]]
    vertices: frozenset[str] = field(init=False)

    def __post_init__(self):
        for key in _BOUNDARY_MAPS:
            table = {k: frozenset(v) for k, v in getattr(self, key).items()}
            object.__setattr__(self, key, MappingProxyType(table))
        object.__setattr__(self, "vertices", frozenset().union(*self.edges.values()))
        self._validate()

    def __hash__(self) -> int:
        return hash(tuple(frozenset(getattr(self, key).items()) for key in _BOUNDARY_MAPS))

    def _validate(self) -> None:
        # every boundary's cells must exist before boundary-of-boundary = 0 is checked
        pairs = (("volume", "faces"), ("face", "edges"))
        for kind, below in pairs:
            known = getattr(self, below).keys()
            for name, cells in getattr(self, kind + "s").items():
                if not cells:
                    raise ValueError(f"{kind} {name!r} has empty boundary")
                if not cells <= known:
                    raise ValueError(f"{kind} {name!r} references unknown {below} {sorted(cells - known)}")
        for kind, below in pairs:
            lower = getattr(self, below)
            for name, cells in getattr(self, kind + "s").items():
                acc: set[str] = set()
                for cell in cells:
                    acc ^= lower[cell]
                if acc:
                    raise ValueError(f"{kind} {name!r} violates boundary-of-boundary = 0")
        # last, so a boundary fault is still the one reported; a shared name labels two cells
        cells = {"volume": self.volumes, "face": self.faces, "edge": self.edges, "vertex": self.vertices}
        if len(set().union(*cells.values())) != sum(map(len, cells.values())):
            for (kind, names), (other, others) in combinations(cells.items(), 2):
                if shared := sorted(set(names).intersection(others)):
                    raise ValueError(f"cell name {shared[0]!r} is used in two dimensions: {kind} and {other}")

    def _table(self, dimension: int):
        if not 0 <= dimension <= 3:
            raise ValueError(f"dimension must be 0..3, got {dimension}")
        return (self.vertices, self.edges, self.faces, self.volumes)[dimension]

    def cells(self, dimension: int) -> tuple[str, ...]:
        """Cell names of one dimension in sorted (stable) order."""
        return tuple(sorted(self._table(dimension)))

    def cell_boundary(self, dimension: int, name: str) -> frozenset[str]:
        if not 1 <= dimension <= 3:
            raise ValueError(f"cells of dimension {dimension} have no boundary map")
        return self._table(dimension)[name]

    def counts(self) -> tuple[int, int, int, int]:
        """(volumes, faces, edges, vertices)."""
        return (len(self.volumes), len(self.faces), len(self.edges), len(self.vertices))

    def chain(self, dimension: int, cells) -> Chain:
        """Build a chain, checking every cell exists in this complex."""
        cells = frozenset(cells)
        unknown = cells.difference(self._table(dimension))
        if unknown:
            raise KeyError(f"unknown {dimension}-cells: {sorted(unknown)}")
        return Chain(dimension, cells)


# ----------------------------------------------------------------------
# builders


def build_g8_complex() -> CellComplex:
    """The four-volume complex behind the eight-qubit cluster state.

    All six faces share the boundary {e7, e8}; the central defect volume
    and the exterior are not part of the complex.
    """
    return CellComplex(
        volumes={
            "v": frozenset({"f1", "f2"}),
            "w": frozenset({"f2", "f5"}),
            "y": frozenset({"f3", "f6"}),
            "z": frozenset({"f3", "f4"}),
        },
        faces={f"f{i}": frozenset({"e7", "e8"}) for i in range(1, 7)},
        edges={"e7": frozenset({"s", "t"}), "e8": frozenset({"s", "t"})},
    )


# The surface the g8 demo protects. Every pair {a, b}, a in {f1, f2, f5}, b in {f3, f4, f6},
# is in the one nontrivial class and gives the same decoded verdicts on all 64 flip patterns;
# the choice only picks the bare pair whose unprotected correlation is reported.
G8_PROTECTED_SURFACE = frozenset({"f5", "f6"})


# a cuboid cell is a lowest corner plus the axes it spans; spans listed by dimension
_CUBOID_SPANS = ("", "x", "y", "z", "xy", "xz", "yz", "xyz")


def _corner_ranges(dims: tuple[int, int, int], span: str) -> list[range]:
    """Lowest corners of the cells spanning ``span``: one fewer along each spanned axis."""
    return [range(n + (axis not in span)) for n, axis in zip(dims, "xyz")]


def _column(cells: list, ranges: list[range], step) -> list[str]:
    """Names ``cells[i + di][j + dj][k + dk]`` over the corners in ``ranges``, in corner order."""
    (nx, ny, nz), (di, dj, dk) = map(len, ranges), step
    return [c for plane in cells[di : di + nx] for row in plane[dj : dj + ny] for c in row[dk : dk + nz]]


def build_cuboid_complex(length: int, width: int, depth: int) -> CellComplex:
    """Cubic lattice of length x width x depth unit cells.

    Each cell is a lowest corner plus the axes it spans: vertices ``p``, edges
    ``e``, faces ``f`` and volumes ``v``. Its boundary drops one spanned axis,
    once at the corner and once a unit further along that axis. Face and edge
    cells carry the qubits, so their count is checked against
    :data:`CUBOID_QUBIT_CAP` before any cell is built.
    """
    dims = (length, width, depth)
    if min(dims) < 1:
        raise ValueError("cell counts per axis must be >= 1")
    qubits = sum(prod(n + (a not in s) for n, a in zip(dims, "xyz")) for s in _CUBOID_SPANS if 0 < len(s) < 3)
    if qubits > CUBOID_QUBIT_CAP:
        raise CapacityError(f"{qubits} face+edge qubits exceed the cap of {CUBOID_QUBIT_CAP}")
    names: dict[str, list] = {}  # span -> [i][j][k] -> cell name
    maps: list[dict[str, frozenset[str]]] = [{}, {}, {}, {}]  # by dimension
    for span in _CUBOID_SPANS:
        kind, tag = "pefv"[len(span)], f"|{span}" if 0 < len(span) < 3 else ""
        rx, ry, rz = ranges = _corner_ranges(dims, span)
        names[span] = [[[f"{kind}({i},{j},{k}{tag})" for k in rz] for j in ry] for i in rx]
        # per spanned axis, the cells without it: at the corner, then a unit further along it
        columns = [_column(names[span.replace(a, "")], ranges, [s * (b == a) for b in "xyz"])
                   for a in span for s in (0, 1)]
        maps[len(span)].update(zip(_column(names[span], ranges, (0, 0, 0)), map(frozenset, zip(*columns))))
    return CellComplex(volumes=maps[3], faces=maps[2], edges=maps[1])


def build_elementary_cell() -> CellComplex:
    """A single lattice cell: 1 volume, 6 faces, 12 edges, 8 vertices."""
    return build_cuboid_complex(1, 1, 1)


# ----------------------------------------------------------------------
# chain operations


def boundary(chain: Chain, cx: CellComplex) -> Chain:
    """GF(2) sum of the boundaries of the chain's cells."""
    if chain.dimension < 1:
        raise ValueError("0-chains have no boundary")
    acc: frozenset[str] = frozenset()
    for cell in chain.cells:
        acc ^= cx.cell_boundary(chain.dimension, cell)
    return Chain(chain.dimension - 1, acc)


def is_closed(chain: Chain, cx: CellComplex) -> bool:
    """True iff the chain has empty boundary."""
    return not boundary(chain, cx).cells


def _gf2_echelon(vectors: list[int]) -> tuple[dict[int, tuple[int, int]], dict[int, int]]:
    """Echelon of ``vectors``, reduced in order: pivots, top bit -> (row, chooser of the
    vectors in it), and dependent, i -> chooser of the zero sum that vector i reduces to."""
    pivots, dependent = {}, {}
    for i, vec in enumerate(vectors):
        combo = 1 << i
        while vec:
            top = vec.bit_length() - 1
            if top not in pivots:
                pivots[top] = (vec, combo)
                break
            pv, pc = pivots[top]
            vec ^= pv
            combo ^= pc
        else:
            dependent[i] = combo
    return pivots, dependent


def _gf2_reduce(pivots: dict[int, tuple[int, int]], target: int) -> tuple[int, int]:
    """(residue, chooser) with ``target`` = residue XOR the chosen vectors.

    Reduction runs against the echelon ``pivots`` of :func:`_gf2_echelon`; the
    residue is the canonical coset representative, zero iff ``target`` is in
    the span.
    """
    residue = combo = 0
    while target:
        top = target.bit_length() - 1
        if top in pivots:
            pv, pc = pivots[top]
            target ^= pv
            combo ^= pc
        else:
            residue |= 1 << top
            target ^= 1 << top
    return residue, combo


def _face_mask(cells: frozenset[str], face_index: dict[str, int]) -> int:
    return sum(1 << face_index[cell] for cell in cells)  # a set names each face once


def volume_boundary_masks(cx: CellComplex) -> tuple[int, ...]:
    """Volume boundaries as face bitmasks, in ``cx.cells(3)`` order; bit i is ``cx.cells(2)[i]``."""
    face_index = {name: i for i, name in enumerate(cx.cells(2))}
    return tuple(_face_mask(cx.volumes[v], face_index) for v in cx.cells(3))


def _volume_echelon(cx: CellComplex) -> tuple[dict[str, int], dict[int, tuple[int, int]]]:
    """Face positions and the echelon of the volume boundaries over them."""
    face_index = {name: i for i, name in enumerate(cx.cells(2))}
    return face_index, _gf2_echelon(volume_boundary_masks(cx))[0]


def closed_two_face_surfaces(cx: CellComplex) -> list[Chain]:
    """All closed surfaces made of exactly two faces, in sorted pair order.

    {a, b} is closed iff a and b have equal boundaries, so faces are grouped by it.
    More than :data:`TWO_FACE_SURFACE_CAP` surfaces raise ``CapacityError`` before any is built.
    """
    groups: dict[frozenset[str], list[str]] = {}
    for name in cx.cells(2):
        groups.setdefault(cx.faces[name], []).append(name)
    pairs = sum(len(group) * (len(group) - 1) // 2 for group in groups.values())
    if pairs > TWO_FACE_SURFACE_CAP:
        raise CapacityError(f"{pairs} two-face closed surfaces exceed the cap of {TWO_FACE_SURFACE_CAP}")
    out = [Chain(2, frozenset(pair)) for group in groups.values() for pair in combinations(group, 2)]
    return sorted(out, key=lambda chain: sorted(chain.cells))


def closed_surface_summary(cx: CellComplex) -> dict:
    """Counts and homology-class sizes of the two-face closed surfaces."""
    classes: dict[int, int] = {}
    surfaces = closed_two_face_surfaces(cx)
    # one echelon for every surface; each residue is its class's canonical face mask, equal iff homologous
    face_index, pivots = _volume_echelon(cx)
    for chain in surfaces:
        key, _ = _gf2_reduce(pivots, _face_mask(chain.cells, face_index))
        classes[key] = classes.get(key, 0) + 1
    return {
        "two_face_closed_surfaces": len(surfaces),
        "homology_classes": len(classes),
        "class_sizes": sorted(classes.values(), reverse=True),
    }


# ----------------------------------------------------------------------
# serialization


def complex_from_json(text: str) -> CellComplex:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed complex JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ValueError("complex JSON is nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("complex JSON must be an object")
    maps = {}
    for key in _BOUNDARY_MAPS:
        table = payload.get(key)
        if not isinstance(table, dict):
            raise ValueError(f"complex JSON must contain a {key!r} object")
        for name, cells in table.items():
            if not isinstance(cells, list) or not all(isinstance(c, str) for c in cells):
                raise ValueError(f"boundary of {key[:-1]} {name!r} must be a list of cell names")
            if len(set(cells)) != len(cells):  # under GF(2) a repeated cell would cancel
                twice = next(c for i, c in enumerate(cells) if c in cells[:i])
                raise ValueError(f"boundary of {key[:-1]} {name!r} lists {twice!r} twice")
        maps[key] = {k: frozenset(v) for k, v in table.items()}
    return CellComplex(**maps)
