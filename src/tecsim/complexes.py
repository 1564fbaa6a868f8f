"""GF(2) chain complexes on 3D cell structures.

A complex stores, per dimension, each cell's boundary as a set of cells one
dimension down. Chains are GF(2) vectors over the cells of one dimension;
all boundary arithmetic is symmetric difference. Cells carry stable string
identifiers (named for the small fixtures, coordinate-based for lattices)
so golden values stay readable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

from .errors import CapacityError

DEFAULT_QUBIT_CAP = 4096


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
    """Volumes, faces, edges and vertices with GF(2) boundary maps."""

    volumes: dict[str, frozenset[str]]
    faces: dict[str, frozenset[str]]
    edges: dict[str, frozenset[str]]
    vertices: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(
            self, "volumes", {k: frozenset(v) for k, v in self.volumes.items()}
        )
        object.__setattr__(
            self, "faces", {k: frozenset(v) for k, v in self.faces.items()}
        )
        object.__setattr__(
            self, "edges", {k: frozenset(v) for k, v in self.edges.items()}
        )
        derived = frozenset().union(*self.edges.values()) if self.edges else frozenset()
        object.__setattr__(self, "vertices", frozenset(self.vertices) | derived)
        self._validate()

    def _validate(self) -> None:
        for name, fs in self.volumes.items():
            if not fs:
                raise ValueError(f"volume {name!r} has empty boundary")
            missing = fs - self.faces.keys()
            if missing:
                raise ValueError(f"volume {name!r} references unknown faces {sorted(missing)}")
        for name, es in self.faces.items():
            if not es:
                raise ValueError(f"face {name!r} has empty boundary")
            missing = es - self.edges.keys()
            if missing:
                raise ValueError(f"face {name!r} references unknown edges {sorted(missing)}")
        for name, vs in self.edges.items():
            missing = vs - self.vertices
            if missing:  # cannot happen with derived vertices; guards explicit input
                raise ValueError(f"edge {name!r} references unknown vertices {sorted(missing)}")
        # boundary-of-boundary must cancel over GF(2)
        for name, fs in self.volumes.items():
            acc: frozenset[str] = frozenset()
            for f in fs:
                acc ^= self.faces[f]
            if acc:
                raise ValueError(f"volume {name!r} violates boundary-of-boundary = 0")
        for name, es in self.faces.items():
            acc = frozenset()
            for e in es:
                acc ^= self.edges[e]
            if acc:
                raise ValueError(f"face {name!r} violates boundary-of-boundary = 0")

    def cells(self, dimension: int) -> tuple[str, ...]:
        """Cell names of one dimension in sorted (stable) order."""
        if dimension == 3:
            return tuple(sorted(self.volumes))
        if dimension == 2:
            return tuple(sorted(self.faces))
        if dimension == 1:
            return tuple(sorted(self.edges))
        if dimension == 0:
            return tuple(sorted(self.vertices))
        raise ValueError(f"dimension must be 0..3, got {dimension}")

    def cell_boundary(self, dimension: int, name: str) -> frozenset[str]:
        table = {3: self.volumes, 2: self.faces, 1: self.edges}.get(dimension)
        if table is None:
            raise ValueError(f"cells of dimension {dimension} have no boundary map")
        return table[name]

    def counts(self) -> tuple[int, int, int, int]:
        """(volumes, faces, edges, vertices)."""
        return (len(self.volumes), len(self.faces), len(self.edges), len(self.vertices))

    def chain(self, dimension: int, cells) -> Chain:
        """Build a chain, checking every cell exists in this complex."""
        cells = frozenset(cells)
        known = set(self.cells(dimension))
        unknown = cells - known
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


def build_cuboid_complex(
    length: int, width: int, depth: int, qubit_cap: int = DEFAULT_QUBIT_CAP
) -> CellComplex:
    """Cubic lattice of length x width x depth unit cells.

    Face and edge cells carry the qubits, so their total count is checked
    against ``qubit_cap``.
    """
    if min(length, width, depth) < 1:
        raise ValueError("cell counts per axis must be >= 1")
    n_faces = 3 * length * width * depth + length * width + width * depth + length * depth
    n_edges = (
        3 * length * width * depth
        + 2 * (length * width + width * depth + length * depth)
        + length
        + width
        + depth
    )
    if n_faces + n_edges > qubit_cap:
        raise CapacityError(
            f"{n_faces + n_edges} face+edge qubits exceed the cap of {qubit_cap}"
        )

    def p(i, j, k):
        return f"p({i},{j},{k})"

    def e(i, j, k, axis):
        return f"e({i},{j},{k}|{axis})"

    def f(i, j, k, plane):
        return f"f({i},{j},{k}|{plane})"

    edges: dict[str, frozenset[str]] = {}
    for i in range(length + 1):
        for j in range(width + 1):
            for k in range(depth + 1):
                if i < length:
                    edges[e(i, j, k, "x")] = frozenset({p(i, j, k), p(i + 1, j, k)})
                if j < width:
                    edges[e(i, j, k, "y")] = frozenset({p(i, j, k), p(i, j + 1, k)})
                if k < depth:
                    edges[e(i, j, k, "z")] = frozenset({p(i, j, k), p(i, j, k + 1)})

    faces: dict[str, frozenset[str]] = {}
    for i in range(length + 1):
        for j in range(width + 1):
            for k in range(depth + 1):
                if i < length and j < width:
                    faces[f(i, j, k, "xy")] = frozenset(
                        {e(i, j, k, "x"), e(i, j + 1, k, "x"), e(i, j, k, "y"), e(i + 1, j, k, "y")}
                    )
                if i < length and k < depth:
                    faces[f(i, j, k, "xz")] = frozenset(
                        {e(i, j, k, "x"), e(i, j, k + 1, "x"), e(i, j, k, "z"), e(i + 1, j, k, "z")}
                    )
                if j < width and k < depth:
                    faces[f(i, j, k, "yz")] = frozenset(
                        {e(i, j, k, "y"), e(i, j, k + 1, "y"), e(i, j, k, "z"), e(i, j + 1, k, "z")}
                    )

    volumes: dict[str, frozenset[str]] = {}
    for i in range(length):
        for j in range(width):
            for k in range(depth):
                volumes[f"v({i},{j},{k})"] = frozenset(
                    {
                        f(i, j, k, "xy"),
                        f(i, j, k + 1, "xy"),
                        f(i, j, k, "xz"),
                        f(i, j + 1, k, "xz"),
                        f(i, j, k, "yz"),
                        f(i + 1, j, k, "yz"),
                    }
                )
    return CellComplex(volumes=volumes, faces=faces, edges=edges)


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


def _gf2_echelon(vectors: list[int]) -> dict[int, tuple[int, int]]:
    """Echelon basis of ``vectors``: top bit -> (row, chooser of the vectors in it)."""
    pivots: dict[int, tuple[int, int]] = {}
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
    return pivots


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
    mask = 0
    for cell in cells:
        mask |= 1 << face_index[cell]
    return mask


def volume_boundary_masks(cx: CellComplex) -> tuple[int, ...]:
    """Volume boundaries as face bitmasks, in ``cx.cells(3)`` order; bit i is ``cx.cells(2)[i]``."""
    face_index = {name: i for i, name in enumerate(cx.cells(2))}
    return tuple(_face_mask(cx.volumes[v], face_index) for v in cx.cells(3))


def _volume_echelon(cx: CellComplex) -> tuple[dict[str, int], dict[int, tuple[int, int]]]:
    """Face positions and the echelon of the volume boundaries over them."""
    face_index = {name: i for i, name in enumerate(cx.cells(2))}
    return face_index, _gf2_echelon(list(volume_boundary_masks(cx)))


def homologically_equivalent(
    surface: Chain, other: Chain, cx: CellComplex
) -> frozenset[str] | None:
    """Volume set V with surface + other = boundary(V), or None if inequivalent.

    Both chains must be closed 2-chains. Solved by Gaussian elimination
    over the faces x volumes boundary matrix; the empty witness means the
    surfaces are equal.
    """
    for c in (surface, other):
        if c.dimension != 2:
            raise ValueError("homological equivalence is defined for 2-chains")
        if not is_closed(c, cx):
            raise ValueError(f"chain {sorted(c.cells)} is not closed")
    face_index, pivots = _volume_echelon(cx)
    residue, combo = _gf2_reduce(pivots, _face_mask(surface.cells ^ other.cells, face_index))
    if residue:
        return None
    return frozenset(v for i, v in enumerate(cx.cells(3)) if (combo >> i) & 1)


def homology_class_key(surface: Chain, cx: CellComplex) -> frozenset[str]:
    """Canonical representative of a closed surface's homology class.

    Reduces the face set against a fixed echelon basis of the volume
    boundary space; equal keys mean homologically equivalent surfaces.
    """
    if surface.dimension != 2 or not is_closed(surface, cx):
        raise ValueError("expected a closed 2-chain")
    face_index, pivots = _volume_echelon(cx)
    result, _ = _gf2_reduce(pivots, _face_mask(surface.cells, face_index))
    return frozenset(name for name, i in face_index.items() if (result >> i) & 1)


def closed_two_face_surfaces(cx: CellComplex) -> list[Chain]:
    """All closed surfaces made of exactly two faces, in sorted pair order.

    {a, b} is closed iff a and b have equal boundaries, so faces are grouped by it.
    """
    groups: dict[frozenset[str], list[str]] = {}
    for name in cx.cells(2):
        groups.setdefault(cx.faces[name], []).append(name)
    out = []
    for group in groups.values():
        out.extend(Chain(2, frozenset(pair)) for pair in combinations(group, 2))
    return sorted(out, key=lambda chain: sorted(chain.cells))


def closed_surface_summary(cx: CellComplex) -> dict:
    """Counts and homology-class sizes of the two-face closed surfaces."""
    classes: dict[int, int] = {}
    surfaces = closed_two_face_surfaces(cx)
    # one echelon for every surface; each residue is its homology_class_key as a face mask
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


def complex_to_json(cx: CellComplex) -> str:
    """Lossless JSON form: boundary maps keyed by cell name."""
    payload = {
        "volumes": {k: sorted(v) for k, v in sorted(cx.volumes.items())},
        "faces": {k: sorted(v) for k, v in sorted(cx.faces.items())},
        "edges": {k: sorted(v) for k, v in sorted(cx.edges.items())},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def complex_from_json(text: str) -> CellComplex:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed complex JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ValueError("complex JSON must be an object")
    maps = {}
    for key in ("volumes", "faces", "edges"):
        table = payload.get(key)
        if not isinstance(table, dict):
            raise ValueError(f"complex JSON must contain a {key!r} object")
        for name, cells in table.items():
            if not isinstance(cells, list) or not all(isinstance(c, str) for c in cells):
                raise ValueError(f"boundary of {key[:-1]} {name!r} must be a list of cell names")
        maps[key] = {k: frozenset(v) for k, v in table.items()}
    return CellComplex(**maps)
