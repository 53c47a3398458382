"""Combinatorial descriptions of fully symmetric finitely ramified fractals.

A structure is given purely by level-1 data: the multigraph G1, the
boundary vertices, and for each of the m cells the list of G1 vertices
occupied by that cell's copy of the boundary.  Everything else in the
package (level graphs, degree statistics, spectral decimation) is derived
from this record.

The geometric side (contraction maps on the plane) is deliberately not
modeled; the validation below checks the combinatorial consequences of
the defining conditions instead:

  * G1 is connected and loopless,
  * cell maps are injective per cell,
  * a boundary vertex covered by a cell is that cell's own fixed slot,
  * no edge of G1 joins two boundary vertices,
  * every G1 vertex is covered by some cell image,
  * the edge multiset of G1 is exactly the union of one complete graph
    per cell (which is what level-1 of the substitution produces).

Full symmetry itself (a doubly transitive isometry group) is not checked
here; its combinatorial footprint is verified downstream when the Schur
complement is required to factor through the boundary Laplacian.
"""

from __future__ import annotations

import reprlib
from functools import cache
from typing import Iterable, Sequence

from ._record import Record

Edge = tuple[int, int, int]  # (u, v, multiplicity), u < v


def _normalize_edges(edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    acc: dict[tuple[int, int], int] = {}
    for e in edges:
        if len(e) == 2:
            u, v, mult = e[0], e[1], 1
        elif len(e) == 3:
            u, v, mult = e
        else:
            raise _malformed(f"edge must be [u, v] or [u, v, mult]: {e!r}")
        if mult < 1:
            raise _malformed(f"edge multiplicity must be positive: {e!r}")
        if u > v:
            u, v = v, u
        acc[(u, v)] = acc.get((u, v), 0) + mult
    return tuple((u, v, m) for (u, v), m in sorted(acc.items()))


class SelfSimilarStructure(Record):
    """Level-1 data of a fully symmetric finitely ramified self-similar set.
    `validate` keeps its report in the slot `_report`, not a field."""

    _fields = (
        "name",
        "m",          # number of cells (contractions)
        "v0_size",    # boundary size |V0|
        "v1_size",    # |V1|
        "edges1",     # G1 multigraph, as Edge tuples
        "boundary",   # boundary vertex ids in G1
        "cell_maps",  # cell_maps[i][j]: image of corner j
    )
    __slots__ = (*_fields, "_report")

    @classmethod
    def create(cls, name, m, v0_size, v1_size, edges1, boundary, cell_maps):
        return cls(
            name=name,
            m=m,
            v0_size=v0_size,
            v1_size=v1_size,
            edges1=_normalize_edges(edges1),
            boundary=tuple(boundary),
            cell_maps=tuple(tuple(c) for c in cell_maps),
        )

    def gluing_sites(self) -> dict[int, list[tuple[int, int]]]:
        """Non-boundary V1 vertices -> list of (cell, corner-slot) covering them."""
        sites: dict[int, list[tuple[int, int]]] = {}
        bset = set(self.boundary)
        for i, cm in enumerate(self.cell_maps):
            for j, img in enumerate(cm):
                if img not in bset:
                    sites.setdefault(img, []).append((i, j))
        return {v: sorted(slots) for v, slots in sorted(sites.items())}

    def corner_cell_counts(self) -> list[int]:
        """kappa_j: number of cells whose corner-j image is boundary[j]."""
        return [
            sum(1 for cm in self.cell_maps if cm[j] == self.boundary[j])
            for j in range(self.v0_size)
        ]


class ValidationReport(Record):
    __slots__ = ("violations",)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(self.violations)


class InvalidStructureError(ValueError):
    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(str(report))


def _malformed(violation: str) -> InvalidStructureError:
    return InvalidStructureError(ValidationReport((violation,)))


def connected(vertex_count: int, edges: Iterable[Sequence[int]]) -> bool:
    """True when the graph on 0..vertex_count-1 with these (u, v, ...) edges is connected."""
    if vertex_count == 0:
        return False
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v, *_ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == vertex_count


def validate(s: SelfSimilarStructure) -> ValidationReport:
    """Check every structural invariant; returns all violations by name.
    The report is kept on the immutable structure, so each object is
    checked once (by `builtin` or the CLI, not again by `derive`)."""
    if not hasattr(s, "_report"):
        object.__setattr__(s, "_report", _check(s))
    return s._report


def _check(s: SelfSimilarStructure) -> ValidationReport:
    bad: list[str] = []

    if s.m < 2:
        bad.append("cell count m must be at least 2")
    if s.v0_size < 2:
        bad.append("boundary size must be at least 2")
    if s.v1_size < s.v0_size:
        bad.append("v1_size smaller than boundary size")

    ids_ok = True
    if len(s.boundary) != s.v0_size or len(set(s.boundary)) != s.v0_size:
        bad.append("boundary must list v0_size distinct vertices")
        ids_ok = False
    if any(not (0 <= b < s.v1_size) for b in s.boundary):
        bad.append("boundary vertex id out of range")
        ids_ok = False
    if len(s.cell_maps) != s.m or any(len(cm) != s.v0_size for cm in s.cell_maps):
        bad.append("cell_maps must be m lists of v0_size vertex ids")
        ids_ok = False
    elif any(not (0 <= v < s.v1_size) for cm in s.cell_maps for v in cm):
        bad.append("cell_maps vertex id out of range")
        ids_ok = False
    for u, v, _ in s.edges1:
        if u == v:
            bad.append("loop edge")
        if not (0 <= u < s.v1_size and 0 <= v < s.v1_size):
            bad.append("edge vertex id out of range")
            ids_ok = False
    if not ids_ok:
        return ValidationReport(tuple(bad))
    # before any per-vertex table is built, so a huge v1_size costs nothing
    if s.v1_size > s.m * s.v0_size:
        bad.append("uncovered V1 vertex (not any cell corner image)")
        return ValidationReport(tuple(bad))

    if not connected(s.v1_size, s.edges1):
        bad.append("G1 not connected")

    # per-cell injectivity
    for i, cm in enumerate(s.cell_maps):
        if len(set(cm)) != len(cm):
            bad.append(f"cell {i} corner images not distinct")

    # fixed-point condition
    for i, cm in enumerate(s.cell_maps):
        for k, img in enumerate(cm):
            for j, b in enumerate(s.boundary):
                if img == b and k != j:
                    bad.append(
                        f"fixed-point condition: cell {i} sends corner {k} "
                        f"to boundary vertex {j}"
                    )

    # boundary-boundary edges are forbidden
    bset = set(s.boundary)
    for u, v, _ in s.edges1:
        if u in bset and v in bset:
            bad.append("boundary-boundary edge")

    # coverage: every V1 vertex is some cell's corner image
    covered = {img for cm in s.cell_maps for img in cm}
    if covered != set(range(s.v1_size)):
        bad.append("uncovered V1 vertex (not any cell corner image)")

    # G1 must be the union of one complete graph per cell (`create` normalized edges1)
    if _normalize_edges(_edges_from_cells(s.cell_maps)) != s.edges1:
        bad.append("edges inconsistent with cell maps (G1 != glued complete graph copies)")

    return ValidationReport(tuple(bad))


def validated(s: SelfSimilarStructure) -> SelfSimilarStructure:
    report = validate(s)
    if not report.ok:
        raise InvalidStructureError(report)
    return s


# ---------------------------------------------------------------------------
# builtins

_K3_CELLS_SIERPINSKI = [[0, 3, 5], [3, 1, 4], [5, 4, 2]]

_NONPCF_CELLS = [
    # six affine images; corners 0,1,2; edge midpoints 3,4,5; center 6
    [0, 3, 6],
    [0, 6, 5],
    [6, 1, 4],
    [3, 1, 6],
    [5, 6, 2],
    [6, 4, 2],
]

_HEXAGASKET_CELLS = [
    # corners 0,1,2; ring junctions 3..8; non-boundary outer vertices 9,10,11
    [0, 4, 3],
    [5, 4, 9],
    [5, 1, 6],
    [10, 7, 6],
    [8, 7, 2],
    [8, 11, 3],
]

_TREE3_CELLS = [[0, 3, 6], [6, 1, 4], [5, 6, 2]]


def _edges_from_cells(cells) -> list[list[int]]:
    out = []
    for cm in cells:
        for a in range(len(cm)):
            for b in range(a + 1, len(cm)):
                out.append([cm[a], cm[b]])
    return out


# name -> (m, |V0|, |V1|, cell maps); the boundary is 0..|V0|-1 and G1 is
# one complete graph per cell
_BUILTINS = {
    "sierpinski": (3, 3, 6, _K3_CELLS_SIERPINSKI),
    "nonpcf_sg": (6, 3, 7, _NONPCF_CELLS),
    "diamond": (4, 2, 4, [[0, 2], [2, 1], [0, 3], [3, 1]]),
    "hexagasket": (6, 3, 12, _HEXAGASKET_CELLS),
    "interval": (2, 2, 3, [[0, 2], [2, 1]]),
    "tree3": (3, 3, 7, _TREE3_CELLS),
}

BUILTIN_NAMES = tuple(_BUILTINS)


@cache
def builtin(name: str) -> SelfSimilarStructure:
    """Return a validated builtin structure by name, built and validated
    once per process."""
    if name not in _BUILTINS:
        raise KeyError(
            f"unknown fractal {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    m, v0, v1, cells = _BUILTINS[name]
    edges = _edges_from_cells(cells)
    return validated(SelfSimilarStructure.create(name, m, v0, v1, edges, range(v0), cells))


# ---------------------------------------------------------------------------
# JSON interchange


def to_json_dict(s: SelfSimilarStructure) -> dict:
    return {
        "name": s.name,
        "cells": s.m,
        "boundary_size": s.v0_size,
        "v1_size": s.v1_size,
        "edges": [[u, v, m] for u, v, m in s.edges1],
        "boundary": list(s.boundary),
        "cell_maps": [list(cm) for cm in s.cell_maps],
    }


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _ints(v) -> bool:
    return isinstance(v, list) and all(map(_int, v))


def _int_rows(v) -> bool:
    return isinstance(v, list) and all(map(_ints, v))


# field -> (what its JSON value must be, the check); edge lengths and
# multiplicities are checked by `SelfSimilarStructure.create`
_JSON_FIELDS = {
    "name": ("a string", lambda v: isinstance(v, str)),
    "cells": ("an integer", _int),
    "boundary_size": ("an integer", _int),
    "v1_size": ("an integer", _int),
    "edges": ("a list of integer lists", _int_rows),
    "boundary": ("a list of integers", _ints),
    "cell_maps": ("a list of integer lists", _int_rows),
}


def from_json_dict(d: dict) -> SelfSimilarStructure:
    """Build a structure from its JSON form; wrong JSON types raise `InvalidStructureError`."""
    if not isinstance(d, dict):
        raise _malformed(f"fractal definition must be a JSON object, not {type(d).__name__}")
    for key, (kind, ok) in _JSON_FIELDS.items():
        if key not in d:
            raise _malformed(f"fractal definition missing field {key!r}")
        if not ok(d[key]):
            raise _malformed(f"field {key!r} must be {kind}: {reprlib.repr(d[key])}")
    return SelfSimilarStructure.create(
        name=d["name"],
        m=d["cells"],
        v0_size=d["boundary_size"],
        v1_size=d["v1_size"],
        edges1=d["edges"],
        boundary=d["boundary"],
        cell_maps=d["cell_maps"],
    )


def load_json(path: str) -> SelfSimilarStructure:
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise _malformed(f"cannot read {path}: {e.strerror}") from None
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nesting too deep
        raise _malformed(f"cannot parse {path}: {e}") from None
    return from_json_dict(data)
