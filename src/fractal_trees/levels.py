"""Level graphs G_n and degree statistics.

G_0 is the complete graph on the boundary.  G_n glues m copies of
G_{n-1} at the G1 vertices the cell maps name: corner j of copy i is G1
vertex cell_maps[i][j], and every other vertex belongs to one copy only.
Vertex ids are assigned deterministically, so exports are reproducible
byte for byte: the boundary takes 0..|V0|-1 (a built graph's corners),
then, copy by copy in cell order, a corner's G1 vertex takes the next id
when first seen and the copy's other vertices take a fresh block.

Degree statistics are computed by a recursion on the level-1 gluing data
instead of building the graph: corner degrees scale by the number of
cells meeting each corner, and every gluing site contributes one interior
vertex whose degree is the sum of the corner degrees it absorbs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._record import Record
from .structures import SelfSimilarStructure, _normalize_edges, connected


class LevelGraph(Record):
    """Undirected multigraph: vertex count plus (u, v, mult) edges.

    `build_level` also records the level and the boundary vertex ids
    (`corners`); a graph made by `from_edges` alone is level 0 with no
    marked corners.
    """

    __slots__ = ("vertex_count", "edges", "level", "corners")  # edges: (u, v, mult), u < v, sorted
    _defaults = {"level": 0, "corners": ()}

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        edges: Iterable[Sequence[int]],
        level: int = 0,
        corners: tuple[int, ...] = (),
    ) -> "LevelGraph":
        """Graph from (u, v) or (u, v, mult) edges in the structures' edge
        normal form (parallel edges merge into one edge with the summed
        multiplicity); loops are refused."""
        merged = _normalize_edges(edges)
        if any(u == v for u, v, _ in merged):
            raise ValueError("loop edge")
        return cls(vertex_count, merged, level, corners)

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for u, v, m in self.edges:
            deg[u] += m
            deg[v] += m
        return deg


def vertex_count_formula(s: SelfSimilarStructure, n: int) -> int:
    """|V_n|, the closed form of |V_n| = m |V_{n-1}| - m |V_0| + |V_1|.

    (m^n (|V1| - |V0|) + m |V0| - |V1|) / (m - 1) for n >= 1; the
    division is exact because m^n = 1 (mod m - 1).  Needs m >= 2, which
    validation enforces.
    """
    if n == 0:
        return s.v0_size
    m, v0, v1 = s.m, s.v0_size, s.v1_size
    return (m ** n * (v1 - v0) + m * v0 - v1) // (m - 1)


def edge_count_formula(s: SelfSimilarStructure, n: int) -> int:
    """Edges of G_n with multiplicity: m^n * |V0|(|V0|-1)/2."""
    return s.m ** n * s.v0_size * (s.v0_size - 1) // 2


BUILD_VERTEX_CAP = 2_000_000


def build_level(
    s: SelfSimilarStructure, n: int, prev: LevelGraph | None = None
) -> LevelGraph:
    """Construct G_n explicitly.  Exponential in n; meant for oracle use.

    Each copy of G_{n-1} gets one id row: first the ids of the G1
    vertices its corners sit at (a vertex not seen yet takes the next
    id), then a fresh consecutive block for its other vertices.  Edge
    (u, v, mult) of copy i becomes (row_i[u], row_i[v], mult).  `prev`
    is G_{n-1} when the caller already has it (a caller walking the
    levels up glues each one once); without it G_{n-1} is built by the
    same recursion.  A `prev` of another level or vertex count is refused.
    These ids, highest first, are `tau_bruteforce`'s elimination order.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if prev is not None and (
        n == 0 or prev.level != n - 1 or prev.vertex_count != vertex_count_formula(s, n - 1)
    ):
        below = f"G_{n - 1}" if n else "no other level"
        raise ValueError(
            f"G_{n} of {s.name} is glued from {below}, not from a level-{prev.level} "
            f"graph on {prev.vertex_count} vertices"
        )
    # step |V_k| = m (|V_{k-1}| - |V0|) + |V1| only until it passes the cap
    # (at most 21 steps for m >= 2), so a huge n never forms m^n
    v_k, k = s.v0_size, 0
    while k < n and v_k <= BUILD_VERTEX_CAP:
        v_k, k = s.m * (v_k - s.v0_size) + s.v1_size, k + 1
    if v_k > BUILD_VERTEX_CAP:
        raise ValueError(
            f"G_{n} of {s.name} has more than {BUILD_VERTEX_CAP} vertices; "
            "explicit construction is capped (use the decimation pipeline)"
        )
    v0 = s.v0_size
    if n == 0:
        edges = tuple(
            (i, j, 1) for i in range(v0) for j in range(i + 1, v0)
        )
        return LevelGraph(v0, edges, 0, tuple(range(v0)))

    if prev is None:
        prev = build_level(s, n - 1)
    site = {b: j for j, b in enumerate(s.boundary)}
    inner = prev.vertex_count - v0
    next_id = v0
    rows = []
    for cm in s.cell_maps:
        row = []
        for x in cm:
            if x not in site:
                site[x] = next_id
                next_id += 1
            row.append(site[x])
        row.extend(range(next_id, next_id + inner))
        next_id += inner
        rows.append(row)

    g = LevelGraph.from_edges(
        next_id,
        ((row[u], row[v], m) for row in rows for u, v, m in prev.edges),
        n,
        tuple(range(v0)),
    )
    if g.vertex_count != vertex_count_formula(s, n):
        raise AssertionError("vertex count recursion violated")
    if not connected(g.vertex_count, g.edges):
        raise AssertionError("level graph not connected")
    return g


class DegreeStats(Record):
    __slots__ = ("level", "corner_degrees", "interior_histogram")  # histogram: degree -> count

    def vertex_count(self) -> int:
        return len(self.corner_degrees) + sum(self.interior_histogram.values())

    def degree_sum(self) -> int:
        return sum(self.corner_degrees) + sum(
            d * c for d, c in self.interior_histogram.items()
        )


def degree_stats(s: SelfSimilarStructure, n: int) -> DegreeStats:
    """Degree statistics of G_n without building the graph (module
    docstring), each corner j scaled by its own kappa_j: any valid
    structure is taken, with no `derive` to prove the counts equal (see
    `DecimationData`), so it is a from-scratch reference for the level walk.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    v0 = s.v0_size
    corner = [v0 - 1] * v0
    hist: dict[int, int] = {}
    if n == 0:
        return DegreeStats(0, tuple(corner), hist)
    kappa = s.corner_cell_counts()
    sites = s.gluing_sites()
    copies = s.m ** n
    for _ in range(1, n + 1):
        copies //= s.m  # m^(n-k) for the sites born at level k
        for slots in sites.values():
            d = sum(corner[j] for _, j in slots)
            hist[d] = hist.get(d, 0) + copies
        corner = [kappa[j] * corner[j] for j in range(v0)]
    stats = DegreeStats(n, tuple(corner), hist)
    if stats.vertex_count() != vertex_count_formula(s, n):
        raise AssertionError("degree recursion vertex count mismatch")
    if stats.degree_sum() != 2 * edge_count_formula(s, n):
        raise AssertionError("degree recursion handshake mismatch")
    return stats


# ---------------------------------------------------------------------------
# export


def export(g: LevelGraph, fmt: str) -> str:
    """Serialize a level graph as DOT or JSON (deterministic output)."""
    if fmt == "json":
        import json

        return json.dumps(
            {
                "schema": "1",
                "level": g.level,
                "vertices": g.vertex_count,
                "corners": list(g.corners),
                "edges": [[u, v, m] for u, v, m in g.edges],
            },
            indent=2,
            sort_keys=True,
        )
    if fmt == "dot":
        lines = [f"graph level{g.level} {{"]
        for v in range(g.vertex_count):
            mark = ' [shape=box]' if v in g.corners else ""
            lines.append(f"  v{v}{mark};")
        for u, v, m in g.edges:
            for _ in range(m):
                lines.append(f"  v{u} -- v{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unsupported export format {fmt!r} (use dot or json)")
