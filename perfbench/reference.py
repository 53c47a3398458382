"""Reference answers that do not come from the code under test.

* Per-prime closed forms of tau(G_n) for the four published builtins
  (the source paper; Chang-Chen-Yang, J. Stat. Phys. 2007, for the
  gasket), with the corrected hexagasket power of two 2(6^n - 1)/5.
* tau(G_n) = 3^(3^n) for tree3 and tau = 1 for interval.
* |V_n| from the recursion |V_n| = m |V_{n-1}| - m |V_0| + |V_1|.
* The published decimation data R(z), (d, Q(0), P_d) and level-2
  multiplicity tables of the four builtins.
* sg3 counts at n <= 2 pinned from the Kirchhoff oracle, and for every
  level the boundary-partition forest recursion, an independent count
  that uses no Laplacian and no decimation.
* Level-1 definitions of every structure the workloads use; sg3 and the
  pentagasket are read from the JSON files next to this module.

Nothing here imports the package under test.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
SG3_PATH = os.path.join("perfbench", "structures", "sg3.json")
PENTA_PATH = os.path.join("perfbench", "structures", "pentagasket.json")

# two primes near 2^61 for residue comparisons of counts too large to expand
MODULI = (2305843009213693951, 2305843009213693921)


# ---------------------------------------------------------------------------
# level-1 definitions


def _cells_structure(name, m, v0, v1, cells):
    edges = [[c[a], c[b]] for c in cells for a in range(len(c)) for b in range(a + 1, len(c))]
    return {
        "name": name, "cells": m, "boundary_size": v0, "v1_size": v1,
        "edges": edges, "boundary": list(range(v0)), "cell_maps": cells,
    }


BUILTINS = {
    "sierpinski": _cells_structure("sierpinski", 3, 3, 6, [[0, 3, 5], [3, 1, 4], [5, 4, 2]]),
    "nonpcf_sg": _cells_structure(
        "nonpcf_sg", 6, 3, 7,
        [[0, 3, 6], [0, 6, 5], [6, 1, 4], [3, 1, 6], [5, 6, 2], [6, 4, 2]],
    ),
    "diamond": _cells_structure("diamond", 4, 2, 4, [[0, 2], [2, 1], [0, 3], [3, 1]]),
    "hexagasket": _cells_structure(
        "hexagasket", 6, 3, 12,
        [[0, 4, 3], [5, 4, 9], [5, 1, 6], [10, 7, 6], [8, 7, 2], [8, 11, 3]],
    ),
    "interval": _cells_structure("interval", 2, 2, 3, [[0, 2], [2, 1]]),
    "tree3": _cells_structure("tree3", 3, 3, 7, [[0, 3, 6], [6, 1, 4], [5, 6, 2]]),
}


def definition(name: str) -> dict:
    """Level-1 data of a builtin name or of a JSON file (relative to the root)."""
    if name in BUILTINS:
        return BUILTINS[name]
    with open(name if os.path.isabs(name) else os.path.join(HERE, "..", name)) as fh:
        return json.load(fh)


def vertex_count(d: dict, n: int) -> int:
    """|V_n| by the linear recursion."""
    if n == 0:
        return d["boundary_size"]
    v = d["v1_size"]
    for _ in range(n - 1):
        v = d["cells"] * v - d["cells"] * d["boundary_size"] + d["v1_size"]
    return v


# ---------------------------------------------------------------------------
# closed forms of tau(G_n)


def _nonzero(f: dict) -> dict:
    return {p: e for p, e in f.items() if e}


CLOSED_FORMS = {
    "sierpinski": lambda n: _nonzero({
        2: (3 ** n - 1) // 2,
        3: (3 ** (n + 1) + 2 * n + 1) // 4,
        5: (3 ** n - 2 * n - 1) // 4,
    }),
    "nonpcf_sg": lambda n: _nonzero({
        2: 2 * (11 * 6 ** n - 30 * n - 11) // 25,
        3: (2 * 6 ** n + 3) // 5,
        5: (4 * 6 ** n + 30 * n - 4) // 25,
    }),
    "diamond": lambda n: _nonzero({2: 2 * (4 ** n - 1) // 3}),
    "hexagasket": lambda n: _nonzero({
        2: 2 * (6 ** n - 1) // 5,
        3: (4 * 6 ** (n + 1) + 5 * n + 1) // 25,
        7: (6 ** n - 5 * n - 1) // 25,
    }),
    "tree3": lambda n: {3: 3 ** n},
    "interval": lambda n: {},
}

# tau(G_n) of sg3 for n <= 2, from the Kirchhoff oracle on the built graphs
SG3_PINNED = {0: 3, 1: 5292, 2: 1568884518268594845696000}


def factored_residue(factors: dict, mod: int) -> int:
    out = 1
    for p, e in factors.items():
        out = out * pow(p, e, mod) % mod
    return out


# ---------------------------------------------------------------------------
# the boundary-partition forest recursion


def set_partitions(k: int) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of range(k), blocks sorted, in a fixed order."""
    out = []

    def grow(i, blocks):
        if i == k:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(0, [])
    return out


def forest_table(d: dict):
    """Transition table of the forest recursion for one structure.

    F_pi(G_n) counts spanning forests of G_n whose every component meets
    V_0 and whose components split V_0 as pi.  A spanning forest of this
    kind in G_{n+1} restricts to one in every cell copy; conversely a
    choice of cell partitions glues to one exactly when the blocks, joined
    through the cell maps on V_1, close no cycle and leave every V_1
    component touching the boundary.  Returns (partitions, rows) with
    rows[t] the list of cell-partition index tuples that glue to
    partitions[t].
    """
    v0, v1 = d["boundary_size"], d["v1_size"]
    cells = d["cell_maps"]
    boundary = d["boundary"]
    parts = set_partitions(v0)
    index = {p: i for i, p in enumerate(parts)}
    rows = [[] for _ in parts]

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def glue(choice):
        parent = list(range(v1))
        for cell, pi in zip(cells, choice):
            for block in parts[pi]:
                root = find(parent, cell[block[0]])
                for j in block[1:]:
                    other = find(parent, cell[j])
                    if other == root:
                        return None
                    parent[other] = root
        roots = {find(parent, v) for v in range(v1)}
        if roots - {find(parent, b) for b in boundary}:
            return None
        groups: dict[int, list[int]] = {}
        for j, b in enumerate(boundary):
            groups.setdefault(find(parent, b), []).append(j)
        return index[tuple(sorted(tuple(g) for g in groups.values()))]

    def tuples(i, acc):
        if i == len(cells):
            yield tuple(acc)
            return
        for pi in range(len(parts)):
            acc.append(pi)
            yield from tuples(i + 1, acc)
            acc.pop()

    for choice in tuples(0, []):
        target = glue(choice)
        if target is not None:
            rows[target].append(choice)
    return parts, rows


def forest_counts(d: dict, n_max: int, mod: int | None = None) -> list[int]:
    """tau(G_n) for 0 <= n <= n_max, exactly or modulo mod."""
    parts, rows = forest_table(d)
    level = []
    for p in parts:
        c = 1
        for b in p:
            if len(b) > 2:
                c *= len(b) ** (len(b) - 2)  # Cayley, on the complete graph G_0
        level.append(c if mod is None else c % mod)
    one_block = parts.index((tuple(range(d["boundary_size"])),))
    taus = [level[one_block]]
    for _ in range(n_max):
        new = []
        for row in rows:
            acc = 0
            for choice in row:
                term = 1
                for pi in choice:
                    term *= level[pi]
                acc += term
            new.append(acc if mod is None else acc % mod)
        level = new
        taus.append(level[one_block])
    return taus


# ---------------------------------------------------------------------------
# decimation data


def poly(*coeffs) -> tuple:
    """Coefficient tuple, lowest degree first, trailing zeros dropped."""
    c = [F(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def root(r) -> tuple:
    return poly(-F(r), 1)


PUBLISHED_R = {
    "sierpinski": (poly(0, 5, -4), poly(1)),
    "diamond": (poly(0, 4, -2), poly(1)),
    "nonpcf_sg": (poly(0, -72, 120, -48), poly(-15, 14)),
    "hexagasket": (poly(0, -14, 62, -80, 32), poly(-1, 2)),
    # the path graph's classical map, identical to the diamond's
    "interval": (poly(0, 4, -2), poly(1)),
}

PUBLISHED_TRIPLE = {
    "sierpinski": (2, F(1), F(-4)),
    "diamond": (2, F(1), F(-2)),
    "nonpcf_sg": (3, F(-15), F(-48)),
    "hexagasket": (4, F(-1), F(32)),
    "interval": (2, F(1), F(-2)),
    "sg3": (4, F(-7), F(96)),
}

SQRT2_PAIR = poly(F(7, 16), F(-3, 2), 1)


def published_table(name: str, n: int) -> dict | None:
    """{(minpoly, depth): mult} of sigma(P_n) from the published tables."""
    t = {}
    r = lambda x: root(F(x))  # noqa: E731
    if name == "sierpinski":
        t[(r("3/2"), 0)] = (3 ** n + 3) // 2
        for k in range(n):
            t[(r("3/4"), k)] = (3 ** (n - k - 1) + 3) // 2
        for k in range(n - 1):
            t[(r("5/4"), k)] = (3 ** (n - k - 1) - 1) // 2
    elif name == "nonpcf_sg":
        t[(r("3/2"), 0)] = 6 ** (n - 1) + 1
        for b in ("3/4", "5/4"):
            for k in range(n - 1):
                t[(r(b), k)] = 6 ** (n - k - 2) + 1
            t[(r(b), n - 1)] = 2
        for k in range(n - 1):
            t[(r("1/2"), k)] = (11 * 6 ** (n - k - 2) - 6) // 5
            t[(r(1), k)] = (6 ** (n - k) - 6) // 5
    elif name == "diamond":
        t[(r(2), 0)] = 1
        for k in range(n):
            t[(r(1), k)] = (4 ** (n - k) + 2) // 3
    elif name == "hexagasket":
        t[(r("3/2"), 0)] = (6 + 4 * 6 ** n) // 5
        for k in range(n):
            t[(r(1), k)] = 1
            t[(r("1/4"), k)] = (6 + 4 * 6 ** (n - k - 1)) // 5
            t[(r("3/4"), k)] = (6 + 4 * 6 ** (n - k - 1)) // 5
        for k in range(n - 1):
            t[(SQRT2_PAIR, k)] = (6 ** (n - k - 1) - 1) // 5
    else:
        return None
    return {k: v for k, v in t.items() if v}


# ---------------------------------------------------------------------------
# an independent G_n for trace identities of P_n


def build_graph(d: dict, n: int) -> tuple[int, dict]:
    """(vertex count, {(u, v): multiplicity}) of G_n, by copy and glue."""
    v0 = d["boundary_size"]
    size = v0
    corners = list(range(v0))
    edges = {(i, j): 1 for i in range(v0) for j in range(i + 1, v0)}
    for _ in range(n):
        ids: dict[int, int] = {b: j for j, b in enumerate(d["boundary"])}
        nxt = v0
        new_edges: dict = {}
        copy_ids = []
        for cell in d["cell_maps"]:
            local = {}
            for slot, img in enumerate(cell):
                if img not in ids:
                    ids[img] = nxt
                    nxt += 1
                local[corners[slot]] = ids[img]
            for v in range(size):
                if v not in local:
                    local[v] = nxt
                    nxt += 1
            copy_ids.append(local)
        for local in copy_ids:
            for (u, v), mult in edges.items():
                a, b = sorted((local[u], local[v]))
                new_edges[(a, b)] = new_edges.get((a, b), 0) + mult
        size, edges = nxt, new_edges
        corners = list(range(v0))
    return size, edges


def trace_powers(d: dict, n: int) -> tuple[int, F]:
    """(tr P_n, tr P_n^2) of the probabilistic Laplacian P = I - D^-1 A."""
    size, edges = build_graph(d, n)
    deg = [0] * size
    for (u, v), mult in edges.items():
        deg[u] += mult
        deg[v] += mult
    tr2 = F(size) + sum(F(2 * mult * mult, deg[u] * deg[v]) for (u, v), mult in edges.items())
    return size, tr2


# ---------------------------------------------------------------------------
# entropy


def entropy_bounds(d: dict):
    """(lower, upper) at the current mpmath precision, or None when inapplicable."""
    import mpmath

    v0, v1, m = d["boundary_size"], d["v1_size"], d["cells"]
    mult: dict = {}
    for e in d["edges"]:
        key = tuple(sorted(e[:2]))
        mult[key] = mult.get(key, 0) + (e[2] if len(e) > 2 else 1)
    is_tree = all(k == 1 for k in mult.values()) and sum(mult.values()) == v1 - 1
    if v0 <= 2 or is_tree:
        return None
    ratio = F((m - 1) * v0 * (v0 - 1), v1 - v0)
    return mpmath.log(3) / 2, mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator)
