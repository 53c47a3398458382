"""Ground-truth spanning-tree counting via the Matrix-Tree theorem.

`tau_bruteforce` evaluates a cofactor of the integer graph Laplacian by
sparse elimination on integer rows (each with a rational scale kept as a
pair of ints), so it is exact for any graph this package can build.  The
probabilistic-Laplacian variant (tau = prod d_j / sum d_j times the
product of nonzero eigenvalues of P = D^-1 (D - A)) is verified against
it exactly; the eigenvalue product is read off the exact
characteristic polynomial of P, never from floating point.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .levels import LevelGraph
from .matrices import charpoly
from .polys import Polynomial
from .structures import connected

Q = Fraction


def laplacian(g) -> list[list[int]]:
    """Integer Laplacian D - A; rows sum to zero."""
    n = g.vertex_count
    lap = [[0] * n for _ in range(n)]
    for u, v, m in g.edges:
        if u == v:
            raise ValueError("loop edge")
        lap[u][v] -= m
        lap[v][u] -= m
        lap[u][u] += m
        lap[v][v] += m
    return lap


def tau_bruteforce(g) -> int:
    """Number of spanning trees: cofactor of the Laplacian, exactly.

    Row and column 0 are deleted (by the matrix-tree theorem any choice
    gives the same value).  The minor of a connected graph is positive
    definite, so symmetric elimination never meets a zero pivot and needs
    no pivoting.  The rows are kept sparse and hold integers: row i holds
    snum_i/sden_i times its row of the current Schur complement, a positive
    rational scale kept as a pair of ints.  Eliminating v replaces each
    neighbour row by pivot * r_i - a_iv * r_v and divides it by the gcd of
    its entries, so no entry is ever a fraction.  The determinant is the
    product of the true pivots pivot * sden_v / snum_v.  Vertices are taken
    in minimum-degree order from a lazy heap of (row length, vertex), which
    keeps the fill small on the level graphs.
    """
    n = g.vertex_count
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if not connected(n, g.edges):
        raise ValueError("disconnected")
    rows: dict[int, dict[int, int]] = {v: {v: 0} for v in range(1, n)}
    for u, v, m in g.edges:
        for a, b in ((u, v), (v, u)):
            if a != 0:
                row = rows[a]
                row[a] += m
                if b != 0:
                    row[b] = row.get(b, 0) - m
    snum, sden = dict.fromkeys(rows, 1), dict.fromkeys(rows, 1)
    heap = [(len(row), v) for v, row in rows.items()]
    heapify(heap)
    num = den = 1
    while heap:
        length, v = heappop(heap)
        row = rows.get(v)
        if row is None or len(row) != length:
            continue  # eliminated, or pushed again with its new length
        del rows[v]
        pivot = row.pop(v)
        num *= pivot * sden[v]
        den *= snum[v]
        for i in row:
            ri = rows[i]
            a_iv = ri.pop(v)  # not row[i]: the rows carry different scales
            ri = {j: pivot * x for j, x in ri.items()}
            for j, a_vj in row.items():
                x = ri.get(j, 0) - a_iv * a_vj
                if x:
                    ri[j] = x
                else:
                    ri.pop(j, None)
            k = gcd(*ri.values())
            if k > 1:
                ri = {j: x // k for j, x in ri.items()}
            rows[i] = ri
            s, t = snum[i] * pivot, sden[i] * k
            h = gcd(s, t)
            snum[i], sden[i] = s // h, t // h
            heappush(heap, (len(ri), i))
    det, rem = divmod(num, den)
    if rem or det < 1:
        raise AssertionError("spanning tree count must be a positive integer")
    return det


def prob_laplacian(g) -> list[list[Fraction]]:
    """The probabilistic Laplacian P = D^-1 (D - A) as a Fraction matrix."""
    zero = Q(0)  # one shared Fraction for the zero entries
    return [[Q(x, d) if x else zero for x in row] for row, d in zip(laplacian(g), g.degrees())]


def prob_laplacian_charpoly(g) -> Polynomial:
    """det(P - xI) for the probabilistic Laplacian P = D^-1 (D - A)."""
    return charpoly(prob_laplacian(g))


def det_star_P(g, chi: Polynomial | None = None) -> Fraction:
    """Product of the nonzero eigenvalues of P, exact.

    det(P - xI) = prod (lambda_i - x); with a single zero eigenvalue the
    coefficient of x^1 is minus the product of the nonzero ones.  The
    result is asserted positive (true for connected graphs).  `chi` is
    `prob_laplacian_charpoly(g)` when the caller already has it.
    """
    if g.vertex_count < 2:
        raise ValueError("need at least 2 vertices")
    if not connected(g.vertex_count, g.edges):
        raise ValueError("disconnected")
    if chi is None:
        chi = prob_laplacian_charpoly(g)
    if chi.constant_term() != 0:
        raise AssertionError("probabilistic Laplacian lost its zero eigenvalue")
    c1 = Q(chi.numerators[1], chi.denominator) if chi.degree >= 1 else Q(0)
    if c1 == 0:
        raise ValueError("disconnected")  # zero eigenvalue multiplicity > 1
    value = -c1
    if value < 0:
        raise AssertionError("nonzero eigenvalue product must be positive")
    return value


def verify_matrix_tree(
    g, tau: int | None = None, chi: Polynomial | None = None
) -> tuple[bool, int, Fraction]:
    """Check tau = (prod d_j / sum d_j) * det_star(P) exactly.

    Returns (equal, tau, right-hand side).  `tau` and `chi` are
    `tau_bruteforce(g)` and `prob_laplacian_charpoly(g)` when the caller
    already has them.
    """
    if tau is None:
        tau = tau_bruteforce(g)
    degs = g.degrees()
    prod_d = 1
    for d in degs:
        prod_d *= d
    rhs = Q(prod_d, sum(degs)) * det_star_P(g, chi)
    return rhs == tau, tau, rhs


def wedge(g1, g2, x1: int, x2: int) -> LevelGraph:
    """Identify vertex x1 of g1 with vertex x2 of g2."""
    n1, n2 = g1.vertex_count, g2.vertex_count
    if not (0 <= x1 < n1) or not (0 <= x2 < n2):
        raise ValueError("wedge vertex id out of range")

    def relabel(v: int) -> int:
        if v == x2:
            return x1
        return n1 + v - (1 if v > x2 else 0)

    edges = list(g1.edges) + [
        (relabel(u), relabel(v), m) for u, v, m in g2.edges
    ]
    return LevelGraph.from_edges(n1 + n2 - 1, edges)


def wedge_check(g1, g2, x1: int, x2: int) -> tuple[bool, int, int]:
    """tau(g1 v g2) = tau(g1) * tau(g2); returns (equal, lhs, rhs)."""
    lhs = tau_bruteforce(wedge(g1, g2, x1, x2))
    rhs = tau_bruteforce(g1) * tau_bruteforce(g2)
    return lhs == rhs, lhs, rhs
