"""Ground-truth spanning-tree counting via the Matrix-Tree theorem.

`tau_bruteforce` evaluates a cofactor of the integer graph Laplacian by
sparse elimination on integer rows (each with a rational scale kept as a
pair of ints) from the highest vertex id down: exact in any order, and
sparse in the order `build_level` numbers a level graph.  The
probabilistic-Laplacian variant (tau = prod d_j / sum d_j times the
product of nonzero eigenvalues of P = D^-1 (D - A)) is verified against
it exactly; the eigenvalue product is read off the exact characteristic
polynomial of delta P (`scaled_prob_laplacian`, the integer builder that
`decimation.derive` reads too) by `matrices.charpoly`, the routine that
gives `derive` its chi_D, never from floating point.  No scan for
connectivity runs first: each computation refuses a disconnected graph
where it meets the fact, the elimination at a zero pivot and the
eigenvalue product at a second zero eigenvalue of P.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .levels import LevelGraph
from .matrices import charpoly
from .polys import Polynomial

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
    gives the same value) and the vertices eliminated from the highest id
    down to 1.  Any order is exact with no pivoting: every principal minor
    of a connected graph's reduced Laplacian is positive, so no pivot is
    0.  A component without vertex 0 has a singular Laplacian of its own,
    so its last vertex, its lowest id, meets a zero pivot (a zero the
    sparse row does not hold), and the graph is refused as disconnected
    there; no connectivity scan runs first.  The order decides only the
    fill.  `build_level` gives each copy's interior a block of ids after
    its corners, level by level, so the elimination finishes one cell
    before it starts the next and the fill stays on that cell's corners,
    as nested dissection keeps it on separators; permuted ids stay exact
    but fill far more.

    Row i holds the integers snum[i]/sden[i] times its row of the current
    Schur complement, a positive rational scale kept as a pair of ints.
    Eliminating v updates each neighbour row in place: with
    c = gcd(pivot, a_iv) it becomes (pivot/c) * r_i - (a_iv/c) * r_v, so
    no entry is ever a fraction.  Only when pivot/c is not 1 has the row
    grown by a factor; then it is divided by the gcd of its entries and
    its scale is updated.  The determinant is the product of the true
    pivots pivot * sden[v] / snum[v].
    """
    n = g.vertex_count
    if n < 2:
        raise ValueError("need at least 2 vertices")
    rows = [{v: 0} for v in range(n)]  # row 0 is deleted, never read
    for u, v, m in g.edges:
        for a, b in ((u, v), (v, u)):
            if a != 0:
                row = rows[a]
                row[a] += m
                if b != 0:
                    row[b] = row.get(b, 0) - m
    snum, sden = [1] * n, [1] * n
    num = den = 1
    for v in range(n - 1, 0, -1):
        row = rows.pop()  # rows[v]: the rows above it are gone
        pivot = row.pop(v, 0)  # a zero diagonal is not held
        if pivot == 0:
            raise ValueError("disconnected")
        num *= pivot * sden.pop()
        den *= snum.pop()
        for i in row:
            ri = rows[i]
            a_iv = ri.pop(v)  # not row[i]: the rows carry different scales
            c = gcd(pivot, a_iv)
            p, a = pivot // c, a_iv // c
            if p != 1:
                for j in ri:
                    ri[j] *= p
            for j, a_vj in row.items():
                x = ri.get(j, 0) - a * a_vj
                if x:
                    ri[j] = x
                else:
                    ri.pop(j, None)
            if p != 1:
                k = gcd(*ri.values())
                if k > 1:
                    for j in ri:
                        ri[j] //= k
                s, t = snum[i] * p, sden[i] * k
                h = gcd(s, t)
                snum[i], sden[i] = s // h, t // h
    det, rem = divmod(num, den)
    if rem or det < 1:
        raise AssertionError("spanning tree count must be a positive integer")
    return det


def scaled_prob_laplacian(g) -> tuple[list[list[int]], int]:
    """(B, delta): B = delta P in integers, delta the lcm of the nonzero
    degrees, is each Laplacian row scaled by delta / d_v (zero for an
    isolated vertex, as in L and P), with no Fraction formed."""
    lap = laplacian(g)
    degs = [row[v] for v, row in enumerate(lap)]
    delta = lcm(*(d for d in degs if d))
    for row, d in zip(lap, degs):
        if d and d != delta:
            s = delta // d
            row[:] = [x * s for x in row]
    return lap, delta


def prob_laplacian_charpoly(g) -> Polynomial:
    """det(P - xI) for the probabilistic Laplacian P = D^-1 (D - A): the one
    `matrices.charpoly` of the integer pair (delta P, delta)."""
    return charpoly(*scaled_prob_laplacian(g))


def det_star_P(g, chi: Polynomial | None = None) -> Fraction:
    """Product of the nonzero eigenvalues of P, exact.

    det(P - xI) = prod (lambda_i - x); with a single zero eigenvalue the
    coefficient of x^1 is minus the product of the nonzero ones.  Each
    component (an isolated vertex too) adds one zero eigenvalue, so a
    disconnected graph is refused where that coefficient is 0; no
    connectivity scan runs first.  The result is asserted positive (true
    for connected graphs).  `chi` is `prob_laplacian_charpoly(g)` when the
    caller already has it.
    """
    if g.vertex_count < 2:
        raise ValueError("need at least 2 vertices")
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
    star = det_star_P(g, chi)  # refuses a disconnected graph, an edgeless one too
    degs = g.degrees()
    prod_d = 1
    for d in degs:
        prod_d *= d
    rhs = Q(prod_d, sum(degs)) * star
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
