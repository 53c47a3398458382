"""Shared helpers: deterministic random graphs and rational strategies."""

import random
from fractions import Fraction
from math import lcm

from hypothesis import strategies as st

from fractal_trees import LevelGraph
from fractal_trees.kirchhoff import laplacian
from fractal_trees.structures import connected

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)

small_rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=6
)


def random_connected_graph(rng: random.Random, max_vertices: int = 10) -> LevelGraph:
    """Erdos-Renyi simple graph, resampled until connected."""
    while True:
        n = rng.randint(3, max_vertices)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.45
        ]
        g = LevelGraph.from_edges(n, edges)
        if edges and connected(n, g.edges):
            return g


def complete_graph(n: int) -> LevelGraph:
    return LevelGraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def cycle_graph(n: int) -> LevelGraph:
    return LevelGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> LevelGraph:
    return LevelGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def prob_laplacian(g) -> list[list[Fraction]]:
    """The probabilistic Laplacian P = D^-1 (D - A) as a Fraction matrix: a
    reference for `kirchhoff.scaled_prob_laplacian`, which builds delta P
    in integers."""
    zero = Fraction(0)  # one shared Fraction for the zero entries
    return [[Fraction(x, d) if x else zero for x in row] for row, d in zip(laplacian(g), g.degrees())]


def scaled(m) -> tuple[list[list[int]], int]:
    """(B, delta) with m = B / delta for rows of ints and Fractions, delta
    the lcm of the entries' denominators: a rational matrix in the integer
    form that `matrices.charpoly` and `matrices.solve_linear` take.  The
    rows may differ in length, so one call scales a system [a; rhs]."""
    delta = lcm(*(Fraction(x).denominator for row in m for x in row))
    return [[int(x * delta) for x in row] for row in m], delta


def gauss_jordan_q(a, rhs):
    """Solve a X = rhs by Gauss-Jordan elimination in Fractions: a reference
    independent of `matrices.solve_linear`.  `a` must be square and
    nonsingular; `rhs` has matching row count."""
    n = len(a)
    aug = [[Fraction(x) for x in (*a[i], *rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix in gauss_jordan_q")
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        inv = 1 / top[col]
        # the pivot row is zero left of col, and column col is never read
        # again (only the right-hand block is returned)
        cols = [j for j in range(col + 1, len(top)) if top[j]]
        for j in cols:
            top[j] *= inv
        for r in range(n):
            row = aug[r]
            f = row[col]
            if r != col and f:
                for j in cols:
                    row[j] -= f * top[j]
    return [row[n:] for row in aug]
