"""Shared helpers: deterministic random graphs and rational strategies."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from fractal_trees import LevelGraph
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
