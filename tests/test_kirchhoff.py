import inspect
import random
import sys
from collections import Counter
from fractions import Fraction as F
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph, cycle_graph, path_graph, prob_laplacian, random_connected_graph, scaled,
)
from fractal_trees import (
    BUILTIN_NAMES,
    LevelGraph,
    build_level,
    builtin,
    det_star_P,
    tau,
    tau_bruteforce,
    verify_matrix_tree,
    wedge,
    wedge_check,
)
from fractal_trees.kirchhoff import laplacian, prob_laplacian_charpoly, scaled_prob_laplacian
from fractal_trees.levels import vertex_count_formula
from fractal_trees.matrices import bareiss_det_int, charpoly
from fractal_trees.polys import Polynomial
from fractal_trees.structures import connected, load_json
from test_generalization import gasket

SG3 = Path(__file__).resolve().parents[1] / "perfbench" / "structures" / "sg3.json"


def tau_fraction(g) -> int:
    """Reference: the Laplacian cofactor by sparse minimum-degree
    elimination in Fractions, each pivot divided out of every update."""
    n = g.vertex_count
    rows = {v: {v: F(0)} for v in range(1, n)}
    for u, v, m in g.edges:
        for a, b in ((u, v), (v, u)):
            if a != 0:
                row = rows[a]
                row[a] += m
                if b != 0:
                    row[b] = row.get(b, 0) - m
    det = F(1)
    while rows:
        v = min(rows, key=lambda w: len(rows[w]))
        row = rows.pop(v)
        pivot = row.pop(v)
        det *= pivot
        for i, a_iv in row.items():
            ri = rows[i]
            del ri[v]
            f = a_iv / pivot
            for j, a_vj in row.items():
                x = ri.get(j, 0) - f * a_vj
                if x:
                    ri[j] = x
                else:
                    ri.pop(j, None)
    assert det.denominator == 1
    return int(det)


def test_k3():
    assert tau_bruteforce(complete_graph(3)) == 3


def test_four_cycle():
    assert tau_bruteforce(cycle_graph(4)) == 4


def test_sierpinski_g1():
    assert tau_bruteforce(build_level(builtin("sierpinski"), 1)) == 54


def test_prob_laplacian_entries_are_fractions():
    # the zeros share one Q(0) but stay Fractions, like every other entry
    g = build_level(builtin("hexagasket"), 1)
    p = prob_laplacian(g)
    assert all(type(x) is F for row in p for x in row)
    assert p == [[F(x, d) for x in row] for row, d in zip(laplacian(g), g.degrees())]


def test_cayley_on_complete_graphs():
    for n in range(2, 8):
        assert tau_bruteforce(complete_graph(n)) == n ** (n - 2)


def test_trees_have_one_spanning_tree():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 12)
        edges = [(rng.randint(0, i - 1), i) for i in range(1, n)]
        assert tau_bruteforce(LevelGraph.from_edges(n, edges)) == 1


def test_multigraph_counts_parallel_edges():
    # doubled single edge: two spanning trees
    g = LevelGraph.from_edges(2, [(0, 1, 2)])
    assert tau_bruteforce(g) == 2


def test_disconnected_rejected():
    g = LevelGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="disconnected"):
        tau_bruteforce(g)


def test_loop_rejected():
    with pytest.raises(ValueError, match="loop"):
        LevelGraph.from_edges(2, [(0, 0)])
    # a graph built past `from_edges` keeps its loop until the Laplacian refuses it
    with pytest.raises(ValueError, match="^loop edge$"):
        laplacian(LevelGraph(2, ((0, 1, 1), (1, 1, 1))))


def test_laplacian_rows_sum_to_zero():
    g = build_level(builtin("hexagasket"), 1)
    lap = laplacian(g)
    assert all(sum(row) == 0 for row in lap)
    assert all(lap[i][j] == lap[j][i] for i in range(len(lap)) for j in range(len(lap)))


def test_all_cofactors_equal():
    rng = random.Random(11)
    for _ in range(10):
        g = random_connected_graph(rng, 8)
        lap = laplacian(g)
        n = g.vertex_count
        value = tau_bruteforce(g)
        for i in range(n):
            # the dense Bareiss determinant is an independent reference
            minor = [[lap[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
            assert bareiss_det_int(minor) == value


def test_integer_elimination_matches_the_fraction_reference():
    data = Path(__file__).parent / "data"
    structures = [builtin(name) for name in BUILTIN_NAMES]
    structures += [gasket(2, 3), load_json(str(data / "sg_2_4.json"))]
    for s in structures:
        n = 0
        while vertex_count_formula(s, n) <= 400:
            g = build_level(s, n)
            value = tau_bruteforce(g)
            assert type(value) is int
            assert value == tau_fraction(g), (s.name, n)
            n += 1


def random_connected_multigraph(rng: random.Random, max_vertices: int) -> LevelGraph:
    """A random spanning tree plus random extra edges, multiplicities 1-3."""
    n = rng.randint(2, max_vertices)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    pairs |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2 * n))}
    return LevelGraph.from_edges(n, [(u, v, rng.randint(1, 3)) for u, v in sorted(pairs)])


def test_random_multigraphs_against_a_random_cofactor():
    rng = random.Random(20261018)
    for _ in range(40):
        g = random_connected_multigraph(rng, 25)
        lap = laplacian(g)
        n = g.vertex_count
        i = rng.randrange(n)
        minor = [[lap[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
        assert tau_bruteforce(g) == bareiss_det_int(minor), g.edges


def test_refusals_keep_their_type_and_message():
    with pytest.raises(ValueError, match="need at least 2 vertices"):
        tau_bruteforce(LevelGraph.from_edges(1, []))
    # stand-ins no level graph can be: a negative and a half edge weight
    for m in (-1, F(1, 2)):
        g = SimpleNamespace(vertex_count=2, edges=((0, 1, m),))
        assert connected(2, g.edges)
        with pytest.raises(AssertionError, match="spanning tree count must be a positive integer"):
            tau_bruteforce(g)


def test_relabeling_invariance():
    rng = random.Random(13)
    for _ in range(10):
        g = random_connected_graph(rng, 9)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        h = LevelGraph.from_edges(
            g.vertex_count, [(perm[u], perm[v], m) for u, v, m in g.edges]
        )
        assert tau_bruteforce(g) == tau_bruteforce(h)


def _minor(g, i: int) -> list[list[int]]:
    lap = laplacian(g)
    return [[x for c, x in enumerate(row) if c != i] for r, row in enumerate(lap) if r != i]


def traced_tau(g) -> tuple[int, int, int]:
    """tau_bruteforce(g), its number of row updates and how many of them
    scaled the row (pivot/c != 1), counted from the lines that ran."""
    lines, start = inspect.getsourcelines(tau_bruteforce)

    def line_of(text: str) -> int:
        (i,) = [i for i, line in enumerate(lines) if line.strip() == text]
        return start + i

    update, scaled = line_of("c = gcd(pivot, a_iv)"), line_of("s, t = snum[i] * p, sden[i] * k")
    code, hits = tau_bruteforce.__code__, Counter()

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_lineno] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        value = tau_bruteforce(g)
    finally:
        sys.settrace(previous)
    return value, hits[update], hits[scaled]


def test_in_place_updates_against_bareiss_on_random_multigraphs():
    # multiplicities up to 12 give pivots that do not divide every a_iv, so
    # the examples take both the unscaled and the scaled row update
    updates = scaled = 0

    @settings(max_examples=60, deadline=None)
    @given(connected_multigraphs(max_vertices=30, max_multiplicity=12), st.data())
    def check(g, data):
        nonlocal updates, scaled
        value, u, s = traced_tau(g)
        updates, scaled = updates + u, scaled + s
        i = data.draw(st.integers(0, g.vertex_count - 1), label="deleted row")
        assert value == bareiss_det_int(_minor(g, i))

    check()
    assert 0 < scaled < updates


@pytest.mark.parametrize("name", ["hexagasket", "sg3"])
def test_relabeled_level_graphs_keep_their_counts(name):
    # the elimination runs from the highest id down, so a relabeling
    # changes the order, and the fill, but not the count
    s = load_json(str(SG3)) if name == "sg3" else builtin(name)
    g = build_level(s, 2)
    expected = tau(s, 2).value()
    assert tau_bruteforce(g) == expected

    @settings(max_examples=20, deadline=None)
    @given(st.permutations(range(g.vertex_count)))
    def check(perm):
        h = LevelGraph.from_edges(g.vertex_count, [(perm[u], perm[v], m) for u, v, m in g.edges])
        assert tau_bruteforce(h) == expected

    check()


@pytest.mark.parametrize(
    ("name", "n"),
    [("sierpinski", 4), ("sierpinski", 5), ("sierpinski", 6), ("sierpinski", 8),
     ("nonpcf_sg", 4), ("diamond", 4), ("diamond", 5), ("diamond", 7), ("hexagasket", 5),
     ("sg3", 4), ("sg3", 5)],
)
def test_engine_agrees_with_kirchhoff_beyond_the_verify_cap(name, n):
    # `verify` runs the oracle up to 400 vertices; these reach 13,998, where
    # build order keeps the elimination's fill on each cell's corners
    s = load_json(str(SG3)) if name == "sg3" else builtin(name)
    g = build_level(s, n)
    assert g.vertex_count == vertex_count_formula(s, n)
    assert tau_bruteforce(g) == tau(s, n).value()


def test_det_star_k3():
    assert det_star_P(complete_graph(3)) == F(9, 4)


def test_det_star_four_cycle():
    assert det_star_P(cycle_graph(4)) == 2


def test_det_star_single_edge():
    assert det_star_P(path_graph(2)) == 2


def test_matrix_tree_hand_examples():
    ok, tau, rhs = verify_matrix_tree(complete_graph(3))
    assert ok and tau == 3 and rhs == F(8, 6) * F(9, 4)
    ok, tau, rhs = verify_matrix_tree(cycle_graph(4))
    assert ok and tau == 4 and rhs == F(16, 8) * 2


def test_matrix_tree_on_100_random_graphs():
    rng = random.Random(20240817)
    for _ in range(100):
        g = random_connected_graph(rng, 10)
        ok, tau, rhs = verify_matrix_tree(g)
        assert ok, (g, tau, rhs)


def test_matrix_tree_on_builtin_levels():
    for name in ("sierpinski", "nonpcf_sg", "diamond", "hexagasket", "interval", "tree3"):
        s = builtin(name)
        for n in (1, 2):
            ok, tau, rhs = verify_matrix_tree(build_level(s, n))
            assert ok, (name, n)


@st.composite
def connected_multigraphs(draw, max_vertices=9, max_multiplicity=4):
    """A random spanning tree plus random extra edges, multiplicities 1 to
    `max_multiplicity`."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    pairs = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    pairs |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    return LevelGraph.from_edges(
        n, [(u, v, draw(st.integers(min_value=1, max_value=max_multiplicity)))
            for u, v in sorted(pairs)]
    )


@settings(max_examples=80, deadline=None)
@given(connected_multigraphs())
def test_integer_charpoly_matches_the_fraction_matrix(g):
    # delta P built from the integer Laplacian, never from Fractions
    assert prob_laplacian_charpoly(g) == charpoly(*scaled(prob_laplacian(g)))


@pytest.mark.parametrize("name", list(BUILTIN_NAMES) + ["sg3"])
def test_integer_charpoly_on_builtin_levels(name):
    s = load_json(str(SG3)) if name == "sg3" else builtin(name)
    for n in (1, 2):
        g = build_level(s, n)
        assert prob_laplacian_charpoly(g) == charpoly(*scaled(prob_laplacian(g))), (name, n)


@pytest.mark.parametrize("name", list(BUILTIN_NAMES) + ["sg3"])
def test_scaled_prob_laplacian_is_delta_times_p(name):
    s = load_json(str(SG3)) if name == "sg3" else builtin(name)
    for n in (1, 2):
        g = build_level(s, n)
        b, delta = scaled_prob_laplacian(g)
        assert delta == lcm(*(d for d in g.degrees() if d)), (name, n)
        assert [[F(x, delta) for x in row] for row in b] == prob_laplacian(g), (name, n)


def test_integer_charpoly_with_an_isolated_vertex():
    # vertex 2 has degree 0: delta is the lcm of the nonzero degrees only
    g = LevelGraph.from_edges(3, [(0, 1, 2)])
    chi = prob_laplacian_charpoly(g)
    # P has eigenvalues 0, 0 and 2: det(P - xI) = x^2 (2 - x)
    assert chi == charpoly(*scaled(prob_laplacian(g))) == Polynomial([0, 0, 2, -1])
    g = LevelGraph.from_edges(5, [(0, 1, 3), (1, 2), (2, 0, 2), (3, 1)])
    assert prob_laplacian_charpoly(g) == charpoly(*scaled(prob_laplacian(g)))
    with pytest.raises(ValueError, match="disconnected"):
        det_star_P(g)


def test_two_components_stay_refused():
    g = LevelGraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4, 2)])
    chi = prob_laplacian_charpoly(g)
    assert chi == charpoly(*scaled(prob_laplacian(g)))
    # one zero eigenvalue per component: no x^0 and no x^1 term
    assert chi.numerators[:2] == (0, 0)
    for refused in (
        lambda: det_star_P(g),
        lambda: det_star_P(g, chi),
        lambda: verify_matrix_tree(g),
        lambda: verify_matrix_tree(g, tau=1, chi=chi),
    ):
        with pytest.raises(ValueError, match="disconnected"):
            refused()


# No connectivity scan runs in the oracles: the elimination refuses at the
# zero pivot that ends a component without vertex 0, and the eigenvalue
# product at the second zero eigenvalue of P.
DISCONNECTED = {
    "isolated vertex 3": LevelGraph.from_edges(4, [(0, 1), (1, 2), (2, 0)]),
    "isolated vertex 0": LevelGraph.from_edges(4, [(1, 2), (2, 3, 2), (3, 1)]),
    "isolated vertex 0 of two": LevelGraph.from_edges(2, []),
    "a multi-edge beside a triangle": LevelGraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4, 2)]),
    "a multi-edge holding vertex 0": LevelGraph.from_edges(5, [(0, 1, 3), (2, 3), (3, 4), (4, 2)]),
    "two multigraph components": LevelGraph.from_edges(
        6, [(0, 4, 2), (4, 5), (5, 0), (1, 2, 3), (2, 3), (3, 1, 2)]
    ),
    # the elimination runs from the highest id down: the component without
    # vertex 0 meets its zero pivot at its lowest id, last or first
    "a component without vertex 0 on the lowest ids": LevelGraph.from_edges(
        7, [(1, 2, 2), (2, 3, 3), (1, 3), (0, 4, 2), (4, 5), (5, 6, 3), (0, 6), (4, 6)]
    ),
    "a component without vertex 0 on the highest ids": LevelGraph.from_edges(
        7, [(0, 1, 2), (1, 2), (2, 3, 3), (0, 3), (0, 2), (4, 5, 2), (5, 6), (4, 6, 3)]
    ),
}


@pytest.mark.parametrize("g", DISCONNECTED.values(), ids=DISCONNECTED)
def test_disconnected_graphs_are_refused_where_the_oracles_meet_it(g):
    assert not connected(g.vertex_count, g.edges)
    chi = prob_laplacian_charpoly(g)
    assert chi == charpoly(*scaled(prob_laplacian(g)))
    for refused in (
        lambda: tau_bruteforce(g),
        lambda: det_star_P(g),
        lambda: det_star_P(g, chi),
        lambda: verify_matrix_tree(g),
        lambda: verify_matrix_tree(g, chi=chi),
        lambda: verify_matrix_tree(g, tau=1),
        lambda: verify_matrix_tree(g, tau=1, chi=chi),
    ):
        with pytest.raises(ValueError, match="^disconnected$"):
            refused()


def test_connected_graphs_pass_with_and_without_tau_and_chi():
    g = build_level(builtin("sierpinski"), 2)
    value, chi = tau_bruteforce(g), prob_laplacian_charpoly(g)
    assert value == 524880
    for kwargs in ({}, {"tau": value}, {"chi": chi}, {"tau": value, "chi": chi}):
        assert verify_matrix_tree(g, **kwargs) == (True, value, value)


def multigraph_with_maybe_a_component(rng: random.Random) -> LevelGraph:
    """A connected multigraph (`random_connected_graph` with multiplicities
    1 to 3); two times in three a second component beside it, an isolated
    vertex or another such graph; vertex ids shuffled, so vertex 0 may sit
    in either component."""
    parts = [random_connected_graph(rng, 8)]
    kind = rng.randrange(3)
    if kind == 1:
        parts.append(LevelGraph.from_edges(1, []))
    elif kind == 2:
        parts.append(random_connected_graph(rng, 6))
    n = sum(part.vertex_count for part in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    edges, offset = [], 0
    for part in parts:
        edges += [(perm[u + offset], perm[v + offset], rng.randint(1, 3)) for u, v, _ in part.edges]
        offset += part.vertex_count
    return LevelGraph.from_edges(n, edges)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_elimination_refuses_exactly_the_disconnected_multigraphs(rng):
    g = multigraph_with_maybe_a_component(rng)
    if connected(g.vertex_count, g.edges):
        # the dense Bareiss cofactor is an independent reference
        assert tau_bruteforce(g) == bareiss_det_int(_minor(g, 0))
        assert verify_matrix_tree(g)[0]
    else:
        with pytest.raises(ValueError, match="^disconnected$"):
            tau_bruteforce(g)
        with pytest.raises(ValueError, match="^disconnected$"):
            det_star_P(g)


def test_wedge_of_triangles():
    ok, lhs, rhs = wedge_check(complete_graph(3), complete_graph(3), 0, 0)
    assert ok and lhs == 9


def test_wedge_triangle_cycle():
    ok, lhs, rhs = wedge_check(complete_graph(3), cycle_graph(4), 1, 2)
    assert ok and lhs == 12


def test_wedge_random_pairs():
    rng = random.Random(99)
    for _ in range(20):
        g1 = random_connected_graph(rng, 7)
        g2 = random_connected_graph(rng, 7)
        x1 = rng.randrange(g1.vertex_count)
        x2 = rng.randrange(g2.vertex_count)
        ok, lhs, rhs = wedge_check(g1, g2, x1, x2)
        assert ok


def test_wedge_bad_vertex():
    with pytest.raises(ValueError):
        wedge(complete_graph(3), complete_graph(3), 5, 0)


def test_tree3_level1_is_wedge_of_triangles():
    g = build_level(builtin("tree3"), 1)
    assert tau_bruteforce(g) == 27
