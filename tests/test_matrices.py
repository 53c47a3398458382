import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_trees.matrices import bareiss_det_int, charpoly, det_gauss, solve_linear
from fractal_trees.polys import Polynomial


def test_charpoly_identity_2x2():
    chi = charpoly([[F(1), F(0)], [F(0), F(1)]])
    # (1 - x)^2
    assert chi == Polynomial([1, -2, 1])


def test_charpoly_p0_triangle():
    # probabilistic Laplacian of K3: diag 1, off-diag -1/2
    m = [[F(1) if i == j else F(-1, 2) for j in range(3)] for i in range(3)]
    chi = charpoly(m)
    # -x (3/2 - x)^2 = -9/4 x + 3 x^2 - x^3
    assert chi == Polynomial([0, F(-9, 4), 3, -1])


def test_charpoly_four_cycle_roots():
    # probabilistic Laplacian of C4 has eigenvalues {0, 1, 1, 2}
    m = [[F(0)] * 4 for _ in range(4)]
    for i in range(4):
        m[i][i] = F(1)
        m[i][(i + 1) % 4] = F(-1, 2)
        m[i][(i - 1) % 4] = F(-1, 2)
    chi = charpoly(m)
    expected = Polynomial([1])
    for r in (0, 1, 1, 2):
        expected = expected * Polynomial([F(r), -1])
    assert chi == expected


def test_charpoly_non_square_raises():
    with pytest.raises(ValueError):
        charpoly([[F(1), F(2)]])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=10 ** 6),
    st.sampled_from([1.0, 0.2]),
)
def test_charpoly_matches_eliminated_determinant(dim, seed, density):
    # sparse draws (most entries zero) exercise the Hessenberg row swap and
    # the skip over an already zero subdiagonal
    rng = random.Random(seed)
    m = [
        [
            F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else F(0)
            for _ in range(dim)
        ]
        for _ in range(dim)
    ]
    chi = charpoly(m)
    for x in (F(0), F(1), F(-1, 2), F(7, 3)):
        shifted = [
            [m[i][j] - (x if i == j else 0) for j in range(dim)] for i in range(dim)
        ]
        assert chi(x) == det_gauss(shifted)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
def test_bareiss_matches_gauss(dim, seed):
    rng = random.Random(seed)
    m = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
    assert bareiss_det_int(m) == det_gauss([[F(e) for e in row] for row in m])


def test_solve_linear_rational():
    a = [[F(2), F(1)], [F(1), F(3)]]
    rhs = [[F(1)], [F(2)]]
    x = solve_linear(a, rhs)
    assert x == [[F(1, 5)], [F(3, 5)]]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=10 ** 6),
    st.sampled_from([1.0, 0.3]),
)
def test_solve_linear_solves(dim, seed, density):
    # sparse draws with a permuted nonzero diagonal need row swaps and skip
    # zero entries of the pivot row
    rng = random.Random(seed)

    def entry():
        return F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else F(0)

    a = [[entry() for _ in range(dim)] for _ in range(dim)]
    perm = rng.sample(range(dim), dim)
    for i in range(dim):
        a[i][perm[i]] = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    if det_gauss(a) == 0:
        return
    rhs = [[entry() for _ in range(3)] for _ in range(dim)]
    x = solve_linear(a, rhs)
    assert [[sum(a[i][t] * x[t][j] for t in range(dim)) for j in range(3)]
            for i in range(dim)] == rhs


def test_solve_linear_singular_raises():
    with pytest.raises(ValueError):
        solve_linear([[F(1), F(1)], [F(2), F(2)]], [[F(1)], [F(1)]])
