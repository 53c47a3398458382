import random
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_trees import matrices
from fractal_trees.kirchhoff import prob_laplacian_charpoly
from fractal_trees.levels import build_level
from fractal_trees.matrices import bareiss_det_int, charpoly, solve_linear
from fractal_trees.polys import Polynomial
from fractal_trees.structures import BUILTIN_NAMES, builtin, load_json
from conftest import gauss_jordan_q, prob_laplacian, scaled

ROOT = Path(__file__).resolve().parents[1]


def det_gauss(a):
    """Determinant of a Fraction matrix by exact Gaussian elimination."""
    n = len(a)
    m = [list(row) for row in a]
    det = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [er - f * ec for er, ec in zip(m[r], m[col])]
    return det


def hessenberg_charpoly_q(a):
    """det(M - xI) by Hessenberg reduction and recurrence in Fractions."""
    n = len(a)
    h = [[F(e) for e in row] for row in a]
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k]), None)
        if piv is None:
            continue  # column k already has a zero subdiagonal
        if piv != k + 1:
            h[k + 1], h[piv] = h[piv], h[k + 1]
            for row in h:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        top = h[k + 1]
        # the column steps below change row k+1 only in column k+1
        cols = [j for j in range(k + 2, n) if top[j]]
        for i in range(k + 2, n):
            hi = h[i]
            if not hi[k]:
                continue
            u = hi[k] / top[k]
            # row i -= u * row k+1, then column k+1 += u * column i
            hi[k] = F(0)
            if top[k + 1]:
                hi[k + 1] -= u * top[k + 1]
            for j in cols:
                hi[j] -= u * top[j]
            for row in h:
                if row[i]:
                    row[k + 1] += u * row[i]
    # p[m] = det(xI - H_m) for the leading m x m block, lowest degree first
    p = [[F(1)]]
    for m in range(1, n + 1):
        col = m - 1
        nxt = [F(0)] + p[m - 1]
        c = h[col][col]
        if c:
            for j, v in enumerate(p[m - 1]):
                nxt[j] -= c * v
        sub = F(1)
        for i in range(m - 1, 0, -1):
            sub *= h[i][i - 1]
            if not sub:
                break
            coef = h[i - 1][col] * sub
            if coef:
                for j, v in enumerate(p[i - 1]):
                    nxt[j] -= coef * v
        p.append(nxt)
    chi = Polynomial(p[n])
    return -chi if n % 2 else chi


def test_charpoly_identity_2x2():
    chi = charpoly(*scaled([[F(1), F(0)], [F(0), F(1)]]))
    # (1 - x)^2
    assert chi == Polynomial([1, -2, 1])


def test_charpoly_p0_triangle():
    # probabilistic Laplacian of K3: diag 1, off-diag -1/2
    m = [[F(1) if i == j else F(-1, 2) for j in range(3)] for i in range(3)]
    chi = charpoly(*scaled(m))
    # -x (3/2 - x)^2 = -9/4 x + 3 x^2 - x^3
    assert chi == Polynomial([0, F(-9, 4), 3, -1])


def test_charpoly_four_cycle_roots():
    # probabilistic Laplacian of C4 has eigenvalues {0, 1, 1, 2}
    m = [[F(0)] * 4 for _ in range(4)]
    for i in range(4):
        m[i][i] = F(1)
        m[i][(i + 1) % 4] = F(-1, 2)
        m[i][(i - 1) % 4] = F(-1, 2)
    chi = charpoly(*scaled(m))
    expected = Polynomial([1])
    for r in (0, 1, 1, 2):
        expected = expected * Polynomial([F(r), -1])
    assert chi == expected


def test_charpoly_non_square_raises():
    with pytest.raises(ValueError):
        charpoly([[1, 2]])


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
    chi = charpoly(*scaled(m))
    for x in (F(0), F(1), F(-1, 2), F(7, 3)):
        shifted = [
            [m[i][j] - (x if i == j else 0) for j in range(dim)] for i in range(dim)
        ]
        assert chi(x) == det_gauss(shifted)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10 ** 6),
    st.sampled_from([1.0, 0.3]),
    st.sampled_from([3, 10 ** 4, 10 ** 40]),
)
def test_charpoly_matches_fraction_hessenberg(dim, seed, density, height):
    # exact equality with the Fraction reference, ints and Fractions mixed,
    # from single-digit entries up to bounds past the smaller table primes
    rng = random.Random(seed)

    def entry():
        if rng.random() >= density:
            return 0
        num = rng.randint(-height, height)
        return num if rng.random() < 0.3 else F(num, rng.randint(1, height))

    m = [[entry() for _ in range(dim)] for _ in range(dim)]
    assert charpoly(*scaled(m)) == hessenberg_charpoly_q(m)


def _structure(name):
    return load_json(str(ROOT / name)) if name.endswith(".json") else builtin(name)


@pytest.mark.parametrize(
    "name", list(BUILTIN_NAMES) + ["perfbench/structures/sg3.json", "tests/data/sg_2_4.json"]
)
@pytest.mark.parametrize("n", [1, 2])
def test_charpoly_of_level_graphs_matches_fraction_hessenberg(name, n):
    p = prob_laplacian(build_level(_structure(name), n))
    assert charpoly(*scaled(p)) == hessenberg_charpoly_q(p)


def test_charpoly_empty_and_one_by_one():
    assert charpoly([]) == Polynomial([1])
    assert charpoly(*scaled([[F(3, 7)]])) == charpoly([[3]], 7) == Polynomial([F(3, 7), -1])
    assert charpoly([[0]]) == Polynomial([0, -1])


def test_charpoly_int_matrix():
    m = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    chi = charpoly(m)
    assert chi == hessenberg_charpoly_q(m)
    # tridiagonal Toeplitz: eigenvalues 2 - sqrt 2, 2, 2 + sqrt 2
    assert chi == Polynomial([2, -1]) * Polynomial([2, -4, 1])
    assert all(isinstance(c, F) for c in chi.coeffs)


def test_charpoly_large_denominator_lcm():
    # denominators 1009, 1013, 1019, 1021: lcm above 10^12
    m = [
        [F(1, 1009), F(-2, 1013), F(0), F(5, 1021)],
        [F(3, 1019), F(1), F(-1, 1009), F(0)],
        [F(0), F(7, 1021), F(2, 1013), F(-1, 1019)],
        [F(1, 1013), F(0), F(4, 1009), F(-3, 1021)],
    ]
    chi = charpoly(*scaled(m))
    assert chi == hessenberg_charpoly_q(m)
    for x in (F(0), F(1, 3), F(-5, 2)):
        assert chi(x) == det_gauss([[e - (x if i == j else 0) for j, e in enumerate(row)]
                                    for i, row in enumerate(m)])


def test_charpoly_huge_entries_use_a_large_table_prime(monkeypatch):
    rng = random.Random(2203)
    m = [[F(rng.getrandbits(3000) - (1 << 2999), rng.getrandbits(20) + 1)
          for _ in range(3)] for _ in range(3)]
    assert charpoly(*scaled(m)) == hessenberg_charpoly_q(m)
    # the bound is past every table prime up to the last 4096-bit one
    table = matrices._PRIMES
    last = next(i for i, (k, _) in enumerate(table) if k == 4096)
    monkeypatch.setattr(matrices, "_PRIMES", table[:last + 1])
    with pytest.raises(ValueError, match=f"past the largest table prime 2\\^4096 - {table[last][1]}$"):
        charpoly(*scaled(m))


def test_charpoly_bound_past_the_table_raises(monkeypatch):
    monkeypatch.setattr(matrices, "_PRIMES", ((64, 59), (96, 17)))
    assert charpoly([[1 << 80]]) == Polynomial([1 << 80, -1])
    with pytest.raises(ValueError, match="coefficient bound of 96 bits is past the largest "
                                         "table prime 2\\^96 - 17$"):
        charpoly([[1 << 95]])


def test_charpoly_refuses_a_fraction_entry_before_any_residue(monkeypatch):
    # the Hadamard bound's isqrt meets the Fraction first, so no modulus is
    # chosen and no entry is reduced
    def no_modulus(bound):
        raise AssertionError("a modulus was chosen")

    monkeypatch.setattr(matrices, "_modulus", no_modulus)
    for m in ([[F(1, 2)]], [[1, 0], [0, F(2)]], [[F(0), 1], [2, 3]]):
        with pytest.raises(TypeError, match="^'Fraction' object cannot be interpreted as an integer$"):
            charpoly(m)


def _lucas_lehmer(e):
    m, s = (1 << e) - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def _miller_rabin(n, bases=(2, 3, 5, 7, 11, 13)):
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_table_moduli_are_primes():
    table = matrices._PRIMES
    # primality only keeps the pivot inverses from failing; base 2 alone would catch a mistyped c
    # past 1024 bits, where each base costs a 4096-bit exponentiation per entry
    assert all(_miller_rabin((1 << k) - c, (2,) if k > 1024 else (2, 3, 5, 7, 11, 13))
               for k, c in table if c != 1)
    assert all(_lucas_lehmer(k) for k, c in table if c == 1 and k <= 4423)
    # one entry every 32 bits to 1024 bits and every 64 bits to 4096, then Mersenne primes
    assert [k for k, c in table if c != 1] == list(range(64, 1024, 32)) + list(range(1024, 4097, 64))
    assert all(c == 1 for k, c in table if k > 4096)
    # c is the least: every smaller odd c gives a composite, so both checks can fail
    for k, c in table[:7]:
        assert not any(_miller_rabin((1 << k) - d) for d in range(1, c, 2)), k
    assert not any(_lucas_lehmer(e) for e in (67, 71, 101, 131, 613))


def test_table_moduli_strictly_increase():
    ks = [k for k, _ in matrices._PRIMES]
    assert ks == sorted(set(ks))
    # 2^(k-1) < 2^k - c for every entry, so increasing k means increasing moduli
    assert all(1 <= c < 1 << (k - 1) for k, c in matrices._PRIMES)
    moduli = [(1 << k) - c for k, c in matrices._PRIMES if k <= 4423]
    assert moduli == sorted(set(moduli))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 4200))
def test_modulus_is_the_smallest_entry_above_twice_the_bound(bound):
    p = matrices._modulus(bound)
    moduli = [(1 << k) - c for k, c in matrices._PRIMES if k <= 4423]
    assert p in moduli and p > 2 * bound
    assert all(q <= 2 * bound for q in moduli[:moduli.index(p)])


def test_modulus_at_each_entry_edge():
    for k, c in matrices._PRIMES[:40]:
        p = (1 << k) - c
        assert matrices._modulus((p - 1) // 2) == p
        assert matrices._modulus((p + 1) // 2) > p


@pytest.mark.parametrize("name", ["nonpcf_sg", "hexagasket", "perfbench/structures/sg3.json"])
def test_level_two_moduli_stay_within_64_bits_of_the_bound(name, monkeypatch):
    seen = []
    choose = matrices._modulus

    def spy(bound):
        p = choose(bound)
        seen.append((bound, p))
        return p

    monkeypatch.setattr(matrices, "_modulus", spy)
    prob_laplacian_charpoly(build_level(_structure(name), 2))
    [(bound, p)] = seen
    # a Mersenne-only table gave 2^521 - 1 to bounds of 151, 171 and 203 bits
    assert 2 * bound < p and p.bit_length() <= bound.bit_length() + 64


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
def test_bareiss_matches_gauss(dim, seed):
    rng = random.Random(seed)
    m = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
    assert bareiss_det_int(m) == det_gauss([[F(e) for e in row] for row in m])


def _solved(a, rhs):
    """`solve_linear` on a system of ints and Fractions, scaled to integers
    by one lcm, read back as Fractions."""
    b, _ = scaled([*a, *rhs])
    x, scale = solve_linear(b[:len(a)], b[len(a):])
    return [[F(v, scale) for v in row] for row in x]


def test_solve_linear_rational():
    assert solve_linear([[2, 1], [1, 3]], [[1], [2]]) == ([[1], [3]], 5)
    # the content of a is divided out, and a negative last pivot (det -2)
    # moves its sign and the common factor off the scale
    assert solve_linear([[-4, -2], [-2, -6]], [[2], [4]]) == ([[-1], [-3]], 5)
    assert solve_linear([[1, 2], [3, 4]], [[1], [1]]) == ([[-1], [1]], 1)
    assert _solved([[F(2), F(1)], [F(1), F(3)]], [[F(1)], [F(2)]]) == [[F(1, 5)], [F(3, 5)]]
    x, scale = solve_linear([[6, 0], [0, 4]], [[3], [2]])
    assert (x, scale) == ([[1], [1]], 2) and all(type(v) is int for row in x for v in row)
    assert solve_linear([], []) == ([], 1)


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
    x = _solved(a, rhs)
    assert [[sum(a[i][t] * x[t][j] for t in range(dim)) for j in range(3)]
            for i in range(dim)] == rhs


def test_solve_linear_singular_raises():
    with pytest.raises(ValueError, match="^singular matrix in solve_linear$"):
        solve_linear([[1, 1], [2, 2]], [[1], [1]])
    rng = random.Random(5)
    for dim in (3, 5):  # rank dim - 1: the last row is the sum of the others
        a = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim)]
             for _ in range(dim - 1)]
        a.append([sum(col) for col in zip(*a)])
        with pytest.raises(ValueError, match="^singular matrix in solve_linear$"):
            _solved(a, [[F(i)] for i in range(dim)])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10 ** 6),
    st.sampled_from([1, 10 ** 3, 10 ** 40]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([1.0, 0.4]),
)
def test_solve_linear_matches_fraction_gauss_jordan(dim, cols, seed, height, share, density):
    # int, Fraction and mixed entries; the zero leading pivot forces a row swap
    rng = random.Random(seed)

    def entry():
        if rng.random() >= density:
            return 0
        num = rng.randint(-height, height)
        return F(num, rng.randint(1, height)) if rng.random() < share else num

    a = [[entry() for _ in range(dim)] for _ in range(dim)]
    if dim > 1:
        a[0][0] = 0
    rhs = [[entry() for _ in range(cols)] for _ in range(dim)]
    if det_gauss([[F(x) for x in row] for row in a]) == 0:
        with pytest.raises(ValueError, match="^singular matrix in solve_linear$"):
            _solved(a, rhs)
        return
    assert _solved(a, rhs) == gauss_jordan_q(a, rhs)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10 ** 6),
    st.sampled_from([1, 10, 10 ** 6, 10 ** 30]),
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([1.0, 0.4]),
)
def test_integer_solve_linear_contract(dim, cols, seed, height, singular, density):
    # a x = scale rhs with scale > 0 and gcd(scale, x) = 1, or the refusal;
    # a singular draw repeats a multiple of one row in another, and a common
    # factor of every entry of a tests the division by its content
    rng = random.Random(seed)

    def entry():
        return rng.randint(-height, height) if rng.random() < density else 0

    a = [[entry() for _ in range(dim)] for _ in range(dim)]
    if dim > 1 and rng.random() < singular:
        i, j = rng.sample(range(dim), 2)
        a[j] = [rng.randint(-3, 3) * x for x in a[i]]
    if rng.random() < 0.3:
        a = [[6 * x for x in row] for row in a]
    rhs = [[entry() for _ in range(cols)] for _ in range(dim)]
    if det_gauss([[F(x) for x in row] for row in a]) == 0:
        with pytest.raises(ValueError, match="^singular matrix in solve_linear$"):
            solve_linear(a, rhs)
        return
    x, scale = solve_linear(a, rhs)
    assert scale > 0 and gcd(scale, *(v for row in x for v in row)) == 1
    assert all(type(v) is int for row in x for v in row) and type(scale) is int
    assert [[sum(a[i][t] * x[t][j] for t in range(dim)) for j in range(cols)]
            for i in range(dim)] == [[scale * v for v in row] for row in rhs]


def test_bareiss_det_int_empty_and_singular():
    assert bareiss_det_int([]) == 1
    for m in ([[0]], [[1, 2], [2, 4]], [[0, 0, 1], [0, 0, 2], [3, 4, 5]],
              [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [5, 6, 7, 8]]):
        assert bareiss_det_int(m) == 0 == det_gauss([[F(e) for e in row] for row in m])


@pytest.mark.parametrize("dim", range(1, 8))
def test_bareiss_det_int_sign_on_swap_heavy_matrices(dim):
    rng = random.Random(dim)
    # weighted reversal, and a weighted cycle whose column k is nonzero only
    # in the last row, so every step swaps; then zero diagonals of height 10^40
    reversal = [[(i + 2) * (i + j == dim - 1) for j in range(dim)] for i in range(dim)]
    cycle = [[(i + 2) * (j == (i + 1) % dim) for j in range(dim)] for i in range(dim)]
    hollow = [[rng.randint(-10 ** 40, 10 ** 40) * (i != j) for j in range(dim)] for i in range(dim)]
    for m in (reversal, cycle, hollow):
        assert bareiss_det_int(m) == det_gauss([[F(e) for e in row] for row in m])
    assert bareiss_det_int(reversal) != 0 and bareiss_det_int(cycle) != 0
