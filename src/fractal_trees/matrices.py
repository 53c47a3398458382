"""Dense exact linear algebra over Q, in integers.

Matrices are plain lists of rows of ints; a rational matrix M enters as an
integer matrix B and a scale delta with M = B / delta.  The decimation
engine takes chi_D and the Schur complement's moments from the integer
matrix delta * P1 of `kirchhoff.scaled_prob_laplacian`, with no solve
(see `decimation.derive`); it maps a conjugate class of degree 3 or more
through R with one `solve_linear`, whose integer solution and scale are
the B and delta of M_den^-1 M_num, and one `charpoly` (see
`DecimationData.image_of`; a rational or quadratic class takes its
closed form instead).  `solve_linear` and `bareiss_det_int` share one
fraction-free elimination, `_eliminate`.  `charpoly` is the one
characteristic polynomial, for `derive`'s chi_D, the oracle's P_n
(`kirchhoff.prob_laplacian_charpoly`) and `image_of`: one Hessenberg
pass in Z/p, p the smallest table prime 2^k - c above twice the Hadamard
bound on the coefficients, so it is exact, not probabilistic.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Sequence

from .polys import Polynomial

Matrix = list  # list of rows

# `charpoly`'s moduli, as pairs (k, c) for the prime 2^k - c: the least such c
# every 32 bits from 64 to 1024 bits and every 64 bits from 1024 to 4096
# (Miller-Rabin), then the Mersenne primes 2^e - 1 past 4096 bits.  Only the
# chosen modulus is ever built; the largest has 136,279,841 bits.
_PRIMES = (
    (64, 59), (96, 17), (128, 159), (160, 47), (192, 237), (224, 63), (256, 189), (288, 167),
    (320, 197), (352, 657), (384, 317), (416, 435), (448, 203), (480, 47), (512, 569), (544, 759),
    (576, 789), (608, 527), (640, 305), (672, 399), (704, 245), (736, 509), (768, 825), (800, 105),
    (832, 143), (864, 243), (896, 213), (928, 645), (960, 167), (992, 1779), (1024, 105),
    (1088, 89), (1152, 927), (1216, 563), (1280, 1175), (1344, 1175), (1408, 413), (1472, 5309),
    (1536, 3453), (1600, 2273), (1664, 1233), (1728, 1115), (1792, 963), (1856, 1767),
    (1920, 1503), (1984, 815), (2048, 1557), (2112, 887), (2176, 1833), (2240, 99), (2304, 1857),
    (2368, 5), (2432, 3723), (2496, 257), (2560, 75), (2624, 149), (2688, 2529), (2752, 2693),
    (2816, 2247), (2880, 2499), (2944, 89), (3008, 3057), (3072, 47), (3136, 2507), (3200, 1683),
    (3264, 1703), (3328, 2639), (3392, 1079), (3456, 695), (3520, 6063), (3584, 429), (3648, 1335),
    (3712, 3449), (3776, 2753), (3840, 4953), (3904, 2253), (3968, 3723), (4032, 2375),
    (4096, 2549),
) + tuple((e, 1) for e in (
    4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091,
    756839, 859433, 1257787, 1398269, 2976221, 3021377, 6972593, 13466917, 20996011, 24036583,
    25964951, 30402457, 32582657, 37156667, 42643801, 43112609, 57885161, 74207281, 77232917,
    82589933, 136279841,
))


def _eliminate(rows: list, n: int) -> int:
    """Fraction-free Gauss-Jordan elimination (Bareiss, *Math. Comp.* 22,
    1968) of the leading n columns of integer rows, in place; returns their
    determinant.  Step k swaps the first row with a nonzero entry in column
    k into row k (0 is returned when there is none) and replaces every other
    row r by (p_k row_r - row_r[k] row_k) / p_(k-1), p_k the pivot and
    p_(-1) = 1.  Every entry stays a minor of the input (Sylvester's
    identity), so each division is exact.  Columns 0..k are then p_k times
    unit columns and are never read again, so only columns k+1 on are
    written; past column n the rows end as p_(n-1) times the solution.
    """
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        p, tail = top[k], top[k + 1:]
        for r, row in enumerate(rows):
            if r != k:
                f = row[k]
                row[k + 1:] = [(p * x - f * t) // prev for x, t in zip(row[k + 1:], tail)]
        prev = p
    return sign * prev


def solve_linear(a: Matrix, rhs: Matrix) -> tuple[Matrix, int]:
    """Solve a X = rhs exactly for integer rows by fraction-free
    Gauss-Jordan elimination: (x, scale) with a x = scale * rhs, scale > 0
    and gcd(scale, entries of x) = 1, so X = x / scale in lowest terms.

    `a` must be square and nonsingular and `rhs` has matching row count.
    The content c of a is divided out (a/c times cX is rhs), so no minor
    carries a power of c: on tall orbit classes every row of `image_of`'s
    M_den shares thousands of bits, and this halves the solve.
    `_eliminate` reduces a/c to p I, p its last pivot, and the right-hand
    block is p c X.  A singular `a` raises ValueError.
    """
    n = len(a)
    c = gcd(*(x for row in a for x in row)) or 1
    rows = [[x // c for x in left] + list(right) for left, right in zip(a, rhs)]
    if not _eliminate(rows, n):
        raise ValueError("singular matrix in solve_linear")
    scale = c * rows[-1][n - 1] if n else 1
    g = gcd(scale, *(x for row in rows for x in row[n:]))
    if scale < 0:
        g = -g
    return [[x // g for x in row[n:]] for row in rows], scale // g


def bareiss_det_int(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by `_eliminate` on a copy:
    1 for the empty matrix and 0 for a singular one."""
    return _eliminate([list(row) for row in a], len(a))


def _modulus(bound: int) -> int:
    """The smallest table prime above 2 * bound; a ValueError past the table."""
    twice = 2 * bound
    bits = twice.bit_length()
    for k, c in _PRIMES:
        if k >= bits and (1 << k) - c > twice:  # k < bits gives 2^k - c < twice
            return (1 << k) - c
    k, c = _PRIMES[-1]
    raise ValueError(f"charpoly: coefficient bound of {bound.bit_length()} bits "
                     f"is past the largest table prime 2^{k} - {c}")


def charpoly(b: Sequence[Sequence[int]], delta: int = 1) -> Polynomial:
    """det(B / delta - x I) for a square integer matrix B and an int delta >= 1:
    the one characteristic polynomial of the package (note the sign: this is
    (-1)^n times the monic one).  A non-integer entry, a Fraction say, is
    refused with TypeError by the bound's `isqrt`, before any residue.

    The coefficient of y^(n-i) in det(yI - B) is a signed sum of i x i
    principal minors, so Hadamard's inequality bounds it by
    prod_i (1 + ||row_i||).  One pass modulo the smallest table prime p
    above twice that bound (`_modulus`) reduces B to upper Hessenberg form
    H by similarity transforms and expands det(yI - H) along the last
    column with the Hessenberg recurrence (Cohen, *A Course in
    Computational Algebraic Number Theory*, 2.2.4); both stages are
    O(n^3) operations in Z/p.  Step k swaps a row with a nonzero entry
    in column k into row k+1 (mirroring the swap on the columns) and
    applies G = I - u e_(k+1)^T, u_i = h_ik / h_(k+1)k for i > k+1.  The
    Gauss transforms of one step commute, so G H G^-1 is every row step
    (row i minus u_i times the unchanged row k+1) followed by a single
    pass adding sum_i u_i column_i to column k+1.  Lifted to (-p/2, p/2),
    the residues are the integer coefficients themselves, so the result
    is exact, not probabilistic (the "big prime" method, von zur Gathen
    and Gerhard, *Modern Computer Algebra*, ch. 5); the coefficient of
    x^j is that of y^j over delta^(n-j).  Exactness needs only p above
    twice the bound: primality only ensures that no pivot inverse fails.
    The table covers every bound below 2^136279840; past it a ValueError
    names the bound's bit length and the last prime.
    """
    n = len(b)
    if any(len(row) != n for row in b):
        raise ValueError("charpoly needs a square matrix")
    bound = 1
    for row in b:
        bound *= 2 + isqrt(sum(x * x for x in row))  # 2 + isqrt(s) > 1 + sqrt(s)
    p = _modulus(bound)
    e = p.bit_length()
    mask, fold = (1 << e) - 1, (1 << e) - p

    def red(x):  # x mod p: 2^e = fold (mod p), so the bits above e are folded down first
        return ((x & mask) + (x >> e) * fold) % p

    h = [[x % p for x in row] for row in b]
    for k in range(n - 2):
        # the sparsest row with a nonzero in column k becomes row k+1: that
        # about halves the row operations on the level graphs
        piv = max((i for i in range(k + 1, n) if h[i][k]), key=lambda i: h[i].count(0),
                  default=None)
        if piv is None:
            continue  # column k already has a zero subdiagonal
        if piv != k + 1:
            h[k + 1], h[piv] = h[piv], h[k + 1]
            for row in h:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        top = h[k + 1]
        inv = pow(top[k], -1, p)
        # the rows below row k+1 are zero left of column k, like row k+1
        tops = [(j, top[j]) for j in range(k + 1, n) if top[j]]
        us = []
        for i in range(k + 2, n):
            hi = h[i]
            if hi[k]:
                u = red(hi[k] * inv)
                hi[k] = 0
                for j, t in tops:
                    hi[j] = red(hi[j] - u * t)
                us.append((i, u))
        if us:
            for row in h:
                acc = 0
                for i, u in us:
                    if row[i]:
                        acc += u * row[i]
                if acc:
                    row[k + 1] = red(row[k + 1] + acc)
    # c[m] = det(yI - H_m) mod p for the leading m x m block, lowest degree first
    c = [[1]]
    for m in range(1, n + 1):
        col = m - 1
        nxt = [0] + c[m - 1]
        diag = h[col][col]
        if diag:
            for j, v in enumerate(c[m - 1]):
                nxt[j] -= diag * v
        sub = 1
        for i in range(m - 1, 0, -1):
            sub = red(sub * h[i][i - 1])
            if not sub:
                break
            if h[i - 1][col]:
                coef = red(h[i - 1][col] * sub)
                for j, v in enumerate(c[i - 1]):
                    nxt[j] -= coef * v
        c.append([red(v) for v in nxt])
    sign = -1 if n % 2 else 1
    return Polynomial.from_integers(
        [sign * (v - p if 2 * v > p else v) * delta ** j for j, v in enumerate(c[n])], delta ** n
    )
