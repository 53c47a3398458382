"""Dense exact linear algebra over Q.

Matrices are plain lists of lists of `Fraction`.  The decimation engine
takes chi_D from `charpoly` and builds the Schur complement from integer
moments without a solve (see `decimation.derive`); it maps a conjugate
class through R with one `solve_linear` and one `charpoly` (see
`DecimationData.image_of`).  `charpoly` is one Hessenberg pass in
Z/p, p a Mersenne prime above the Hadamard bound on the coefficients, so
it is exact, not probabilistic.
"""

from __future__ import annotations

from math import isqrt, lcm
from typing import Sequence

from .polys import Polynomial

Matrix = list  # list of rows

# the exponents e of the known Mersenne primes 2^e - 1 from 2^61 - 1 on: `charpoly`'s moduli
_MERSENNE = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937,
    21701, 23209, 44497, 86243, 110503, 132049, 216091, 756839, 859433, 1257787, 1398269,
    2976221, 3021377, 6972593, 13466917, 20996011, 24036583, 25964951, 30402457, 32582657,
    37156667, 42643801, 43112609, 57885161, 74207281, 77232917, 82589933, 136279841,
)


def solve_linear(a: Matrix, rhs: Matrix) -> Matrix:
    """Solve a X = rhs by Gauss-Jordan elimination over Q.

    `a` must be square and nonsingular; `rhs` has matching row count.
    """
    n = len(a)
    aug = [list(a[i]) + list(rhs[i]) for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix in solve_linear")
        if piv != col:
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
            if r == col or not f:
                continue
            for j in cols:
                row[j] -= f * top[j]
    return [row[n:] for row in aug]


def bareiss_det_int(a: Sequence[Sequence[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix.

    All intermediate entries are exact minors of the input, so the
    computation stays in the integers; divisions are exact.
    """
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = None
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    piv = r
                    break
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi = m[i]
            mk = m[k]
            f = mi[k]
            for j in range(k + 1, n):
                mi[j] = (pivot * mi[j] - f * mk[j]) // prev
            mi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def charpoly(a: Matrix) -> Polynomial:
    """Characteristic polynomial det(M - x I) of a square matrix over Q.

    Entries may be ints or Fractions.  M is scaled to the integer matrix
    B = delta M, delta the lcm of the entry denominators.  The coefficient
    of y^(n-k) in det(yI - B) is a signed sum of k x k principal minors,
    so Hadamard's inequality bounds it by prod_i (1 + ||row_i||).  One
    pass modulo the smallest table prime p = 2^e - 1 above twice that
    bound reduces B to upper Hessenberg form H by similarity transforms
    (Gaussian elimination below the subdiagonal, row swaps mirrored by
    column swaps) and expands det(yI - H) along the last column with the
    Hessenberg recurrence (Cohen, *A Course in Computational Algebraic
    Number Theory*, 2.2.4); both stages are O(n^3) operations in Z/p.
    Lifted to (-p/2, p/2), the residues are the integer coefficients
    themselves, so the result is exact, not probabilistic (the "big prime"
    method, von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 5);
    the coefficient of x^j is that of y^j over delta^(n-j).  The table
    covers every bound below 2^136279840; past it a ValueError names the
    bound's bit length.  Note the sign convention: this is det(M - xI),
    i.e. (-1)^n times the monic characteristic polynomial.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("charpoly needs a square matrix")
    delta = lcm(*(x.denominator for row in a for x in row))
    b = [[x.numerator * (delta // x.denominator) for x in row] for row in a]
    bound = 1
    for row in b:
        bound *= 2 + isqrt(sum(x * x for x in row))  # 2 + isqrt(s) > 1 + sqrt(s)
    e = next((e for e in _MERSENNE if (1 << e) - 1 > 2 * bound), None)
    if e is None:
        raise ValueError(f"charpoly: coefficient bound of {bound.bit_length()} bits "
                         f"is past the largest table prime 2^{_MERSENNE[-1]} - 1")
    p = (1 << e) - 1

    def red(x):  # x mod p: 2^e = 1 (mod p), so folding the high bits onto the low ones first
        return ((x & p) + (x >> e)) % p

    h = [[x % p for x in row] for row in b]
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k]), None)
        if piv is None:
            continue  # column k already has a zero subdiagonal
        if piv != k + 1:
            h[k + 1], h[piv] = h[piv], h[k + 1]
            for row in h:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        top = h[k + 1]
        inv = pow(top[k], -1, p)
        # the column steps below change row k+1 only in column k+1
        cols = [j for j in range(k + 2, n) if top[j]]
        for i in range(k + 2, n):
            hi = h[i]
            if not hi[k]:
                continue
            u = red(hi[k] * inv)
            # row i -= u * row k+1, then column k+1 += u * column i
            hi[k] = 0
            hi[k + 1] = red(hi[k + 1] - u * top[k + 1])
            for j in cols:
                hi[j] = red(hi[j] - u * top[j])
            for row in h:
                if row[i]:
                    row[k + 1] = red(row[k + 1] + u * row[i])
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
            coef = red(h[i - 1][col] * sub)
            if coef:
                for j, v in enumerate(c[i - 1]):
                    nxt[j] -= coef * v
        c.append([red(v) for v in nxt])
    sign = -1 if n % 2 else 1
    return Polynomial.from_integers(
        [sign * (v - p if 2 * v > p else v) * delta ** j for j, v in enumerate(c[n])], delta ** n
    )
