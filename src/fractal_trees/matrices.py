"""Dense exact linear algebra over Q.

Matrices are plain lists of lists of `Fraction`.  The decimation engine
evaluates the Schur complement at rational points with `solve_linear`
and interpolates the numerators (see `decimation.derive`); it maps a
conjugate class through R with one `solve_linear` and one `charpoly`
(see `DecimationData.image_of`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polys import Polynomial

Q = Fraction

Matrix = list  # list of rows


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


def det_gauss(a: Matrix) -> Fraction:
    """Determinant of a Fraction matrix by exact Gaussian elimination."""
    n = len(a)
    m = [list(row) for row in a]
    det = Q(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Q(0)
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
    """Characteristic polynomial det(M - x I) of a square Fraction matrix.

    Reduces M to upper Hessenberg form H by similarity transforms over Q
    (Gaussian elimination below the subdiagonal, row swaps mirrored by
    column swaps), then expands det(xI - H) along the last column with
    the standard Hessenberg recurrence.  Both stages are O(n^3) field
    operations.  Note the sign convention: this is det(M - xI), i.e.
    (-1)^n times the monic characteristic polynomial.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("charpoly needs a square matrix")
    h = [[Q(e) for e in row] for row in a]
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
            hi[k] = Q(0)
            if top[k + 1]:
                hi[k + 1] -= u * top[k + 1]
            for j in cols:
                hi[j] -= u * top[j]
            for row in h:
                if row[i]:
                    row[k + 1] += u * row[i]
    # p[m] = det(xI - H_m) for the leading m x m block, lowest degree first
    p = [[Q(1)]]
    for m in range(1, n + 1):
        col = m - 1
        nxt = [Q(0)] + p[m - 1]
        c = h[col][col]
        if c:
            for j, v in enumerate(p[m - 1]):
                nxt[j] -= c * v
        sub = Q(1)
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
