"""Exact univariate polynomial arithmetic and reduced rational functions over Q.

Everything in this package that touches an eigenvalue goes through the
types defined here.  Coefficients are `fractions.Fraction`, stored lowest
degree first with no trailing zeros, so every computation is exact and
deterministic.  On top of plain polynomial arithmetic the module provides
the number-theoretic utilities the decimation pipeline needs:

  * gcd / squarefree decomposition (Yun's algorithm),
  * rational root extraction with multiplicities,
  * splitting squarefree polynomials into irreducible factors up to
    degree 4 (linear scan, cubic test, quartic resolvent),
  * resultants, used to push algebraic numbers through rational maps,
  * Newton interpolation from values at rational points,
  * `AlgebraicClass`, a monic squarefree polynomial standing for a full
    Galois-conjugate family of eigenvalues.

Factors of degree > 4 are left unsplit; callers that rely on classwise
bookkeeping must treat such classes as potentially reducible (see
`AlgebraicClass.certified_irreducible`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Polynomial:
    """Dense univariate polynomial over Q, coefficients lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "Polynomial":
        return cls([_as_fraction(c)])

    @classmethod
    def x(cls) -> "Polynomial":
        """The identity polynomial z."""
        return cls([0, 1])

    @classmethod
    def from_root(cls, r) -> "Polynomial":
        """Monic linear polynomial z - r."""
        return cls([-_as_fraction(r), 1])

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Q(0)
        return self.coeffs[-1]

    def constant_term(self) -> Fraction:
        if not self.coeffs:
            return Q(0)
        return self.coeffs[0]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [Q(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(other)
        return NotImplemented

    # -- euclidean structure -----------------------------------------------

    def divmod(self, other: "Polynomial"):
        """Exact quotient and remainder over Q; other must be nonzero."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = self.degree, other.degree
        if dn < dd:
            return Polynomial(), self
        inv_lead = 1 / other.leading()
        quot = [Q(0)] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            c = rem[k + dd] * inv_lead
            if c:
                quot[k] = c
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] -= c * oc
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other):
        return self.divmod(self._coerce(other))[0]

    def __mod__(self, other):
        return self.divmod(self._coerce(other))[1]

    def divides(self, other: "Polynomial") -> bool:
        """True when self divides other exactly (self nonzero)."""
        if self.is_zero():
            return other.is_zero()
        return other.divmod(self)[1].is_zero()

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.leading() == 1:
            return self
        inv = 1 / self.leading()
        return Polynomial([c * inv for c in self.coeffs])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation at a Fraction (or anything with +,*)."""
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift_scale(self, a, b) -> "Polynomial":
        """The polynomial p(a*z + b)."""
        arg = Polynomial([_as_fraction(b), _as_fraction(a)])
        acc = Polynomial()
        for c in reversed(self.coeffs):
            acc = acc * arg + Polynomial.const(c)
        return acc

    # -- display -----------------------------------------------------------

    def __str__(self):
        return self.format("z")

    def format(self, var: str = "z") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}{var}" if i == 1 else f"{mag}{var}^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: p = c * prod g_i^i with the g_i squarefree, coprime.

    Returns [(g_i, i), ...] for the nonconstant g_i, each monic.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    p = p.monic()
    if p.degree == 0:
        return []
    dp = p.derivative()
    a = p.gcd(dp)
    out = []
    b = (p // a).monic()
    c = dp // a
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = b.gcd(d)
        if g.degree > 0:
            out.append((g.monic(), i))
        b = (b // g).monic()
        c = d // g
        i += 1
    return out


def squarefree_part(p: Polynomial) -> Polynomial:
    """Monic product of the distinct irreducible factors of p."""
    g = p.gcd(p.derivative())
    return (p // g).monic()


def rational_roots(p: Polynomial) -> list[tuple[Fraction, int]]:
    """All rational roots of p with multiplicities.

    After dividing the returned linear factors out of p, the remaining
    factor has no rational roots.  Raises on the zero polynomial.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    roots = []
    # root at 0: multiplicity = number of trailing zero coefficients
    k = 0
    cs = list(p.coeffs)
    while cs and cs[0] == 0:
        cs.pop(0)
        k += 1
    if k:
        roots.append((Q(0), k))
    q = Polynomial(cs)
    if q.degree < 1:
        return roots
    for cand in _root_candidates(q):
        if q(cand) == 0:
            mult = 0
            lin = Polynomial.from_root(cand)
            while True:
                quo, rem = q.divmod(lin)
                if not rem.is_zero():
                    break
                q = quo
                mult += 1
            roots.append((cand, mult))
            if q.degree < 1:
                break
    roots.sort(key=lambda rm: rm[0])
    return roots


def _root_candidates(p: Polynomial):
    """Candidate rational roots r/s by the rational root theorem."""
    from math import lcm

    den = lcm(*[c.denominator for c in p.coeffs])
    ints = [int(c * den) for c in p.coeffs]
    a0, ad = abs(ints[0]), abs(ints[-1])
    nums = _divisors(a0)
    dens = _divisors(ad)
    seen = set()
    for n in nums:
        for d in dens:
            c = Q(n, d)
            if c not in seen:
                seen.add(c)
                yield c
                yield -c


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def resultant(p: Polynomial, q: Polynomial) -> Fraction:
    """Sylvester resultant of p and q, computed by the euclidean recurrence.

    resultant(p, q) = lc(p)^deg(q) * prod q(alpha) over the roots alpha of p.
    Raises if either input is zero or both are constant.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    if p.is_constant() and q.is_constant():
        raise ValueError("resultant needs a nonconstant input")
    return _res(p, q)


def _res(p: Polynomial, q: Polynomial) -> Fraction:
    dp, dq = p.degree, q.degree
    if dp == 0:
        return p.leading() ** dq
    if dq == 0:
        return q.leading() ** dp
    r = p % q
    if r.is_zero():
        return Q(0)
    sign = Q(-1) ** (dp * dq)
    return sign * q.leading() ** (dp - r.degree) * _res(q, r)


def interpolate(xs: Sequence, ys: Sequence) -> Polynomial:
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i]).

    Newton's divided differences; the xs must be distinct.
    """
    xs = [_as_fraction(x) for x in xs]
    coef = [_as_fraction(y) for y in ys]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    acc = [coef[-1]] if n else []
    for i in range(n - 2, -1, -1):
        # acc = acc * (z - xs[i]) + coef[i]
        acc = [coef[i] - xs[i] * acc[0]] + [
            a - xs[i] * b for a, b in zip(acc, acc[1:] + [Q(0)])
        ]
    return Polynomial(acc)


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Reduced ratio of two polynomials over Q.

    Invariants: gcd(num, den) = 1 and den is monic (so the pair is a
    canonical form).  Construction from an arbitrary num/den pair performs
    the reduction.  `phi` and `R` are built, evaluated, compared and
    printed, never combined, so there is no field arithmetic here.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Polynomial.const(1)
        if not isinstance(num, Polynomial):
            num = Polynomial.const(num)
        if not isinstance(den, Polynomial):
            den = Polynomial.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Polynomial(), Polynomial.const(1)
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading()
            if lead != 1:
                inv = 1 / lead
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __call__(self, x):
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# algebraic classes


@dataclass(frozen=True)
class AlgebraicClass:
    """A Galois-conjugate family of algebraic numbers.

    Represented by its monic squarefree minimal-candidate polynomial.  For
    degree <= 4 the factor splitting below guarantees irreducibility, so
    the class really is one conjugacy family; higher-degree leftovers are
    flagged via `certified_irreducible=False` and must be treated with
    care by classwise algorithms.
    """

    minpoly: Polynomial
    certified_irreducible: bool = field(default=True, compare=False)

    def __post_init__(self):
        mp = self.minpoly
        if mp.degree < 1:
            raise ValueError("algebraic class needs a nonconstant polynomial")
        if mp.leading() != 1:
            raise ValueError("minimal polynomial must be monic")
        if mp.gcd(mp.derivative()).degree != 0:
            raise ValueError("minimal polynomial must be squarefree")

    @classmethod
    def from_rational(cls, r) -> "AlgebraicClass":
        return cls(Polynomial.from_root(_as_fraction(r)))

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    def is_rational(self) -> bool:
        return self.degree == 1

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("class of degree > 1 has no single rational value")
        return -self.minpoly.coeffs[0]

    def norm(self) -> Fraction:
        """Product of all conjugate roots: (-1)^deg * constant term."""
        c0 = self.minpoly.constant_term()
        return c0 if self.degree % 2 == 0 else -c0

    def contains_zero(self) -> bool:
        return self.minpoly.constant_term() == 0

    @property
    def label(self) -> str:
        if self.is_rational():
            return str(self.rational_value())
        return f"root of {self.minpoly}"

    def key(self):
        """Deterministic sort/hash key."""
        return (self.degree, self.minpoly.coeffs)

    def __str__(self):
        return self.label


def split_squarefree(p: Polynomial) -> list[AlgebraicClass]:
    """Split a squarefree polynomial into conjugate classes.

    Rational roots become degree-1 classes; the remainder is split into
    irreducible pieces when its degree is at most 4 (a quadratic or cubic
    with no rational root is irreducible; a quartic is checked for a
    rational 2+2 factorization via its resolvent cubic).  Degree > 4
    remainders are returned whole with certified_irreducible=False.
    """
    p = p.monic()
    out = []
    rest = p
    for r, mult in rational_roots(p):
        if mult != 1:
            raise ValueError("split_squarefree expects a squarefree input")
        out.append(AlgebraicClass.from_rational(r))
        rest = rest // Polynomial.from_root(r)
    rest = rest.monic()
    if rest.degree == 0:
        pass
    elif rest.degree in (2, 3):
        out.append(AlgebraicClass(rest))
    elif rest.degree == 4:
        split = _split_quartic(rest)
        out.extend(AlgebraicClass(f) for f in split)
    else:
        out.append(AlgebraicClass(rest, certified_irreducible=False))
    out.sort(key=lambda c: c.key())
    return out


def _split_quartic(p: Polynomial) -> list[Polynomial]:
    """Monic squarefree quartic with no rational roots: try a 2+2 split.

    Over Q such a quartic is reducible iff it splits into two monic
    rational quadratics, which after depressing corresponds to a rational
    root U = u^2 of the resolvent cubic U^3 + 2aU^2 + (a^2-4c)U - b^2
    (u = 0 allowed when b = 0).  Returns the factors, or [p] if
    irreducible.
    """
    a3 = p.coeffs[3]
    shift = -a3 / 4
    dep = p.shift_scale(1, shift)  # t^4 + a t^2 + b t + c
    a, b, c = dep.coeffs[2], dep.coeffs[1], dep.coeffs[0]

    def undo(q: Polynomial) -> Polynomial:
        return q.shift_scale(1, -shift).monic()

    if b == 0:
        # biquadratic: t^4 + a t^2 + c = (t^2 + u)(t^2 + v)
        disc = a * a - 4 * c
        s = _fraction_sqrt(disc)
        if s is not None:
            u, v = (a + s) / 2, (a - s) / 2
            return [undo(Polynomial([u, 0, 1])), undo(Polynomial([v, 0, 1]))]
        # fall through: may still split with u != 0 via the resolvent
    resolvent = Polynomial([-b * b, a * a - 4 * c, 2 * a, 1])
    for U, _ in rational_roots(resolvent):
        if U <= 0:
            continue
        u = _fraction_sqrt(U)
        if u is None:
            continue
        w = (a + U + b / u) / 2
        v = (a + U - b / u) / 2
        f1 = Polynomial([v, u, 1])
        f2 = Polynomial([w, -u, 1])
        if (f1 * f2) == dep:
            return [undo(f1), undo(f2)]
    return [p]


def _fraction_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    from math import isqrt

    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Q(rn, rd)
    return None


def factor_classes(p: Polynomial) -> list[tuple[AlgebraicClass, int]]:
    """Factor p into algebraic classes with multiplicities.

    Combines Yun's squarefree decomposition with `split_squarefree`; the
    result is sorted deterministically by class key.
    """
    out: list[tuple[AlgebraicClass, int]] = []
    for g, mult in squarefree_decomposition(p):
        for cls in split_squarefree(g):
            out.append((cls, mult))
    out.sort(key=lambda cm: cm[0].key())
    return out


def image_class_poly(src: Polynomial, num: Polynomial, den: Polynomial) -> Polynomial:
    """Monic squarefree polynomial whose roots are R(alpha) over roots of src.

    R = num/den; every root of src must avoid the poles of R (checked by
    the caller).  Computed as the resultant Res_z(src(z), num(z) - w*den(z)),
    a polynomial in w of degree <= deg(src), obtained by interpolation at
    deg(src)+1 rational points.
    """
    g = src.degree
    pts = []
    vals = []
    w = 0
    while len(pts) < g + 1:
        probe = num - Q(w) * den
        if probe.is_zero() or probe.is_constant():
            w += 1
            continue
        pts.append(Q(w))
        vals.append(resultant(src, probe))
        w += 1
    q = interpolate(pts, vals)
    if q.is_zero():
        raise ValueError("image polynomial vanished; pole inside the class?")
    return squarefree_part(q)


def preimage_poly(base: Polynomial, num: Polynomial, den: Polynomial) -> Polynomial:
    """Monic polynomial whose roots are the R-preimages of the roots of base.

    For monic base F of degree g and R = num/den with deg num = d > deg den,
    the product over roots w of F of (num(z) - w*den(z)) equals
    sum_i F_i * num^i * den^(g-i); dividing by lc(num)^g makes it monic of
    degree d*g.  Preimages are counted with algebraic multiplicity.
    """
    g = base.degree
    acc = Polynomial()
    num_pow = Polynomial.const(1)
    den_pows = [Polynomial.const(1)]
    for _ in range(g):
        den_pows.append(den_pows[-1] * den)
    for i in range(g + 1):
        ci = base.coeffs[i] if i < len(base.coeffs) else Q(0)
        if ci:
            acc = acc + Polynomial.const(ci) * num_pow * den_pows[g - i]
        if i < g:
            num_pow = num_pow * num
    lead = num.leading() ** g
    return (acc * (1 / lead))
