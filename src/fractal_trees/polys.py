"""Exact univariate polynomial arithmetic and reduced rational functions over Q.

Everything in this package that touches an eigenvalue goes through the
types defined here.  A polynomial is stored as integer numerators, lowest
degree first with no trailing zeros, over one positive denominator
coprime to their content, so every computation is exact, deterministic
and runs in Python integers.  On top of plain polynomial arithmetic the
module provides the number-theoretic utilities the decimation pipeline
needs:

  * division by lazy pseudo-division in integers, and one gcd: the
    primitive polynomial remainder sequence on integer lists, which
    `Polynomial.gcd`, Yun's decomposition and `RationalFunction`'s
    reduction share; its result is primitive, so by Gauss's lemma every
    quotient by it is exact in Z[z],
  * squarefree decomposition (Yun's algorithm in Z[z] from degree 3; a
    quadratic is decided by its discriminant),
  * `factor_classes`: irreducible factors over Q, of any degree, with
    multiplicities.  The squarefree decomposition alone decides
    squarefreeness; each of its squarefree parts of degree 3 or more is split by Zassenhaus's
    algorithm (factoring modulo a prime, Hensel lifting, recombination in
    integers), one of degree 2 by its discriminant, and one of degree 1
    is its own class,
  * `AlgebraicClass`, a monic irreducible polynomial standing for a full
    Galois-conjugate family of eigenvalues.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, count, zip_longest
from math import gcd, isqrt, lcm
from typing import Iterable

from ._record import Record

Q = Fraction


class Polynomial(Record):
    """Dense univariate polynomial over Q: sum numerators[i] z^i / denominator.

    `numerators` is a tuple of ints with no trailing zeros and
    `denominator` a positive int coprime to their content, so equal
    polynomials have equal fields.  The zero polynomial has no numerators,
    denominator 1 and degree -1.  Instances are immutable and hashable.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(c).__name__}")
        den = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums: list, den: int):
        """Store nums / den (den nonzero) in canonical form."""
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            den = 1
        elif den != 1:
            if den < 0:
                nums, den = [-c for c in nums], -den
            g = gcd(den, *nums)
            if g > 1:
                nums, den = [c // g for c in nums], den // g
        object.__setattr__(self, "numerators", tuple(nums))
        object.__setattr__(self, "denominator", den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_integers(cls, nums: Iterable[int], den: int = 1) -> "Polynomial":
        """The polynomial sum nums[i] z^i / den, for ints nums and den != 0."""
        p = cls.__new__(cls)
        p._set(list(nums), den)
        return p

    @classmethod
    def const(cls, c) -> "Polynomial":
        return cls([c])

    @classmethod
    def x(cls) -> "Polynomial":
        """The identity polynomial z."""
        return cls([0, 1])

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        den = self.denominator
        return tuple(Q(c, den) for c in self.numerators)

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    def leading(self) -> Fraction:
        return Q(self.numerators[-1], self.denominator) if self.numerators else Q(0)

    def constant_term(self) -> Fraction:
        return Q(self.numerators[0], self.denominator) if self.numerators else Q(0)

    def __bool__(self):
        return bool(self.numerators)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if isinstance(other, Polynomial):
            return self.numerators == other.numerators and self.denominator == other.denominator
        return NotImplemented

    def __hash__(self):
        return hash(self.constant_term() if self.degree < 1 else (self.numerators, self.denominator))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, da, b, db = self.numerators, self.denominator, other.numerators, other.denominator
        if da != db:
            den = lcm(da, db)
            a, b, da = [c * (den // da) for c in a], [c * (den // db) for c in b], den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial.from_integers(out, da)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial.from_integers([-c for c in self.numerators], self.denominator)

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
        return Polynomial.from_integers(
            _mul_int(self.numerators, other.numerators), self.denominator * other.denominator
        )

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
        """Exact quotient and remainder over Q; other must be nonzero.

        With self = A/a and other = B/b, pseudo-division gives s A = q B + r,
        so the quotient is b q / (a s) and the remainder r / (a s)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial(), self
        quo, rem, s = _pseudo_divmod(self.numerators, other.numerators)
        db, scale = other.denominator, s * self.denominator
        return (
            Polynomial.from_integers([c * db for c in quo], scale),
            Polynomial.from_integers(rem, scale),
        )

    def __floordiv__(self, other):
        return self.divmod(self._coerce(other))[0]

    def __mod__(self, other):
        return self.divmod(self._coerce(other))[1]

    def divides(self, other: "Polynomial") -> bool:
        """True when self divides other exactly (self nonzero); a linear
        self, a multiple of qz - p, divides other iff other(p/q) = 0."""
        if self.degree == 1:
            return not _horner(other.numerators, -self.numerators[0], self.numerators[1])
        if self.is_zero():
            return other.is_zero()
        return not _pseudo_divmod(other.numerators, self.numerators)[1]

    def monic(self) -> "Polynomial":
        nums = self.numerators
        if not nums or nums[-1] == self.denominator:
            return self
        return _monic(list(nums))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor: `_gcd_int` of the numerators."""
        return _monic(_gcd_int(self.numerators, other.numerators))

    def derivative(self) -> "Polynomial":
        return Polynomial.from_integers(_derivative(self.numerators), self.denominator)

    def __call__(self, x) -> Fraction:
        """The value at an int or Fraction x, by Horner's rule in integers."""
        if not self.numerators:
            return Q(0)
        q = x.denominator
        return Q(_horner(self.numerators, x.numerator, q), self.denominator * q ** self.degree)

    # -- display -----------------------------------------------------------

    def __str__(self):
        return self.format("z")

    def format(self, var: str = "z") -> str:
        if self.is_zero():
            return "0"
        parts = []
        coeffs = self.coeffs
        for i in range(self.degree, -1, -1):
            c = coeffs[i]
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


# integer polynomials: int lists, lowest degree first


def _mul_int(a, b) -> list:
    """The product of two integer polynomials."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    out, n = [0] * (len(a) + len(b) - 1), len(a)
    for j, y in enumerate(b):
        if y:
            out[j:j + n] = [o + x * y for o, x in zip(out[j:j + n], a)]
    return out


def _horner(a, p: int, q: int) -> int:
    """q^deg a(p/q) = sum_i a_i p^i q^(deg - i), for q != 0, by Horner's rule."""
    acc, q_pow = 0, 1
    for c in reversed(a):
        acc = acc * p + c * q_pow
        q_pow *= q
    return acc


def _pseudo_divmod(a, b) -> tuple[list, list, int]:
    """Lazy pseudo-division of the integer polynomial a by a nonzero b:
    (q, r, s) with s a = q b + r, deg r < deg b and s > 0 a product of
    divisors of lc(b).  Each step multiplies the running remainder by the
    least factor that makes lc(b) divide its leading coefficient, so a
    division with a quotient in Z[z], such as one by a monic b, never
    scales at all."""
    db, lc = len(b) - 1, b[-1]
    low = b[:db]
    rem, s = list(a), 1
    quo = [0] * max(len(rem) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db]
        if not c:
            continue
        if c % lc:
            m = abs(lc) // gcd(c, lc)
            rem = [x * m for x in rem[:k + db]]
            quo = [x * m for x in quo]
            s, c = s * m, c * m
        c //= lc
        quo[k] = c
        rem[k:k + db] = [x - c * y for x, y in zip(rem[k:k + db], low)]
    return quo, _trim(rem[:db]), s


def _primitive(a) -> list:
    """a divided by its (positive) content; [] for the zero polynomial."""
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else list(a)


def _gcd_int(a, b) -> list:
    """The primitive gcd of two integer polynomials, up to sign ([] when
    both are zero), by the primitive polynomial remainder sequence (Knuth,
    TAOCP vol. 2, section 4.6.1): each pseudo-remainder is divided by its
    content before the next step, which keeps its coefficients from
    growing exponentially along the sequence.  By Gauss's lemma it
    divides a and b in Z[z], so pseudo-division by it never scales."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return a


def _monic(a: list) -> Polynomial:
    """a divided by its leading coefficient, as a Polynomial (zero for [])."""
    a = _primitive(a)
    return Polynomial.from_integers(a, a[-1] if a else 1)


def _derivative(a) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: p = c * prod g_i^i with the g_i squarefree, coprime.

    Returns [(g_i, i), ...] for the nonconstant g_i, each monic.  Yun
    starts at degree 3: a p of degree at most 1 is squarefree, and a
    monic quadratic (c + bz + dz^2)/d is decided by its discriminant,
    with no gcd: it is ((2dz + b)/(2d))^2 when b^2 = 4cd, and squarefree
    otherwise.  Yun runs in Z[z] on p's primitive numerators, dividing by
    `_gcd_int`s only: c_i / b_i = sum_(j>=i) (j - i + 1) g_j'/g_j is scale-free.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    p = p.monic()
    if p.degree < 2:
        return [(p, 1)] if p.degree else []
    if p.degree == 2:
        c, b, d = p.numerators
        if b * b != 4 * c * d:
            return [(p, 1)]
        return [(Polynomial.from_integers([b, 2 * d], 2 * d), 2)]
    f = p.numerators  # primitive, as p is monic
    df = _derivative(f)
    a = _gcd_int(f, df)
    b, c = _pseudo_divmod(f, a)[0], _pseudo_divmod(df, a)[0]
    out, i = [], 1
    while len(b) > 1:
        d = _trim([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        g = _gcd_int(b, d)
        if len(g) > 1:
            out.append((_monic(g), i))
        b, c = _pseudo_divmod(b, g)[0], _pseudo_divmod(d, g)[0]
        i += 1
    return out


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction(Record):
    """Reduced ratio of two polynomials over Q.

    Invariants: gcd(num, den) = 1 and den is monic (so the pair is a
    canonical form, and `Record`'s equality and hash over (num, den) are
    those of the function).  Construction from an arbitrary num/den pair
    performs the reduction in integers (`_gcd_int`).  `phi` and `R` are
    built, evaluated, compared and printed, never combined, so there is
    no field arithmetic here.
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
        else:  # (N/a) / (D/b) = b N' / (a D'), N' = N/g and D' = D/g in integers
            nums, dens = num.numerators, den.numerators
            g = _gcd_int(nums, dens)
            if len(g) > 1:
                nums, dens = _pseudo_divmod(nums, g)[0], _pseudo_divmod(dens, g)[0]
            lead, b = dens[-1], den.denominator
            num = Polynomial.from_integers([c * b for c in nums], num.denominator * lead)
            den = Polynomial.from_integers(dens, lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

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


class AlgebraicClass(Record):
    """A Galois-conjugate family of algebraic numbers.

    Represented by its monic minimal polynomial over Q.  The constructor
    checks that it is monic, nonconstant and, from degree 2, squarefree,
    by `squarefree_decomposition` (no gcd below degree 3); irreducibility
    holds by
    construction, as every class comes from `factor_classes`, from a
    rational value or from `DecimationData.image_of`, which maps one
    conjugate family onto another.
    """

    __slots__ = ("minpoly", "_hash", "_key", "degree")
    _fields = ("minpoly",)

    def __init__(self, minpoly: Polynomial):
        mp = minpoly
        if mp.degree < 1:
            raise ValueError("algebraic class needs a nonconstant polynomial")
        if mp.numerators[-1] != mp.denominator:
            raise ValueError("minimal polynomial must be monic")
        if mp.degree > 1 and squarefree_decomposition(mp) != [(mp, 1)]:
            raise ValueError("minimal polynomial must be squarefree")
        object.__setattr__(self, "minpoly", mp)
        # classes key and order every induction table: hash the coefficients
        # and build the sort key once
        object.__setattr__(self, "_hash", hash(mp))
        object.__setattr__(self, "_key", (mp.degree, mp.coeffs))
        object.__setattr__(self, "degree", mp.degree)  # read at every level step

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, AlgebraicClass):
            return NotImplemented
        return self._hash == other._hash and self.minpoly == other.minpoly

    @classmethod
    def from_rational(cls, r) -> "AlgebraicClass":
        return cls(Polynomial.from_integers([-r.numerator, r.denominator], r.denominator))

    def is_rational(self) -> bool:
        return self.degree == 1

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("class of degree > 1 has no single rational value")
        return -self.minpoly.constant_term()

    def norm(self) -> Fraction:
        """Product of all conjugate roots: (-1)^deg * constant term."""
        c0 = self.minpoly.constant_term()
        return c0 if self.degree % 2 == 0 else -c0

    def contains_zero(self) -> bool:
        return self.minpoly.numerators[0] == 0

    @property
    def label(self) -> str:
        if self.is_rational():
            return str(self.rational_value())
        return f"root of {self.minpoly}"

    def key(self):
        """Deterministic sort key: (degree, coefficients)."""
        return self._key

    def __str__(self):
        return self.label


def _split_squarefree(p: Polynomial) -> list[AlgebraicClass]:
    """The irreducible factors over Q of a monic squarefree p, as classes.

    Zassenhaus's algorithm (von zur Gathen-Gerhard, *Modern Computer
    Algebra*, ch. 14-15) on the monic integer F(y) = D^deg p(y/D), D the
    denominator of p: factor F modulo the smallest odd prime q at which
    it stays squarefree (a `random.Random` seeded from q makes runs
    reproducible), Hensel-lift the factors above twice Mignotte's bound
    2^deg sum |F_i| on the coefficients of a monic factor of F, and
    recombine in integers: a candidate whose constant term does not
    divide the rest's is rejected before its product is formed, and the
    others are tried by exact division.  Each factor G of F gives the
    class G(Dz)/D^deg G.  The prime search ends because p is one part of
    Yun's decomposition in `factor_classes`, so squarefree and
    nonconstant.  Zassenhaus starts at degree 3: a p of degree 1 is its
    own class, and z^2 + bz + c splits over Q iff its discriminant
    b^2 - 4c is the square of a rational, into the rational roots
    (-b +- sqrt(b^2 - 4c)) / 2, and is its own class otherwise.
    """
    nums, den = p.numerators, p.denominator  # nums[-1] = den, as p is monic
    n = len(nums) - 1
    if n == 1:
        return [AlgebraicClass(p)]
    if n == 2:  # discriminant disc / den^2: a rational square iff disc is a square
        disc = nums[1] ** 2 - 4 * nums[0] * den
        root = isqrt(disc) if disc > 0 else 0
        if root * root != disc:
            return [AlgebraicClass(p)]
        return [AlgebraicClass.from_rational(Q(-nums[1] + s, 2 * den)) for s in (root, -root)]
    big = [c * den ** (n - 1 - i) for i, c in enumerate(nums[:-1])] + [1]

    def good(q):  # q is an odd prime and F stays squarefree mod q
        if any(q % r == 0 for r in range(3, isqrt(q) + 1, 2)):
            return False
        deriv = _trim([i * c % q for i, c in enumerate(big)][1:])
        return len(_xgcd([c % q for c in big], deriv, q)[0]) == 1

    q = next(filter(good, count(3, 2)))
    rng = random.Random(q)
    modular = [g for f, k in _ddf([c % q for c in big], q) for g in _edf(f, k, q, rng)]
    bound, modulus = 2 ** (n + 1) * sum(abs(c) for c in big), q
    while modulus <= bound:
        modulus *= modulus
    lifted = _hensel(big, modular, q, modulus)

    def symmetric(c):  # the residue in (-modulus/2, modulus/2]
        return c - modulus if 2 * c > modulus else c

    # the smallest subset whose product divides F is an irreducible factor
    rest, found, size = big, [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            c0 = symmetric(reduce(lambda a, i: a * lifted[i][0] % modulus, subset, 1))
            if rest[0] % c0 if c0 else rest[0]:
                continue
            g = [symmetric(c) for c in _prod([lifted[i] for i in subset], modulus)]
            quo, rem, _ = _pseudo_divmod(rest, g)  # g is monic: no scaling
            if not rem:
                found.append(g)
                rest = quo
                lifted = [f for i, f in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    if len(rest) > 1:
        found.append(rest)
    scaled = ([c * den ** i for i, c in enumerate(g)] for g in found)  # G(Dz), lc D^deg G
    return [AlgebraicClass(Polynomial.from_integers(f, f[-1])) for f in scaled]


# polynomials modulo m: int lists, lowest degree first, no trailing zeros


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a: list, b: list, m: int, sign: int = 1) -> list:
    """a + sign * b modulo m."""
    return _trim([(x + sign * y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _mul(a: list, b: list, m: int) -> list:
    return _trim([c % m for c in _mul_int(a, b)])


def _prod(polys: list, m: int) -> list:
    return reduce(lambda a, b: _mul(a, b, m), polys, [1])


def _divmod(a: list, b: list, m: int) -> tuple[list, list]:
    """Quotient and remainder of a by b modulo m; lc(b) must be a unit."""
    rem, inv, db = [c % m for c in a], pow(b[-1], -1, m), len(b) - 1
    quo = [0] * max(len(rem) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = rem[k + db] * inv % m
        for j, y in enumerate(b):
            rem[k + j] = (rem[k + j] - c * y) % m
    return _trim(quo), _trim(rem[:db])


def _xgcd(a: list, b: list, q: int) -> tuple[list, list, list]:
    """Extended Euclid modulo the prime q, for a nonzero a: the monic gcd g
    and s, t with s a + t b = g, deg s < deg b and deg t < deg a."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        quo, rem = _divmod(r0, r1, q)
        r0, r1 = r1, rem
        s0, s1 = s1, _add(s0, _mul(quo, s1, q), q, -1)
        t0, t1 = t1, _add(t0, _mul(quo, t1, q), q, -1)
    inv = pow(r0[-1], -1, q)
    return tuple([c * inv % q for c in x] for x in (r0, s0, t0))


def _powmod(a: list, e: int, f: list, q: int) -> list:
    """a^e modulo f and q."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, q), f, q)[1]
        a = _divmod(_mul(a, a, q), f, q)[1]
        e >>= 1
    return out


def _ddf(f: list, q: int) -> list[tuple[list, int]]:
    """Distinct-degree factorization of a monic squarefree f modulo q:
    pairs (the product of its irreducible factors of degree k, k)."""
    out, h, k = [], [0, 1], 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        h = _powmod(h, q, f, q)  # z^(q^k) mod f
        g = _xgcd(f, _add(h, [0, 1], q, -1), q)[0]
        if len(g) > 1:
            out.append((g, k))
            f = _divmod(f, g, q)[0]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(f: list, k: int, q: int, rng: random.Random) -> list[list]:
    """Cantor-Zassenhaus: split f, a product of distinct monic irreducible
    factors of degree k modulo the odd prime q, into those factors."""
    if len(f) - 1 == k:
        return [f]
    while True:
        a = _trim([rng.randrange(q) for _ in range(len(f) - 1)])
        g = _xgcd(f, _add(_powmod(a, (q ** k - 1) // 2, f, q), [1], q, -1), q)[0]
        if 1 < len(g) < len(f):
            return _edf(g, k, q, rng) + _edf(_divmod(f, g, q)[0], k, q, rng)


def _hensel(f: list, factors: list[list], q: int, modulus: int) -> list[list]:
    """Lift the monic factors of the monic f modulo q to monic factors of f
    modulo `modulus`, a power q^(2^j): split them in two halves, lift the
    pair of products quadratically (von zur Gathen-Gerhard, Algorithm
    15.10), then each half in turn."""
    if len(factors) < 2:
        return [f]
    half = len(factors) // 2
    g, h = _prod(factors[:half], q), _prod(factors[half:], q)
    _, s, t = _xgcd(g, h, q)
    m = q
    while m < modulus:
        m *= m
        e = _add(f, _mul(g, h, m), m, -1)
        quo, rem = _divmod(_mul(s, e, m), h, m)
        g = _add(g, _add(_mul(t, e, m), _mul(quo, g, m), m), m)
        h = _add(h, rem, m)
        b = _add(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m, -1)
        c, d = _divmod(_mul(s, b, m), h, m)
        s = _add(s, d, m, -1)
        t = _add(t, _add(_mul(t, b, m), _mul(c, g, m), m), m, -1)
    return _hensel(g, factors[:half], q, modulus) + _hensel(h, factors[half:], q, modulus)


def factor_classes(p: Polynomial) -> list[tuple[AlgebraicClass, int]]:
    """Factor p into algebraic classes with multiplicities.

    Yun's squarefree decomposition, then Zassenhaus on each squarefree
    part; the result is sorted deterministically by class key.
    """
    out = [(cls, k) for g, k in squarefree_decomposition(p) for cls in _split_squarefree(g)]
    return sorted(out, key=lambda cm: cm[0].key())


def preimage_poly(base: Polynomial, num: Polynomial, den: Polynomial) -> Polynomial:
    """Monic polynomial whose roots are the R-preimages of the roots of base.

    For monic base F of degree g and R = num/den with deg num = d > deg den,
    the product over roots w of F of (num(z) - w*den(z)) equals
    sum_i F_i * num^i * den^(g-i), monic of degree d*g once divided by its
    leading coefficient.  It is summed in integers: with num = N/a and
    den = D/b, N and D integer, it is sum_i F_i (bN)^i (aD)^(g-i) up to a
    constant, by Horner's rule in bN.  Preimages are counted with
    algebraic multiplicity.
    """
    fs = base.numerators
    g = len(fs) - 1
    u = [c * den.denominator for c in num.numerators]
    v = [c * num.denominator for c in den.numerators]
    v_pows = [[1]]
    for _ in range(g):
        v_pows.append(_mul_int(v_pows[-1], v))
    acc = [fs[g]]
    for i in range(g - 1, -1, -1):
        acc = _mul_int(acc, u)
        for j, c in enumerate(v_pows[g - i]):
            acc[j] += fs[i] * c
    return _monic(acc)


def _integer_product(factors: Iterable[tuple[Polynomial, int]]) -> tuple[list[int], int]:
    """prod p^e over (p, e) in factors, each e >= 1, in integers.

    Each p is scaled to the integer polynomial D_p p, D_p its
    denominator.  Returns the coefficients of prod (D_p p)^e, lowest
    degree first, formed by repeated `_mul_int`, and the scale
    prod D_p^e.
    """
    out, scale = [1], 1
    for p, e in factors:
        for _ in range(e):
            out = _mul_int(out, p.numerators)
        scale *= p.denominator ** e
    return out, scale
