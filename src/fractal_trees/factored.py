"""Integers kept in prime-factored form.

Spanning-tree counts on level-n fractal graphs have exponents that grow
like m^n, so the counts themselves can never be materialized at depth.
Everything downstream (exponent tables, entropy) works on
{prime: exponent} maps; the plain integer value is only produced on
request and only when it is small enough to print.  Its exact decimal
digit count comes from the exponents and fixed-point logarithms in plain
integers (four Machin-like atanh series), so nothing here loads mpmath.

`FactoredInteger` is the one factored type.
"""

from __future__ import annotations

import sys
from itertools import combinations
from math import gcd
from types import MappingProxyType
from typing import Dict, Mapping

from ._record import Record

Factorization = Dict[int, int]

# `FactoredInteger.value` refuses integers with more decimal digits than this
VALUE_DIGIT_CAP = 100_000

# ln p = 2 sum_i c_i atanh(1/x_i) for x_i = 251, 449, 4801, 8749, exactly: the
# ratios (x+1)/(x-1) are 126/125, 225/224, 2401/2400 and 4375/4374, and the
# products of their powers c_i are 2, 3, 5 and 7
_ATANH_X = (251, 449, 4801, 8749)
_LN_RELATIONS = MappingProxyType({
    2: (72, 27, -19, 31),
    3: (114, 43, -30, 49),
    5: (167, 63, -44, 72),
    7: (202, 76, -53, 87),
})


def factorize(n: int) -> Factorization:
    """Prime factorization of a positive integer by trial division."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    twos = (n & -n).bit_length() - 1
    out: Factorization = {2: twos} if twos else {}
    n >>= twos
    while n % 3 == 0:
        out[3] = out.get(3, 0) + 1
        n //= 3
    i = 5
    while i * i <= n:
        for p in (i, i + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        i += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _atanh(u: int, v: int, g: int) -> int:
    """2^g atanh(u/v) for 0 <= u/v <= 1/3, by its Taylor series with floored
    terms; the result r has 0 <= 2^g atanh(u/v) - r < g/2 + 2.

    With P_j = 2^g (u/v)^(2j+1) and q = (u/v)^2 <= 1/9, the powers are
    p_0 = floor(P_0) and p_j = floor(p_(j-1) q), so 0 <= P_j - p_j < 1 + q (P_(j-1)
    - p_(j-1)) < 9/8, and term j, floor(p_j / (2j+1)), is short by under 1 at
    j = 0 and under 3/8 + 1 after.  p_j >= 1 needs 3^(2j+1) <= 2^g, so at most
    0.32 g terms past the first are nonzero; the first zero p_J drops a term
    under 3/8 and the tail past it under 0.03.  In all, under 0.44 g + 1.41.
    """
    power = (u << g) // v
    out, k, uu, vv = power, 1, u * u, v * v
    while power:
        power = power * uu // vv
        k += 2
        out += power // k
    return out


def _ln_fixed(bases, g: int) -> Dict[int, tuple]:
    """{p: (l, err)} with |l - 2^g ln p| <= err for 2, 3, 5, 7 and each base p >= 2.

    2, 3, 5 and 7 take `_LN_RELATIONS`, so err is 2 sum |c_i| times one series'
    bound; any other p takes k ln 2 + 2 atanh((p - 2^k) / (p + 2^k)), with 2^k
    the nearest power of two, so the argument is at most 1/3 in size and
    err = k err_2 + 2 bounds it.
    """
    bound = g // 2 + 2
    series = [_atanh(1, x, g) for x in _ATANH_X]
    out = {
        p: (2 * sum(c * a for c, a in zip(cs, series)), 2 * bound * sum(map(abs, cs)))
        for p, cs in _LN_RELATIONS.items()
    }
    ln2, err2 = out[2]
    for p in bases:
        if p not in out:
            k = p.bit_length() - 1
            if 2 * p > 3 << k:
                k += 1
            u, v = p - (1 << k), p + (1 << k)
            a = _atanh(abs(u), v, g)
            out[p] = (k * ln2 + 2 * (a if u >= 0 else -a), k * err2 + 2 * bound)
    return out


def _log10_fixed(bases, w: int) -> Dict[int, tuple]:
    """{p: (L_p, eps_p)} for each base p >= 2: L_p = floor(2^w l_p / l_10) from
    `_ln_fixed` at g = w + bits(w) + 32 bits, and |L_p - 2^w log10 p| <= eps_p.

    With l_p = 2^g ln p - d_p and l_10 = 2^g ln 10 - d_10 (|d| <= err),
    2^w l_p / l_10 - 2^w log10 p = 2^w (d_10 log10 p - d_p) / l_10, and
    l_10 >= 2^(g+1) (err_10 is far below 0.3 2^g) and log10 p < bits(p), so
    that gap is at most (bits(p) err_10 + err_p) / 2^(g-w+1), and the floor
    adds under 1 more: eps_p = floor of that quotient + 2.
    """
    g = w + w.bit_length() + 32
    logs = _ln_fixed(bases, g)
    l10, err10 = logs[2][0] + logs[5][0], logs[2][1] + logs[5][1]
    out = {}
    for p in bases:
        lp, err = logs[p]
        out[p] = ((lp << w) // l10, (p.bit_length() * err10 + err >> g - w + 1) + 2)
    return out


def _is_one(exponents: Dict[int, int]) -> bool:
    """Whether prod p^e over a base -> signed exponent map is 1.  Two bases x
    and y with g = gcd(x, y) > 1 become x/g, g and y/g, 1s dropped, until the
    bases are pairwise coprime (Bach-Driscoll-Shallit factor refinement,
    *J. Algorithms* 15, 1993); over those the product is 1 iff every e is 0."""
    while pair := next(((x, y) for x, y in combinations(exponents, 2) if gcd(x, y) > 1), None):
        (x, y), g = pair, gcd(*pair)
        ex, ey = exponents.pop(x), exponents.pop(y)
        for z, e in ((x // g, ex), (g, ex + ey), (y // g, ey)):
            if z > 1:
                exponents[z] = exponents.get(z, 0) + e
    return not any(exponents.values())


class FactoredInteger(Record):
    """A positive integer as a prime -> exponent map (exponents >= 1).

    Immutable: `factors` is a read-only view of a private copy.  Composite
    bases are taken too, and every comparison is by value.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Mapping[int, int] = MappingProxyType({})):
        for p, e in factors.items():
            if p < 2:
                raise ValueError(f"FactoredInteger bases must be >= 2, not {p}")
            if e < 1:
                raise ValueError("FactoredInteger exponents must be >= 1")
        object.__setattr__(self, "factors", MappingProxyType(dict(factors)))

    @classmethod
    def from_int(cls, n: int) -> "FactoredInteger":
        if n < 1:
            raise ValueError("FactoredInteger needs a positive integer")
        return cls(factorize(n))

    def exponent(self, p: int) -> int:
        return self.factors.get(p, 0)

    def digits_past(self, cap: int):
        """The exact decimal digit count when it exceeds cap, else None.

        The value is below 2^bits, bits = sum e bits(p), so it has at most
        bits log10(2) + 1 digits; `digits10` runs only past that bound."""
        bits = sum(e * p.bit_length() for p, e in self.factors.items())
        if bits * 30103 // 100000 + 1 <= cap:
            return None
        digits = self.digits10()
        return digits if digits > cap else None

    def value(self) -> int:
        """Materialize the integer; refuses beyond `VALUE_DIGIT_CAP` digits."""
        digits = self.digits_past(VALUE_DIGIT_CAP)
        if digits is not None:
            raise OverflowError(f"value has about {digits} digits; use the factored form")
        out = 1
        for p, e in sorted(self.factors.items()):
            out *= p ** e
        return out

    def digits10(self) -> int:
        """Exact decimal digit count, floor(log10) + 1, from the exponents.

        A power of ten (every base 2^i 5^j, the 2s and 5s equal in total) is
        the only value with an integral log10, and its count is read off.
        Any other log10 is irrational, and is enclosed at w fractional bits:
        S = sum e_p L_p with |L_p - 2^w log10 p| <= eps_p (`_log10_fixed`)
        is within H = sum e_p eps_p + 1 of 2^w log10 of the value, so when
        S - H and S + H have one floor at 2^w, that floor is floor(log10).
        Otherwise w doubles, from the largest exponent's bit length + 32.
        """
        twos = fives = 0
        for p, e in self.factors.items():
            i = (p & -p).bit_length() - 1
            p >>= i
            j = 0
            while p % 5 == 0:
                p //= 5
                j += 1
            if p != 1:
                break
            twos, fives = twos + i * e, fives + j * e
        else:
            if twos == fives:
                return twos + 1
        w = max(e.bit_length() for e in self.factors.values()) + 32
        while True:
            logs = _log10_fixed(self.factors, w)
            s = h = 0
            for p, e in self.factors.items():
                lp, eps = logs[p]
                s += e * lp
                h += e * eps
            h += 1
            whole = (s - h) >> w
            if whole == (s + h) >> w:
                return whole + 1
            w *= 2

    def __eq__(self, other):
        if isinstance(other, FactoredInteger):
            # maps that differ form one value only if their hashes agree
            return self.factors == other.factors or hash(self) == hash(other) and _is_one(
                {p: self.exponent(p) - other.exponent(p) for p in {*self.factors, *other.factors}})
        if isinstance(other, int):
            return self._equals_int(other)
        return NotImplemented

    def __hash__(self):
        # equal to hash(int) of the value, since the two compare equal
        modulus = sys.hash_info.modulus
        out = 1
        for p, e in self.factors.items():
            out = out * pow(p, e, modulus) % modulus
        return out

    def _equals_int(self, n: int) -> bool:
        """Divide n by each p^e exactly; n itself is never factored."""
        if n < 1:
            return False
        for p, e in self.factors.items():
            # p^e >= 2^(e (bits(p) - 1)); bail out before building a power
            # far larger than n
            if e * (p.bit_length() - 1) >= n.bit_length():
                return False
            n, r = divmod(n, p ** e)
            if r:
                return False
        return n == 1

    def __str__(self):
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" for p, e in sorted(self.factors.items()))

    def to_json(self) -> dict:
        return {
            "factors": {str(p): str(e) for p, e in sorted(self.factors.items())},
            "digits": self.digits10(),
        }
