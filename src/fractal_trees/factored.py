"""Integers and rationals kept in prime-factored form.

Spanning-tree counts on level-n fractal graphs have exponents that grow
like m^n, so the counts themselves can never be materialized at depth.
Everything downstream (exponent tables, entropy) works on
{prime: exponent} maps; the plain integer value is only produced on
request and only when it is small enough to print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict

Factorization = Dict[int, int]


def factorize(n: int) -> Factorization:
    """Prime factorization of a positive integer by trial division."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: Factorization = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
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


@dataclass(frozen=True)
class FactoredRational:
    """A nonzero rational as sign * prod p^e with e possibly negative."""

    sign: int = 1
    factors: tuple = ()  # sorted tuple of (prime, exponent), exponent != 0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @classmethod
    def one(cls) -> "FactoredRational":
        return cls(1, ())

    @classmethod
    def from_int(cls, n: int) -> "FactoredRational":
        if n == 0:
            raise ValueError("zero cannot be factored")
        sign = 1 if n > 0 else -1
        return cls(sign, tuple(sorted(factorize(abs(n)).items())))

    @classmethod
    def from_fraction(cls, q: Fraction) -> "FactoredRational":
        if q == 0:
            raise ValueError("zero cannot be factored")
        num = cls.from_int(q.numerator)
        return num / cls.from_int(q.denominator)

    def _as_dict(self) -> Factorization:
        return dict(self.factors)

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        f = self._as_dict()
        for p, e in other.factors:
            f[p] = f.get(p, 0) + e
            if f[p] == 0:
                del f[p]
        return FactoredRational(self.sign * other.sign, tuple(sorted(f.items())))

    def __truediv__(self, other: "FactoredRational") -> "FactoredRational":
        return self * other ** -1

    def __pow__(self, e: int) -> "FactoredRational":
        if e == 0:
            return FactoredRational.one()
        sign = self.sign if e % 2 else 1
        return FactoredRational(sign, tuple((p, k * e) for p, k in self.factors))

    def is_integer(self) -> bool:
        return all(e > 0 for _, e in self.factors)

    def as_integer(self) -> "FactoredInteger":
        if self.sign != 1 or not self.is_integer():
            raise ValueError(f"not a positive integer: {self}")
        return FactoredInteger(dict(self.factors))

    def __str__(self):
        s = "-" if self.sign < 0 else ""
        if not self.factors:
            return s + "1"
        return s + " * ".join(f"{p}^{e}" for p, e in self.factors)


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer as a prime -> exponent map (exponents >= 1)."""

    factors: Factorization = field(default_factory=dict)

    def __post_init__(self):
        for p, e in self.factors.items():
            if e < 1:
                raise ValueError("FactoredInteger exponents must be >= 1")

    @classmethod
    def from_int(cls, n: int) -> "FactoredInteger":
        if n < 1:
            raise ValueError("FactoredInteger needs a positive integer")
        return cls(factorize(n))

    def exponent(self, p: int) -> int:
        return self.factors.get(p, 0)

    @property
    def primes(self) -> tuple:
        return tuple(sorted(self.factors))

    def value(self, digit_cap: int = 100_000) -> int:
        """Materialize the integer; refuses beyond digit_cap digits."""
        if self.digits10() > digit_cap:
            raise OverflowError(
                f"value has about {self.digits10()} digits; use the factored form"
            )
        out = 1
        for p, e in sorted(self.factors.items()):
            out *= p ** e
        return out

    def digits10(self) -> int:
        """Decimal digit count, from exponents via high-precision logs."""
        if not self.factors:
            return 1
        import mpmath

        with mpmath.workdps(60):
            acc = mpmath.mpf(0)
            for p, e in self.factors.items():
                acc += e * mpmath.log10(p)
            return int(mpmath.floor(acc)) + 1

    def log(self, dps: int = 40):
        """Natural log as an mpmath float at dps decimal digits."""
        import mpmath

        with mpmath.workdps(dps):
            acc = mpmath.mpf(0)
            for p, e in sorted(self.factors.items()):
                acc += e * mpmath.log(p)
            return acc

    def __eq__(self, other):
        if isinstance(other, FactoredInteger):
            return self.factors == other.factors
        if isinstance(other, int):
            return self._equals_int(other)
        return NotImplemented

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
            if r or n % p == 0:
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
