"""Integers kept in prime-factored form.

Spanning-tree counts on level-n fractal graphs have exponents that grow
like m^n, so the counts themselves can never be materialized at depth.
Everything downstream (exponent tables, entropy) works on
{prime: exponent} maps; the plain integer value is only produced on
request and only when it is small enough to print.

`FactoredInteger` is the one factored type.
"""

from __future__ import annotations

import sys
from types import MappingProxyType
from typing import Dict, Mapping

from ._record import Record

Factorization = Dict[int, int]

# `FactoredInteger.value` refuses integers with more decimal digits than this
VALUE_DIGIT_CAP = 100_000


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


class FactoredInteger(Record):
    """A positive integer as a prime -> exponent map (exponents >= 1).

    Immutable: `factors` is a read-only view of a private copy.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Mapping[int, int] = MappingProxyType({})):
        for p, e in factors.items():
            if e < 1:
                raise ValueError("FactoredInteger exponents must be >= 1")
        object.__setattr__(self, "factors", MappingProxyType(dict(factors)))

    def __reduce__(self):  # a mappingproxy does not pickle
        return FactoredInteger, (dict(self.factors),)

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

        Powers of ten are the only integers with an integral log10; for
        every other value the log is summed at doubling precision until
        its fractional part is clear of 0 and 1 by far more than the
        rounding error (10^-20 at the starting precision).
        """
        if not self.factors:
            return 1
        if self.factors.keys() == {2, 5} and self.factors[2] == self.factors[5]:
            return self.factors[2] + 1
        import mpmath

        # at least the decimal digits of the largest exponent (log10 2 < 0.302), + 30
        start = max(e.bit_length() for e in self.factors.values()) * 302 // 1000 + 31
        dps = start
        while True:
            with mpmath.workdps(dps):
                acc = mpmath.fsum(e * mpmath.log10(p) for p, e in self.factors.items())
                whole = mpmath.floor(acc)
                margin = mpmath.mpf(10) ** (start - dps - 20)
                if margin < acc - whole < 1 - margin:
                    return int(whole) + 1
            dps *= 2

    def __eq__(self, other):
        if isinstance(other, FactoredInteger):
            return self.factors == other.factors
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
