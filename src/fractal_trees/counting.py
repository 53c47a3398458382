"""Assembly of exact spanning-tree counts from the spectrum tables.

tau(G_n) = | prod d_j / sum d_j * prod over spectrum entries of the
preiterate product |.  Every factor is a power of one of a few
rationals: the vertex degrees, m^-n and (|V0|(|V0|-1))^-1 (the degree
sum), each family's class norm, and the one-step ratio
(-1)^(d+1) Q(0)/P_d.  The preiterate product of a conjugate family is
closed form: the product of all d^k k-fold preimages of every conjugate
of beta equals norm(beta) * ((-1)^(d+1) Q(0)/P_d)^(deg * (d^k - 1)/(d - 1)),
which is what makes counts with 10^14 digits tractable.  `tau` adds the
exponents of every source into one {base: exponent} map and factors each
distinct base once at the end.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .decimation import DecimationData, derive, spectrum
from .factored import FactoredInteger, factor_powers
from .levels import degree_stats
from .polys import AlgebraicClass
from .structures import SelfSimilarStructure


class AssemblyError(ArithmeticError):
    """The factored assembly failed to produce a positive integer."""


def preiterate_product(
    dd: DecimationData, base: AlgebraicClass, k: int
) -> dict[Fraction, int]:
    """Product of all k-fold R-preimages of all conjugates of base, as
    {rational base: exponent}: norm(base)^1 * ratio^exponent.

    k = 0 gives the class norm itself.  The zero eigenvalue is never
    lifted (connectivity), so a base containing 0 is rejected for k >= 1.
    """
    if k < 0:
        raise ValueError("preiterate depth must be nonnegative")
    if base.contains_zero():
        if k >= 1:
            raise ValueError("the zero eigenvalue is never lifted to preiterates")
        raise ValueError("class norm of a class containing 0 vanishes")
    powers = {base.norm(): 1}
    if k == 0:
        return powers
    if dd.d == 1:
        exponent = base.degree * k
    else:
        exponent = base.degree * (dd.d ** k - 1) // (dd.d - 1)
    # one preimage step scales the root product by (-1)^(d+1) Q(0)/P_d:
    # the constant term of the monic preimage polynomial is -w Q(0)/P_d
    # and the product of its d roots carries a further (-1)^d
    sign = 1 if dd.d % 2 == 1 else -1
    ratio = sign * dd.Q0 / dd.Pd
    powers[ratio] = powers.get(ratio, 0) + exponent
    return powers


def tau(s: SelfSimilarStructure, n: int, dd: DecimationData | None = None) -> FactoredInteger:
    """Exact number of spanning trees of G_n, in factored form."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n == 0:
        # complete graph on the boundary: Cayley's formula
        return FactoredInteger.from_int(s.v0_size ** (s.v0_size - 2))
    if dd is None:
        dd = derive(s)
    table = spectrum(dd, n)
    stats = degree_stats(s, n)

    powers: Counter = Counter(stats.corner_degrees)
    powers.update(stats.interior_histogram)
    # sum of degrees = 2 E_n = m^n |V0| (|V0| - 1)
    powers[s.m] -= n
    powers[s.v0_size * (s.v0_size - 1)] -= 1
    for cls, k, mult in table.entries:
        for base, e in preiterate_product(dd, cls, k).items():
            powers[base] += e * mult

    sign, factors = factor_powers(powers)
    negative = sorted(p for p, e in factors.items() if e < 0)
    if sign != 1 or negative:
        raise AssemblyError(
            f"assembly mismatch at level {n}: the product is not a positive "
            f"integer (sign {sign:+d}, negative exponents at primes {negative})"
        )
    return FactoredInteger(factors)


def exponent_table(
    s: SelfSimilarStructure, n_max: int, dd: DecimationData | None = None
) -> dict[int, list[int]]:
    """Per-prime exponent sequences of tau(G_n) for 0 <= n <= n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if dd is None:
        dd = derive(s)
    taus = [tau(s, n, dd) for n in range(n_max + 1)]
    primes = sorted({p for t in taus for p in t.factors})
    return {p: [t.exponent(p) for t in taus] for p in primes}
