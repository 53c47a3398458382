"""Assembly of exact spanning-tree counts from the spectrum tables.

tau(G_n) = | prod d_j / sum d_j * prod over spectrum entries of the
preiterate product |.  Every factor is a power of one of a few
rationals: the vertex degrees, m^-n and (|V0|(|V0|-1))^-1 (the degree
sum), each family's class norm, and the one-step ratio
`DecimationData.ratio` = (-1)^(d+1) Q(0)/P_d.  The preiterate product of
a conjugate family is closed form: the product of all d^k k-fold
preimages of every conjugate of beta equals
norm(beta) * ratio^(deg * (d^k - 1)/(d - 1)), which is what makes counts
with 10^14 digits tractable.

`LevelWalk` advances its sums from level n - 1 to n, so all levels up
to n cost O(n) steps; each step takes one level from the spectrum
induction (`decimation.induction`), which checks its sum rule, and
keeps that level's born families.  The families born at level n - 1
that lift (decided by the induction) add their norm once, so the walk
sums their multiplicities per class; the others split and drop out.
The ratio exponent follows L_n = d L_{n-1} + W_n, W_n = sum of mult * deg
over the lifted families, as (d^(k+1) - 1)/(d - 1) = d (d^k - 1)/(d - 1)
+ 1 (also for d = 1).  Corners gain kappa_j and m^-1 once per level, so
the walk counts levels; interior degrees follow H_n = m H_{n-1} + the
factors of the new site degrees.  `factors` expands the summed norms and
the level count into primes, each norm factored once per walk.
`preiterate_product` and `levels.degree_stats` give the same pieces at
one level from scratch.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .decimation import DecimationData, InconsistentSpectrumError, derive, induction
from .decimation import spectrum  # noqa: F401 - perfbench's self-test reads counting.spectrum
from .factored import FactoredInteger, Factorization, factorize
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
    powers[dd.ratio] = powers.get(dd.ratio, 0) + exponent
    return powers


class LevelWalk:
    """The pieces of tau(G_n), one level per `step`, which checks the
    spectrum sum rule and the degree recursion's counts: a summed
    multiplicity per lifted class, the level count and the per-prime
    interior sums.  `factors` expands them into primes and checks that the
    level's product is a positive integer.  Key -1 of a sum counts the
    negative bases."""

    def __init__(self, s: SelfSimilarStructure, dd: DecimationData):
        self.s, self.dd, self.level = s, dd, 0
        self._levels = induction(dd)
        _, self.born, _ = next(self._levels)  # the depth-0 families at self.level
        self.kappa, self.sites = s.corner_cell_counts(), s.gluing_sites()
        self._cache: dict[int, Factorization] = {}
        self.corner = [s.v0_size - 1] * s.v0_size
        # corner degrees and the degree sum's |V0|(|V0|-1) at level 0
        self.fixed = self._add(self._add({}, s.v0_size - 1, s.v0_size - 1), s.v0_size, -1)
        self.norms: dict[AlgebraicClass, int] = {}  # lifted class -> summed mult
        self.interior, self.inner_count, self.inner_sum = {}, 0, 0  # H_n
        self.lifts = self.weight = 0  # L_n and W_n
        self.m_power = 1  # m^n

    def _add(self, acc: Factorization, q, e: int) -> Factorization:
        """acc += e * (prime exponents of the nonzero int or Fraction q)."""
        if q < 0:
            acc[-1] = acc.get(-1, 0) + e
        for part, scale in ((abs(q.numerator), e), (q.denominator, -e)):
            if part > 1:
                if part not in self._cache:
                    self._cache[part] = factorize(part)
                for p, k in self._cache[part].items():
                    acc[p] = acc.get(p, 0) + k * scale
        return acc

    def step(self):
        s, dd, n = self.s, self.dd, self.level + 1
        v_n, self.born, lifted = next(self._levels)
        norms = self.norms
        for cls, mult in lifted.items():
            total = norms.get(cls)
            if total is None and cls.contains_zero():
                raise InconsistentSpectrumError("the zero eigenvalue is never lifted to preiterates")
            norms[cls] = (total or 0) + mult
            self.weight += mult * cls.degree
        self.lifts = dd.d * self.lifts + self.weight
        self.level = n
        # the lifted families hold sum mult * deg * d^k = (d - 1) L_n + W_n roots
        count = 1 + (dd.d - 1) * self.lifts + self.weight
        count += sum(m * c.degree for c, m in self.born.items())
        if count != v_n:
            raise InconsistentSpectrumError(f"sum rule violated at level {n}: {count} != {v_n}")

        # the sites born at level n have one copy; older ones gain a factor m
        self.interior = {p: s.m * e for p, e in self.interior.items()}
        self.inner_count = s.m * self.inner_count + len(self.sites)
        self.inner_sum *= s.m
        for slots in self.sites.values():
            d = sum(self.corner[j] for _, j in slots)
            self._add(self.interior, d, 1)
            self.inner_sum += d
        self.corner = [k * c for k, c in zip(self.kappa, self.corner)]
        self.m_power *= s.m
        if s.v0_size + self.inner_count != v_n:
            raise AssertionError("degree recursion vertex count mismatch")
        # twice the edge count of G_n, m^n |V0|(|V0|-1)
        if sum(self.corner) + self.inner_sum != self.m_power * s.v0_size * (s.v0_size - 1):
            raise AssertionError("degree recursion handshake mismatch")

    def factors(self) -> FactoredInteger:
        """tau(G_n) at the current level, checked to be a positive integer."""
        out = dict(self.fixed)
        # carried norms, and the corners' kappa_j with m^-1 once per level
        for cls, mult in self.norms.items():
            self._add(out, cls.norm(), mult)
        self._add(out, Fraction(prod(self.kappa), self.s.m), self.level)
        for cls, mult in self.born.items():
            if cls.contains_zero():
                raise InconsistentSpectrumError("class norm of a class containing 0 vanishes")
            self._add(out, cls.norm(), mult)
        for p, e in self.interior.items():
            out[p] = out.get(p, 0) + e
        self._add(out, self.dd.ratio, self.lifts)
        sign = -1 if out.pop(-1, 0) % 2 else 1
        negative = sorted(p for p, e in out.items() if e < 0)
        if sign != 1 or negative:
            raise AssemblyError(
                f"assembly mismatch at level {self.level}: the product is not a positive "
                f"integer (sign {sign:+d}, negative exponents at primes {negative})"
            )
        return FactoredInteger({p: e for p, e in out.items() if e})


def tau(s: SelfSimilarStructure, n: int, dd: DecimationData | None = None) -> FactoredInteger:
    """Exact number of spanning trees of G_n, in factored form."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n == 0:
        # complete graph on the boundary: Cayley's formula
        return FactoredInteger.from_int(s.v0_size ** (s.v0_size - 2))
    walk = LevelWalk(s, dd if dd is not None else derive(s))
    while walk.level < n:
        walk.step()
    return walk.factors()


def exponent_table(
    s: SelfSimilarStructure, n_max: int, dd: DecimationData | None = None
) -> dict[int, list[int]]:
    """Per-prime exponent sequences of tau(G_n) for 0 <= n <= n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    walk = LevelWalk(s, dd if dd is not None else derive(s))
    taus = [tau(s, 0)]
    while walk.level < n_max:
        walk.step()
        taus.append(walk.factors())
    primes = sorted({p for t in taus for p in t.factors})
    return {p: [t.exponent(p) for t in taus] for p in primes}
