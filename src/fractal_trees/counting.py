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

`LevelWalk` advances its sums from level n - 1 to n; each step takes
one level from the spectrum induction (`decimation.Induction`), which
checks its sum rule, and keeps that level's born families.  The
families born at level n - 1 that lift (decided by the induction) add
their norm once, so the walk sums their multiplicities per class; the
others split and drop out.
The ratio exponent follows L_n = d L_{n-1} + W_n, W_n = sum of mult * deg
over the lifted families, as (d^(k+1) - 1)/(d - 1) = d (d^k - 1)/(d - 1)
+ 1 (also for d = 1).  Corners gain kappa_j and m^-1 once per level, so
the walk counts levels; interior degrees follow H_n = m H_{n-1} + the
factors of the new site degrees.  `factors` expands the summed norms and
the level count into primes, each norm factored once per walk.
`preiterate_product` and `levels.degree_stats` give the same pieces at
one level from scratch.

The walk does not step to n.  Once the induction's level map is fixed
(`Induction.fixed_roots`: no class left to intern, no deep hit pending)
every piece above is linear in a state that the map advances, so every
exponent obeys one linear recurrence.  Its annihilator is built from the
map's tables: the roots of the born block (each class's own coefficient,
m and 1) times the roots 1, m, d and kappa that the sums add
(`LevelWalk._annihilator`).  The walk steps one level more than its
degree, checks in integers that the last level is the recurrence of the
others, and proves by differences that no multiplicity turns negative
later.  A linear check (the sum rules, the degree recursion's counts)
that holds at that many consecutive levels holds at every later one, so
none is dropped.  Then `step` follows the recurrence and `jump` sets the
level-n exponents from z^(n - k) mod the annihilator: `tau` costs a few
levels and O(log n) polynomial products, and `exponent_table` one
combination per level.  Every produced level is still checked to be a
positive integer.  Where no certificate can be given (unequal corner
counts, a cycle in the born block, a pending deep hit) the walk keeps
stepping.
"""

from __future__ import annotations

from fractions import Fraction
from math import log10, prod
from typing import Optional

from .decimation import DecimationData, Induction, InconsistentSpectrumError, derive
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
    interior sums.  `exponents` expands them into primes, and `factors`
    checks that the level's product is a positive integer.  Key -1 of a
    sum counts the negative bases.  Once the recurrence of the exponents
    is checked (module docstring), `step` follows it and `jump` skips to
    any later level."""

    def __init__(self, s: SelfSimilarStructure, dd: DecimationData):
        self.s, self.dd, self.level = s, dd, 0
        self._levels = Induction(dd)
        _, self.born, _ = next(self._levels)  # the depth-0 families at self.level
        self.kappa, self.sites = s.corner_cell_counts(), s.gluing_sites()
        self._corner_ratio, self._ratio = Fraction(prod(self.kappa), s.m), dd.ratio
        self._cache: dict = {}  # int, Fraction or class -> its exponents
        self.corner = [s.v0_size - 1] * s.v0_size
        # corner degrees and the degree sum's |V0|(|V0|-1) at level 0
        self.fixed = self._add(self._add({}, s.v0_size - 1, s.v0_size - 1), s.v0_size, -1)
        self.norms: dict[AlgebraicClass, int] = {}  # lifted class -> summed mult
        self.interior, self.inner_count, self.inner_sum = {}, 0, 0  # H_n
        self.lifts = self.weight = 0  # L_n and W_n
        self.m_power = 1  # m^n
        self.roots: Optional[dict] = None  # class -> roots, once the level map is fixed
        # the annihilator, low coefficient first and monic, and its recurrence
        # x_k = sum _next[j] x_(k - size + j)
        self.recurrence: list[int] = []
        self._next: list[int] = []
        # the walk's state at consecutive levels up to this one, from the
        # level where the map was fixed on, and the exponents of those levels
        # (assembled only once there are enough levels to check)
        self.states: list[tuple] = []
        self.rows: list[Factorization] = []
        self.jumps = False  # the rows check the recurrence: levels follow it

    def _add(self, acc: Factorization, q, e: int) -> Factorization:
        """acc += e * (prime exponents of the nonzero int or Fraction q, or
        of the norm of the class q), each q factored once per walk."""
        factors = self._cache.get(q)
        if factors is None:
            rational = q.norm() if isinstance(q, AlgebraicClass) else q
            factors = self._cache[q] = {-1: 1} if rational < 0 else {}
            for part, sign in ((abs(rational.numerator), 1), (rational.denominator, -1)):
                if part > 1:
                    for p, k in factorize(part).items():
                        factors[p] = sign * k
        for p, k in factors.items():
            acc[p] = acc.get(p, 0) + k * e
        return acc

    def step(self):
        if self.jumps:
            self.rows = self.rows[1:] + [_combine(self._next, self.rows)]
            self.level += 1
            return
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
        self._watch()

    def _annihilator(self) -> list[int]:
        """The monic integer polynomial, low coefficient first, whose
        recurrence every exponent of tau(G_k) obeys from the level where
        the map was fixed on.

        Each piece of the walk is linear in the born multiplicities, whose
        roots the induction gives (m and 1 come with |V_n| and m^n).  The
        lifted norms and W_n sum them (root 1), L_n = d L_(n-1) + W_n adds
        d, and the level count is 1 twice.  The interior degrees are
        H_n = m H_(n-1) + (new sites): with one kappa for every corner a
        site's degree is a constant times kappa^(n-1), whose exponents are
        linear in n (roots m, 1, 1).  The corners (kappa) and the degree
        sum of the sites (m, kappa) carry the handshake count.  With
        unequal kappas the site degrees are sums of powers, which the
        walk keeps stepping.
        """
        m, kappa = self.s.m, self.kappa[0]
        roots = {m: 1, 1: 1}
        for part in self.roots.values():
            for r, e in part.items():
                roots[r] = max(roots.get(r, 0), e)
        roots[1] += 1  # the sums of born multiplicities
        roots[self.dd.d] = roots.get(self.dd.d, 0) + 1  # L_n
        # the level count and the interior degrees need (z - 1)^2 (z - m),
        # which divides the roots so far; the handshake count (z - m)(z - kappa)
        roots[kappa] = max(roots.get(kappa, 0), 2 if kappa == m else 1)
        poly = [1]
        for r, e in roots.items():
            for _ in range(e):  # times (z - r)
                poly = [a - r * b for a, b in zip([0, *poly], [*poly, 0])]
        return poly

    def _watch(self):
        """Keep the levels from the one where the map was fixed on.  With
        one more than the annihilator's degree, jump if the last is the
        recurrence of the others and they prove every born multiplicity
        nonnegative for good (`_never_negative`); else drop the first and
        wait for the next level.

        A linear identity of the walk (the sum rules, the vertex and
        handshake counts) obeys the recurrence too, so holding at as many
        consecutive levels as its degree it holds at every later level.
        A deep hit would have been set at one of these levels, so a class
        with an exceptional orbit is 0 at as many of them as its degree,
        and so for good.
        """
        if not self.states:
            if len(set(self.kappa)) == 1:
                self.roots = self._levels.fixed_roots()
            if self.roots is None:
                return
            self.recurrence = self._annihilator()
            self._next = [-c for c in self.recurrence[:-1]]
        norms, *rest = self._state()
        self.states.append((dict(norms), *rest))
        if len(self.states) < len(self.recurrence):
            return
        self.rows += [self._assemble(*state) for state in self.states[len(self.rows):]]
        if (
            _nonzero(_combine(self._next, self.rows[:-1])) == _nonzero(self.rows[-1])
            and self._levels.deep_hit is None
            and all(
                _never_negative([state[2].get(cls, 0) for state in self.states], roots)
                for cls, roots in self.roots.items()
            )
        ):
            self.jumps = True
        del self.states[0], self.rows[0]

    def jump(self, n: int):
        """Move to a level n above this one along the recurrence: each kept
        row moves k levels up as z^k mod the annihilator applied to the
        rows."""
        if not self.jumps or n <= self.level:
            raise ValueError("the walk jumps forward along a checked recurrence only")
        mod, rows = self.recurrence, []
        power = _power_of_z(n - self.level, mod)
        for _ in self.rows:
            rows.append(_combine(power, self.rows))
            power = _mulmod(power, [0, 1], mod)
        self.rows, self.level = rows, n

    def exponents(self) -> Factorization:
        """The prime exponents of tau(G_n) at the current level, key -1
        counting the negative bases."""
        return self.rows[-1] if self.jumps else self._assemble(*self._state())

    def _state(self) -> tuple:
        """What the exponents of the current level are assembled from."""
        return self.norms, self.interior, self.born, self.level, self.lifts

    def _assemble(self, norms, interior, born, level, lifts) -> Factorization:
        out = dict(self.fixed)
        # carried norms, and the corners' kappa_j with m^-1 once per level
        for cls, mult in norms.items():
            self._add(out, cls, mult)
        self._add(out, self._corner_ratio, level)
        for cls, mult in born.items():
            if cls.contains_zero():
                raise InconsistentSpectrumError("class norm of a class containing 0 vanishes")
            self._add(out, cls, mult)
        for p, e in interior.items():
            out[p] = out.get(p, 0) + e
        self._add(out, self._ratio, lifts)
        return out

    def factors(self) -> FactoredInteger:
        """tau(G_n) at the current level, checked to be a positive integer."""
        out = self.exponents()
        sign = -1 if out.get(-1, 0) % 2 else 1
        negative = sorted(p for p, e in out.items() if e < 0 and p != -1)
        if sign != 1 or negative:
            raise AssemblyError(
                f"assembly mismatch at level {self.level}: the product is not a positive "
                f"integer (sign {sign:+d}, negative exponents at primes {negative})"
            )
        return FactoredInteger({p: e for p, e in out.items() if e and p != -1})


def _nonzero(row: Factorization) -> Factorization:
    return {p: e for p, e in row.items() if e}


def _combine(coeffs: list[int], rows: list[Factorization]) -> Factorization:
    """sum coeffs[j] * rows[j], key by key."""
    out: Factorization = {}
    for c, row in zip(coeffs, rows):
        if c:
            for p, e in row.items():
                out[p] = out.get(p, 0) + c * e
    return out


def _mulmod(a: list[int], b: list[int], mod: list[int]) -> list[int]:
    """a b modulo the monic mod, each low coefficient first."""
    size = len(mod) - 1
    out = [0] * (len(a) + len(b) + size)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for t in range(len(out) - 1, size - 1, -1):  # z^t = z^(t - size) (z^size - mod)
        if out[t]:
            c = out[t]
            for j, y in enumerate(mod):
                out[t - size + j] -= c * y
    return out[:size]


def _power_of_z(k: int, mod: list[int]) -> list[int]:
    """z^k modulo the monic mod, by squaring."""
    out = [1]
    for bit in bin(k)[2:]:
        out = _mulmod(out, out, mod)
        if bit == "1":
            out = _mulmod(out, [0, 1], mod)
    return out


def _never_negative(values: list[int], roots: dict) -> bool:
    """Whether a sequence annihilated by prod (z - r)^e over roots r >= 0
    with multiplicity e, starting with values (at least as many as the
    roots), stays >= 0.

    Apply E - r (E the shift) for the roots in increasing order: the last
    difference is a multiple of r^k, and x_(k+1) = r x_k + (E - r) x_k
    carries x >= 0 forward from a start where every difference is >= 0.
    """
    for r in sorted(r for r, e in roots.items() for _ in range(e)):
        if values[0] < 0:
            return False
        values = [b - r * a for a, b in zip(values, values[1:])]
    return True


# the exponents of tau(G_n) grow like m^n; levels where m^n has more digits
# than this are refused (near there the mpmath digit count of the value
# alone takes seconds)
COUNT_DIGIT_CAP = 50_000


def tau(s: SelfSimilarStructure, n: int, dd: DecimationData | None = None) -> FactoredInteger:
    """Exact number of spanning trees of G_n, in factored form."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n * log10(s.m) >= COUNT_DIGIT_CAP:
        raise ValueError(
            f"tau(G_{n}) of {s.name} is out of reach: its exponents grow like "
            f"{s.m}^{n}, which has more than {COUNT_DIGIT_CAP} digits"
        )
    if n == 0:
        # complete graph on the boundary: Cayley's formula
        return FactoredInteger.from_int(s.v0_size ** (s.v0_size - 2))
    walk = LevelWalk(s, dd if dd is not None else derive(s))
    while walk.level < n and not walk.jumps:
        walk.step()
    if walk.level < n:
        walk.jump(n)
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
