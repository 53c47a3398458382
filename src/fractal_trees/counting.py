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

`LevelWalk` takes the decimation data alone and reads the structure from
it, so a walk's degrees and its spectrum are of one structure.  It
advances its sums from level n - 1 to n; each step takes one level from
the spectrum induction (`decimation.Induction`), which checks its sum
rule, and keeps that level's born families.  The
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

The walk does not step to n.  From the level where the induction's map
is fixed on (`Induction.needs_zero` names the multiplicities that must stay
0 for that), and with one kappa for every corner (a new site's degree is
then a constant times kappa^(n-1)), `step` is one linear map of the walk's
whole state (`LevelWalk._vector`).  Such a sequence obeys the first linear
relation among its consecutive states, the minimal polynomial of a Krylov
sequence (Wiedemann, IEEE Trans. Inf. Theory 32, 1986).  The walk reduces
each new state against the kept ones by fraction-free elimination
(`_reduce`) and follows the first dependency once its monic form has
integer coefficients and roots >= 0 (`_integer_roots`), it proves every
born multiplicity nonnegative for good (`_never_negative`), and what
`needs_zero` names is 0 at the kept levels, so at as many consecutive
levels as its degree, and for good.  Every exponent is linear in the state
and follows the relation, and so does each linear check that held at the
kept levels (the sum rules, the vertex and handshake counts), so none is
dropped.  The walk then fits each exponent once to its closed form
sum_r P_r(n) r^n over the relation's nonzero roots r, deg P_r below r's
multiplicity, in integers over one denominator per prime
(`_closed_forms`; root 0 only adds to levels before the fitted ones).
From then on `step` and `jump` only set the level (`jump`, the one route
to a level, steps until then), and `exponents` evaluates the forms there,
divides exactly and checks every level, stepped or jumped, to be a
positive integer: `tau` costs a few levels and a few powers r^n.  Where
no certificate can be given (unequal corner counts, a pending deep hit, a
class with two sources, roots that are not integers >= 0) the walk keeps
stepping, and it certifies nothing until the induction's exceptional
orbits have ended.  Every level's exponents, level 0 included, come from
the walk; only `tau(s, 0)` answers by Cayley's formula (no `derive`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, log10, prod
from operator import mul
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
    interior sums.  `exponents` expands them into primes and checks that
    the level's product is a positive integer; key -1 of a sum counts the
    negative bases.  Once the recurrence of the exponents is checked
    (module docstring), their closed forms (`forms`) give every later
    level, and `step` and `jump` only move the level."""

    def __init__(self, dd: DecimationData):
        s = dd.structure
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
        # the recurrence's polynomial, monic with the low coefficient first;
        # its terms (r, i) stand for n^i r^n over the nonzero roots r, and
        # each key's exponent is sum coefficient * term / denominator
        self.recurrence: list[int] = []
        self.terms: list[tuple[int, int]] = []
        self.forms: dict[int, tuple[list[int], int]] = {}
        # per level from the one where the map is fixed on: (state vector, what
        # its exponents are assembled from); None once no jump can be certified
        self.states: Optional[list[tuple]] = []
        self._basis, self._kept = [], []  # echelon form (`_reduce`); after a slide, the relation
        self._coords: dict = {}  # a vector's positions past the fixed ones
        self.jumps = False  # the states' first relation is certified: levels follow it

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

    def _watch(self):
        """Keep the state from the level where the map is fixed on, and
        jump once the first linear relation of the kept states is certified
        (module docstring).  While an orbit has not ended, a multiplicity
        that `needs_zero` names is not 0 at the kept levels, or the relation
        does not prove the born ones nonnegative for good, drop the oldest
        state (at most dim + 1 are kept) and test the relation on the next
        window before eliminating again.  Else one linear map made the kept
        levels, and its roots that are not integers >= 0 stay: the walk steps on."""
        if self.states is None:
            return
        zeros = self._levels.needs_zero() if len(set(self.kappa)) == 1 else None
        if zeros is None:
            self.states, self._basis, self._kept = [], [], []
            return
        norms, *rest = self._state()
        self.states.append((self._vector(), (dict(norms), *rest)))
        relation, self._kept = self._kept, []
        columns = zip_longest(*(vector for vector, _ in self.states), fillvalue=0)
        if not relation or any(sum(map(mul, relation, column)) for column in columns):
            if relation:
                self._basis = []
                for vector, _ in self.states[:-1]:
                    _reduce(self._basis, vector)
            relation = _reduce(self._basis, self.states[-1][0])
        while relation is not None:
            born = [inputs[2] for _, inputs in self.states]
            if not self._levels.orbits and not any(b.get(cls) for cls in zeros for b in born):
                lead = relation[-1]
                poly = [c // lead for c in relation]
                roots = None if any(c % lead for c in relation) else _integer_roots(poly)
                if roots is None:
                    self.states = None
                    return
                classes = {cls for b in born for cls in b}
                if all(_never_negative([b.get(cls, 0) for b in born], roots) for cls in classes):
                    rows = {inputs[3]: self._assemble(*inputs) for _, inputs in self.states[1:]}
                    self.terms, self.forms = _closed_forms(roots, rows)
                    self.recurrence, self.states, self._basis, self.jumps = poly, [], [], True
                    return
            # the states left are independent, or the rest of the relation holds
            del self.states[0]
            self._kept = relation
            relation = None if relation[0] else relation[1:]

    def _vector(self) -> list[int]:
        """The walk's whole state as one integer vector: L_n, W_n, n, 1, m^n,
        the interior count and degree sum, the corner degrees, then per class
        the born and the summed lifted multiplicity and per prime the
        interior exponent, each at the position it first took."""
        coords, tail = self._coords, {}
        for kind, part in enumerate((self.born, self.norms, self.interior)):
            for key, x in part.items():
                tail[coords.setdefault((kind, key), len(coords))] = x
        return [
            self.lifts, self.weight, self.level, 1, self.m_power,
            self.inner_count, self.inner_sum, *self.corner,
            *(tail.get(i, 0) for i in range(len(coords))),
        ]

    def jump(self, n: int):
        """Move to level n >= this one, stepping while no relation is certified."""
        if n < self.level:
            raise ValueError("the walk jumps forward along a checked recurrence only")
        while self.level < n and not self.jumps:
            self.step()
        self.level = n

    def exponents(self) -> Factorization:
        """The prime exponents of tau(G_n) at the current level, checked to
        be those of a positive integer."""
        n = self.level
        out = {} if self.jumps else self._assemble(*self._state())
        values = [n ** i * r ** n for r, i in self.terms]
        for key, (coeffs, den) in self.forms.items():  # none before the jump
            out[key], rest = divmod(sum(map(mul, coeffs, values)), den)
            if rest:
                raise AssemblyError(
                    f"assembly mismatch at level {n}: the exponent of {key} is not an integer"
                )
        sign = -1 if out.pop(-1, 0) % 2 else 1
        negative = sorted(p for p, e in out.items() if e < 0)
        if sign != 1 or negative:
            raise AssemblyError(
                f"assembly mismatch at level {n}: the product is not a positive "
                f"integer (sign {sign:+d}, negative exponents at primes {negative})"
            )
        return out

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
        """tau(G_n) at the current level."""
        return FactoredInteger({p: e for p, e in self.exponents().items() if e})


def _closed_forms(roots: dict[int, int], rows: dict[int, Factorization]) -> tuple:
    """The terms (r, i), n^i r^n for each root r != 0 and i below its
    multiplicity, and {key: (coefficients, denominator)} with rows[n][key]
    = sum coefficient * term / denominator, for sequences of consecutive
    levels n that the roots annihilate.  Root 0 only adds to the first
    levels, so the fit takes the last len(terms): there each key's row
    depends on the terms' rows (`_reduce`), in integers over one positive
    denominator."""
    terms = [(r, i) for r in sorted(roots) if r for i in range(roots[r])]
    levels = list(rows)[len(rows) - len(terms):]
    basis: list = []
    for r, i in terms:
        _reduce(basis, [n ** i * r ** n for n in levels])
    forms = {}
    for key in sorted({key for n in levels for key in rows[n]}):
        # sum combo[t] * term t + den * row = 0
        *combo, den = _reduce(basis, [rows[n].get(key, 0) for n in levels])
        sign = -1 if den > 0 else 1
        forms[key] = ([sign * c for c in combo], -sign * den)
    return terms, forms


def _reduce(basis: list, vector: list[int]) -> Optional[list[int]]:
    """Reduce state k against basis, the echelon form of the independent
    states 0..k - 1, by fraction-free elimination (a shorter vector ends in
    zeros).  Return the integers c_0..c_k, c_k != 0, of the dependency
    sum c_j state_j = 0, or None after adding the reduced state to the
    basis.  Rows are divided by their content and pivot on their least
    entry (every state holds 1)."""
    row, combo = vector, [0] * len(basis) + [1]
    for other, other_combo, pivot in basis:
        x = row[pivot] if pivot < len(row) else 0
        if x:  # row = y row - x other, 0 at the pivot
            y = other[pivot]
            row = [y * a - x * b for a, b in zip_longest(row, other, fillvalue=0)]
            combo = [y * a - x * b for a, b in zip_longest(combo, other_combo, fillvalue=0)]
    content = gcd(*row, *combo)
    combo = [c // content for c in combo]
    if not any(row):
        return combo
    row = [x // content for x in row]
    basis.append((row, combo, min((i for i, x in enumerate(row) if x), key=lambda i: abs(row[i]))))
    return None


def _integer_roots(poly: list[int]) -> Optional[dict[int, int]]:
    """{root: multiplicity} of the monic integer polynomial poly, low
    coefficient first, if its roots are all integers >= 0; else None.

    0 is tried first, then the divisors r of the constant term upward: the
    roots left are at least r, so r^deg is at most the constant's size."""
    roots: dict[int, int] = {}
    r = 0
    while len(poly) > 2:
        quotient, carry = [], 0
        for c in poly[:0:-1]:  # Horner: poly = (z - r) quotient + remainder
            carry = c + r * carry
            quotient.append(carry)
        if poly[0] + r * carry == 0:
            roots[r] = roots.get(r, 0) + 1
            poly = quotient[::-1]
            continue
        r += 1
        while poly[0] % r and r ** (len(poly) - 1) < abs(poly[0]):
            r += 1
        if r ** (len(poly) - 1) > abs(poly[0]):
            return None
    if len(poly) == 2:
        if poly[0] > 0:
            return None
        roots[-poly[0]] = roots.get(-poly[0], 0) + 1
    return roots


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


def check_structure(s: SelfSimilarStructure, dd: DecimationData | None) -> None:
    """Refuse decimation data derived from a structure other than `s`.

    The level walk reads `dd.structure`; its callers read `s` for the rest,
    so after this check every structure fact they use is of one structure.
    """
    if dd is not None and dd.structure != s:
        raise ValueError(
            f"the decimation data of {dd.structure.name!r} does not belong to "
            f"the structure {s.name!r}: derive it from that structure"
        )


def tau(s: SelfSimilarStructure, n: int, dd: DecimationData | None = None) -> FactoredInteger:
    """Exact number of spanning trees of G_n, in factored form."""
    check_structure(s, dd)
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n * log10(s.m) >= COUNT_DIGIT_CAP:
        raise ValueError(
            f"tau(G_{n}) of {s.name} is out of reach: its exponents grow like "
            f"{s.m}^{n}, which has more than {COUNT_DIGIT_CAP} digits"
        )
    if n == 0:
        # complete graph on the boundary: Cayley's formula, which needs no derive
        return FactoredInteger.from_int(s.v0_size ** (s.v0_size - 2))
    walk = LevelWalk(dd if dd is not None else derive(s))
    walk.jump(n)
    return walk.factors()


def exponent_table(
    s: SelfSimilarStructure, n_max: int, dd: DecimationData | None = None
) -> dict[int, list[int]]:
    """Per-prime exponent sequences of tau(G_n) for 0 <= n <= n_max, each
    row read from one level walk, level 0 included."""
    check_structure(s, dd)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    walk, rows = LevelWalk(dd if dd is not None else derive(s)), []
    for n in range(n_max + 1):
        walk.jump(n)
        rows.append(walk.exponents())
    primes = sorted({p for row in rows for p, e in row.items() if e})
    return {p: [row.get(p, 0) for row in rows] for p in primes}
