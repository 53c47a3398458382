"""Spectral decimation: derive (phi, R), classify exceptional values, and
run the level-by-level multiplicity induction.

The pipeline, all in exact arithmetic:

  1. Block the level-1 probabilistic Laplacian as [[A, B], [C, D]] with A
     indexed by the boundary.  A = I, as validation refuses every edge
     joining two boundary vertices and G1 has exactly the edges of edges1.
  2. Compute the Schur complement S(z) = (A - zI) - B (D - zI)^-1 C from
     the moments M_t = B D^t C.  Write chi_D(z) = det(D - zI) =
     sum_s c_s z^s (k = |V1| - |V0|).  By Cayley-Hamilton (the adjugate
     expansion, Cohen, *A Course in Computational Algebraic Number
     Theory*, 2.2), (D - zI)^-1 = -sum_{t<k} D^t q_t(z) / chi_D(z) with
     q_t(z) = sum_{s>t} c_s z^(s-t-1), so exactly
     chi_D(z) S(z) = chi_D(z) (1 - z) I + sum_{t<k} M_t q_t(z), and the
     moments cost k sparse mat-vecs per boundary column.  Full symmetry
     makes S(z) = phi(z) (P0 - R(z)), one function on the diagonal and one
     off it: phi(z) = -(|V0|-1) S_12(z) and R(z) = 1 - S_11(z)/phi(z).
     The q_t have the distinct degrees k - t - 1, so this holds iff every
     moment has one diagonal value and one off-diagonal value.  The
     moments are checked t by t; the first that fails falsifies full
     symmetry and aborts before the rest are computed.
  3. Classify every exceptional value (the irreducible factors of chi_D
     and of the numerator of phi): read its multiplicity in sigma(D) from
     the factorization of chi_D, decide the pole and zero predicates by
     exact divisibility, and map it to one of the eight multiplicity
     rules (`CASE_RULES`, linear in m^(n-1), |V_{n-1}| and the
     multiplicity of R(e) at level n - 1).
  4. Induct the spectrum of P_n upward.  Non-exceptional eigenvalues lift
     to their d preimages with unchanged multiplicity; they are tracked
     symbolically as (base class, depth) preiterate families, stored by
     the level at which each family was born, so a level step touches
     only the newest families and spectrum(dd, n) costs O(n).  A family
     whose next preimage set would contain an exceptional value cannot be
     lifted wholesale: at depth one the preimage polynomial is factored
     and only the regular factors are kept (the exceptional members are
     owned by the case rules).  The classes that split this way are the
     images R(e) of the exceptional values; they depend on R alone, so
     `derive` fixes them once (`DecimationData.split`, `CaseRecord.image`).
     The zero eigenvalue splits the same way at every level, into the
     roots of R.  The first level step walks each e's forward orbit to its
     end once and records, per class, the least depth i >= 2 at which an
     orbit reaches it; a family of that class that lifts at level b would
     hold e at depth i at level b + i, where the induction refuses.  Each
     level step decides once per family whether it lifts or splits, and
     records the lifting families (`DecimationData.lifted`); `spectrum`
     and `counting.LevelWalk` read that record.  The eigenvalue-count sum
     rule is asserted at every level, and `crosscheck_spectrum` compares
     the predicted spectrum against the characteristic polynomial of an
     explicitly built level graph.

One deliberate deviation from the literal wording of the case rules: the
rule for eigenvalues of D at which phi has a pole nominally also requires
a pole of phi(z)R(z).  When R happens to vanish at such a point the
product is finite although the multiplicity formula is unchanged (the
Sierpinski value 5/4 is the standard example), so the dispatch here keys
on the phi pole and the finiteness of R only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional

from .levels import build_level
from .kirchhoff import prob_laplacian, prob_laplacian_charpoly
from .matrices import charpoly, solve_linear
from .polys import (
    AlgebraicClass,
    Polynomial,
    RationalFunction,
    factor_classes,
    preimage_poly,
    squarefree_part,
)
from .structures import SelfSimilarStructure, validated

Q = Fraction

ZERO_CLASS = AlgebraicClass.from_rational(0)


class DecimationError(ValueError):
    """Base class for failures of the decimation pipeline."""


class NotFullySymmetricError(DecimationError):
    pass


class UnclassifiableError(DecimationError):
    pass


class InconsistentSpectrumError(DecimationError):
    pass


# ---------------------------------------------------------------------------
# case records


@dataclass(frozen=True)
class CaseRecord:
    """Exact predicates and the selected multiplicity rule for one value."""

    value: AlgebraicClass
    case_id: int
    mult_d: int              # multiplicity of the class in sigma(D)
    phi_zero: bool
    phi_pole: bool
    r_pole: bool
    dr_nonzero: bool
    image: Optional[AlgebraicClass]  # class of R(value); None when R has a pole


# the case rules: case id -> coefficients of (m^(n-1) mult_D, |V_{n-1}|, the
# multiplicity of R(e) at level n - 1) in the multiplicity of e at level n
CASE_RULES = {
    1: (0, 0, 1), 2: (0, 1, 0), 3: (1, -1, 1), 4: (1, 0, 1),
    5: (1, 1, 1), 6: (1, -1, 2), 7: (0, 0, 0), 8: (1, 0, 0),
}


# ---------------------------------------------------------------------------
# forward orbits of exceptional values


def _orbit(dd: "DecimationData", e: AlgebraicClass) -> tuple[list[AlgebraicClass], str | int]:
    """The classes of e, R(e), R(R(e)), ... to the orbit's end, and how it
    ends: "pole" at a pole of R, "escaped" once every conjugate of the next
    class has modulus above the escape bound (|R(z)| >= 2|z| there, so the
    orbit diverges and never meets the spectrum again), or the position
    at which the next class repeats an earlier one."""
    classes, index = [e], {e: 0}
    while True:
        cur = classes[-1]
        if cur.minpoly.divides(dd.R.den):
            return classes, "pole"
        nxt = dd.image_of(cur)
        if _class_escaped(nxt, dd.escape_bound):
            return classes, "escaped"
        _guard_height(nxt)
        if nxt in index:
            return classes, index[nxt]
        index[nxt] = len(classes)
        classes.append(nxt)
        if len(classes) > 4096:
            raise InconsistentSpectrumError(
                "forward orbit of an exceptional value neither escapes nor "
                "cycles; cannot certify the spectrum bookkeeping"
            )


def _orbit_depths(dd: "DecimationData") -> dict:
    """class -> (i, e): the least depth i >= 2 at which the forward orbit
    of an exceptional value e reaches the class.  A family of the class
    that lifts at level b holds e among its depth-i preiterates at level
    b + i, where the induction refuses.  A cycle counts its repeats."""
    depths: dict = {}
    for e in dd.exceptional:
        classes, end = _orbit(dd, e)
        if not isinstance(end, str):
            classes += classes[end:] * 2  # each cycle class recurs at a depth >= 2
        for i, cls in enumerate(classes[2:], 2):
            if cls not in depths or i < depths[cls][0]:
                depths[cls] = (i, classes[0])
    return depths


def _guard_height(cls: AlgebraicClass):
    for c in cls.minpoly.coeffs:
        if c.numerator.bit_length() > 1_000_000 or c.denominator.bit_length() > 1_000_000:
            raise InconsistentSpectrumError(
                "forward orbit coefficients blew up; cannot certify the "
                "spectrum bookkeeping"
            )


def _class_escaped(cls: AlgebraicClass, bound: Fraction) -> bool:
    """True when every root of the class provably has modulus > bound;
    exact for a rational class r, where the test reads |r| > bound."""
    coeffs = cls.minpoly.coeffs
    if coeffs[0] == 0:
        return False
    # Fujiwara's bound on the reversed polynomial, whose roots are the
    # reciprocals: every root z has |z| > B when |a_i/a_0| < (2B)^-i for
    # i = 1..g, with the i = g term halved
    g = len(coeffs) - 1
    return all(
        abs(c / coeffs[0]) / (2 if i == g else 1) < (2 * bound) ** -i
        for i, c in enumerate(coeffs[1:], 1)
    )


def _escape_bound(num: Polynomial, den: Polynomial) -> Fraction:
    """A rational B >= 2 with |R(z)| >= 2|z| whenever |z| >= B.

    Uses |num(z)| >= lc*|z|^d - S_p*|z|^(d-1) and |den(z)| <= S_q*|z|^dq
    for |z| >= 1.  Guaranteed to exist when deg den <= deg num - 2; the
    remaining case needs lc > 2*S_q.
    """
    d, dq = num.degree, den.degree
    lc = abs(num.leading())
    s_p = sum(abs(c) for c in num.coeffs[:-1])
    s_q = sum(abs(c) for c in den.coeffs)
    if dq <= d - 2:
        b = (s_p + 2 * s_q) / lc
    elif lc > 2 * s_q:
        b = s_p / (lc - 2 * s_q)
    else:
        raise DecimationError(
            "cannot certify an escape radius for R (deg den = deg num - 1 "
            "and small leading coefficient)"
        )
    return max(Q(2), b)


# ---------------------------------------------------------------------------
# decimation data


@dataclass
class DecimationData:
    structure: SelfSimilarStructure
    phi: RationalFunction
    R: RationalFunction
    d: int
    Q0: Fraction
    Pd: Fraction
    charpoly_d: Polynomial
    sigma_d: tuple[tuple[AlgebraicClass, int], ...]
    exceptional: tuple[AlgebraicClass, ...]
    case_records: dict = field(default_factory=dict)
    # the images R(e) of the exceptional values: depth-0 families of these
    # classes split at the next level instead of lifting
    split: frozenset = frozenset()
    escape_bound: Fraction = Q(2)
    _image_cache: dict = field(default_factory=dict, repr=False)
    _preimage_cache: dict = field(default_factory=dict, repr=False)
    # the depth-0 families born at level b that lift to level b + 1, in
    # birth order: at level n they read as (class, n - b, mult); the
    # others are the ones in `split`
    lifted: list = field(default_factory=list, repr=False)
    # spectrum induction state: _tables[b] holds the depth-0 families born
    # at level b; _reach is `_orbit_depths(self)`, walked once at the
    # first level step; _deep_hit is the earliest (level, exceptional,
    # base, depth) at which an exceptional orbit meets a lifted family at
    # depth 2 or more, where the induction refuses
    _tables: list = field(default_factory=list, repr=False)
    _reach: Optional[dict] = field(default=None, repr=False)
    _deep_hit: Optional[tuple] = field(default=None, repr=False)
    _v_counts: list = field(default_factory=list, repr=False)  # |V_0|, |V_1|, ...

    @property
    def m(self) -> int:
        return self.structure.m

    @cached_property
    def _sigma_mult(self) -> dict:
        return dict(self.sigma_d)

    @cached_property
    def _dr_num(self) -> Polynomial:
        """num' den - num den', the numerator of R' = (num/den)'."""
        num, den = self.R.num, self.R.den
        return num.derivative() * den - num * den.derivative()

    def v_count(self, n: int) -> int:
        """|V_n|, carried level to level as m |V_{n-1}| - m |V0| + |V1|."""
        s, v = self.structure, self._v_counts
        while len(v) <= n:
            v.append(s.m * (v[-1] - s.v0_size) + s.v1_size)
        return v[n]

    @property
    def ratio(self) -> Fraction:
        """(-1)^(d+1) Q(0)/P_d: one preimage step scales a root product by
        it, as the constant term of the monic preimage polynomial of w is
        -w Q(0)/P_d and the product of its d roots carries a further (-1)^d."""
        return (1 if self.d % 2 else -1) * self.Q0 / self.Pd

    def primitive_R(self) -> tuple[Polynomial, Polynomial]:
        """R as an integer-primitive coprime pair (num, den).

        The internal canonical form keeps the denominator monic; scaling
        both parts by the least common denominator of the coefficients
        gives the integer pair with joint content 1 (and positive leading
        denominator coefficient), from which the conventional Q(0) and
        P_d values are read off.
        """
        from math import gcd, lcm

        coeffs = list(self.R.num.coeffs) + list(self.R.den.coeffs)
        scale = lcm(*[c.denominator for c in coeffs]) if coeffs else 1
        ints = [int(c * scale) for c in coeffs]
        content = 0
        for v in ints:
            content = gcd(content, abs(v))
        factor = Q(scale, content or 1)
        return self.R.num * factor, self.R.den * factor

    def primitive_triple(self) -> tuple[int, Fraction, Fraction]:
        """(d, Q(0), P_d) in the integer-primitive normalization."""
        num, den = self.primitive_R()
        return self.d, den.constant_term(), num.leading()

    def image_of(self, cls: AlgebraicClass) -> AlgebraicClass:
        """Class of R(alpha) for alpha in cls; cls must avoid poles of R.

        For a class of degree g with minimal polynomial f, R(alpha) is an
        element of Q(alpha) = Q[z]/(f), and the characteristic polynomial
        of multiplication by it is a power of its minimal polynomial
        (Cohen, *A Course in Computational Algebraic Number Theory*, 4.3):
        the class is the squarefree part of charpoly(M_den^-1 M_num), M_p
        the g x g matrix of multiplication by p on 1, z, ..., z^(g-1)
        modulo f.  M_den is invertible because den(alpha) != 0 off the
        poles.  A rational class r (g = 1) gets the 1 x 1 matrix [R(r)].
        """
        if cls in self._image_cache:
            return self._image_cache[cls]
        if cls.minpoly.divides(self.R.den):
            raise DecimationError(f"image of a pole class {cls}")
        f = cls.minpoly

        def times(p):  # M_p transposed (row j is p z^j mod f): same charpoly
            rows, v = [], p % f
            for _ in range(f.degree):
                rows.append(list(v.coeffs) + [Q(0)] * (f.degree - len(v.coeffs)))
                v = (v * Polynomial.x()) % f
            return rows

        m_r = solve_linear(times(self.R.den), times(self.R.num))
        out = AlgebraicClass(squarefree_part(charpoly(m_r)))
        self._image_cache[cls] = out
        return out

    def preimage_classes(self, base: AlgebraicClass) -> list[tuple[AlgebraicClass, int]]:
        """Factor the degree d*deg(base) polynomial of R-preimages of base."""
        if base not in self._preimage_cache:
            poly = preimage_poly(base.minpoly, self.R.num, self.R.den)
            self._preimage_cache[base] = factor_classes(poly)
        return self._preimage_cache[base]


# ---------------------------------------------------------------------------
# derivation


def _moments(p1: list, v0: int):
    """Yield (scale, M) for t = 0, 1, ..., k - 1: M is the integer matrix
    scale * B D^t C of P1 = [[A, B], [C, D]] (A the v0 x v0 boundary block),
    scale = delta^(t+2) with delta the lcm of the entry denominators.  Each
    step is one sparse integer mat-vec with delta D per boundary column."""
    interior = range(v0, len(p1))
    delta = lcm(*(e.denominator for row in p1 for e in row))

    def scaled(i):  # row i of delta P1 on the interior columns, sparse
        return [(j - v0, int(delta * p1[i][j])) for j in interior if p1[i][j]]

    b_rows, d_rows = [scaled(i) for i in range(v0)], [scaled(i) for i in interior]
    cols = [[int(delta * p1[i][j]) for i in interior] for j in range(v0)]  # delta^(t+1) D^t C
    scale = delta * delta
    for _ in interior:
        yield scale, [[sum(e * col[c] for c, e in row) for col in cols] for row in b_rows]
        cols = [[sum(e * col[c] for c, e in row) for row in d_rows] for col in cols]
        scale *= delta


def derive(s: SelfSimilarStructure) -> DecimationData:
    """Compute the full decimation data of a validated structure."""
    s = validated(s)
    g1 = build_level(s, 1)
    v0, v1 = s.v0_size, g1.vertex_count
    # boundary rows first (ids 0..v0-1); the boundary block is I (module docstring, step 1)
    p1 = prob_laplacian(g1)

    interior = range(v0, v1)
    d_mat = [[p1[i][j] for j in interior] for i in interior]

    # chi_D(z) S(z) from the moments B D^t C, checked t by t (module docstring, step 2)
    chi_d = charpoly(d_mat)
    n11, n12 = chi_d * Polynomial([1, -1]), Polynomial()
    for t, (scale, mom) in enumerate(_moments(p1, v0)):
        diag, off = mom[0][0], mom[0][1]
        if any(mom[i][j] != (diag if i == j else off) for i in range(v0) for j in range(v0)):
            raise NotFullySymmetricError(
                "Schur complement does not factor through the boundary "
                "Laplacian; structure is not fully symmetric"
            )
        q_t = Polynomial(chi_d.coeffs[t + 1:])
        n11 += q_t * Q(diag, scale)
        n12 += q_t * Q(off, scale)

    phi = RationalFunction(n12 * -(v0 - 1), chi_d)
    if phi.is_zero():
        raise NotFullySymmetricError("phi(z) vanishes identically")

    # R = 1 - S_11/phi; the common denominator chi_D cancels
    r = RationalFunction(n11 + n12 * (v0 - 1), n12 * (v0 - 1))

    if r.num.constant_term() != 0:
        raise DecimationError("R(0) != 0; decimation assumptions violated")
    if r.num.degree <= r.den.degree:
        raise DecimationError("deg num(R) <= deg den(R); decimation assumptions violated")

    sigma = tuple(factor_classes(chi_d.monic()))
    zero_classes = factor_classes(phi.num.monic()) if phi.num.degree > 0 else []
    seen = {cls for cls, _ in sigma}
    exceptional = [cls for cls, _ in sigma]
    for cls, _ in zero_classes:
        if cls not in seen:
            exceptional.append(cls)
            seen.add(cls)
    exceptional.sort(key=lambda c: c.key())

    dd = DecimationData(
        structure=s,
        phi=phi,
        R=r,
        d=r.num.degree,
        Q0=r.den.constant_term(),
        Pd=r.num.leading(),
        charpoly_d=chi_d,
        sigma_d=sigma,
        exceptional=tuple(exceptional),
        escape_bound=_escape_bound(r.num, r.den),
        # sigma(P_0) besides 0: v0/(v0-1) with multiplicity v0-1
        _tables=[{AlgebraicClass.from_rational(Q(v0, v0 - 1)): v0 - 1}],
        _v_counts=[v0],
    )
    for cls in dd.exceptional:
        dd.case_records[cls] = classify(dd, cls)
    dd.split = frozenset(
        rec.image for rec in dd.case_records.values() if rec.image is not None
    )
    return dd


def classify(dd: DecimationData, v: AlgebraicClass) -> CaseRecord:
    """Decide the multiplicity rule for an irreducible class.

    The class divides chi_D exactly to its multiplicity in sigma(D) or is
    coprime to it, so mult_D is read from `dd.sigma_d` (0 when absent).
    """
    mp = v.minpoly
    mult_d = dd._sigma_mult.get(v, 0)
    phi_zero = mp.divides(dd.phi.num) if not dd.phi.num.is_zero() else False
    phi_pole = mp.divides(dd.phi.den)
    r_pole = mp.divides(dd.R.den)
    # R' = w / den^2 with w = num' den - num den'.  Off the poles of R, mp
    # divides R''s reduced numerator iff it divides w; at a pole of order e
    # w has mp-valuation e - 1 < 2e, so the reduced numerator is prime to mp
    dr_nonzero = r_pole or not mp.divides(dd._dr_num)

    image: Optional[AlgebraicClass]
    image = None if r_pole else dd.image_of(v)

    def rec(case_id: int) -> CaseRecord:
        return CaseRecord(
            value=v,
            case_id=case_id,
            mult_d=mult_d,
            phi_zero=phi_zero,
            phi_pole=phi_pole,
            r_pole=r_pole,
            dr_nonzero=dr_nonzero,
            image=image,
        )

    if not mult_d:
        if not phi_zero:
            return rec(1)
        return rec(7) if r_pole else rec(2)
    if phi_pole:
        if r_pole:
            raise UnclassifiableError(
                f"value {v}: pole of both phi and R is outside the case table"
            )
        return rec(3) if dr_nonzero else rec(6)
    if phi_zero:
        return rec(8) if r_pole else rec(5)
    if r_pole:
        raise UnclassifiableError(
            f"value {v}: eigenvalue of D at a pole of R with phi regular "
            "is outside the case table"
        )
    return rec(4)


# ---------------------------------------------------------------------------
# the spectrum induction


@dataclass(frozen=True)
class SpectrumTable:
    """sigma(P_n) in (class, preiterate depth, multiplicity) normal form.

    An entry (c, k, mu) says: the d^k preimages of the conjugate family c
    under the k-fold iterate of R are eigenvalues of P_n, each with
    multiplicity mu.  The zero eigenvalue is carried separately and
    always has multiplicity one.
    """

    level: int
    d: int
    entries: tuple[tuple[AlgebraicClass, int, int], ...]
    zero_mult: int = 1

    def eigenvalue_count(self) -> int:
        return self.zero_mult + sum(
            mult * cls.degree * self.d ** k for cls, k, mult in self.entries
        )


def spectrum(dd: DecimationData, n: int) -> SpectrumTable:
    """Exact spectrum of P_n as preiterate families, by forward induction.

    The families born at level n read at depth 0; a family born at level
    b < n that lifts to level b + 1 (`dd.lifted[b]`) reads as
    (class, n - b, mult).
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    layers = [born(dd, n), *reversed(dd.lifted[:n])]
    entries = tuple(
        (cls, k, mult) for k, layer in enumerate(layers) for cls, mult in layer.items()
    )
    st = SpectrumTable(level=n, d=dd.d, entries=entries)
    count, v_n = st.eigenvalue_count(), dd.v_count(n)
    if count != v_n:
        raise InconsistentSpectrumError(f"sum rule violated at level {n}: {count} != {v_n}")
    return st


def born(dd: DecimationData, n: int) -> dict:
    """The depth-0 families {class: mult} born at level n."""
    while len(dd._tables) <= n:
        _advance(dd, len(dd._tables))
    return dd._tables[n]


def _advance(dd: DecimationData, n: int):
    """Append the depth-0 families born at level n, and record which of
    those born at level n - 1 lift; the families born earlier carry over
    one level deeper."""
    # the families born at level n - 1, and the zero eigenvalue as one more
    # that always splits (into the roots of R)
    prev = {ZERO_CLASS: 1, **dd._tables[n - 1]}
    if n == 1:
        dd._reach = _orbit_depths(dd)
    if dd._deep_hit is not None and dd._deep_hit[0] <= n:
        _, e, base, k = dd._deep_hit
        raise InconsistentSpectrumError(
            f"exceptional value {e} sits inside the depth-{k} "
            f"preiterates of {base}; deep family splitting is not supported"
        )

    new: dict = {}
    scale, v_prev, v_n = dd.m ** (n - 1), dd.v_count(n - 1), dd.v_count(n)

    def put(cls, mult):
        if mult < 0:
            raise InconsistentSpectrumError(
                f"negative multiplicity for {cls} at level {n}"
            )
        if mult == 0:
            return
        if cls in new:
            raise InconsistentSpectrumError(
                f"duplicate spectrum entry for {cls} at depth 0"
            )
        new[cls] = mult

    # exceptional values by their case rules; the multiplicity of R(e) at
    # level n - 1 is a depth-0 one (a deeper match was refused above), or
    # 0 where R has a pole (image None)
    for e, rec in dd.case_records.items():
        a, b, c = CASE_RULES[rec.case_id]
        put(e, a * scale * rec.mult_d + b * v_prev + c * prev.get(rec.image, 0))

    # split the families at the images R(e) and at 0; the rest lift one
    # preiterate deeper
    removed, lifted = 0, {}
    for base, mult in prev.items():
        if base == ZERO_CLASS or base in dd.split:
            removed += mult * base.degree
            for sub, root_mult in dd.preimage_classes(base):
                if sub in dd.case_records or sub == ZERO_CLASS:
                    continue
                if root_mult != 1:
                    raise InconsistentSpectrumError(
                        "repeated regular preimage inside a split family; "
                        "multiplicity rules for critical points are not covered"
                    )
                put(sub, mult)
            continue
        lifted[base] = mult
        # e sits among this family's depth-k preiterates at level n - 1 + k
        if base in dd._reach:
            k, e = dd._reach[base]
            if dd._deep_hit is None or n - 1 + k < dd._deep_hit[0]:
                dd._deep_hit = (n - 1 + k, e, base, k)

    # sum rule: lifts multiply the eigenvalue count by d
    count = 1 + dd.d * (v_prev - removed) + sum(
        mult * cls.degree for cls, mult in new.items()
    )
    if count != v_n:
        raise InconsistentSpectrumError(f"sum rule violated at level {n}: {count} != {v_n}")
    dd._tables.append(dict(sorted(new.items(), key=lambda it: it[0].key())))
    dd.lifted.append(lifted)


# ---------------------------------------------------------------------------
# certification against explicitly built graphs


def family_polynomial(dd: DecimationData, base: AlgebraicClass, depth: int) -> Polynomial:
    """Monic polynomial whose roots are the depth-fold R-preimages of base."""
    poly = base.minpoly
    for _ in range(depth):
        poly = preimage_poly(poly, dd.R.num, dd.R.den)
    return poly


def crosscheck_spectrum(
    dd: DecimationData, n: int, chi: Polynomial | None = None
) -> tuple[bool, str]:
    """Compare the predicted sigma(P_n) with a built graph, exactly.

    Asserts char(P_n) = +- x * prod family_polynomial(base, k)^mult as an
    identity of rational polynomials.  Exponential in n (builds G_n).
    `chi` is `prob_laplacian_charpoly(build_level(dd.structure, n))` when
    the caller already has it.
    """
    table = spectrum(dd, n)
    if chi is None:
        chi = prob_laplacian_charpoly(build_level(dd.structure, n))
    predicted = Polynomial.x()
    for cls, k, mult in table.entries:
        predicted = predicted * family_polynomial(dd, cls, k) ** mult
    if chi.degree % 2 == 1:
        predicted = -predicted
    if chi == predicted:
        return True, "charpoly matches spectrum table"
    diff = chi - predicted
    return False, (
        f"charpoly mismatch at level {n}: difference has degree {diff.degree} "
        f"and {sum(1 for c in diff.coeffs if c)} nonzero coefficients"
    )
