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
     chi_D(z) S(z) = chi_D(z) (1 - z) I + sum_{t<k} M_t q_t(z).  chi_D and
     the moments, k sparse mat-vecs per boundary column, read the integer
     delta P1 of `kirchhoff.scaled_prob_laplacian`, and both entries of
     chi_D S are summed as integer coefficient lists over the one
     denominator den(chi_D) delta^(k+1): M_t comes scaled by delta^(t+2)
     and enters times delta^(k-1-t), its q_t's coefficients c_s at
     position s - t - 1.  Full symmetry
     makes S(z) = phi(z) (P0 - R(z)), one function on the diagonal and one
     off it: phi(z) = -(|V0|-1) S_12(z) and R(z) = 1 - S_11(z)/phi(z).
     The q_t have the distinct degrees k - t - 1, so this holds iff every
     moment has one diagonal value and one off-diagonal value.  The
     moments are checked t by t; the first that fails falsifies full
     symmetry and aborts before the rest are computed.
  3. Classify every exceptional value (the irreducible factors of chi_D
     and of the numerator of phi): read its multiplicity in sigma(D) from
     the factorization of chi_D, decide the zero and pole predicates of
     phi by exact divisibility, read R(e) from `image_of` (None at a pole
     of R, the one place that tests for it), and map it to one of the
     eight multiplicity rules (`CASE_RULES`, linear in m^(n-1),
     |V_{n-1}| and the multiplicity of R(e) at level n - 1).
  4. Induct the spectrum of P_n upward.  Non-exceptional eigenvalues lift
     to their d preimages with unchanged multiplicity; they are tracked
     symbolically as (base class, depth) preiterate families.  Each
     multiplicity at level n depends on level n - 1 alone, so `Induction`
     is one iterator that holds only the previous level: a level step
     touches only the newest families, spectrum(dd, n) costs O(n), and a
     walk to level n runs in O(n) memory.  A family whose next preimage
     set would contain an exceptional value cannot be lifted wholesale: at
     depth one the exceptional members of that set (the e with R(e) in
     the family, and 0 in the zero family) are divided out of the
     preimage polynomial, and only the cofactor is factored, into the
     regular preimages that are kept (the exceptional members are owned
     by the case rules).  The classes that split this way are the
     images R(e) of the exceptional values; they depend on R alone, so
     `DecimationData` fixes them once (`split`, `CaseRecord.image`).
     The zero eigenvalue splits the same way at every level, into the roots
     of R.  The step to level n takes R^n(e) from each forward orbit not yet
     ended (so no class is formed before a level needs it, as orbit heights
     grow about deg R times per step) and records per class the least depth
     i >= 2 at which an orbit reaches it: a family of that class born at
     level b that lifts holds e at depth i at level b + i, where the
     induction refuses.  Every class that can be born is interned into one
     table, read in key order: 0, the level-0 class, the exceptional values,
     their images, and the regular preimages of a split base, added when
     that base first has a nonzero multiplicity (the preimages of a split
     class that is never born are never factored).  A repeated regular
     preimage (a critical point of R) is refused there, once per base, as no
     case rule covers it.  The case rules and the splits are then fixed
     index lists, and a level step, one step of the affine map from level
     n - 1 to level n, is integer work on table indices.  Each level step
     decides once per family whether it lifts or splits, and yields the
     lifting ones with the families born at the level; `spectrum` collects
     them and `counting.LevelWalk` takes one level per step.
     `Induction.needs_zero` names the multiplicities that must stay 0 for
     the step to stay one fixed linear map; the walk checks them on the
     levels it keeps and, once every orbit has ended, turns the first linear
     relation among those levels into a jump over many.  The
     eigenvalue-count sum rule is asserted at every level, and
     `crosscheck_spectrum` compares the predicted spectrum against the
     characteristic polynomial of an explicitly built level graph.

One deliberate deviation from the literal wording of the case rules: the
rule for eigenvalues of D at which phi has a pole nominally also requires
a pole of phi(z)R(z).  When R happens to vanish at such a point the
product is finite although the multiplicity formula is unchanged (the
Sierpinski value 5/4 is the standard example), so the dispatch here keys
on the phi pole and the finiteness of R only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import islice, zip_longest
from math import gcd, lcm
from typing import Iterator, Optional

from ._record import Record
from .levels import build_level, vertex_count_formula
from .kirchhoff import prob_laplacian_charpoly, scaled_prob_laplacian
from .matrices import charpoly, scaled_charpoly, solve_linear
from .polys import (
    AlgebraicClass,
    Polynomial,
    RationalFunction,
    _integer_product,
    factor_classes,
    preimage_poly,
    squarefree_decomposition,
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


class CaseRecord(Record):
    """Exact predicates and the selected multiplicity rule for one value."""

    # mult_d: multiplicity of the class in sigma(D); image: class of R(value), None at a pole of R
    __slots__ = ("value", "case_id", "mult_d", "phi_zero", "phi_pole", "dr_nonzero", "image")

    @property
    def r_pole(self) -> bool:
        return self.image is None


# the case rules: case id -> coefficients of (m^(n-1) mult_D, |V_{n-1}|, the
# multiplicity of R(e) at level n - 1) in the multiplicity of e at level n
CASE_RULES = {
    1: (0, 0, 1), 2: (0, 1, 0), 3: (1, -1, 1), 4: (1, 0, 1),
    5: (1, 1, 1), 6: (1, -1, 2), 7: (0, 0, 0), 8: (1, 0, 0),
}


# ---------------------------------------------------------------------------
# forward orbits of exceptional values


def _orbit(dd: "DecimationData", e: AlgebraicClass) -> Iterator[AlgebraicClass]:
    """Yield the classes of R(e), R(R(e)), ..., one per depth, to the
    orbit's end: a pole of R, a class whose conjugates all have modulus
    above the escape bound (|R(z)| >= 2|z| there, so the orbit diverges and
    never meets the spectrum again), or a class already yielded at a depth
    >= 2, from which the orbit repeats classes it has reached at depths >= 2."""
    seen: set = set()
    for depth in range(1, 4097):
        e = dd.image_of(e)
        if e is None or e in seen or _class_escaped(e, dd.escape_bound):
            return
        _guard_height(e)
        if depth > 1:
            seen.add(e)
        yield e
    raise InconsistentSpectrumError(
        "forward orbit of an exceptional value neither escapes nor "
        "cycles; cannot certify the spectrum bookkeeping"
    )


def _guard_height(cls: AlgebraicClass):
    mp = cls.minpoly
    if max(c.bit_length() for c in (*mp.numerators, mp.denominator)) > 1_000_000:
        raise InconsistentSpectrumError(
            "forward orbit coefficients blew up; cannot certify the "
            "spectrum bookkeeping"
        )


def _class_escaped(cls: AlgebraicClass, bound: Fraction) -> bool:
    """True when every root of the class provably has modulus > bound;
    exact for a rational class r, where the test reads |r| > bound."""
    nums = cls.minpoly.numerators
    if nums[0] == 0:
        return False
    # Fujiwara's bound on the reversed polynomial, whose roots are the
    # reciprocals: every root z has |z| > B when |a_i/a_0| < (2B)^-i for
    # i = 1..g, with the i = g term halved
    g = len(nums) - 1
    return all(
        abs(c) * (2 * bound) ** i < abs(nums[0]) * (2 if i == g else 1)
        for i, c in enumerate(nums[1:], 1)
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


class DecimationData:
    """The decimation data of one structure, decided by four facts: the
    structure, phi, R and chi_D = det(D - zI), as `derive` finds them.
    The rest is computed from them once, in this order, the first failing
    step raising its refusal: d = deg num(R), sigma(D) and the zeros of
    phi (`factor_classes`), the exceptional values, the escape radius of R
    (`_escape_bound`), a case record per exceptional value (`classify`)
    and the classes that split.  Walks share its image and preimage caches;
    a plain class, as `cached_property` needs a `__dict__`."""

    def __init__(
        self, structure: SelfSimilarStructure, phi: RationalFunction, R: RationalFunction,
        charpoly_d: Polynomial,
    ):
        self.structure, self.phi, self.R, self.charpoly_d = structure, phi, R, charpoly_d
        self.d = R.num.degree
        self._image_cache: dict = {}
        self._preimage_cache: dict = {}
        self.sigma_d = tuple(factor_classes(charpoly_d.monic()))
        zero_classes = factor_classes(phi.num.monic()) if phi.num.degree > 0 else []
        self.exceptional = tuple(
            sorted({cls for cls, _ in (*self.sigma_d, *zero_classes)}, key=AlgebraicClass.key)
        )
        self.escape_bound = _escape_bound(R.num, R.den)
        self.case_records = {cls: classify(self, cls) for cls in self.exceptional}
        # the images R(e) of the exceptional values: depth-0 families of these
        # classes split at the next level instead of lifting
        self.split = frozenset(
            rec.image for rec in self.case_records.values() if rec.image is not None
        )

    @cached_property
    def _sigma_mult(self) -> dict:
        return dict(self.sigma_d)

    @cached_property
    def _dr_num(self) -> Polynomial:
        """num' den - num den', the numerator of R' = (num/den)'."""
        num, den = self.R.num, self.R.den
        return num.derivative() * den - num * den.derivative()

    def v_count(self, n: int) -> int:
        """|V_n|, in closed form."""
        return vertex_count_formula(self.structure, n)

    @property
    def ratio(self) -> Fraction:
        """(-1)^(d+1) Q(0)/P_d, read from R = P/Q: one preimage step scales
        a root product by it, as the constant term of the monic preimage
        polynomial of w is -w Q(0)/P_d and the product of its d roots
        carries a further (-1)^d."""
        return (1 if self.d % 2 else -1) * self.R.den.constant_term() / self.R.num.leading()

    def primitive_R(self) -> tuple[Polynomial, Polynomial]:
        """R as an integer-primitive coprime pair (num, den).

        The internal canonical form keeps the denominator monic; bringing
        both parts to their common denominator and dividing out the joint
        content of the numerators gives the integer pair with content 1
        (and positive leading denominator coefficient), from which the
        conventional Q(0) and P_d values are read off.
        """
        num, den = self.R.num, self.R.den
        scale = lcm(num.denominator, den.denominator)
        ints = [[c * (scale // p.denominator) for c in p.numerators] for p in (num, den)]
        content = gcd(*ints[0], *ints[1])
        return tuple(Polynomial.from_integers([c // content for c in f]) for f in ints)

    def primitive_triple(self) -> tuple[int, Fraction, Fraction]:
        """(d, Q(0), P_d) in the integer-primitive normalization."""
        num, den = self.primitive_R()
        return self.d, den.constant_term(), num.leading()

    def image_of(self, cls: AlgebraicClass) -> Optional[AlgebraicClass]:
        """Class of R(alpha) for alpha in cls, or None when cls is a pole
        of R (its minimal polynomial divides the denominator of R).

        A rational class r is a pole iff den(r) = 0, and otherwise maps to
        the rational R(r) = num(r) / den(r), two Horner evaluations.  A
        quadratic class f = z^2 + bz + c maps by its closed form
        (`_quadratic_image`): num(alpha) = p0 + p1 alpha and den(alpha) =
        q0 + q1 alpha by Horner's rule with alpha^2 = -b alpha - c, and
        R(alpha) = h0 + h1 alpha after multiplying by den's conjugate; the
        class is the rational h0 when h1 = 0, else the root class of
        z^2 + (b h1 - 2 h0) z + (h0^2 - b h0 h1 + c h1^2).  For a class of
        degree g >= 3 with minimal polynomial f, R(alpha) is an
        element of Q(alpha) = Q[z]/(f), and the characteristic polynomial
        of multiplication by it is a power of its minimal polynomial
        (Cohen, *A Course in Computational Algebraic Number Theory*, 4.3):
        the class is the one part of Yun's squarefree decomposition of
        charpoly(M_den^-1 M_num), M_p the g x g matrix of multiplication
        by p on 1, z, ..., z^(g-1) modulo f, and `solve_linear` forms
        M_den^-1 M_num by fraction-free elimination in integers.  M_den
        is invertible because den(alpha) != 0 off the poles.  Every
        answer is cached, so each class takes the pole test once.
        """
        if cls in self._image_cache:
            return self._image_cache[cls]
        f = cls.minpoly
        if f.degree == 1:
            r = cls.rational_value()
            den = self.R.den(r)
            out = AlgebraicClass.from_rational(self.R.num(r) / den) if den else None
        elif f.divides(self.R.den):
            out = None
        elif f.degree == 2:
            out = self._quadratic_image(f)
        else:
            def times(p):  # M_p transposed (row j is p z^j mod f): same charpoly
                rows, v = [], p % f
                while True:
                    rows.append(list(v.coeffs) + [Q(0)] * (f.degree - len(v.coeffs)))
                    if len(rows) == f.degree:
                        return rows
                    v = (v * Polynomial.x()) % f

            m_r = solve_linear(times(self.R.den), times(self.R.num))
            [(g, _)] = squarefree_decomposition(charpoly(m_r))
            out = AlgebraicClass(g)
        self._image_cache[cls] = out
        return out

    def _quadratic_image(self, f: Polynomial) -> AlgebraicClass:
        """`image_of`'s closed form on the quadratic f, in integers: with
        f = (c0 + c1 z + D z^2) / D, beta = D alpha is a root of
        z^2 + c1 z + c0 D, num(alpha) and den(alpha) are (x0 + x1 beta)
        and (y0 + y1 beta) over integer scales, and den's norm is
        y0^2 - c1 y0 y1 + c0 D y1^2 (Cohen, 4.3 and 5.1)."""
        c0, c1, d = f.numerators
        c0d = c0 * d

        def reduce(p: Polynomial):  # (x0, x1, scale): p(alpha) = (x0 + x1 beta) / scale
            x0 = x1 = 0
            power = 1
            for a in reversed(p.numerators):
                x0, x1 = a * power - c0d * x1, x0 - c1 * x1
                power *= d
            return x0, x1, p.denominator * power // d

        x0, x1, x_scale = reduce(self.R.num)
        y0, y1, y_scale = reduce(self.R.den)
        scale = Q(y_scale, x_scale * (y0 * y0 - c1 * y0 * y1 + c0d * y1 * y1))
        h0 = scale * (x0 * (y0 - c1 * y1) + c0d * x1 * y1)
        h1 = scale * (x1 * y0 - x0 * y1) * d
        if not h1:
            return AlgebraicClass.from_rational(h0)
        b, c = Q(c1, d), Q(c0, d)
        return AlgebraicClass(Polynomial([h0 * h0 - b * h0 * h1 + c * h1 * h1, b * h1 - 2 * h0, 1]))

    def preimage_classes(self, base: AlgebraicClass) -> list[tuple[AlgebraicClass, int]]:
        """The irreducible factors, with multiplicities and sorted by class
        key, of the degree d*deg(base) polynomial q(R(z)) of R-preimages of
        base (q its minimal polynomial).

        The exceptional factors are known without factoring: an exceptional
        class e divides q(R(z)) iff R(e) is a root of q, iff its case
        record's image is base (off the poles of R, num - w den = den (R - w);
        at a pole it is num, prime to den), and the zero class divides it
        when base is the zero class, as R(0) = 0.  Each is divided out to its
        full multiplicity by exact division, and only the cofactor is
        factored."""
        if base not in self._preimage_cache:
            rest = preimage_poly(base.minpoly, self.R.num, self.R.den)
            known = [e for e, rec in self.case_records.items() if rec.image == base]
            if base == ZERO_CLASS and ZERO_CLASS not in self.case_records:
                known.append(ZERO_CLASS)
            out = []
            for cls in known:
                k = 0
                while not (divided := rest.divmod(cls.minpoly))[1]:
                    rest, k = divided[0], k + 1
                out.append((cls, k))
            if rest.degree > 0:
                out += factor_classes(rest)
            self._preimage_cache[base] = sorted(out, key=lambda cm: cm[0].key())
        return self._preimage_cache[base]


# ---------------------------------------------------------------------------
# derivation


def _moments(b: list, v0: int, delta: int):
    """Yield (scale, M) for t = 0, 1, ..., k - 1: M is the integer matrix
    scale * B D^t C of P1 = [[A, B], [C, D]] (A the v0 x v0 boundary block),
    scale = delta^(t+2), from the integer matrix b = delta P1.  Each step is
    one sparse integer mat-vec with delta D per boundary column."""
    interior = range(v0, len(b))

    def sparse(i):  # row i of delta P1 on the interior columns
        return [(j - v0, b[i][j]) for j in interior if b[i][j]]

    b_rows, d_rows = [sparse(i) for i in range(v0)], [sparse(i) for i in interior]
    cols = [[b[i][j] for i in interior] for j in range(v0)]  # delta^(t+1) D^t C
    scale = delta * delta
    for _ in interior:
        yield scale, [[sum(e * col[c] for c, e in row) for col in cols] for row in b_rows]
        cols = [[sum(e * col[c] for c, e in row) for row in d_rows] for col in cols]
        scale *= delta


def derive(s: SelfSimilarStructure) -> DecimationData:
    """Compute phi, R and chi_D of a validated structure, from which
    `DecimationData` decides the rest."""
    s = validated(s)
    v0 = s.v0_size
    # boundary rows first (ids 0..v0-1); the boundary block is I (module docstring, step 1)
    b, delta = scaled_prob_laplacian(build_level(s, 1))

    # chi_D(z) S(z) from the moments B D^t C, checked t by t (module docstring, step 2)
    chi_d = scaled_charpoly([row[v0:] for row in b[v0:]], delta)
    c, k = chi_d.numerators, len(b) - v0
    # summed in integers over den(chi_D) delta^(k+1): M_t carries delta^(t+2)
    top = delta ** (k + 1)
    s11 = [top * (x - y) for x, y in zip_longest(c, [0, *c], fillvalue=0)]  # chi_D (1 - z)
    s12 = [0] * k
    for t, (scale, mom) in enumerate(_moments(b, v0, delta)):
        diag, off = mom[0][0], mom[0][1]
        if any(mom[i][j] != (diag if i == j else off) for i in range(v0) for j in range(v0)):
            raise NotFullySymmetricError(
                "Schur complement does not factor through the boundary "
                "Laplacian; structure is not fully symmetric"
            )
        w = top // scale  # delta^(k-1-t)
        diag, off = diag * w, off * w
        for j, c_s in enumerate(c[t + 1:]):  # q_t(z) = sum_{s>t} c_s z^(s-t-1)
            s11[j] += diag * c_s
            s12[j] += off * c_s
    n11 = Polynomial.from_integers(s11, chi_d.denominator * top)
    n12 = Polynomial.from_integers(s12, chi_d.denominator * top)

    phi = RationalFunction(n12 * -(v0 - 1), chi_d)
    if phi.is_zero():
        raise NotFullySymmetricError("phi(z) vanishes identically")

    # R = 1 - S_11/phi; the common denominator chi_D cancels
    r = RationalFunction(n11 + n12 * (v0 - 1), n12 * (v0 - 1))

    if r.num.constant_term() != 0:
        raise DecimationError("R(0) != 0; decimation assumptions violated")
    if r.num.degree <= r.den.degree:
        raise DecimationError("deg num(R) <= deg den(R); decimation assumptions violated")

    return DecimationData(s, phi, r, chi_d)


def classify(dd: DecimationData, v: AlgebraicClass) -> CaseRecord:
    """Decide the multiplicity rule for an irreducible class.

    The class divides chi_D exactly to its multiplicity in sigma(D) or is
    coprime to it, so mult_D is read from `dd.sigma_d` (0 when absent).
    """
    mp = v.minpoly
    mult_d = dd._sigma_mult.get(v, 0)
    phi_zero = mp.divides(dd.phi.num)  # derive refuses a phi that vanishes identically
    phi_pole = mp.divides(dd.phi.den)
    image = dd.image_of(v)
    r_pole = image is None
    # R' = w / den^2 with w = num' den - num den'.  Off the poles of R, mp
    # divides R''s reduced numerator iff it divides w; at a pole of order e
    # w has mp-valuation e - 1 < 2e, so the reduced numerator is prime to mp
    dr_nonzero = r_pole or not mp.divides(dd._dr_num)

    def rec(case_id: int) -> CaseRecord:
        return CaseRecord(
            value=v,
            case_id=case_id,
            mult_d=mult_d,
            phi_zero=phi_zero,
            phi_pole=phi_pole,
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


class SpectrumTable(Record):
    """sigma(P_n) in (class, preiterate depth, multiplicity) normal form.

    An entry (c, k, mu) says: the d^k preimages of the conjugate family c
    under the k-fold iterate of R are eigenvalues of P_n, each with
    multiplicity mu.  The zero eigenvalue is carried separately and
    always has multiplicity one.
    """

    __slots__ = ("level", "d", "entries")
    zero_mult = 1

    def eigenvalue_count(self) -> int:
        return self.zero_mult + sum(
            mult * cls.degree * self.d ** k for cls, k, mult in self.entries
        )


# sigma(P_n) lists families born at every level, with multiplicities of about
# n log10(m) digits, so its size grows like n^2; levels above this are refused
# (near there a table takes a second or two to build and print)
SPECTRUM_LEVEL_CAP = 2_000


def spectrum(dd: DecimationData, n: int) -> SpectrumTable:
    """Exact spectrum of P_n as preiterate families, by forward induction.

    The families born at level n read at depth 0; a family born at level
    b < n that lifts to level b + 1 reads as (class, n - b, mult).
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n > SPECTRUM_LEVEL_CAP:
        raise ValueError(
            f"sigma(P_{n}) of {dd.structure.name} is out of reach: levels above "
            f"{SPECTRUM_LEVEL_CAP} are refused"
        )
    lifts = []  # the families that lifted to levels 0, 1, ..., n
    for v_n, born, lifted in islice(Induction(dd), n + 1):
        lifts.append(lifted)
    layers = [born, *reversed(lifts)]
    entries = tuple(
        (cls, k, mult) for k, layer in enumerate(layers) for cls, mult in layer.items()
    )
    st = SpectrumTable(level=n, d=dd.d, entries=entries)
    total = st.eigenvalue_count()
    if total != v_n:
        raise InconsistentSpectrumError(f"sum rule violated at level {n}: {total} != {v_n}")
    return st


class Induction:
    """Yields (|V_n|, born_n, lifted_(n-1)) for n = 0, 1, 2, ...: the
    depth-0 families {class: mult} born at level n, and those born at
    level n - 1 that lift to level n ({} at n = 0; the others split).
    Only level n - 1 is held; the families born earlier carry over one
    level deeper.  A split base's regular preimages are factored, checked
    to be simple roots and interned at the first level the base splits.
    `reach` maps each class that the `orbits` reach by depth n to its least
    depth >= 2 and e.  `needs_zero` says what keeps the level map fixed."""

    def __init__(self, dd: DecimationData):
        s = dd.structure
        self.dd, self.level = dd, -1
        # sigma(P_0) besides 0: v0/(v0-1) with multiplicity v0-1
        self.first = AlgebraicClass.from_rational(Q(s.v0_size, s.v0_size - 1))
        self.v_prev, self.scale = s.v0_size, 1  # |V_(n-1)| and m^(n-1)
        self._start()

    def __iter__(self):
        return self

    def _intern(self, cls) -> int:
        if cls not in self.index:
            self.index[cls] = len(self.table)
            splits = cls == ZERO_CLASS or cls in self.dd.split
            self.table.append((cls, cls.degree, splits))
            self.keys.append(cls.key())
        return self.index[cls]

    def _start(self):
        """The class table (module docstring, step 4): index 0 is the zero
        family; per index the class, its degree and whether it splits.
        Each case rule becomes (e, a mult_D, b, c, R(e)), with R(e) None at
        a pole of R."""
        dd = self.dd
        self.table, self.index, self.keys = [], {}, []
        split = sorted(dd.split, key=AlgebraicClass.key)  # hash-independent table order
        for cls in (ZERO_CLASS, self.first, *dd.case_records, *split):
            self._intern(cls)
        self.order: list = []  # the table's indices in key order
        self.rules = [
            (self.index[e], a * rec.mult_d, b, c, self.index.get(rec.image))
            for e, rec in dd.case_records.items()
            for a, b, c in [CASE_RULES[rec.case_id]]
        ]
        self.subs: dict = {}  # split base -> its regular preimages
        # the families born at level n - 1, and the zero eigenvalue as one
        # more that always splits (into the roots of R)
        self.prev = {0: 1, self.index[self.first]: self.v_prev - 1}
        # the orbits not yet ended, each class's first lifting birth level,
        # and the earliest deep hit (level, -depth, base key, e, base): `_hit`
        self.orbits = {e: _orbit(dd, e) for e in dd.exceptional}
        self.reach, self.lifted_at, self.deep_hit = {}, {}, None

    def _pull(self, n: int):
        """Take R^n(e) from each orbit not yet ended, in `exceptional` order."""
        for e, orbit in list(self.orbits.items()):
            cls = next(orbit, None)
            if cls is None:
                del self.orbits[e]
            elif n >= 2 and cls not in self.reach:
                self.reach[cls] = (n, e)
                self._hit(cls)

    def _hit(self, cls: AlgebraicClass):
        """Once an orbit reaches cls and a family of it lifts, e sits among the
        depth-k preiterates of the first such family k levels after its birth."""
        if cls in self.reach and cls in self.lifted_at:
            k, e = self.reach[cls]
            hit = (self.lifted_at[cls] + k, -k, cls.key(), e, cls)
            self.deep_hit = min(hit, self.deep_hit) if self.deep_hit else hit

    def __next__(self) -> tuple[int, dict, dict]:
        dd, s = self.dd, self.dd.structure
        if self.level < 0:
            self.level = 0
            return self.v_prev, {self.first: self.v_prev - 1}, {}
        table, prev, subs, v_prev, scale = self.table, self.prev, self.subs, self.v_prev, self.scale
        n = self.level + 1
        self._pull(n)
        if self.deep_hit is not None and self.deep_hit[0] <= n:
            _, k, _, e, base = self.deep_hit
            raise InconsistentSpectrumError(
                f"exceptional value {e} sits inside the depth-{-k} "
                f"preiterates of {base}; deep family splitting is not supported"
            )
        v_n = s.m * (v_prev - s.v0_size) + s.v1_size
        new: dict = {}

        def put(i, mult):
            if mult < 0:
                raise InconsistentSpectrumError(
                    f"negative multiplicity for {table[i][0]} at level {n}"
                )
            if mult == 0:
                return
            if i in new:
                raise InconsistentSpectrumError(
                    f"duplicate spectrum entry for {table[i][0]} at depth 0"
                )
            new[i] = mult

        # exceptional values by their case rules; the multiplicity of R(e)
        # at level n - 1 is a depth-0 one (a deeper match was refused
        # above), or 0 where R has a pole (image None)
        for i, a, b, c, image in self.rules:
            put(i, a * scale + b * v_prev + c * prev.get(image, 0))

        # split the families at the images R(e) and at 0; the rest lift one
        # preiterate deeper
        removed, lifted = 0, {}
        for i, mult in prev.items():
            cls, degree, splits = table[i]
            if splits:
                removed += mult * degree
                if i not in subs:  # the first split of this base checks and indexes its preimages
                    regular = [
                        (sub, root_mult)
                        for sub, root_mult in dd.preimage_classes(cls)
                        if sub not in dd.case_records and sub != ZERO_CLASS
                    ]
                    if any(root_mult != 1 for _, root_mult in regular):
                        raise InconsistentSpectrumError(
                            "repeated regular preimage inside a split family; "
                            "multiplicity rules for critical points are not covered"
                        )
                    subs[i] = [self._intern(sub) for sub, _ in regular]
                for j in subs[i]:
                    put(j, mult)
                continue
            lifted[cls] = mult
            if cls not in self.lifted_at:
                self.lifted_at[cls] = n - 1
                self._hit(cls)

        # sum rule: lifts multiply the eigenvalue count by d
        total = 1 + dd.d * (v_prev - removed) + sum(m * table[i][1] for i, m in new.items())
        if total != v_n:
            raise InconsistentSpectrumError(f"sum rule violated at level {n}: {total} != {v_n}")
        if len(self.order) < len(table):  # the first level, or a split base added classes
            self.order = sorted(range(len(table)), key=self.keys.__getitem__)
        born = {i: new[i] for i in self.order if i in new}
        self.level, self.prev, self.v_prev, self.scale = n, {0: 1, **born}, v_n, scale * s.m
        return v_n, {table[i][0]: mult for i, mult in born.items()}, lifted

    def needs_zero(self) -> Optional[list[AlgebraicClass]]:
        """The classes whose multiplicity must stay 0 for the level step to
        stay the one linear map it is now; None while the map may still
        change: before the first step, while a deep hit is pending, or when
        a class has two sources (two rules or split bases write it).

        They are the split bases whose preimages are not interned (a nonzero
        multiplicity adds classes), the unsplit classes an exceptional orbit
        reaches (lifting one sets a deep hit; until the `orbits` end, a later
        depth may add one), and the zero class if a rule writes it (the zero
        family splits with multiplicity 1).  Whether they are 0 is left to
        the caller, which sees the levels.
        """
        if self.level < 1 or self.deep_hit is not None:
            return None
        writes = [i for i, *_ in self.rules] + [j for sub in self.subs.values() for j in sub]
        if len(set(writes)) < len(writes):
            return None
        return [
            cls for i, (cls, _, splits) in enumerate(self.table)
            if (i not in self.subs if splits else cls in self.reach) or (i == 0 and 0 in writes)
        ]


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
    identity of rational polynomials, checked in integers: with F the
    integer multiple D_f f of each (monic) family polynomial f, D_f its
    denominator, lead = prod D_f^mult and den chi's denominator, it compares
    lead * den chi with +- den * x * prod F^mult coefficient by
    coefficient.  Exponential in n (builds G_n).  `chi` is
    `prob_laplacian_charpoly(build_level(dd.structure, n))` when the
    caller already has it.
    """
    table = spectrum(dd, n)
    if chi is None:
        chi = prob_laplacian_charpoly(build_level(dd.structure, n))
    product, lead = _integer_product(
        (family_polynomial(dd, cls, k), mult) for cls, k, mult in table.entries
    )
    den = chi.denominator
    signed_den = -den if chi.degree % 2 == 1 else den
    left = [c * lead for c in chi.numerators]
    right = [0, *(signed_den * c for c in product)]
    if left == right:
        return True, "charpoly matches spectrum table"
    # chi - predicted is this difference over den * lead: same degree and support
    diff = [a - b for a, b in zip_longest(left, right, fillvalue=0)]
    while diff and not diff[-1]:
        diff.pop()
    return False, (
        f"charpoly mismatch at level {n}: difference has degree {len(diff) - 1} "
        f"and {sum(1 for c in diff if c)} nonzero coefficients"
    )
