import random
from fractions import Fraction as F
from functools import reduce
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rationals, small_rationals
from fractal_trees import polys
from fractal_trees.polys import (
    AlgebraicClass,
    Polynomial,
    RationalFunction,
    _integer_product,
    factor_classes,
    preimage_poly,
    squarefree_decomposition,
)

P = Polynomial


def poly(*coeffs):
    return Polynomial([F(c) if not isinstance(c, F) else c for c in coeffs])


def irreducible_factors_of(p):
    """The irreducible factors of a squarefree p, as classes sorted by key."""
    out = factor_classes(p)
    assert all(mult == 1 for _, mult in out)
    return [cls for cls, _ in out]


# ---------------------------------------------------------------------------
# field axioms on the rationals (the substrate for everything else)


@settings(max_examples=1000, deadline=None)
@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


small_polys = st.lists(small_rationals, min_size=0, max_size=5).map(Polynomial)


@settings(max_examples=300, deadline=None)
@given(small_polys, small_polys)
def test_poly_ring_commutes(p, q):
    assert p + q == q + p
    assert p * q == q * p


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(small_polys.filter(bool), st.integers(1, 4)), min_size=1, max_size=4))
def test_kronecker_product_matches_the_fraction_product(factors):
    # the Fraction product is the reference; digits of both signs carry
    coeffs, scale = _integer_product(factors)
    want = reduce(mul, (p ** e for p, e in factors))
    assert len(coeffs) == want.degree + 1
    assert Polynomial([F(c, scale) for c in coeffs]) == want


@settings(max_examples=300, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_poly_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r


@settings(max_examples=300, deadline=None)
@given(small_polys, small_polys)
def test_poly_divmod(p, q):
    if q.is_zero():
        return
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree


@given(st.one_of(st.integers(-10 ** 30, 10 ** 30), rationals), rationals)
def test_a_polynomial_that_equals_a_number_hashes_like_it(c, slope):
    # Polynomial.const(1) == 1 held while {Polynomial.const(1), 1} had two members
    p = P.const(c)
    assert p == c and hash(p) == hash(c) and len({p, c}) == 1
    assert hash(P()) == hash(0)
    # a nonconstant polynomial equals no number and keeps its hash
    q = P([c, slope or 1])
    assert hash(q) == hash((q.numerators, q.denominator))


# ---------------------------------------------------------------------------
# RationalFunction reduction


def test_reduce_cancels_common_factor():
    f = RationalFunction(poly(-1, 0, 1), poly(-1, 1))  # (z^2-1)/(z-1)
    assert f.num == poly(1, 1)
    assert f.den == poly(1)


def test_reduce_zero_numerator():
    f = RationalFunction(Polynomial(), poly(1, 3))
    assert f.is_zero()
    assert f.den == poly(1)


def test_reduce_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(poly(1), Polynomial())


def test_reduce_monic_denominator():
    f = RationalFunction(poly(2, 2), poly(4, 2))  # (2+2z)/(4+2z)
    assert f.den.leading() == 1
    assert f(F(1)) == F(4, 6)


@settings(max_examples=300, deadline=None)
@given(small_polys, small_polys)
def test_reduce_idempotent(p, q):
    if q.is_zero():
        return
    f = RationalFunction(p, q)
    again = RationalFunction(f.num, f.den)
    assert again.num == f.num and again.den == f.den


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys, small_rationals)
def test_reduce_preserves_values(p, q, x):
    if q.is_zero() or q(x) == 0:
        return
    f = RationalFunction(p, q)
    if f.den(x) == 0:
        return
    assert f(x) == p(x) / q(x)


# ---------------------------------------------------------------------------
# roots and classes


def test_rational_roots_with_multiplicity():
    # x (3/2 - x)^2, lowest-first coefficients of -x^3 + 3x^2 - 9/4 x
    p = poly(0, F(9, 4), -3, 1) * -1
    out = factor_classes(p)
    assert sorted((c.rational_value(), m) for c, m in out) == [(F(0), 1), (F(3, 2), 2)]


def test_rational_roots_none_for_conjugate_pair():
    assert [(c.degree, m) for c, m in factor_classes(poly(7, -24, 16))] == [(2, 1)]


def test_rational_roots_preiterate_quadratic():
    # 4z^2 - 5z + 3/4 has no rational roots; its root product is 3/16
    p = poly(F(3, 4), -5, 4)
    assert [(c.degree, m) for c, m in factor_classes(p)] == [(2, 1)]
    cls = irreducible_factors_of(p)
    assert len(cls) == 1 and cls[0].degree == 2
    assert cls[0].norm() == F(3, 16)


def test_rational_roots_zero_poly_raises():
    with pytest.raises(ValueError):
        factor_classes(Polynomial())


def test_class_norms():
    assert AlgebraicClass.from_rational(F(3, 4)).norm() == F(3, 4)
    pair = AlgebraicClass(poly(F(7, 16), F(-3, 2), 1))
    assert pair.norm() == F(7, 16)
    sqrt2 = AlgebraicClass(poly(-2, 0, 1))
    assert sqrt2.norm() == -2


@settings(max_examples=200, deadline=None)
@given(small_rationals)
def test_degree_one_class_norm_is_root(r):
    assert AlgebraicClass.from_rational(r).norm() == r


def test_algebraic_class_requires_squarefree():
    with pytest.raises(ValueError):
        AlgebraicClass(poly(1, 2, 1))  # (z+1)^2


def test_squarefree_decomposition():
    p = poly(-1, 1) ** 2 * poly(-2, 1) * poly(1, 1) ** 3
    decomp = squarefree_decomposition(p)
    assert (poly(-2, 1), 1) in decomp
    assert (poly(-1, 1), 2) in decomp
    assert (poly(1, 1), 3) in decomp


def test_quartic_split_into_conjugate_pairs():
    # (z^2 - 3/2 z + 7/16)(z^2 - 3/2 z + 1/4): both irrational pairs
    q1 = poly(F(7, 16), F(-3, 2), 1)
    q2 = poly(F(1, 4), F(-3, 2), 1)
    classes = irreducible_factors_of(q1 * q2)
    assert sorted(c.minpoly.coeffs for c in classes) == sorted(
        [q1.coeffs, q2.coeffs]
    )


def test_quartic_irreducible_stays_whole():
    # z^4 - z - 1 is irreducible over Q
    classes = irreducible_factors_of(poly(-1, -1, 0, 0, 1))
    assert len(classes) == 1 and classes[0].degree == 4


def test_quartic_biquadratic_split():
    # z^4 - 5 z^2 + 4 = (z^2-1)(z^2-4) -> four rational roots
    classes = irreducible_factors_of(poly(4, 0, -5, 0, 1))
    assert sorted(c.rational_value() for c in classes) == [-2, -1, 1, 2]


def _is_rational_square(x):
    from math import isqrt

    return x >= 0 and all(isqrt(k) ** 2 == k for k in (x.numerator, x.denominator))


@settings(max_examples=150, deadline=None)
@given(small_rationals, small_rationals, small_rationals, small_rationals)
def test_quartic_splits_into_its_two_quadratics(b1, c1, b2, c2):
    # two distinct monic irreducible quadratics: the product is squarefree
    # with no rational root
    assume((b1, c1) != (b2, c2))
    assume(not _is_rational_square(b1 * b1 - 4 * c1))
    assume(not _is_rational_square(b2 * b2 - 4 * c2))
    q1, q2 = poly(c1, b1, 1), poly(c2, b2, 1)
    classes = irreducible_factors_of(q1 * q2)
    assert sorted(c.minpoly.coeffs for c in classes) == sorted([q1.coeffs, q2.coeffs])


def test_biquadratic_with_no_rational_split_stays_whole():
    # z^4 - 10 z^2 + 1, the minimal polynomial of sqrt(2) + sqrt(3): a^2 - 4c
    # = 96 is no square and the resolvent roots 0, 8, 12 give no square u^2
    classes = irreducible_factors_of(poly(1, 0, -10, 0, 1))
    assert len(classes) == 1 and classes[0].degree == 4


def test_factor_classes_with_multiplicity():
    p = poly(F(-3, 2), 1) ** 2 * poly(7, -24, 16).monic()
    out = factor_classes(p)
    assert len(out) == 2
    mults = {cls.degree: m for cls, m in out}
    assert mults == {1: 2, 2: 1}


def test_quintic_splits_two_plus_three():
    # SG_{2,4}'s degree-5 exceptional class, over Q
    # 4608^-1 (24z^2 - 34z + 3)(192z^3 - 416z^2 + 260z - 41)
    p = poly(F(-41, 1536), F(1087, 2304), F(-173, 72), F(655, 144), F(-43, 12), 1)
    classes = irreducible_factors_of(p)
    assert [c.minpoly for c in classes] == [poly(3, -34, 24).monic(), poly(-41, 260, -416, 192).monic()]


def test_irreducible_quintic_stays_whole():
    # SG_{2,5}'s degree-5 class, irreducible modulo 5
    p = poly(F(-1663, 4608), F(6131, 2304), F(-1999, 288), F(299, 36), F(-14, 3), 1)
    assert [c.minpoly for c in irreducible_factors_of(p)] == [p]


def test_factor_classes_decides_squarefreeness_once(monkeypatch):
    # Yun's decomposition makes two gcds and each quadratic class checks its
    # own minimal polynomial by its discriminant, with no gcd; no squarefree
    # test runs again before Zassenhaus
    calls = []
    real = polys._gcd_int

    def counted(a, b):
        calls.append(b)
        return real(a, b)

    monkeypatch.setattr(polys, "_gcd_int", counted)
    q1, q2 = poly(F(7, 16), F(-3, 2), 1), poly(-2, 0, 1)
    out = factor_classes(q1 * q2)
    assert len(calls) == 2
    assert [(cls.minpoly, mult) for cls, mult in out] == [(q2, 1), (q1, 1)]


def test_degree_one_parts_skip_zassenhaus(monkeypatch):
    # a squarefree part of degree 1 is its own class: no prime search,
    # distinct-degree factorization or lift runs for it.  Yun's parts
    # collect the factors of equal multiplicity, so each multiplicity here
    # is distinct to make every part linear
    def refuse(*args):
        raise AssertionError("distinct-degree factorization ran")

    monkeypatch.setattr(polys, "_ddf", refuse)
    z = Polynomial.x()
    p = z * (z - F(1, 3)) ** 2 * (z + F(7, 2)) ** 3
    assert [(str(c.minpoly), m) for c, m in factor_classes(p)] == [
        ("z - 1/3", 2), ("z", 1), ("z + 7/2", 3),
    ]
    with pytest.raises(AssertionError, match="distinct-degree"):
        factor_classes(z ** 3 - 2)


_z = Polynomial.x()


@pytest.mark.parametrize("p, expected", [
    ((_z - F(1, 3)) * (_z + F(7, 2)), [("z - 1/3", 1), ("z + 7/2", 1)]),
    (_z * (_z - F(3, 5)), [("z - 3/5", 1), ("z", 1)]),
    (((_z - F(1, 3)) * (_z + F(7, 2))) ** 2 * (_z - 5),
     [("z - 5", 1), ("z - 1/3", 2), ("z + 7/2", 2)]),
    (_z ** 2 - 2, [("z^2 - 2", 1)]),
    (_z ** 2 + _z + 1, [("z^2 + z + 1", 1)]),  # discriminant -3
    (_z ** 2 + F(1, 4), [("z^2 + 1/4", 1)]),  # discriminant -1
    (_z ** 2 - F(1, 8), [("z^2 - 1/8", 1)]),  # discriminant 1/2
    (_z ** 2 - F(2, 9), [("z^2 - 2/9", 1)]),  # discriminant 8/9
    (_z ** 2 - F(3, 2) * _z + F(7, 16), [("z^2 - 3/2*z + 7/16", 1)]),
    ((_z ** 2 - 2) * (_z ** 2 + 1) ** 2, [("z^2 - 2", 1), ("z^2 + 1", 2)]),
])
def test_quadratic_parts_split_by_their_discriminant(monkeypatch, p, expected):
    # a squarefree part of degree 2 splits exactly when its discriminant is
    # a rational square, with no modular factoring; the classes and their
    # order are those Zassenhaus's algorithm gives
    def refuse(*args):
        raise AssertionError("distinct-degree factorization ran")

    monkeypatch.setattr(polys, "_ddf", refuse)
    assert [(str(c.minpoly), m) for c, m in factor_classes(p)] == expected


@settings(max_examples=150, deadline=None)
@given(small_rationals, small_rationals)
def test_quadratic_split_matches_its_roots(b, c):
    # z^2 + bz + c, squarefree: two rational classes whose sum is -b and
    # product c when it splits, else one class of degree 2
    assume(b * b != 4 * c)
    out = irreducible_factors_of(poly(c, b, 1))
    if len(out) == 2:
        r, s = (cls.rational_value() for cls in out)
        assert (r + s, r * s) == (-b, c)
    else:
        assert [cls.minpoly for cls in out] == [poly(c, b, 1)]
        assert not _is_rational_square(b * b - 4 * c)


def test_algebraic_class_checks_every_degree():
    for bad in (poly(1, 2), poly(3), Polynomial(), poly(1, 2, 1), poly(-1, 1) ** 2):
        with pytest.raises(ValueError):
            AlgebraicClass(bad)  # non-monic, constant, zero, (z + 1)^2, (z - 1)^2
    assert AlgebraicClass(poly(F(-2, 3), 1)).rational_value() == F(2, 3)


def test_linear_squarefree_decomposition_takes_no_gcd(monkeypatch):
    def refuse(*args):
        raise AssertionError("gcd ran")

    monkeypatch.setattr(polys, "_gcd_int", refuse)
    assert squarefree_decomposition(poly(F(1, 2), 3)) == [(poly(F(1, 6), 1), 1)]
    assert squarefree_decomposition(poly(F(5, 7))) == []
    assert factor_classes(poly(2, -4)) == [(AlgebraicClass.from_rational(F(1, 2)), 1)]


@st.composite
def irreducible_factors(draw):
    """2-4 distinct monic irreducible polynomials of degree 1-6: Eisenstein
    polynomials at 2 or 3 under a rational affine change of variable."""
    out = []
    for _ in range(draw(st.integers(2, 4))):
        k, prime = draw(st.integers(1, 6)), draw(st.sampled_from([2, 3]))
        lower = draw(st.lists(st.integers(-3, 3), min_size=k - 1, max_size=k - 1))
        c0 = draw(st.integers(-4, 4).filter(lambda c: c % prime))
        eisenstein = poly(*(prime * c for c in [c0, *lower]), 1)
        arg = poly(draw(small_rationals), draw(small_rationals.filter(bool)))
        f = Polynomial()
        for c in reversed(eisenstein.coeffs):
            f = f * arg + c
        out.append(f.monic())
    assume(len(set(out)) == len(out))
    return out


@settings(max_examples=100, deadline=None)
@given(irreducible_factors())
def test_factor_classes_returns_the_irreducible_factors(factors):
    out = factor_classes(reduce(mul, factors))
    assert sorted(c.minpoly.coeffs for c, m in out if m == 1) == sorted(f.coeffs for f in factors)
    assert len(out) == len(factors)


@settings(max_examples=50, deadline=None)
@given(irreducible_factors(), st.lists(st.integers(1, 3), min_size=4, max_size=4))
def test_factor_classes_returns_each_factor_with_its_multiplicity(factors, mults):
    powers = list(zip(factors, mults))
    out = factor_classes(reduce(mul, (f ** k for f, k in powers)))
    assert sorted((c.minpoly.coeffs, m) for c, m in out) == sorted((f.coeffs, k) for f, k in powers)


# ---------------------------------------------------------------------------
# pushing classes through rational maps


def test_preimage_poly_counts_all_branches():
    # preimages of 3/2 under z(5-4z): roots 3/4 and 1/2
    base = poly(F(-3, 2), 1)
    pre = preimage_poly(base, poly(0, 5, -4), poly(1))
    assert pre.degree == 2
    assert pre.leading() == 1
    assert pre(F(3, 4)) == 0 and pre(F(1, 2)) == 0


def test_preimage_poly_of_quadratic_class():
    base = poly(F(3, 16), F(-5, 4), 1)  # preimages of 3/4 under SG map
    pre = preimage_poly(base, poly(0, 5, -4), poly(1))
    assert pre.degree == 4
    # product of all four preiterates: norm * (1/4)^2 per branch level
    assert pre.constant_term() == F(3, 16) * F(1, 16)


def ref_preimage_poly(base, num, den):
    """sum_i F_i num^i den^(g-i) in Polynomial arithmetic, over lc(num)^g."""
    g = base.degree
    acc, num_pow, den_pows = Polynomial(), Polynomial.const(1), [Polynomial.const(1)]
    for _ in range(g):
        den_pows.append(den_pows[-1] * den)
    for i, ci in enumerate(base.numerators):
        if ci:
            acc = acc + num_pow * den_pows[g - i] * ci
        if i < g:
            num_pow = num_pow * num
    return acc * (1 / (num.leading() ** g * base.denominator))


@st.composite
def preimage_inputs(draw):
    """A monic base of degree 1-4 and R = num/den with deg den < deg num <= 4,
    all with small rational coefficients."""
    g, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    base = Polynomial([*draw(st.lists(small_rationals, min_size=g, max_size=g)), F(1)])
    num = Polynomial([*draw(st.lists(small_rationals, min_size=d, max_size=d)),
                      draw(small_rationals.filter(bool))])
    den = Polynomial(draw(st.lists(small_rationals, min_size=1, max_size=d)))
    assume(den)
    return base, num, den


@settings(max_examples=300, deadline=None)
@given(preimage_inputs())
def test_preimage_poly_matches_the_polynomial_sum(inputs):
    base, num, den = inputs
    pre = preimage_poly(base, num, den)
    assert_canonical(pre)
    assert pre == ref_preimage_poly(base, num, den)


@settings(max_examples=300, deadline=None)
@given(small_rationals, small_rationals, st.booleans(), small_rationals.filter(bool))
def test_quadratic_squarefree_decomposition_matches_yun(b, c, square, scale):
    # (z + b)^2 when square, else z^2 + bz + c (a square when b^2 = 4c), times
    # a rational: the discriminant decides what Yun's gcds do
    p = Polynomial([b * b if square else c, 2 * b if square else b, F(1)]) * scale
    assert squarefree_decomposition(p) == ref_squarefree_decomposition(p)
    if square:
        assert squarefree_decomposition(p) == [(poly(b, 1), 2)]


def test_square_quadratic_class_is_refused_without_a_gcd(monkeypatch):
    def refuse(*args):
        raise AssertionError("gcd ran")

    monkeypatch.setattr(polys, "_gcd_int", refuse)
    with pytest.raises(ValueError, match="minimal polynomial must be squarefree"):
        AlgebraicClass(poly(F(9, 16), F(3, 2), 1))  # (z + 3/4)^2
    assert AlgebraicClass(poly(F(7, 16), F(-3, 2), 1)).degree == 2


@settings(max_examples=100, deadline=None)
@given(irreducible_factors())
def test_class_key_is_degree_then_coefficients(factors):
    for f in factors:
        cls = AlgebraicClass(f)
        assert cls.key() == (f.degree, f.coeffs)


def test_z4_plus_1_splits_modulo_every_prime_but_stays_whole():
    # z^4 + 1 is irreducible over Q and factors modulo every prime, so
    # every candidate subset of its modular factors is rejected
    z = Polynomial.x()
    assert [(c.minpoly, m) for c, m in factor_classes(z ** 4 + 1)] == [(z ** 4 + 1, 1)]


def test_recombination_finds_a_factor_with_constant_term_zero():
    # the candidate z passes the constant-term test only because the rest's
    # constant term is 0 too; classes and their order as before the
    # integer recombination
    z = Polynomial.x()
    p = z * (z ** 2 - 2) * (z ** 4 + 1) * (z - 3)
    assert [(str(c.minpoly), m) for c, m in factor_classes(p)] == [
        ("z - 3", 1), ("z", 1), ("z^2 - 2", 1), ("z^4 + 1", 1),
    ]
    q = (z ** 4 + 1) * (z ** 2 - 2) * (3 * z - 1)
    assert [str(c.minpoly) for c, _ in factor_classes(q)] == ["z - 1/3", "z^2 - 2", "z^4 + 1"]


def test_recombination_rejects_by_constant_term(monkeypatch):
    # z^3 - 7 splits modulo 5 into a linear and a quadratic factor; the
    # lifted factors have 5-adic constant terms that do not divide 7, so
    # neither is tried by division: every division is one of the gcds, by a
    # divisor with small coefficients
    divisors = []
    real = polys._pseudo_divmod

    def counted(a, b):
        divisors.append(b)
        return real(a, b)

    monkeypatch.setattr(polys, "_pseudo_divmod", counted)
    p = poly(-7, 0, 0, 1)
    assert factor_classes(p) == [(AlgebraicClass(p), 1)]
    assert divisors and all(abs(c) <= 7 for b in divisors for c in b)


# ---------------------------------------------------------------------------
# the integer core against Euclid over Q


def ref_divmod(a, b):
    """Quotient and remainder over Q by schoolbook division in Fractions."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem, other = list(a.coeffs), b.coeffs
    dn, dd = a.degree, b.degree
    if dn < dd:
        return Polynomial(), a
    inv_lead = 1 / other[-1]
    quot = [F(0)] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = rem[k + dd] * inv_lead
        if c:
            quot[k] = c
            for j, oc in enumerate(other):
                rem[k + j] -= c * oc
    return Polynomial(quot), Polynomial(rem)


def ref_monic(p):
    return Polynomial([c / p.coeffs[-1] for c in p.coeffs]) if p else p


def ref_gcd(a, b):
    """Monic gcd by Euclid's algorithm over Q."""
    while not b.is_zero():
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_squarefree_decomposition(p):
    """Yun's algorithm on the reference divmod and gcd."""
    p = ref_monic(p)
    if p.degree <= 0:
        return []
    dp = p.derivative()
    a = ref_gcd(p, dp)
    b, c = ref_monic(ref_divmod(p, a)[0]), ref_divmod(dp, a)[0]
    out, i = [], 1
    while b.degree > 0:
        d = c - b.derivative()
        g = ref_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b, c = ref_monic(ref_divmod(b, g)[0]), ref_divmod(d, g)[0]
        i += 1
    return out


def assert_canonical(p):
    # integer numerators, no trailing zero, a positive denominator coprime
    # to their content, and the Fraction view agreeing with them
    assert all(type(c) is int for c in p.numerators)
    assert not p.numerators or p.numerators[-1] != 0
    assert p.denominator > 0 and gcd(p.denominator, *p.numerators) == 1
    assert Polynomial(p.coeffs) == p and p.coeffs == tuple(F(c, p.denominator) for c in p.numerators)


# factors with rational, non-monic and non-primitive coefficients; constants
# and the zero polynomial among them
factor_polys = st.lists(small_rationals, min_size=0, max_size=4).map(Polynomial)
scales = st.sampled_from([1, -1, 6, -12, F(2, 3), F(-10, 7), F(1, 30)])


@st.composite
def related_pairs(draw):
    """shared^j a s, shared^k b t: two products with a common factor."""
    shared = draw(factor_polys)
    a = shared ** draw(st.integers(0, 3)) * draw(factor_polys) * draw(scales)
    b = shared ** draw(st.integers(0, 2)) * draw(factor_polys) * draw(scales)
    return a, b


@settings(max_examples=300, deadline=None)
@given(related_pairs())
def test_integer_core_matches_euclid_over_q(pair):
    a, b = pair
    g = a.gcd(b)
    assert_canonical(g)
    assert g == ref_gcd(a, b) == b.gcd(a)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
    else:
        quo, rem = a.divmod(b)
        assert_canonical(quo)
        assert_canonical(rem)
        assert (quo, rem) == ref_divmod(a, b)
        assert b.divides(a) == rem.is_zero()
    if a.is_zero():
        with pytest.raises(ValueError):
            squarefree_decomposition(a)
    else:
        assert squarefree_decomposition(a) == ref_squarefree_decomposition(a)


def q_yun(p):
    """`squarefree_decomposition` as it ran in Q[z], on `Polynomial`
    arithmetic (monic divisors, Fraction-scaled quotients), before Yun moved
    to primitive integer lists."""
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
    dp = p.derivative()
    a = p.gcd(dp)
    out = []
    b = (p // a).monic()
    c = dp // a
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = b.gcd(d)
        if g.degree > 0:
            out.append((g.monic(), i))
        b = (b // g).monic()
        c = d // g
        i += 1
    return out


def q_reduce(num, den):
    """(num, den) reduced as `RationalFunction` did in Q[z]: the monic gcd
    divided out by polynomial division, then both parts scaled by the
    inverse of den's leading coefficient."""
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return Polynomial(), Polynomial.const(1)
    g = num.gcd(den)
    if g.degree > 0:
        num, den = num // g, den // g
    inv = 1 / den.leading()
    return num * inv, den * inv


@st.composite
def factored_products(draw):
    """A rational scale times 1-4 random factors of degree 1-3 with Fraction
    coefficients, each to a power 1-3: repeated and shared factors, and
    non-monic, non-primitive ones."""
    p = Polynomial.const(draw(scales))
    for _ in range(draw(st.integers(1, 4))):
        lower = draw(st.lists(small_rationals, min_size=0, max_size=2))
        f = Polynomial([*lower, draw(small_rationals.filter(bool))])
        assume(f.degree > 0)
        p = p * f ** draw(st.integers(1, 3))
    return p


@settings(max_examples=300, deadline=None)
@given(factored_products())
def test_integer_yun_matches_yun_in_q(p):
    out = squarefree_decomposition(p)
    for g, _ in out:
        assert_canonical(g)
    assert out == q_yun(p) == ref_squarefree_decomposition(p)


@settings(max_examples=300, deadline=None)
@given(st.one_of(related_pairs(), st.tuples(factored_products(), factored_products())))
def test_integer_reduction_matches_reduction_in_q(pair):
    num, den = pair
    if den.is_zero():
        with pytest.raises(ZeroDivisionError):
            RationalFunction(num, den)
        return
    f = RationalFunction(num, den)
    assert_canonical(f.num)
    assert_canonical(f.den)
    assert (f.num, f.den) == q_reduce(num, den)


@pytest.mark.parametrize("num, den", [
    (Polynomial(), poly(3)),  # zero over a constant
    (Polynomial(), _z ** 2 - 2),  # zero over a polynomial
    (poly(F(2, 3)), poly(F(-5, 7))),  # two constants
    (poly(F(2, 3)), _z * F(3, 4) - 1),  # a constant over a polynomial
    (_z ** 3 * F(-1, 6) + 2, poly(F(9, 4))),  # a polynomial over a constant
    ((_z - 1) * (_z + 2) * 3, (_z ** 2 + 1) * F(3, 4)),  # coprime
    ((_z - F(1, 2)) ** 2 * (_z + 3), (_z * 2 - 1) * (_z ** 2 + 5) * -6),  # sharing 2z - 1
])
def test_integer_reduction_on_constant_zero_and_coprime_pairs(num, den):
    f = RationalFunction(num, den)
    assert (f.num, f.den) == q_reduce(num, den)
    assert f.den.leading() == 1


@pytest.mark.parametrize("p", [
    poly(F(-5, 7)),
    Polynomial(),
    (_z - 1) * (_z + 2) * (_z ** 2 + 1) * F(3, 4),
    ((_z * 3 - 1) ** 3 * (_z ** 2 + _z + 1) ** 2) * F(-2, 9),
])
def test_integer_yun_on_constant_zero_and_fixed_products(p):
    if p.is_zero():
        with pytest.raises(ValueError):
            squarefree_decomposition(p)
        return
    assert squarefree_decomposition(p) == q_yun(p)


def test_integer_core_edge_cases():
    zero, three = Polynomial(), Polynomial.const(3)
    assert zero.gcd(zero) == zero and zero.monic() == zero
    assert three.gcd(zero) == three.gcd(poly(1, 1)) == Polynomial.const(1)
    assert poly(F(1, 2), F(3, 4)).gcd(zero) == poly(F(2, 3), 1)
    assert three.divmod(poly(0, 2)) == (zero, three)
    assert poly(6, 9).divmod(three) == (poly(2, 3), zero)
    assert squarefree_decomposition(three) == []
    p = poly(F(-3, 4), 0, F(3, 2))
    assert (p.numerators, p.denominator) == ((-3, 0, 6), 4)
    assert (p.monic().numerators, p.monic().denominator) == ((-1, 0, 2), 2)
    assert p(F(1, 3)) == F(-7, 12) and p(2) == F(21, 4)
    with pytest.raises(TypeError):
        Polynomial([0.5])


def schoolbook_mul_mod(a, b, m):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    out = [c % m for c in out]
    while out and not out[-1]:
        out.pop()
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([7, 101, 2 ** 61 - 1, 3 ** 40]).flatmap(
    lambda m: st.tuples(*(st.lists(st.integers(0, m - 1), max_size=11) for _ in "ab"), st.just(m))))
def test_modular_product_matches_the_schoolbook_product(case):
    a, b, m = case
    assert polys._mul(a, b, m) == schoolbook_mul_mod(a, b, m)
