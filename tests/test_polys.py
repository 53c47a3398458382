import random
from fractions import Fraction as F
from functools import reduce
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rationals, small_rationals
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
    # Yun's decomposition makes two gcds and each class checks its own
    # minimal polynomial; no squarefree test runs again before Zassenhaus
    calls = []
    real = Polynomial.gcd

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Polynomial, "gcd", counted)
    q1, q2 = poly(F(7, 16), F(-3, 2), 1), poly(-2, 0, 1)
    out = factor_classes(q1 * q2)
    assert len(calls) == 4
    assert [(cls.minpoly, mult) for cls, mult in out] == [(q2, 1), (q1, 1)]


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
