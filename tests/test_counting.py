import hashlib
import re
from collections import Counter
from fractions import Fraction as F
from math import prod
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_trees import (
    BUILTIN_NAMES,
    AssemblyError,
    build_level,
    builtin,
    degree_stats,
    derive,
    entropy,
    exponent_table,
    load_json,
    preiterate_product,
    spectrum,
    tau,
    tau_bruteforce,
)
from fractal_trees import counting
from fractal_trees.counting import LevelWalk
from fractal_trees.decimation import DecimationData
from fractal_trees.factored import VALUE_DIGIT_CAP, FactoredInteger, factorize
from fractal_trees.polys import AlgebraicClass, Polynomial


def rat(x):
    return AlgebraicClass.from_rational(F(x))


@pytest.fixture(scope="module")
def dds():
    return {name: derive(builtin(name)) for name in
            ("sierpinski", "nonpcf_sg", "diamond", "hexagasket", "interval", "tree3")}


# ---------------------------------------------------------------------------
# factored arithmetic plumbing


def test_factorize():
    assert factorize(540) == {2: 2, 3: 3, 5: 1}
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_takes_the_power_of_two_in_one_step():
    # one division per factor of 2 took 13.6 s here
    assert factorize(3 * 2 ** 200_000) == {2: 200_000, 3: 1}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 400), st.integers(1, 10 ** 6))
def test_factorize_round_trip(k, m):
    n = 2 ** k * m
    product = 1
    for p, e in factorize(n).items():
        assert e > 0
        product *= p ** e
    assert product == n


def factor_powers(powers):
    """Sign and prime exponents of prod base^e over nonzero rational bases,
    each base factored on its own: the reference assembly's last step."""
    sign = 1
    out = {}
    for base, e in powers.items():
        base = F(base)
        if base == 0:
            raise ValueError("zero cannot be factored")
        if base < 0 and e % 2:
            sign = -sign
        for part, scale in ((abs(base.numerator), e), (base.denominator, -e)):
            if part > 1:
                for p, k in factorize(part).items():
                    out[p] = out.get(p, 0) + k * scale
    return sign, {p: k for p, k in out.items() if k}


def test_factor_powers():
    # (9/4) * (-2/3) = -3/2: an odd power of a negative base flips the sign
    assert factor_powers({F(9, 4): 1, F(-2, 3): 1}) == (-1, {2: -1, 3: 1})
    assert factor_powers({F(-2, 3): 2}) == (1, {2: 2, 3: -2})
    assert factor_powers({-5: 3, 7: -2}) == (-1, {5: 3, 7: -2})
    # negative exponents divide; 12^2 / 6^2 / 4 = 1 cancels to the empty map
    assert factor_powers({12: 2, 6: -2, F(1, 4): 1}) == (1, {})
    assert factor_powers({F(3, 4): 1, F(1, 4): 1, 2: 4}) == (1, {3: 1})
    # an int and an equal Fraction are the same base
    assert factor_powers({F(6): 1, 1: 5, F(-1): 2}) == (1, {2: 1, 3: 1})
    assert factor_powers({}) == (1, {})
    with pytest.raises(ValueError):
        factor_powers({F(0): 1})


def test_factored_integer_render_and_value():
    t = FactoredInteger({2: 1, 3: 3})
    assert str(t) == "2^1 * 3^3"
    assert t.value() == 54
    assert t.digits10() == 2
    assert t.to_json() == {"factors": {"2": "1", "3": "3"}, "digits": 2}


def test_factored_integer_digit_count_without_materializing(dds):
    t = FactoredInteger({2: 10 ** 6})
    assert t.digits10() == 301030
    with pytest.raises(OverflowError):
        t.value()
    # tau(G_10) of the gasket has 40,000 digits and tau(G_11) 121,000
    s = builtin("sierpinski")
    assert tau(s, 10, dds["sierpinski"]).value() > 0
    count = tau(s, 11, dds["sierpinski"])
    assert count.digits10() > VALUE_DIGIT_CAP
    with pytest.raises(OverflowError, match="use the factored form"):
        count.value()


def test_value_below_the_cap_skips_the_digit_count(monkeypatch, dds):
    s = builtin("sierpinski")
    count, big = tau(s, 5, dds["sierpinski"]), tau(s, 11, dds["sierpinski"])
    digits = big.digits10()

    def refused(self):
        raise AssertionError("value() counted the digits")

    monkeypatch.setattr(FactoredInteger, "digits10", refused)
    assert count.value() == 2 ** 121 * 3 ** 185 * 5 ** 58
    # past the cap the exact count still decides, and names the size
    monkeypatch.setattr(FactoredInteger, "digits10", lambda self: digits)
    with pytest.raises(OverflowError) as info:
        big.value()
    assert str(info.value) == f"value has about {digits} digits; use the factored form"


def test_text_count_below_the_bound_skips_the_digit_count(monkeypatch, capsys, dds):
    from fractal_trees.cli import main

    s = builtin("sierpinski")
    big = tau(s, 30, dds["sierpinski"])
    digits = big.digits10()
    assert main(["count", "sierpinski", "-n", "30"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"# value has {digits} digits; factored form:"

    def refused(self):
        raise AssertionError("the digit count ran")

    monkeypatch.setattr(FactoredInteger, "digits10", refused)
    assert main(["count", "sierpinski", "-n", "5"]) == 0
    assert capsys.readouterr().out == f"{2 ** 121 * 3 ** 185 * 5 ** 58}\n"


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from([2, 3, 5, 7, 10007]), st.integers(1, 60), max_size=4),
       st.integers(0, 200))
def test_digits_past_is_the_exact_count_above_the_cap(factors, cap):
    t = FactoredInteger(factors)
    digits = len(str(t.value()))
    assert t.digits_past(cap) == (digits if digits > cap else None)


def test_jump_is_the_one_route_to_a_level(dds):
    # a fresh walk steps to the certificate, then sets the level
    for name, dd in dds.items():
        s = builtin(name)
        for n in [*range(1, 11), 200]:
            walk = LevelWalk(dd)
            walk.jump(n)
            assert (walk.level, walk.factors()) == (n, tau(s, n, dd)), (name, n)
        walk.jump(200)  # the level it is at
        early = LevelWalk(dd)
        early.jump(1)
        for back, lower in ((walk, 199), (early, 0)):
            with pytest.raises(ValueError, match="jumps forward along a checked recurrence only"):
                back.jump(lower)


def test_factored_integer_equals_int_without_factoring_it():
    import time

    semiprime = 1_000_000_007 * 1_000_000_009  # 19 digits, no small factor
    t0 = time.perf_counter()
    assert FactoredInteger.from_int(6) != semiprime
    assert FactoredInteger({2: 1, 1_000_000_007: 1}) != semiprime
    assert FactoredInteger({1_000_000_007: 1, 1_000_000_009: 1}) == semiprime
    assert FactoredInteger({2: 10 ** 12}) != semiprime
    assert time.perf_counter() - t0 < 0.5
    assert FactoredInteger({2: 1, 3: 3}) == 54
    assert FactoredInteger({2: 1, 3: 3}) != 108  # p divides the quotient
    assert FactoredInteger({2: 1, 3: 3}) != 27 * 4
    assert FactoredInteger({}) == 1
    assert FactoredInteger({2: 1}) != 0


def test_factored_integer_equality_is_transitive_over_composite_bases():
    # {4: 1} and {2: 2} both equal 4, so they equal each other
    assert FactoredInteger({4: 1}) == 4 and FactoredInteger({2: 2}) == 4
    assert FactoredInteger({4: 1}) == FactoredInteger({2: 2})
    assert FactoredInteger({6: 1}) == FactoredInteger({2: 1, 3: 1})
    assert FactoredInteger({12: 2}) == FactoredInteger({4: 2, 9: 1})
    assert FactoredInteger({4: 1}) != FactoredInteger({2: 1})
    assert FactoredInteger({12: 2}) != FactoredInteger({4: 2, 3: 1})
    assert FactoredInteger({2: 1, 4: 1}) == 8 == FactoredInteger({2: 3})  # bases sharing a prime
    assert len({FactoredInteger({4: 1}), FactoredInteger({2: 2}), 4}) == 1


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(2, 60), min_size=1, max_size=6),
    st.lists(st.integers(2, 60), min_size=1, max_size=6),
    st.data(),
)
def test_factored_integer_equality_is_value_equality(xs, ys, data):
    # a map {base: count} of the drawn bases has the value prod(xs); the same
    # bases multiplied in pairs, in a drawn order, give a second map of it
    order = data.draw(st.permutations(xs))
    paired = [prod(order[i:i + 2]) for i in range(0, len(order), 2)]
    a, b, c = (FactoredInteger(Counter(bases)) for bases in (xs, paired, ys))
    assert a == b and b == a and hash(a) == hash(b)
    assert a == prod(xs) and b == prod(xs)
    assert (a == c) == (prod(xs) == prod(ys)) == (c == a)


def test_factored_integer_digit_count_is_exact():
    # a 70-digit exponent: 60-digit logs got the last 15 digits wrong
    t = FactoredInteger({2: 10 ** 70, 3: 7})
    with mpmath.workdps(150):
        log10 = 10 ** 70 * mpmath.log10(2) + 7 * mpmath.log10(3)
        assert t.digits10() == int(mpmath.floor(log10)) + 1
    # powers of ten sit exactly on an integral log10
    assert FactoredInteger({2: 10 ** 70, 5: 10 ** 70}).digits10() == 10 ** 70 + 1
    assert FactoredInteger({2: 3, 5: 3}).digits10() == 4
    # values a hair off a power of ten
    for n in (10 ** 30 - 1, 10 ** 30 + 1, 999, 1001):
        assert FactoredInteger(factorize(n)).digits10() == len(str(n))


def test_factored_integer_hashable_and_immutable():
    a = FactoredInteger({2: 1, 3: 3})
    b = FactoredInteger(dict([(3, 3), (2, 1)]))
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(54)  # it also compares equal to the int
    assert len({a, b, FactoredInteger({2: 1})}) == 2
    with pytest.raises(TypeError):
        a.factors[3] = 5
    source = {2: 1}
    c = FactoredInteger(source)
    source[2] = 7
    assert c.exponent(2) == 1
    assert c.factors.get(2) == 1 and list(c.factors.items()) == [(2, 1)]


# ---------------------------------------------------------------------------
# preiterate products


def power_value(powers):
    """prod base^e of a {rational base: exponent} map, as one Fraction."""
    value = F(1)
    for base, e in powers.items():
        value *= F(base) ** e
    return value


def test_preiterate_depth_zero_is_norm(dds):
    dd = dds["sierpinski"]
    assert preiterate_product(dd, rat("3/4"), 0) == {F(3, 4): 1}
    pair = AlgebraicClass(Polynomial([F(7, 16), F(-3, 2), 1]))
    assert power_value(preiterate_product(dds["hexagasket"], pair, 0)) == F(7, 16)


def test_preiterate_sierpinski_depth_one(dds):
    # product of the two solutions of z(5-4z) = 3/4 is 3/16
    got = preiterate_product(dds["sierpinski"], rat("3/4"), 1)
    assert got == {F(3, 4): 1, F(1, 4): 1}
    assert power_value(got) == F(3, 16)


def test_preiterate_diamond_depth_two(dds):
    # 1 * (1/2)^3 = 1/8 over the four second preimages of 1
    got = preiterate_product(dds["diamond"], rat(1), 2)
    assert power_value(got) == F(1, 8)


def test_preiterate_matches_polynomial_constant_term(dds):
    # the closed form must agree with the preimage polynomial's own Vieta
    # product, for every fractal and small depth
    from fractal_trees.decimation import family_polynomial

    for name, dd in dds.items():
        table = {c for c, k, m in __import__("fractal_trees").spectrum(dd, 2).entries}
        for cls in table:
            for k in (0, 1, 2):
                poly = family_polynomial(dd, cls, k)
                vieta = poly.constant_term() if poly.degree % 2 == 0 else -poly.constant_term()
                closed = preiterate_product(dd, cls, k)
                assert power_value(closed) == vieta, (name, str(cls), k)


def test_preiterate_zero_class_rejected(dds):
    with pytest.raises(ValueError):
        preiterate_product(dds["sierpinski"], AlgebraicClass.from_rational(0), 1)


# ---------------------------------------------------------------------------
# tau


def test_tau_known_values(dds):
    assert tau(builtin("sierpinski"), 0) == 3
    assert str(tau(builtin("sierpinski"), 1, dds["sierpinski"])) == "2^1 * 3^3"
    assert tau(builtin("sierpinski"), 1, dds["sierpinski"]) == 54
    assert tau(builtin("nonpcf_sg"), 1, dds["nonpcf_sg"]) == 2700
    assert tau(builtin("hexagasket"), 1, dds["hexagasket"]) == 2916
    assert tau(builtin("diamond"), 1, dds["diamond"]) == 4
    assert tau(builtin("diamond"), 2, dds["diamond"]) == 1024
    assert tau(builtin("diamond"), 3, dds["diamond"]) == 2 ** 42


def test_tau_matches_bruteforce_level_two(dds):
    for name in ("sierpinski", "nonpcf_sg", "diamond", "hexagasket"):
        s = builtin(name)
        for n in (0, 1, 2):
            assert tau(s, n, dds[name]) == tau_bruteforce(build_level(s, n)), (name, n)


def test_tau_matches_bruteforce_level_three(dds):
    for name in ("sierpinski", "diamond", "nonpcf_sg", "hexagasket"):
        s = builtin(name)
        assert tau(s, 3, dds[name]) == tau_bruteforce(build_level(s, 3))


def test_exponent_closed_forms_sierpinski(dds):
    tab = exponent_table(builtin("sierpinski"), 20, dds["sierpinski"])
    assert set(tab) == {2, 3, 5}
    for n in range(21):
        assert tab[2][n] == (3 ** n - 1) // 2
        assert tab[3][n] == (3 ** (n + 1) + 2 * n + 1) // 4
        assert tab[5][n] == (3 ** n - 2 * n - 1) // 4
    assert (tab[2][2], tab[3][2], tab[5][2]) == (4, 8, 1)


def test_exponent_closed_forms_nonpcf(dds):
    tab = exponent_table(builtin("nonpcf_sg"), 20, dds["nonpcf_sg"])
    for n in range(21):
        assert tab[2][n] == 2 * (11 * 6 ** n - 30 * n - 11) // 25
        assert tab[3][n] == (2 * 6 ** n + 3) // 5
        assert tab[5][n] == (4 * 6 ** n + 30 * n - 4) // 25
    assert (tab[2][2], tab[3][2], tab[5][2]) == (26, 15, 8)


def test_exponent_closed_forms_diamond(dds):
    tab = exponent_table(builtin("diamond"), 20, dds["diamond"])
    assert set(tab) == {2}
    for n in range(21):
        assert tab[2][n] == 2 * (4 ** n - 1) // 3


def test_exponent_closed_forms_hexagasket(dds):
    # the powers of 3 and 7 follow the published formulas; the power of 2
    # follows the value implied by the published multiplicity tables,
    # 2(6^n - 1)/5 (see the erratum test in the acceptance suite)
    tab = exponent_table(builtin("hexagasket"), 20, dds["hexagasket"])
    assert set(tab) == {2, 3, 7}
    for n in range(21):
        assert tab[2][n] == 2 * (6 ** n - 1) // 5
        assert tab[3][n] == (4 * 6 ** (n + 1) + 5 * n + 1) // 25
        assert tab[7][n] == (6 ** n - 5 * n - 1) // 25
    assert (tab[3][2], tab[7][2]) == (35, 1)


def test_tau_integer_assembly_to_30(dds):
    # the factored assembly must cancel to a positive integer at depth
    for name, dd in dds.items():
        t = tau(builtin(name), 30, dd)
        assert all(e >= 1 for e in t.factors.values())


def test_prime_support_stable_from_level_two(dds):
    for name in ("sierpinski", "nonpcf_sg", "diamond", "hexagasket"):
        dd = dds[name]
        support = set(tau(builtin(name), 2, dd).factors)
        for n in range(3, 12):
            assert set(tau(builtin(name), n, dd).factors) == support, (name, n)


_RATIO = DecimationData.ratio  # the one-step ratio, unpatched


def _scale_ratio(monkeypatch, factor):
    """Every DecimationData's one-step ratio times factor, as a wrong Q(0)
    would scale it: with 1/7 every lifted family carries 7^-E, with -1 the
    levels whose families lift an odd number of roots in all are negative."""
    monkeypatch.setattr(DecimationData, "ratio", property(lambda dd: factor * _RATIO.fget(dd)))


_CLOSED_FORMS = counting._closed_forms  # the fit, unpatched


def _fit_like(monkeypatch, key, prime, factor):
    """Every walk's closed forms give key factor times the exponent of prime,
    as a wrong fit would after the jump: a sign key fitted like a prime is
    odd wherever that prime's exponent is, and with factor -1 a new prime
    takes a negative exponent at every level."""
    def closed_forms(roots, rows):
        terms, forms = _CLOSED_FORMS(roots, rows)
        coeffs, den = forms[prime]
        return terms, {**forms, key: ([factor * c for c in coeffs], den)}

    monkeypatch.setattr(counting, "_closed_forms", closed_forms)


def _jumped(name, n) -> bool:
    """Whether the walk evaluates closed forms at level n."""
    walk = LevelWalk(derive(builtin(name)))
    walk.jump(n)
    return walk.jumps


def _not_positive(n, sign, primes):
    """The whole refusal of a level whose product is not a positive integer."""
    return "^" + re.escape(f"assembly mismatch at level {n}: the product is not a positive "
                           f"integer (sign {sign:+d}, negative exponents at primes {primes})") + "$"


# each refusal is reached before the jump, where the walk assembles the
# level, and after it, where the walk evaluates the closed forms
BOTH_REGIMES = pytest.mark.parametrize("fitted", [False, True], ids=["assembled", "fitted"])


@BOTH_REGIMES
def test_assembly_refuses_a_non_integer_product(monkeypatch, capsys, fitted):
    from fractal_trees.cli import main

    s = builtin("sierpinski")
    level = 10 if fitted else 3
    assert _jumped("sierpinski", level) == fitted
    if fitted:
        _fit_like(monkeypatch, 7, 2, -1)
    else:
        _scale_ratio(monkeypatch, F(1, 7))
    with pytest.raises(AssemblyError, match=_not_positive(level, 1, [7])):
        tau(s, level, derive(s))
    assert main(["count", "sierpinski", "-n", str(level)]) == 2
    assert capsys.readouterr().err.startswith(f"error: assembly mismatch at level {level}")
    # Q(0) -> -Q(0) negates the product at nonpcf level 3, whose families
    # lift 27 roots in all (an odd power of the one-step ratio); a sign
    # fitted like the exponent of 3, odd at every level, negates level 8
    nonpcf = builtin("nonpcf_sg")
    level = 8 if fitted else 3
    assert _jumped("nonpcf_sg", level) == fitted
    if fitted:
        _fit_like(monkeypatch, -1, 3, 1)
    else:
        _scale_ratio(monkeypatch, -1)
    with pytest.raises(AssemblyError, match=_not_positive(level, -1, [])):
        tau(nonpcf, level, derive(nonpcf))


def test_negative_levels_are_refused(dds):
    s = builtin("sierpinski")
    with pytest.raises(ValueError, match="^level must be nonnegative$"):
        tau(s, -1, dds["sierpinski"])
    with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
        exponent_table(s, -1, dds["sierpinski"])


def test_interval_tau_is_one(dds):
    s = builtin("interval")
    for n in range(8):
        assert tau(s, n, dds["interval"]) == 1
        assert tau_bruteforce(build_level(s, n)) == 1


def test_tree3_tau_power_of_three(dds):
    s = builtin("tree3")
    for n in range(5):
        expected = FactoredInteger({3: 3 ** n})
        assert tau(s, n, dds["tree3"]) == expected
    # oracle on the wedge-of-triangles graphs
    for n in range(4):
        assert tau_bruteforce(build_level(s, n)) == 3 ** (3 ** n)


# ---------------------------------------------------------------------------
# the level walk against the assembly from scratch

SG3_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "structures" / "sg3.json"

# sha256 of repr(sorted(exponent_table(s, 60).items())), recorded with the
# per-level assembly that the level walk replaced
EXPONENT_TABLE_SHA256 = {
    "sierpinski": "b754603a2f65075a0f42ae2735089c38917c5b1b7e34513e04ffd3ae7c55b164",
    "nonpcf_sg": "bd81cd2d5e01431451a25506e62790d727ff7789ed7fc762cb8e714d03bccf1a",
    "diamond": "347e253c11a7f808894168006e828cbc4009f258c3855e4ccce85966f6b26d3b",
    "hexagasket": "5bc108e3e3786bea2839b74ffd841639b1c769653059f50a52176066c4cc1332",
    "interval": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "tree3": "0b7ac94745dddf9cb794014588d395d5227adf757017de0355bc068c030a91a7",
    "sg3": "56a4c94749422eb96f4495a9da191ef39880f9675a632fb76b338da79fa3c6cf",
}


def _structure(name):
    return load_json(str(SG3_JSON)) if name == "sg3" else builtin(name)


def _assembled(s, dd, n):
    """Prime exponents of tau(G_n) from scratch: every degree of G_n, the
    degree sum and the preiterate product of every spectrum entry."""
    stats = degree_stats(s, n)
    powers = Counter(stats.corner_degrees)
    powers.update(stats.interior_histogram)
    powers[s.m] -= n
    powers[s.v0_size * (s.v0_size - 1)] -= 1
    for cls, k, mult in spectrum(dd, n).entries:
        for base, e in preiterate_product(dd, cls, k).items():
            powers[base] += e * mult
    sign, factors = factor_powers(powers)
    assert sign == 1
    return factors


@pytest.mark.parametrize("name", sorted(EXPONENT_TABLE_SHA256))
def test_level_walk_matches_the_assembly_from_scratch(name):
    s = _structure(name)
    dd = derive(s)
    table = exponent_table(s, 60, dd)
    for n in range(61):
        walked = {p: seq[n] for p, seq in table.items() if seq[n]}
        assert walked == _assembled(s, dd, n), (name, n)
    for n in (1, 2, 7, 60):
        assert dict(tau(s, n, dd).factors) == _assembled(s, dd, n), (name, n)


@pytest.mark.parametrize("name", sorted(EXPONENT_TABLE_SHA256))
def test_exponent_table_pinned(name):
    table = exponent_table(_structure(name), 60)
    digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
    assert digest == EXPONENT_TABLE_SHA256[name]


def _level_zero_structures():
    from test_generalization import gasket

    data = Path(__file__).resolve().parent / "data"
    return [*(builtin(name) for name in BUILTIN_NAMES), _structure("sg3"),
            *(load_json(str(data / f"sg_2_{b}.json")) for b in (4, 5)),
            *(gasket(d, 2) for d in (3, 4, 5))]


@pytest.mark.parametrize("s", _level_zero_structures(), ids=lambda s: s.name)
def test_level_walk_at_level_zero_is_cayleys_formula(s):
    # G_0 is the complete graph on V0: the walk's own level-0 assembly (the
    # corner degrees, the degree sum and the class v0/(v0-1)) is v0^(v0-2)
    walk = LevelWalk(derive(s))
    walk.jump(0)
    assert walk.factors() == FactoredInteger.from_int(s.v0_size ** (s.v0_size - 2))


def test_entropy_factoring_grows_linearly(monkeypatch):
    # each distinct base is factored once per walk, so the factorize calls
    # of a sweep grow like n_max, not like n_max^2
    import fractal_trees.counting as counting
    import fractal_trees.factored as factored

    calls = []

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(counting, "factorize", counted)
    monkeypatch.setattr(factored, "factorize", counted)
    s = builtin("nonpcf_sg")

    def calls_at(n_max):
        dd = derive(s)
        calls.clear()
        entropy(s, n_max=n_max, precision=30, dd=dd)
        return len(calls)

    assert calls_at(400) <= 2 * calls_at(200) + 20


@BOTH_REGIMES
def test_every_level_read_is_checked(monkeypatch, capsys, fitted):
    # no builtin lifts an odd number of roots at level 1 (the level-0
    # family v0/(v0-1) has even multiplicity or splits), so the first
    # negative level is the hexagasket's level 2; its level 3 is positive
    # again, so only a check at every level catches level 2 in a sweep.
    # After the jump at level 4, a sign fitted like the exponent of 7 is
    # odd at the even levels: level 4 is negative and level 5 positive
    from fractal_trees.cli import main

    s = builtin("hexagasket")
    bad = 4 if fitted else 2
    assert _jumped("hexagasket", bad) == fitted and not _jumped("hexagasket", bad - 1)
    if fitted:
        _fit_like(monkeypatch, -1, 7, 1)
    else:
        _scale_ratio(monkeypatch, -1)
    dd = derive(s)
    assert tau(s, bad - 1, dd).factors and tau(s, bad + 1, dd).factors
    with pytest.raises(AssemblyError, match=_not_positive(bad, -1, [])):
        tau(s, bad, dd)
    with pytest.raises(AssemblyError, match=f"at level {bad}:"):
        entropy(s, n_max=bad + 3, dd=dd)
    with pytest.raises(AssemblyError, match=f"at level {bad}:"):
        exponent_table(s, bad + 1, dd)

    for argv in (["count", "hexagasket", "-n", str(bad)],
                 ["entropy", "hexagasket", "-n", str(bad + 3)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: assembly mismatch at level {bad}") and err.count("\n") == 1
    assert main(["count", "hexagasket", "-n", str(bad + 1)]) == 0


# ---------------------------------------------------------------------------
# one structure per computation

def _eight_structures():
    data = Path(__file__).resolve().parent / "data"
    return [*(builtin(name) for name in BUILTIN_NAMES), _structure("sg3"),
            load_json(str(data / "sg_2_4.json"))]


@pytest.fixture(scope="module")
def eight_dds():
    return {s.name: derive(s) for s in _eight_structures()}


def test_decimation_data_of_another_structure_is_refused(eight_dds):
    for s in _eight_structures():
        for name, dd in eight_dds.items():
            if name == s.name:
                continue
            message = (f"the decimation data of '{name}' does not belong to "
                       f"the structure '{s.name}'")
            for n in (0, 3, 40):
                with pytest.raises(ValueError, match=message):
                    tau(s, n, dd)
                with pytest.raises(ValueError, match=message):
                    exponent_table(s, n, dd)
                with pytest.raises(ValueError, match=message):
                    entropy(s, n_max=n, dd=dd)


@pytest.mark.parametrize("name", ["sierpinski", "hexagasket"])
def test_exponent_table_refuses_what_tau_refuses_before_deriving(monkeypatch, name):
    # exponent_table(sierpinski, 200_000) derived and stepped until killed,
    # where tau refused at once: m^n has more than COUNT_DIGIT_CAP digits
    import math

    from fractal_trees import counting

    s = builtin(name)
    first = math.ceil(counting.COUNT_DIGIT_CAP / math.log10(s.m))
    monkeypatch.setattr(counting, "derive", lambda s: pytest.fail("derived past the cap"))
    for n in (first, 200_000):
        refusals = []
        for read in (tau, exponent_table):
            with pytest.raises(ValueError, match="is out of reach") as refused:
                read(s, n)
            refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]
        assert f"more than {counting.COUNT_DIGIT_CAP} digits" in refusals[0]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_exponent_table_refuses_a_table_past_its_digit_cap_before_deriving(monkeypatch, name):
    # exponent_table(sierpinski, 16_000) held 72 MB of exponents; at tau's
    # last level (n = 104,795) its rows would need about 3 GB, where tau
    # answers at once: the rows' summed digits are capped
    import math
    import time

    from fractal_trees import counting

    class Derived(Exception):
        pass

    def derive(s):
        raise Derived

    s = builtin(name)
    digits = math.log10(s.m)
    last = max(n for n in range(30_000) if n * (n + 1) // 2 * digits < counting.TABLE_DIGIT_CAP)
    assert last >= 16_000
    reach = math.ceil(counting.COUNT_DIGIT_CAP / digits) - 1  # tau's last level
    monkeypatch.setattr(counting, "derive", derive)
    with pytest.raises(Derived):  # answered: it goes on to derive
        exponent_table(s, last)
    for n in (last + 1, reach):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than {counting.TABLE_DIGIT_CAP} digits per prime"):
            exponent_table(s, n)
        assert time.perf_counter() - start < 0.1
    with pytest.raises(Derived):  # tau at that level is in reach
        tau(s, reach)


def test_a_structure_loaded_twice_shares_its_decimation_data():
    # two loads of one file are equal but not identical records
    s, again = load_json(str(SG3_JSON)), load_json(str(SG3_JSON))
    assert s == again and s is not again
    dd = derive(again)
    assert tau(s, 5, dd) == tau(again, 5, dd) == tau(s, 5)
    assert exponent_table(s, 6, dd) == exponent_table(s, 6)
    assert entropy(s, n_max=12, dd=dd) == entropy(s, n_max=12)
