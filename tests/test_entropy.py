import importlib
import json
from fractions import Fraction as F
from functools import cache
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    fnan, finf, fninf, from_int, from_man_exp, mpf_add, mpf_div, mpf_mul_int, round_nearest, to_str,
)

from fractal_trees import (
    BUILTIN_NAMES, bounds, builtin, derive, entropy, exponent_table, load_json,
)
from fractal_trees.decimation import DecimationError, NotFullySymmetricError
from fractal_trees.cli import main
from fractal_trees.entropy import _level_value, decimal_printer, g1_is_tree


def constants(name):
    with mpmath.workdps(40):
        ln = mpmath.log
        return {
            "sierpinski": ln(2) / 3 + ln(3) / 2 + ln(5) / 6,
            "diamond": ln(2),
            "nonpcf_sg": 11 * ln(2) / 10 + ln(3) / 2 + ln(5) / 5,
            # the hexagasket constant implied by the published multiplicity
            # tables (2/9 coefficient on ln 2; see the acceptance notes)
            "hexagasket": 2 * ln(2) / 9 + 8 * ln(3) / 15 + ln(7) / 45,
        }[name]


@pytest.mark.parametrize("name", ["sierpinski", "diamond", "nonpcf_sg", "hexagasket"])
def test_entropy_constants_at_level_30(name):
    rep = entropy(builtin(name), n_max=30, precision=30)
    assert abs(rep.extrapolated - constants(name)) < mpmath.mpf("1e-6")
    assert rep.diffs_decreasing


def test_entropy_values_increase_with_level():
    rep = entropy(builtin("sierpinski"), n_max=12, precision=25)
    cs = [c for _, c in rep.values]
    assert all(cs[i] < cs[i + 1] for i in range(len(cs) - 1))


def test_entropy_matches_bruteforce_at_small_levels():
    import math

    from fractal_trees import build_level, tau_bruteforce
    from fractal_trees.levels import vertex_count_formula

    for name in ("sierpinski", "diamond", "hexagasket"):
        s = builtin(name)
        rep = entropy(s, n_max=2, precision=25)
        brute = math.log(tau_bruteforce(build_level(s, 2))) / vertex_count_formula(s, 2)
        assert abs(float(rep.values[0][1]) - brute) < 1e-9


def test_bounds_sierpinski():
    lower, upper, ok = bounds(builtin("sierpinski"))
    assert ok
    with mpmath.workdps(40):
        assert abs(lower - mpmath.log(3) / 2) < mpmath.mpf("1e-25")
        assert abs(upper - mpmath.log(4)) < mpmath.mpf("1e-25")


def test_bounds_nonpcf():
    lower, upper, ok = bounds(builtin("nonpcf_sg"))
    assert ok
    with mpmath.workdps(40):
        assert abs(upper - mpmath.log(mpmath.mpf(15) / 2)) < mpmath.mpf("1e-25")


def test_bounds_inapplicable_for_diamond_and_interval():
    assert bounds(builtin("diamond")) == (None, None, False)
    assert bounds(builtin("interval")) == (None, None, False)


def test_bounds_bracket_level_30():
    for name in ("sierpinski", "nonpcf_sg", "hexagasket"):
        rep = entropy(builtin(name), n_max=30, precision=30)
        assert rep.bounds_applicable
        assert rep.lower_bound <= rep.extrapolated <= rep.upper_bound


def test_g1_tree_detection():
    assert g1_is_tree(builtin("interval"))
    assert not g1_is_tree(builtin("sierpinski"))
    assert not g1_is_tree(builtin("tree3"))


def test_interval_entropy_zero():
    rep = entropy(builtin("interval"), n_max=7, precision=20)
    assert all(c == 0 for _, c in rep.values)
    assert not rep.bounds_applicable


def test_tree3_converges_to_lower_bound_from_below():
    rep = entropy(builtin("tree3"), n_max=30, precision=30)
    target = mpmath.log(3) / 2
    assert abs(rep.extrapolated - target) < mpmath.mpf("1e-10")
    # the bound is attained in the limit; finite levels sit strictly below
    assert rep.extrapolated < target
    assert rep.extrapolated <= rep.upper_bound
    # c_n increases monotonically; c_5 is already within 1e-2 of ln(3)/2
    cs = [c for _, c in rep.values]
    assert all(a < b for a, b in zip(cs, cs[1:]))
    assert abs(dict(rep.values)[5] - target) < mpmath.mpf("1e-2")


def test_entropy_argument_validation():
    with pytest.raises(ValueError):
        entropy(builtin("sierpinski"), n_max=1)
    with pytest.raises(ValueError):
        entropy(builtin("sierpinski"), n_max=5, precision=3)


def test_entropy_caps_refuse_before_derive(monkeypatch):
    def refuse(s):
        raise AssertionError("derive ran")

    monkeypatch.setattr(importlib.import_module("fractal_trees.entropy"), "derive", refuse)
    s = builtin("sierpinski")
    with pytest.raises(ValueError, match="^the entropy of sierpinski at level 6000 is out of "
                                         "reach: levels above 5000 are refused$"):
        entropy(s, 6000)
    with pytest.raises(ValueError, match="^the entropy of sierpinski at 3000 digits is out of "
                                         "reach: precisions above 2000 digits are refused$"):
        entropy(s, 30, 3000)


ROOT = Path(__file__).resolve().parents[1]
STRUCTURE_FILES = {
    "sg3": ROOT / "perfbench" / "structures" / "sg3.json",
    **{f"sg_2_{b}": ROOT / "tests" / "data" / f"sg_2_{b}.json" for b in (4, 5)},
}


PENTAGASKET = ROOT / "perfbench" / "structures" / "pentagasket.json"


def test_entropy_names_a_structure_decimation_refuses(capsys):
    from fractal_trees.cli import main

    with pytest.raises(DecimationError) as refused:
        entropy(load_json(str(PENTAGASKET)), n_max=5)
    assert str(refused.value).endswith(
        "; spectral decimation unavailable for 'pentagasket' - use the brute-force oracle "
        "at small levels instead"
    )
    assert isinstance(refused.value.__cause__, NotFullySymmetricError)
    assert main(["entropy", str(PENTAGASKET), "-n", "5"]) == 1
    assert capsys.readouterr() == ("", f"error: {refused.value}\n")


@cache
def structure_and_dd(name):
    s = load_json(str(STRUCTURE_FILES[name])) if name in STRUCTURE_FILES else builtin(name)
    return s, derive(s)


def entropy_values_by_table(s, dd, n_max, precision):
    """c_2..c_n_max summed over the per-prime table, a prime at a time."""
    table = exponent_table(s, n_max, dd)
    with mpmath.workdps(precision + 10):
        logs = {p: mpmath.log(p) for p in table}
        values = []
        for n in range(2, n_max + 1):
            acc = mpmath.mpf(0)
            for p, exponents in table.items():
                acc += exponents[n] * logs[p]
            values.append((n, acc / dd.v_count(n)))
    return tuple(values)


@pytest.mark.parametrize("n_max, precision", [(2, 6), (8, 30), (60, 30), (120, 300)])
@pytest.mark.parametrize("name", [*BUILTIN_NAMES, *STRUCTURE_FILES])
def test_entropy_reads_the_walk_as_the_exponent_table_does(name, n_max, precision):
    # each level's logs summed straight from the walk equal the table's
    # sums exactly: primes ascend either way and a zero exponent adds 0
    s, dd = structure_and_dd(name)
    got = entropy(s, n_max=n_max, precision=precision, dd=dd).values
    assert got == entropy_values_by_table(s, dd, n_max, precision)


def entropy_values_by_mpf(s, dd, n_max, precision):
    """c_2..c_n_max with an mpf object per operation: e * ln p for the
    first prime, += for the rest in ascending order, then / |V_n|."""
    from fractal_trees.counting import LevelWalk
    from fractal_trees.levels import vertex_count_formula

    walk, log = LevelWalk(dd), cache(mpmath.log)
    with mpmath.workdps(precision + 10):
        values = []
        for n in range(2, n_max + 1):
            walk.jump(n)
            (p, e), *rest = sorted(walk.exponents().items())
            acc = e * log(p)
            for p, e in rest:
                acc += e * log(p)
            values.append((n, acc / vertex_count_formula(s, n)))
    return values


@pytest.mark.parametrize("precision", [6, 30, 31, 301])
@pytest.mark.parametrize("name, n_max", [
    *((name, 120) for name in (*BUILTIN_NAMES, "sg_2_4", "sg_2_5")), ("nonpcf_sg", 1000),
])
def test_entropy_sums_bit_for_bit_as_mpf_objects(name, n_max, precision):
    s, dd = structure_and_dd(name)
    got = entropy(s, n_max=n_max, precision=precision, dd=dd).values
    assert all(isinstance(c, mpmath.mpf) for _, c in got)
    want = entropy_values_by_mpf(s, dd, n_max, precision)
    assert [(n, c._mpf_) for n, c in got] == [(n, c._mpf_) for n, c in want]


@pytest.mark.parametrize("precision", [6, 31, 301])
@pytest.mark.parametrize("name", ["sierpinski", "diamond", "sg_2_5", "interval"])
def test_entropy_prints_what_nstr_prints(capsys, name, precision):
    from fractal_trees.cli import main

    s, dd = structure_and_dd(name)
    fractal = str(STRUCTURE_FILES.get(name, name))
    rep = entropy(s, n_max=40, precision=precision, dd=dd)

    def nstr(x):
        return mpmath.nstr(x, precision)

    bounds = [None, None]
    if rep.bounds_applicable:
        bounds = [nstr(rep.lower_bound), nstr(rep.upper_bound)]
    assert main(["entropy", fractal, "-n", "40", "--prec", str(precision), "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["values"] == [[n, nstr(c)] for n, c in rep.values]
    assert printed["extrapolated"] == nstr(rep.extrapolated)
    assert [printed["lower_bound"], printed["upper_bound"]] == bounds

    assert main(["entropy", fractal, "-n", "40", "--prec", str(precision)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:-3] == [f"  c_{n:<3d} = {nstr(c)}" for n, c in rep.values]
    assert lines[-3] == f"extrapolated: {nstr(rep.extrapolated)}"
    assert lines[-2] == (f"bounds: {bounds[0]} <= c <= {bounds[1]}" if rep.bounds_applicable
                         else "bounds: not applicable (|V0| = 2 or G1 is a tree)")


@pytest.mark.parametrize("precision", [30, 300])
@pytest.mark.parametrize("name", ["sierpinski", "nonpcf_sg", "diamond", "hexagasket", "sg3"])
def test_entropy_prints_what_nstr_prints_at_the_benchmark_shapes(capsys, name, precision):
    # the entropy-sweep workload's levels and precisions, text and JSON
    s, dd = structure_and_dd(name)
    fractal = str(STRUCTURE_FILES.get(name, name))

    def nstr(x):
        return None if x is None else mpmath.nstr(x, precision)

    for n_max in (60, 65, 115, 120):
        rep = entropy(s, n_max=n_max, precision=precision, dd=dd)
        argv = ["entropy", fractal, "-n", str(n_max), "--prec", str(precision)]
        assert main([*argv, "--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["values"] == [[n, nstr(c)] for n, c in rep.values]
        assert printed["extrapolated"] == nstr(rep.extrapolated)
        assert [printed["lower_bound"], printed["upper_bound"]] == [nstr(rep.lower_bound), nstr(rep.upper_bound)]

        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:-3] == [f"  c_{n:<3d} = {nstr(c)}" for n, c in rep.values]
        assert lines[-3] == f"extrapolated: {nstr(rep.extrapolated)}"
        assert lines[-2] == (f"bounds: {nstr(rep.lower_bound)} <= c <= {nstr(rep.upper_bound)}"
                             if rep.bounds_applicable else "bounds: not applicable (|V0| = 2 or G1 is a tree)")


ESCAPED_NAME = 'a "quoted" \\ name, \u00e9t\u00e9 \u2014 \U0001d4ae'


@pytest.mark.parametrize("fractal, n_max, precision", [
    ("sierpinski", 120, 300), ("sierpinski", 2, 6), ("interval", 40, 30), ("diamond", 65, 31),
    ("escaped name", 60, 30),
])
def test_entropy_json_is_jsons_indented_sorted_layout(capsys, tmp_path, fractal, n_max, precision):
    # the "values" rows are written by hand; every byte must be json.dumps's,
    # a name that json escapes included
    if fractal == "escaped name":
        fractal = tmp_path / "escaped.json"
        fractal.write_text(json.dumps(dict(json.loads(STRUCTURE_FILES["sg3"].read_text()), name=ESCAPED_NAME)))
    assert main(["entropy", str(fractal), "-n", str(n_max), "--prec", str(precision), "--format", "json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert [n for n, _ in report["values"]] == list(range(2, n_max + 1))
    assert report["fractal"] == (ESCAPED_NAME if isinstance(fractal, Path) else fractal)
    if fractal == "interval":
        assert {c for _, c in report["values"]} == {"0.0"}
        assert report["lower_bound"] is report["upper_bound"] is None


def level_value_by_libmp(terms, v, prec):
    """The raw mpf sum(e ln p) / v by libmp's own calls, in order."""
    def product(term):
        (man, exp), e = term
        return mpf_mul_int((0, man, exp, man.bit_length()), e, prec, round_nearest)

    acc = product(terms[0])
    for term in terms[1:]:
        acc = mpf_add(acc, product(term), prec, round_nearest)
    return mpf_div(acc, from_int(v), prec, round_nearest)


def level_value(terms, v, prec):
    man, exp = _level_value(terms, v, prec)
    return 0, man, exp, man.bit_length()


P = 60
FAR = 1 << (P + 200)  # an e whose product lies wholly above a unit term's guard bits

# a case for each branch of libmp's product, sum and division (the shortcuts at
# precisions 20 and P): `_level_value` has none of them, and must round as each does
LEVEL_SUM_CASES = {
    "equal exponents": ([((3, -1), 1), ((5, -1), 1)], 7),
    "the sum's exponent larger": ([((3, 4), 1), ((5, -1), 1)], 7),
    "the new term's exponent larger": ([((5, -1), 1), ((3, 4), 1)], 7),
    "far apart, the sum larger": ([((3, 0), FAR), ((5, 0), 1)], 7),
    "far apart, the new term larger": ([((5, 0), 1), ((3, 0), FAR)], 7),
    "over 100 bits apart, inside the guard bits": ([((1, 110), 1), (((1 << P) - 1, 0), 1)], 7),
    # 3 (2^(P-1) + 1) has P + 1 bits and ends in 1: half an ulp, an odd and an even kept part
    "a tie in a product, up to even": ([(((1 << (P - 1)) + 1, 0), 3)], 1),
    "a tie in a product, down to even": ([(((1 << (P - 1)) + 3, 0), 3)], 1),
    "|V_n| a power of two": ([((3, -1), 1), ((5, -1), 1)], 64),
    "|V_n| = 1": ([((3, -1), 1), ((5, -1), 1)], 1),
    "an exact quotient": ([((3, 0), 5)], 5),
    "an exact quotient by an even |V_n|": ([((3, 0), 10)], 10),
    "zero exponents first and between": ([((3, 0), 0), ((5, 1), 3), ((7, 0), 0), ((9, 2), 1)], 6),
    "every exponent zero, the interval's c_n = 0": ([((3, 0), 0), ((5, 0), 0)], 9),
}


@pytest.mark.parametrize("terms, v", LEVEL_SUM_CASES.values(), ids=LEVEL_SUM_CASES)
def test_level_value_matches_each_libmp_branch(terms, v):
    for prec in (20, P, 6700):
        assert level_value(terms, v, prec) == level_value_by_libmp(terms, v, prec)


@st.composite
def level_sums(draw):
    """(terms, v, prec): odd mantissas of at most prec bits, as ln p has."""
    prec = draw(st.integers(20, 6700))
    exponents = st.one_of(st.just(0), st.integers(1, 10 ** 6), st.integers(0, 1 << (prec + 300)))

    def term():
        man = 2 * draw(st.integers(0, (1 << (prec - 1)) - 1)) + 1
        return (man, draw(st.integers(-2 * prec, prec))), draw(exponents)

    terms = [term() for _ in range(draw(st.integers(1, 5)))]
    v = draw(st.one_of(
        st.integers(1, 10 ** 6),
        st.integers(1, 1 << (2 * prec)),
        st.integers(0, 3 * prec).map(lambda k: 1 << k),
        st.integers(0, 30).map(lambda k: 3 << k),
    ))
    return terms, v, prec


@settings(max_examples=300, deadline=None)
@given(level_sums())
def test_level_value_is_libmps_sum_bit_for_bit(case):
    terms, v, prec = case
    assert level_value(terms, v, prec) == level_value_by_libmp(terms, v, prec)


# decimal_printer against libmp's to_str, which mpmath.nstr calls


@st.composite
def printable_mpfs(draw):
    """(raw mpf, dps): zero, or a positive mpf within 2^3500 of 1, some of
    them a few units below a power of ten so that rounding carries."""
    dps = draw(st.integers(6, 2000))
    kind = draw(st.sampled_from(["zero", "any", "below a power of ten"]))
    if kind == "zero":
        return from_int(0), dps
    if kind == "any":
        bits = draw(st.integers(1, 4 * dps + 60))
        man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        return from_man_exp(man, draw(st.integers(-3500 - bits, 3500 - bits))), dps
    k = draw(st.integers(-1000, 1000))
    scale = 4 * (dps + max(-k, 0)) + draw(st.integers(0, 100))  # 10^k 2^scale has 4 dps bits
    man = (10 ** max(k, 0) << scale) // 10 ** max(-k, 0) - draw(st.integers(0, 3))
    return from_man_exp(man, -scale), dps


@settings(max_examples=300, deadline=None)
@given(printable_mpfs())
def test_decimal_printer_is_to_str(case):
    x, dps = case
    assert decimal_printer(dps)(x) == to_str(x, dps)


def mpf_of(text, dps):
    with mpmath.workdps(dps + 20):
        return mpmath.mpf(text)._mpf_


PRINTER_CASES = {
    # to_str's round-up through trailing 9s, to the next power of ten
    "a carry to 10 in the fixed layout": (mpf_of("9.9999996", 6), 6, "10.0"),
    "a carry to 1 from below": (mpf_of("0.99999996", 6), 6, "1.0"),
    "a carry into the exponent layout": (mpf_of("999999.7", 6), 6, "1.0e+6"),
    "a carry inside the digits": (mpf_of("1.2999996", 6), 6, "1.3"),
    "a 9 kept before a 4": (mpf_of("1.999994", 6), 6, "1.99999"),
    # at or past 10^dps, and below 10^-5 (or 10^-(dps // 3) at 30 digits)
    "10^dps": (from_int(10 ** 6), 6, "1.0e+6"),
    "just below 10^dps": (from_int(10 ** 6 - 1), 6, "999999.0"),
    "past 10^dps": (from_man_exp(1, 3000), 30, None),
    "10^-3 at 6 digits, still fixed": (mpf_of("0.00123", 6), 6, "0.00123"),
    "10^-6 at 6 digits": (mpf_of("1e-6", 6), 6, "1.0e-6"),
    "10^-5 at 6 digits": (mpf_of("0.00001234567", 6), 6, "1.23457e-5"),
    "10^-9 at 30 digits, still fixed": (mpf_of("1.5e-9", 30), 30, "0.0000000015"),
    "10^-11 at 30 digits": (mpf_of("1.5e-11", 30), 30, "1.5e-11"),
    "near 2^-3500": (from_man_exp(3, -3501), 2000, None),
    "near 2^3500": (from_man_exp((1 << 3000) - 1, 500), 2000, None),
    "zero": (from_int(0), 6, "0.0"),
}


@pytest.mark.parametrize("x, dps, printed", PRINTER_CASES.values(), ids=PRINTER_CASES)
def test_decimal_printer_named_cases(x, dps, printed):
    assert decimal_printer(dps)(x) == to_str(x, dps)
    if printed is not None:
        assert decimal_printer(dps)(x) == printed


@pytest.mark.parametrize("dps", [6, 7, 30, 31, 300, 301, 2000])
def test_decimal_printer_prints_the_bounds(dps):
    for name in ("sierpinski", "nonpcf_sg", "hexagasket", "tree3"):
        lower, upper, ok = bounds(builtin(name), dps)
        assert ok
        for x in (lower._mpf_, upper._mpf_):
            assert decimal_printer(dps)(x) == to_str(x, dps)


@pytest.mark.parametrize("x", [
    from_int(-3), mpf_of("-1e-7", 6), finf, fninf, fnan,
    from_man_exp(1, 3500), from_man_exp(1, -3502), from_man_exp(5, 4000),
], ids=["-3", "-1e-7", "+inf", "-inf", "nan", "2^3500", "2^-3502", "5 2^4000"])
def test_decimal_printer_refuses_what_it_does_not_follow(x):
    with pytest.raises(ValueError):
        decimal_printer(30)(x)
