import importlib
import json
from fractions import Fraction as F
from functools import cache
from pathlib import Path

import mpmath
import pytest

from fractal_trees import (
    BUILTIN_NAMES, bounds, builtin, derive, entropy, exponent_table, load_json,
)
from fractal_trees.decimation import DecimationError, NotFullySymmetricError
from fractal_trees.entropy import g1_is_tree


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
@pytest.mark.parametrize("name", ["sierpinski", "diamond", "sg_2_5"])
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
