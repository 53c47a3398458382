"""The level walk's jump against the plain step loop.

Once the induction's level map is certified fixed, `LevelWalk.step`
follows the recurrence of the exponents and `tau` jumps to level n.  With
the certificate switched off (`Induction.fixed_roots` returning None) the
same walk steps every level: the reference here.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from fractal_trees import builtin, derive, exponent_table, tau
from fractal_trees import decimation
from fractal_trees.counting import LevelWalk, _never_negative
from fractal_trees.decimation import ZERO_CLASS, DecimationData, Induction
from fractal_trees.factored import FactoredInteger
from fractal_trees.structures import BUILTIN_NAMES, load_json
from test_cli import _with_zero_class
from test_generalization import gasket
from test_induction import CLOSED_FORMS, _inject_orbit, _new_class_each_call, rat
from test_level_tables import _repeated_zero_root

DATA = Path(__file__).resolve().parent / "data"
LEVELS = 200


def _structures():
    return [
        *(builtin(name) for name in BUILTIN_NAMES),
        gasket(2, 3),
        gasket(3, 2),
        *(load_json(str(DATA / f"sg_2_{b}.json")) for b in (4, 5)),
    ]


def _outcome(f):
    """("value", f()) or the (type, message) of what f raised."""
    try:
        return "value", f()
    except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
        return type(exc), str(exc)


def _stepped(monkeypatch, s, dd, n_max):
    """The plain step loop to n_max: per level 1, 2, ... the outcome of
    `factors`, and the outcome of the step that refused (None if none did),
    after which no level is listed."""
    with monkeypatch.context() as mp:
        mp.setattr(Induction, "fixed_roots", lambda self: None)
        walk, levels = LevelWalk(s, dd), []
        while walk.level < n_max:
            refused = _outcome(walk.step)
            if refused[0] != "value":
                return levels, refused
            assert not walk.jumps
            levels.append(_outcome(walk.factors))
    return levels, None


def _expected_tau(levels, refused, n):
    return levels[n - 1] if n <= len(levels) else refused


def _expected_table(s, levels, refused):
    for outcome in levels:
        if outcome[0] != "value":
            return outcome
    if refused is not None:
        return refused
    taus = [tau(s, 0)] + [t for _, t in levels]
    primes = sorted({p for t in taus for p in t.factors})
    return "value", {p: [t.exponent(p) for t in taus] for p in primes}


def _jump_start(s, dd):
    walk = LevelWalk(s, dd)
    while not walk.jumps:
        walk.step()
    return walk.level


@pytest.mark.parametrize("s", _structures(), ids=lambda s: s.name)
def test_jump_equals_the_step_loop(s, monkeypatch):
    dd = derive(s)
    levels, refused = _stepped(monkeypatch, s, dd, LEVELS)
    assert refused is None and len(levels) == LEVELS
    # the jump starts well inside 0..200, so the levels just before, at and
    # after it are all compared
    assert 1 < _jump_start(s, dd) < 20
    assert tau(s, 0, dd) == tau(s, 0)
    for n in range(1, LEVELS + 1):
        assert _outcome(lambda: tau(s, n, dd)) == levels[n - 1], n
    assert _outcome(lambda: exponent_table(s, LEVELS, dd)) == _expected_table(s, levels, None)


def _negative_rule(monkeypatch):
    # case 3 (sierpinski's 5/4 and 1/2) as K - |V_(n-1)|: positive until
    # level 11 and negative from level 12, after the jump could start at 7.
    # Its count differs from the spectrum's at level 1, where the sum rule
    # refuses it first in both walks.
    monkeypatch.setitem(decimation.CASE_RULES, 3, (0, -1, 88_575))


def _late_deep_hit(monkeypatch):
    # the orbit of 1/2 reaches the lifted 3/4 family at depth 20: the hit is
    # pending from level 2, no certificate is given, and the walk steps
    # until it refuses at level 21
    fresh = [rat(f"{k}/1000") for k in range(1, 20)]
    _inject_orbit(monkeypatch, [rat("1/2"), *fresh, rat("3/4")], "escaped")


def _duplicate_entry(monkeypatch):
    # 3/4 as a preimage of 0 too: level 1 puts it from 0 and from 3/2
    real = DecimationData.preimage_classes

    def preimage_classes(dd, base):
        out = real(dd, base)
        return out + [(rat("3/4"), 1)] if base == ZERO_CLASS else out

    monkeypatch.setattr(DecimationData, "preimage_classes", preimage_classes)


def _negated_ratio(monkeypatch):
    # on nonpcf_sg the product then has the sign (-1)^(L_n): negative at
    # levels 3, 5, 7, ..., on both sides of the jump from level 8
    real = DecimationData.ratio
    monkeypatch.setattr(DecimationData, "ratio", property(lambda dd: -real.fget(dd)))


REFUSALS = {
    "deep hit": ("sierpinski", lambda mp: _inject_orbit(
        mp, [rat("1/2"), rat("3/2"), rat("3/4")], "escaped")),
    "late deep hit": ("sierpinski", _late_deep_hit),
    "fixed point": ("diamond", lambda mp: _inject_orbit(mp, [rat(1)], 0)),
    "lifted zero class": ("sierpinski", lambda mp: _with_zero_class(mp, "lifted")),
    "born zero class": ("sierpinski", lambda mp: _with_zero_class(mp, "born")),
    "negative rule": ("sierpinski", _negative_rule),
    "negative multiplicity": ("sierpinski", lambda mp: mp.setitem(
        decimation.CASE_RULES, 3, (0, -1, 0))),
    "duplicate entry": ("sierpinski", _duplicate_entry),
    "repeated preimage": ("sierpinski", _repeated_zero_root),
    "assembly sign": ("nonpcf_sg", _negated_ratio),
}


def _compare_with_the_step_loop(monkeypatch, s, dd, ns=(*range(1, 41), LEVELS)):
    levels, refused = _stepped(monkeypatch, s, dd, LEVELS)
    assert refused is not None or any(outcome[0] != "value" for outcome in levels)
    for n in ns:
        assert _outcome(lambda: tau(s, n, dd)) == _expected_tau(levels, refused, n), n
    assert _outcome(lambda: exponent_table(s, LEVELS, dd)) == _expected_table(s, levels, refused)


@pytest.mark.parametrize("case", REFUSALS)
def test_jump_refuses_where_the_step_loop_does(case, monkeypatch):
    name, inject = REFUSALS[case]
    inject(monkeypatch)
    s = builtin(name)
    _compare_with_the_step_loop(monkeypatch, s, derive(s))


@pytest.mark.parametrize("image", ["endless orbit", "huge coefficient"])
def test_orbit_refusals_match_the_step_loop(image, monkeypatch):
    # the class cap and the coefficient height refuse the first level step
    # (each walk takes the orbits again), so a few levels show it
    s = builtin("sierpinski")
    dd = derive(s)
    huge = rat(Fraction(1, 2 ** 1_000_001))
    dd.image_of = _new_class_each_call() if image == "endless orbit" else lambda cls: huge
    _compare_with_the_step_loop(monkeypatch, s, dd, (1, 2, LEVELS))


def test_a_failed_certificate_still_counts_by_stepping(monkeypatch):
    _late_deep_hit(monkeypatch)
    s = builtin("sierpinski")
    dd = derive(s)
    walk = LevelWalk(s, dd)
    for n in range(1, 21):
        walk.step()
        assert not walk.jumps
        assert walk.factors() == tau(s, n, dd) == _closed_form(n), n


def _closed_form(n):
    return FactoredInteger({p: e for p, e in CLOSED_FORMS["sierpinski"](n).items() if e})


@pytest.mark.parametrize("name, roots, start", [
    # z^2 from the born block's chains, (z - 1)^2 (z - m) from the sums and
    # the interior degrees, z - d from L_n; kappa = 2 adds z - 2 on nonpcf_sg
    ("sierpinski", [0, 0, 1, 1, 2, 3], 7),
    ("nonpcf_sg", [0, 0, 1, 1, 2, 3, 6], 8),
    ("diamond", [0, 0, 1, 1, 2, 4], 7),
])
def test_annihilator_from_the_tables(name, roots, start):
    s = builtin(name)
    dd = derive(s)
    poly = [1]
    for r in roots:
        poly = [a - r * b for a, b in zip([0, *poly], [*poly, 0])]
    walk = LevelWalk(s, dd)
    while not walk.jumps:
        walk.step()
    assert (walk.recurrence, walk.level) == (poly, start)


def test_sign_proof_by_differences():
    # 20000 - 3^k is positive up to k = 9; no start before the flip proves
    # it nonnegative, while 3^k - 2^k and (k - 5)^2 are proven from a start
    flip = [20000 - 3 ** k for k in range(12)]
    assert not any(_never_negative(flip[k:], {1: 1, 3: 1}) for k in range(9))
    assert _never_negative([3 ** k - 2 ** k for k in range(3)], {2: 1, 3: 1})
    square = [(k - 5) ** 2 for k in range(12)]
    assert not _never_negative(square, {1: 3})
    assert _never_negative(square[5:], {1: 3})
