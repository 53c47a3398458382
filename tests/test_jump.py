"""The level walk's jump against the plain step loop.

Once the induction's level map is certified fixed, `LevelWalk.jump`
follows the recurrence of the exponents and `tau` jumps to level n.  With
the certificate switched off (`Induction.needs_zero` returning None) the
same walk steps every level, one `jump(level + 1)` at a time: the
reference here.
"""

import hashlib
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fractal_trees import builtin, derive, exponent_table, tau
from fractal_trees import counting, decimation
from fractal_trees.counting import (
    AssemblyError, LevelWalk, _closed_forms, _integer_roots, _never_negative, _reduce,
)
from fractal_trees.decimation import ZERO_CLASS, DecimationData, InconsistentSpectrumError, Induction
from fractal_trees.factored import FactoredInteger
from fractal_trees.structures import BUILTIN_NAMES, load_json
from test_cli import _with_zero_class, run
from test_fuzz import Watched
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


def _stepped(monkeypatch, dd, n_max):
    """The plain step loop to n_max: per level 1, 2, ... the outcome of
    `factors`, and the outcome of the step that refused (None if none did),
    after which no level is listed."""
    with monkeypatch.context() as mp:
        mp.setattr(Induction, "needs_zero", lambda self: None)
        walk, levels = LevelWalk(dd), []
        while walk.level < n_max:
            refused = _outcome(lambda: walk.jump(walk.level + 1))
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


def _jump_start(dd):
    walk = LevelWalk(dd)
    while not walk.jumps:
        walk.jump(walk.level + 1)
    return walk.level


@pytest.mark.parametrize("s", _structures(), ids=lambda s: s.name)
def test_jump_equals_the_step_loop(s, monkeypatch):
    dd = derive(s)
    levels, refused = _stepped(monkeypatch, dd, LEVELS)
    assert refused is None and len(levels) == LEVELS
    # the jump starts well inside 0..200, so the levels just before, at and
    # after it are all compared
    assert 1 < _jump_start(dd) < 20
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
    # the orbit reaches the 3/4 family, which lifts from level 2, at depth
    # 20: the orbit is live until level 20, where the hit is found, so no
    # certificate is given, and the walk steps until it refuses at level 21
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


def _late_second_source(monkeypatch):
    # a delay line of split classes: 3/4, born from 3/2 at level 1, splits
    # into x1 and a partner, x1 into x2, x2 into x3 (born at level 4), and
    # x3 into 3/4 again, which 3/2 writes too: from level 5 on 3/4 has two
    # sources, and the duplicate entry is refused there.  Each split keeps
    # the degree count, so the sum rule holds up to it.
    line = [rat("3/4"), *(rat(f"{k}/1000") for k in (1, 2, 3))]
    real_start, real_preimages = Induction._start, DecimationData.preimage_classes

    def _start(self):
        self.dd.split |= frozenset(line)
        real_start(self)

    def preimage_classes(dd, base):
        if base not in line:
            return real_preimages(dd, base)
        k = line.index(base)
        return [(line[(k + 1) % len(line)], 1), (rat(f"{k + 11}/1000"), 1)]

    monkeypatch.setattr(Induction, "_start", _start)
    monkeypatch.setattr(DecimationData, "preimage_classes", preimage_classes)


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
    "late second source": ("sierpinski", _late_second_source),
    "repeated preimage": ("sierpinski", _repeated_zero_root),
    "assembly sign": ("nonpcf_sg", _negated_ratio),
}


def _compare_with_the_step_loop(monkeypatch, s, dd, ns=(*range(1, 41), LEVELS), top=LEVELS):
    levels, refused = _stepped(monkeypatch, dd, top)
    assert refused is not None or any(outcome[0] != "value" for outcome in levels)
    for n in ns:
        assert _outcome(lambda: tau(s, n, dd)) == _expected_tau(levels, refused, n), n
    assert _outcome(lambda: exponent_table(s, top, dd)) == _expected_table(s, levels, refused)


@pytest.mark.parametrize("case", REFUSALS)
def test_jump_refuses_where_the_step_loop_does(case, monkeypatch):
    name, inject = REFUSALS[case]
    inject(monkeypatch)
    s = builtin(name)
    _compare_with_the_step_loop(monkeypatch, s, derive(s))


@pytest.mark.parametrize("image", ["endless orbit", "huge coefficient"])
def test_orbit_refusals_match_the_step_loop(image, monkeypatch):
    # the coefficient height refuses the step to level 1, which forms the
    # depth-1 class, and the class cap the step to level 4,097, the first
    # depth past it (each walk takes the orbits again); no jump comes first
    s = builtin("sierpinski")
    dd = derive(s)
    huge = rat(Fraction(1, 2 ** 1_000_001))
    if image == "endless orbit":
        dd.image_of = _new_class_each_call()
        _compare_with_the_step_loop(monkeypatch, s, dd, (1, 4096, 4097), 4097)
    else:
        dd.image_of = lambda cls: huge
        _compare_with_the_step_loop(monkeypatch, s, dd, (1, 2, LEVELS))


def _walk_only_vertex_count(monkeypatch, k):
    """Hand the walk level k with one vertex more than the induction's own
    checks passed, so only the walk's sum rule refuses it."""
    real = Induction.__next__

    def __next__(self):
        v_n, born, lifted = real(self)
        return v_n + (self.level == k), born, lifted

    monkeypatch.setattr(Induction, "__next__", __next__)


@pytest.mark.parametrize("name", ["sierpinski", "diamond", "hexagasket"])
@pytest.mark.parametrize("where, k", [
    *(("vertex count", k) for k in (1, 2, 3)), ("lifted", 1), ("born", 40),
])
def test_a_refused_walk_never_answers(monkeypatch, name, where, k):
    # the diamond's walk refused level 2 by its sum rule, and jump(2) then
    # answered tau(G_2) = 1 (it is 2^10); sierpinski's next jump(3) raised
    # an AssertionError of the degree recursion instead of the refusal
    if where == "vertex count":
        _walk_only_vertex_count(monkeypatch, k)
    else:
        _with_zero_class(monkeypatch, where)
    walk, unkept = LevelWalk(derive(builtin(name))), None
    if where == "born":
        # a read that fails is not kept: the walk steps on to its own refusal
        walk.jump(1)
        with pytest.raises(InconsistentSpectrumError, match="class containing 0") as read:
            walk.factors()
        unkept = read.value
    with pytest.raises(Exception) as first:
        walk.jump(k)
    refusal, pulled = first.value, walk._levels.level
    assert refusal is not unkept and not walk.jumps
    for read in (lambda: walk.jump(walk.level), lambda: walk.jump(k), lambda: walk.jump(k + 1),
                 lambda: walk.jump(10 ** 6), walk.exponents, walk.factors):
        with pytest.raises(type(refusal)) as again:
            read()
        assert again.value is refusal
    assert walk._levels.level == pulled and walk.refused is refusal


def test_a_failed_certificate_still_counts_by_stepping(monkeypatch):
    _late_deep_hit(monkeypatch)
    s = builtin("sierpinski")
    dd = derive(s)
    walk = LevelWalk(dd)
    for n in range(1, 21):
        walk.jump(walk.level + 1)
        assert not walk.jumps
        assert walk.factors() == tau(s, n, dd) == _closed_form(n), n


def _closed_form(n):
    return FactoredInteger({p: e for p, e in CLOSED_FORMS["sierpinski"](n).items() if e})


def _with_roots(roots):
    """prod (z - r) over roots, low coefficient first."""
    poly = [1]
    for r in roots:
        poly = [a - r * b for a, b in zip([0, *poly], [*poly, 0])]
    return poly


@pytest.mark.parametrize("name, roots, start", [
    # (z - 1)^2 (z - m): the sums, n and 1, and m^n with all that grows like it
    ("sierpinski", [1, 1, 3], 4),
    # kappa = 2 adds z - 2, and z a transient at level 1
    ("nonpcf_sg", [0, 1, 1, 2, 6], 6),
    ("diamond", [1, 1, 2, 4], 5),
])
def test_recurrence_from_the_states(name, roots, start):
    s = builtin(name)
    walk = LevelWalk(derive(s))
    while not walk.jumps:
        walk.jump(walk.level + 1)
    assert (walk.recurrence, walk.level) == (_with_roots(roots), start)


# sha256 of repr((jump level, recurrence, terms, sorted forms)) of each walk,
# pinned while the walk kept one degree per corner: one corner degree in the
# state leaves the first relation among the states, and all it gives, as it was
CERTIFICATE_SHA256 = {
    "sierpinski": "65fb3526ee3d57ab3a427e06ea9fd734b0cc8befa032c265203c6ed513f50eb6",
    "nonpcf_sg": "247b312f0f69670974214ecc77b4af0ae6ee92b70a363e86b023e4ff001c8f67",
    "diamond": "80f46c8cdeddc52995d7cea31f6a378d23f664b90786b23e8ef3c303e3b51ec5",
    "hexagasket": "b92bc6b97b737b3f2f5ed1ffd090b86fb18cb874abd1061b3ed363ec592e9a40",
    "interval": "e23aa944eb47bd05b00125fc388095197b999f4492d3bd1504a200edef7c3f60",
    "tree3": "c007c3b05414a93a1cc4afbac276e89414e1c2112c0c63d2a44693913a32523c",
    "sg3": "635fc0836ae6f2ea01729db8c873ddba2a7d3b7e2d44ad8b4471d4c005d34835",
    "sg4": "e223a58f4450ce10304901ef8bbd561d3f95a35f3a3ed6b00dd24bc77db954c7",
    "sg5": "7c2d3d10f3b142a2dcb4f207d0d89c2e8f5a298b688e11a970103c7a8b837756",
}


@pytest.mark.parametrize("s", [s for s in _structures() if s.name in CERTIFICATE_SHA256],
                         ids=lambda s: s.name)
def test_certificates_pinned(s):
    walk = LevelWalk(derive(s))
    while not walk.jumps:
        walk.jump(walk.level + 1)
    text = repr((walk.level, walk.recurrence, walk.terms, sorted(walk.forms.items())))
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256[s.name]


class _Terms(dict):
    """A sum of coefficient * n^i r^n, keyed (r, i), with exact rational
    coefficients: a closed form evaluated at _N gives its coefficients."""

    @staticmethod
    def of(x):
        return x if isinstance(x, _Terms) else _Terms({(1, 0): Fraction(x)})

    def __add__(self, other):
        out = dict(self)
        for term, c in _Terms.of(other).items():
            out[term] = out.get(term, 0) + c
        return _Terms({term: c for term, c in out.items() if c})

    __radd__ = __add__

    def __sub__(self, other):
        return self + -1 * _Terms.of(other)

    def __rmul__(self, k):
        return _Terms({term: k * c for term, c in self.items()})

    def __floordiv__(self, k):
        return _Terms({term: Fraction(c) / k for term, c in self.items()})

    def __rpow__(self, r):  # r^(n + c) = r^c r^n
        c = self.get((1, 0), 0)
        assert self - c == _N
        return _Terms({(r, 0): Fraction(r) ** c})


_N = _Terms({(1, 1): 1})


def _certified(name):
    s = builtin(name)
    walk = LevelWalk(derive(s))
    while not walk.jumps:
        walk.jump(walk.level + 1)
    return walk


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_forms_are_the_published_ones(name):
    # the hexagasket's power of 2 is the corrected 2(6^n - 1)/5
    walk = _certified(name)
    fitted = {
        key: _Terms({t: Fraction(c, den) for t, c in zip(walk.terms, coeffs) if c})
        for key, (coeffs, den) in walk.forms.items()
    }
    assert {key: form for key, form in fitted.items() if form} == CLOSED_FORMS[name](_N)


def test_closed_forms_skip_a_root_zero_transient():
    # annihilated by z^2 (z - 1)(z - 5) from level 10: the levels 10 and 11
    # are a transient, then both keys are a + b 5^n
    def x(n):
        return {2: (5 ** n + 3) // 4, 3: 2 - 5 ** (n - 10)}

    rows = {10: {2: 1000, 3: -7}, 11: {2: 0, 3: 5}, **{n: x(n) for n in range(12, 15)}}
    terms, forms = _closed_forms({0: 2, 1: 1, 5: 1}, rows)
    assert terms == [(1, 0), (5, 0)]
    assert forms == {2: ([3, 1], 4), 3: ([2 * 5 ** 10, -1], 5 ** 10)}
    for n in range(12, 100):
        for key, (coeffs, den) in forms.items():
            value, rest = divmod(sum(c * n ** i * r ** n for c, (r, i) in zip(coeffs, terms)), den)
            assert (value, rest) == (x(n)[key], 0), (n, key)


def _perturbed(forms):
    coeffs, den = forms[3]  # sierpinski's (1 + 2n + 3^(n+1)) / 4, off by 1/4
    forms[3] = ([coeffs[0] + 1, *coeffs[1:]], den)
    return forms


def test_a_form_that_leaves_a_remainder_is_an_assembly_error(monkeypatch, capsys):
    walk = _certified("sierpinski")
    _perturbed(walk.forms)
    walk.jump(50)
    with pytest.raises(AssemblyError, match="at level 50: the exponent of 3 is not an integer"):
        walk.factors()
    real = counting._closed_forms

    def perturbed(*args):
        terms, forms = real(*args)
        return terms, _perturbed(forms)

    monkeypatch.setattr(counting, "_closed_forms", perturbed)
    code, out, err = run(capsys, "count", "sierpinski", "-n", "50")
    assert (code, out) == (2, "")
    assert err == "error: assembly mismatch at level 50: the exponent of 3 is not an integer\n"


def test_integer_roots():
    assert _integer_roots(_with_roots([0, 1, 1, 2, 6])) == {0: 1, 1: 2, 2: 1, 6: 1}
    assert _integer_roots(_with_roots([0, 0, 5, 5, 5])) == {0: 2, 5: 3}
    assert _integer_roots([1]) == {}
    for poly in (
        _with_roots([1, -2]),  # a negative root
        _with_roots([-3]),
        [1, 0, 1],  # z^2 + 1
        [1, -3, 1],  # z^2 - 3z + 1, irrational roots
        [-3, 4, -2, 1],  # (z - 1)(z^2 - z + 3), a complex pair
    ):
        assert _integer_roots(poly) is None, poly
    # a constant term near 10^9: the divisor scan stops at its square root
    start = time.perf_counter()
    assert _integer_roots(_with_roots([31607, 31627])) == {31607: 1, 31627: 1}
    assert _integer_roots([999_999_937, -(10 ** 9), 1]) is None  # a prime constant
    assert time.perf_counter() - start < 0.1


def test_reduce_finds_the_first_dependency():
    basis = []
    states = [[1, 2], [3, 0, 1], [5, 4, 1]]  # a shorter state ends in zeros
    assert _reduce(basis, states[0]) is None
    assert _reduce(basis, states[1]) is None  # independent
    relation = _reduce(basis, states[2])  # 2 s0 + s1 - s2 = 0
    assert [Fraction(c, relation[-1]) for c in relation] == [-2, -1, 1]
    assert len(basis) == 2
    # s1 = s0 / 2: the relation's monic form is not integral
    basis = []
    assert _reduce(basis, [2, 6]) is None
    relation = _reduce(basis, [1, 3])
    assert [Fraction(c, relation[-1]) for c in relation] == [Fraction(-1, 2), 1]
    assert relation[0] % relation[-1]


def test_a_withheld_certificate_keeps_at_most_dim_plus_one_states(monkeypatch):
    # every relation fails the sign proof, so the oldest state is dropped
    monkeypatch.setattr(counting, "_never_negative", lambda values, roots: False)
    s = builtin("sierpinski")
    walk = LevelWalk(derive(s))
    for _ in range(2000):
        walk.jump(walk.level + 1)
        assert not walk.jumps
        assert 1 <= len(walk.states) <= len(walk.states[-1][0]) + 1
    assert walk.factors() == _closed_form(2000)


def test_a_withheld_relation_restarts_the_window(monkeypatch):
    # a coordinate first nonzero at level `start` (as a split base first
    # born then would add) breaks every relation of a window across it, and
    # the 3/2 family, born at every level, is named by needs_zero until
    # `late`, so every relation until then is withheld: each restarts the
    # window at its level, and the walk certifies past `late`
    start, late = 8, 15

    class NewCoordinate(LevelWalk):
        def _vector(self):
            return [max(self.level - start, 0), *super()._vector()]

    s = builtin("sierpinski")
    dd = derive(s)
    plain, want = LevelWalk(dd), []
    for n in range(41):
        plain.jump(n)
        want.append(plain.factors())
    walk = NewCoordinate(dd)
    real_zeros, real_reduce = Induction.needs_zero, counting._reduce
    monkeypatch.setattr(Induction, "needs_zero", lambda self: real_zeros(self) + (
        [rat("3/2")] if walk.level < late else []))
    relations = []

    def spy(basis, vector):
        relation = real_reduce(basis, vector)
        if basis is walk._basis and relation is not None:
            relations.append(walk.level)
        return relation

    monkeypatch.setattr(counting, "_reduce", spy)
    for n in range(41):
        walk.jump(n)
        assert walk.factors() == want[n], n
        assert walk.jumps == (n >= 17), n
        if relations[-1:] == [n] and not walk.jumps:  # withheld at this level
            assert (len(walk.states), len(walk._basis)) == (1, 1), n
    assert relations == [4, 7, 11, 14, 17]
    assert walk.recurrence == plain.recurrence == [-3, 7, -5, 1]


@pytest.mark.parametrize("s", [*_structures(), gasket(2, 6), gasket(3, 4), gasket(4, 3)],
                         ids=lambda s: s.name)
def test_real_structures_certify_the_first_relation(s):
    # no window restarts, so `_basis` is always the echelon form of `states`
    walk = Watched(derive(s))
    for n in range(41):
        walk.jump(n)
        assert walk.states is None or len(walk._basis) == len(walk.states), n
    assert (walk.restarts, walk.jumps) == (0, True)


def test_roots_the_jump_cannot_take_stop_keeping_states(monkeypatch):
    # the kept levels pass the zero checks, so one linear map made them and
    # its roots stay: the walk keeps no more states and steps
    monkeypatch.setattr(counting, "_integer_roots", lambda poly: None)
    s = builtin("nonpcf_sg")
    walk = LevelWalk(derive(s))
    for _ in range(40):
        walk.jump(walk.level + 1)
    assert (walk.jumps, walk.states) == (False, None)
    assert dict(walk.factors().factors) == CLOSED_FORMS["nonpcf_sg"](40)


def test_sign_proof_by_differences():
    # 20000 - 3^k is positive up to k = 9; no start before the flip proves
    # it nonnegative, while 3^k - 2^k and (k - 5)^2 are proven from a start
    flip = [20000 - 3 ** k for k in range(12)]
    assert not any(_never_negative(flip[k:], {1: 1, 3: 1}) for k in range(9))
    assert _never_negative([3 ** k - 2 ** k for k in range(3)], {2: 1, 3: 1})
    square = [(k - 5) ** 2 for k in range(12)]
    assert not _never_negative(square, {1: 3})
    assert _never_negative(square[5:], {1: 3})
