"""The spectrum induction at depth: birth-indexed families, laziness, refusals."""

import hashlib
import time
import tracemalloc
from fractions import Fraction
from itertools import count
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_trees import builtin, derive, spectrum, tau
from fractal_trees import cli, decimation
from fractal_trees.counting import LevelWalk
from fractal_trees.decimation import ZERO_CLASS, InconsistentSpectrumError, Induction
from fractal_trees.polys import AlgebraicClass, Polynomial
from fractal_trees.structures import BUILTIN_NAMES, load_json
from test_generalization import gasket

FOUR = ("sierpinski", "nonpcf_sg", "diamond", "hexagasket")

# published exponent closed forms; hexagasket's power of 2 is the
# corrected 2(6^n - 1)/5 (see the erratum pair in the acceptance suite)
CLOSED_FORMS = {
    "sierpinski": lambda n: {
        2: (3 ** n - 1) // 2,
        3: (3 ** (n + 1) + 2 * n + 1) // 4,
        5: (3 ** n - 2 * n - 1) // 4,
    },
    "nonpcf_sg": lambda n: {
        2: 2 * (11 * 6 ** n - 30 * n - 11) // 25,
        3: (2 * 6 ** n + 3) // 5,
        5: (4 * 6 ** n + 30 * n - 4) // 25,
    },
    "diamond": lambda n: {2: 2 * (4 ** n - 1) // 3},
    "hexagasket": lambda n: {
        2: 2 * (6 ** n - 1) // 5,
        3: (4 * 6 ** (n + 1) + 5 * n + 1) // 25,
        7: (6 ** n - 5 * n - 1) // 25,
    },
}


def rat(x):
    return AlgebraicClass.from_rational(Fraction(x))


@pytest.mark.parametrize("name", FOUR)
def test_closed_forms_hold_deep(name):
    s = builtin(name)
    dd = derive(s)
    for n in (117, 245, 500):
        assert dict(tau(s, n, dd).factors) == CLOSED_FORMS[name](n), n


def test_spectrum_factors_each_polynomial_once(monkeypatch):
    for s in [builtin(name) for name in FOUR] + [gasket(2, 3)]:
        dd = derive(s)
        calls = []

        def counting(p, _real=decimation.factor_classes):
            calls.append(p)
            return _real(p)

        monkeypatch.setattr(decimation, "factor_classes", counting)
        spectrum(dd, 300)
        monkeypatch.undo()
        assert len(calls) <= 10, (s.name, len(calls))


def test_incremental_reads_match_a_deep_first_build():
    for s in [builtin(name) for name in FOUR] + [gasket(2, 3)]:
        dd, dd2 = derive(s), derive(s)
        upward = [spectrum(dd, n).entries for n in range(61)]
        spectrum(dd2, 60)
        assert [spectrum(dd2, n).entries for n in range(61)] == upward, s.name


def test_split_set_is_the_exceptional_images():
    # 21/4 = R(3/2) on the hexagasket escapes: no eigenvalue of any P_n
    # lies there, but it is still an image and stays in the set
    expected = {
        "sierpinski": {"-3/2", "0", "3/2"},
        "diamond": {"2"},
        "nonpcf_sg": {"0", "3/2"},
        "hexagasket": {"21/4", "3/2", "0"},
    }
    for name, values in expected.items():
        dd = derive(builtin(name))
        assert dd.split == {rat(v) for v in values}, name


# sha256 of sg3's spectrum tables and tau(G_n) factors at every level
# 0..60: a change to the induction that alters any table entry or count
# there changes the digest
SG3_TABLES_TAU_0_60 = "7768ba253f277516dbbba71c6dd4169e31b0252d5cf8773bd0ac2fd19f6f2793"


def test_sg3_tables_and_tau_unchanged_to_level_60():
    s = gasket(2, 3)
    dd = derive(s)
    h = hashlib.sha256()
    for n in range(61):
        for cls, k, mult in spectrum(dd, n).entries:
            h.update(f"{n}:{cls.minpoly.coeffs}:{k}:{mult};".encode())
        h.update(f"{n}:{sorted(tau(s, n, dd).factors.items())}|".encode())
    assert h.hexdigest() == SG3_TABLES_TAU_0_60


def test_level_walk_memory_is_linear():
    # the walk holds one level of families; a store of one dict of O(n)-bit
    # multiplicities per level peaked at about 2.4 MB here
    s = builtin("sierpinski")
    dd = derive(s)
    tracemalloc.start()
    try:
        tau(s, 2000, dd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def _yielded(classes, end):
    """What `decimation._orbit` yields for the forward orbit `classes` (e
    first), ending as `end` ("escaped", "pole" or the position of the class
    the orbit returns to): R(e), R^2(e), ... up to a repeat of a class
    yielded at a depth >= 2."""
    if isinstance(end, str):
        return classes[1:]
    out = []
    for k in count(1):
        cls = classes[k] if k < len(classes) else classes[end + (k - end) % (len(classes) - end)]
        if cls in out[1:]:
            return out
        out.append(cls)


def _inject_orbit(monkeypatch, classes, end):
    """Replace the forward orbit of the first exceptional value by
    `classes`, ending as `end` ("escaped", "pole" or a cycle's start)."""
    real = decimation._orbit

    def orbit(dd, e):
        return iter(_yielded(classes, end)) if e == dd.exceptional[0] else real(dd, e)

    monkeypatch.setattr(decimation, "_orbit", orbit)


def orbit_depths(dd):
    """class -> (i, e): the least depth i >= 2 at which the forward orbit
    of an exceptional value e reaches the class, each orbit walked to its
    end in turn, as the induction once did before level 1."""
    depths = {}
    for e in dd.exceptional:
        for i, cls in enumerate(decimation._orbit(dd, e), 1):
            if i >= 2 and (cls not in depths or i < depths[cls][0]):
                depths[cls] = (i, e)
    return depths


def test_orbit_reaching_a_lifted_family_is_refused_at_its_level(monkeypatch):
    # sierpinski: the 3/4 family is born at level 1 and lifts; an orbit
    # 1/2 -> 3/2 -> 3/4 meets it at depth 2, which is level 1 + 2
    _inject_orbit(monkeypatch, [rat("1/2"), rat("3/2"), rat("3/4")], "escaped")
    dd = derive(builtin("sierpinski"))
    with pytest.raises(InconsistentSpectrumError, match="deep family splitting"):
        spectrum(dd, 10)
    assert spectrum(dd, 2).eigenvalue_count() == dd.v_count(2)
    with pytest.raises(InconsistentSpectrumError, match="depth-2 preiterates of 3/4"):
        spectrum(dd, 3)
    # the level walk refuses at the same level
    assert tau(builtin("sierpinski"), 2, dd).value() > 0
    with pytest.raises(InconsistentSpectrumError, match="depth-2 preiterates of 3/4"):
        tau(builtin("sierpinski"), 3, dd)


def test_a_refused_induction_stays_refused(monkeypatch):
    # sierpinski: the orbit of 1/2 is refused at its first step.  The orbits
    # before it have moved to depth 1 and the refused one is closed, so a
    # later step must not read it as ended (it returned level 1, born
    # {3/2: 3, 3/4: 2}, with the refused orbit dropped)
    real = decimation._orbit

    def orbit(dd, e):
        if e == rat("1/2"):
            raise InconsistentSpectrumError("orbit of 1/2 refused")
        yield from real(dd, e)

    monkeypatch.setattr(decimation, "_orbit", orbit)
    levels = Induction(derive(builtin("sierpinski")))
    next(levels)
    for _ in range(3):
        with pytest.raises(InconsistentSpectrumError, match="^orbit of 1/2 refused$"):
            next(levels)


SIERPINSKI_TAU = (3, 54, 524880, 803355125990400000)  # tau(G_0)..tau(G_3)


def _verify_lines(k: int, message: str) -> list[str]:
    """`verify sierpinski --max-level 3` when the induction refuses at level
    k: each check below k passes and each at or past it fails with the
    refusal's message."""

    def line(name, level, detail=""):
        if level >= k:
            return f"FAIL  {name}  ({message})"
        return f"PASS  {name}  ({detail})" if detail else f"PASS  {name}"

    return [
        "PASS  schur identity S = phi (P0 - R)  (verified during derivation)",
        *(line(f"tau oracle vs closed form, level {n}", n, str(t))
          for n, t in enumerate(SIERPINSKI_TAU)),
        "PASS  matrix-tree identity on G_1  (tau=54)",
        "PASS  matrix-tree identity on G_2  (tau=524880)",
        *(line(f"spectrum charpoly crosscheck, level {n}", n, "charpoly matches spectrum table")
          for n in (1, 2)),
        line("spectrum sum rule, levels 0..30", 30),
        line("integer assembly at level 30", 30),
    ]


def _run_verify(capsys) -> tuple[int, list[str], str]:
    code = cli.main(["verify", "sierpinski", "--max-level", "3"])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_keeps_each_check_below_an_orbit_refusal(monkeypatch, capsys, k):
    # the first exceptional value's orbit yields k - 1 classes, then is refused
    real = decimation._orbit

    def orbit(dd, e):
        if e != dd.exceptional[0]:
            yield from real(dd, e)
            return
        yield from (rat(7 + i) for i in range(k - 1))
        raise InconsistentSpectrumError("orbit refused")

    monkeypatch.setattr(decimation, "_orbit", orbit)
    assert _run_verify(capsys) == (2, _verify_lines(k, "orbit refused"), "")


def test_verify_keeps_each_check_below_a_deep_hit(monkeypatch, capsys):
    # the deep hit of `test_orbit_reaching_a_lifted_family_is_refused_at_its_level`
    _inject_orbit(monkeypatch, [rat("1/2"), rat("3/2"), rat("3/4")], "escaped")
    message = (
        "exceptional value 3/2 sits inside the depth-2 preiterates of 3/4; "
        "deep family splitting is not supported"
    )
    assert _run_verify(capsys) == (2, _verify_lines(3, message), "")
    monkeypatch.undo()
    assert _run_verify(capsys) == (0, _verify_lines(31, ""), "")


SG3 = str(Path(__file__).resolve().parents[1] / "perfbench" / "structures" / "sg3.json")


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, SG3], ids=[*BUILTIN_NAMES, "sg3"])
def test_verify_runs_one_induction(name, monkeypatch, capsys):
    # the level walk and the spectrum tables read one pass
    made = []
    real = Induction.__init__

    def counted(self, dd):
        made.append(type(self))
        real(self, dd)

    monkeypatch.setattr(Induction, "__init__", counted)
    assert cli.main(["verify", name, "--max-level", "3"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(made) == 1
    assert made[0] is decimation.Spectra


def test_periodic_orbit_is_refused_where_it_returns(monkeypatch):
    # diamond: 1 is born at level 1 and lifts; the orbit 1 -> 2 -> 1 -> ...
    # (cycle of period 2 from position 0) meets it again at depth 2
    _inject_orbit(monkeypatch, [rat(1), rat(2)], 0)
    dd = derive(builtin("diamond"))
    for n in range(3):
        spectrum(dd, n)
    with pytest.raises(InconsistentSpectrumError, match="depth-2 preiterates of 1"):
        spectrum(dd, 3)


def test_fixed_point_orbit_is_refused_at_depth_2(monkeypatch):
    # diamond: an orbit that starts at a fixed point 1 of R returns to it
    # at every depth, so the lifted 1 family first holds it at depth 2
    _inject_orbit(monkeypatch, [rat(1)], 0)
    dd = derive(builtin("diamond"))
    spectrum(dd, 2)
    with pytest.raises(InconsistentSpectrumError, match="depth-2 preiterates of 1"):
        spectrum(dd, 3)


# ---------------------------------------------------------------------------
# exceptional orbits: each one pinned to its end, and each refusal named

# every exceptional value's forward orbit R(e), R^2(e), ... as class
# labels, and how it ends: "escaped", "pole", or the position (e at 0) of
# the class the orbit returns to
ORBITS = {
    "sierpinski": [
        ("3/2", ["-3/2"], "escaped"),
        ("5/4", ["0"], 1),
        ("1/2", ["3/2", "-3/2"], "escaped"),
    ],
    "nonpcf_sg": [
        ("3/2", ["0"], 1),
        ("15/14", [], "pole"),
        ("1", ["0"], 1),
        ("1/2", ["3/2", "0"], 2),
    ],
    "diamond": [("1", ["2", "0"], 2)],
    "hexagasket": [
        ("3/2", [], "escaped"),
        ("1/2", [], "pole"),
        ("root of z^2 - 3/2*z + 1/4", ["3/2"], "escaped"),
        ("root of z^2 - 3/2*z + 7/16", ["0"], 1),
    ],
    "interval": [("1", ["2", "0"], 2)],
    "tree3": [
        ("3/2", [], "escaped"),
        ("1", ["0"], 1),
        ("1/2", ["3/2"], "escaped"),
    ],
    "sg3": [
        ("3/2", ["27/4"], "escaped"),
        ("5/4", ["0"], 1),
        ("7/6", [], "pole"),
        ("3/4", ["0"], 1),
        ("root of z^2 - 3/2*z + 1/4", ["3/2", "27/4"], "escaped"),
    ],
    "sg4": [
        ("3/2", [], "escaped"),
        ("5/4", ["0"], 1),
        ("1", ["3/2"], "escaped"),
        ("root of z^2 - 17/12*z + 1/8", ["3/2"], "escaped"),
        ("root of z^2 - 79/36*z + 41/36", [], "pole"),
        ("root of z^3 - 8/3*z^2 + 35/16*z - 103/192", ["0"], 1),
    ],
    "sg5": [
        ("3/2", ["1023/7"], "escaped"),
        ("1", ["0"], 1),
        ("root of z^4 - 19/6*z^3 + 119/36*z^2 - 19/16*z + 1/18", ["3/2", "1023/7"], "escaped"),
        ("root of z^4 - 119/27*z^3 + 4597/648*z^2 - 6359/1296*z + 197/162", [], "pole"),
        (
            "root of z^5 - 14/3*z^4 + 299/36*z^3 - 1999/288*z^2 + 6131/2304*z - 1663/4608",
            ["0"],
            1,
        ),
    ],
}


def _orbit_structures():
    return [builtin(name) for name in ORBITS if not name.startswith("sg")] + [
        gasket(2, b) for b in (3, 4, 5)
    ]


def _walk(dd, e):
    """e, R(e), R^2(e), ... by `image_of`, to a pole of R, a certified
    escape or the first repeated class."""
    classes = [e]
    while True:
        if classes[-1].minpoly.divides(dd.R.den):
            return classes, "pole"
        nxt = dd.image_of(classes[-1])
        if decimation._class_escaped(nxt, dd.escape_bound):
            return classes, "escaped"
        if nxt in classes:
            return classes, classes.index(nxt)
        classes.append(nxt)


def _labels(orbits):
    return [(str(classes[0]), [str(c) for c in classes[1:]], end) for classes, end in orbits]


def test_exceptional_orbits_are_pinned():
    for s in _orbit_structures():
        dd = derive(s)
        assert _labels(_walk(dd, e) for e in dd.exceptional) == ORBITS[s.name], s.name


def test_induction_walks_the_pinned_orbits():
    # a cycle is followed until a class repeats one at a depth >= 2
    for s in _orbit_structures():
        dd = derive(s)
        walked = [[str(cls) for cls in decimation._orbit(dd, e)] for e in dd.exceptional]
        assert walked == [_yielded([e, *orbit], end) for e, orbit, end in ORBITS[s.name]], s.name


# the level at which the walk certifies its jump, and the roots of the
# recurrence, as they were when every orbit was walked to its end before
# level 1
JUMPS = {
    "sierpinski": (4, [1, 1, 3]),
    "nonpcf_sg": (6, [0, 1, 1, 2, 6]),
    "diamond": (5, [1, 1, 2, 4]),
    "hexagasket": (4, [1, 1, 6]),
    "interval": (4, [1, 1, 2]),
    "tree3": (4, [1, 1, 3]),
    "sg3": (4, [1, 1, 6]),
    "sg4": (4, [1, 1, 10]),
    "sg5": (4, [1, 1, 15]),
    "sg3_4": (4, [1, 1, 20]),
    "sg3_5": (4, [1, 1, 35]),
}


def _jump_structures():
    data = Path(__file__).resolve().parent / "data"
    return [
        *(builtin(name) for name in BUILTIN_NAMES),
        gasket(2, 3),
        *(load_json(str(data / f"sg_2_{b}.json")) for b in (4, 5)),
        gasket(3, 4),
        gasket(3, 5),
    ]


@pytest.mark.parametrize("s", _jump_structures(), ids=lambda s: s.name)
def test_lazy_reach_equals_the_full_walk(s):
    dd = derive(s)
    walk = LevelWalk(dd)
    while not walk.jumps:
        walk.jump(walk.level + 1)
    levels = walk._levels
    # the orbits ended by the jump, and their depths are the full walk's
    assert not levels.orbits
    reach = orbit_depths(dd)
    assert levels.reach == reach
    # needs_zero names the unsplit table classes those depths reach
    unsplit = {cls for cls, _, splits in levels.table if not splits}
    named = set(levels.needs_zero())
    assert named & unsplit == unsplit & set(reach)
    assert named - unsplit <= {ZERO_CLASS} | dd.split
    from test_jump import _with_roots

    level, roots = JUMPS[s.name]
    assert (walk.level, walk.recurrence) == (level, _with_roots(roots))


def _new_class_each_call():
    """An image map that returns a fresh rational class in (0, 1) per call,
    so a forward orbit under it neither escapes nor cycles."""
    calls = iter(range(1, 10 ** 6))
    return lambda cls: rat(Fraction(next(calls), 10 ** 6))


def _endless_orbit_derive(real_derive):
    """derive, with an image map under which no exceptional orbit closes."""
    def wrapped(s):
        dd = real_derive(s)
        dd.image_of = _new_class_each_call()
        return dd
    return wrapped


def test_orbit_longer_than_the_class_cap_is_refused():
    # the step to level n takes depth n of every orbit, so the cap refuses
    # the step to level 4,097, once in each walk
    dd = _endless_orbit_derive(derive)(builtin("sierpinski"))
    for _ in range(2):
        levels = Induction(dd)
        for _ in range(4097):  # levels 0 to 4,096
            next(levels)
        with pytest.raises(InconsistentSpectrumError, match="neither escapes nor cycles"):
            next(levels)


def test_orbit_reaches_the_class_cap_from_one_class_quickly():
    # the cycle check is one set lookup per step, so growing an orbit of
    # fresh classes from its start up to the cap takes linear time
    dd = derive(builtin("sierpinski"))
    fresh, seen = _new_class_each_call(), []
    dd.image_of = lambda cls: seen.append(cls) or fresh(cls)
    start = time.perf_counter()
    with pytest.raises(InconsistentSpectrumError, match="neither escapes nor cycles"):
        list(decimation._orbit(dd, dd.exceptional[0]))
    assert time.perf_counter() - start < 2
    # the orbit held 4,097 distinct classes, e first, when it was refused
    assert len(seen) == 4096 == len(set(seen))


def test_count_refused_by_the_class_cap_exits_2(monkeypatch, capsys):
    from fractal_trees import counting
    from fractal_trees.cli import main

    monkeypatch.setattr(counting, "derive", _endless_orbit_derive(counting.derive))
    assert main(["count", "sierpinski", "-n", "4100"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "neither escapes nor cycles" in err


def test_orbit_coefficient_past_a_million_bits_is_refused():
    dd = derive(builtin("sierpinski"))
    huge = rat(Fraction(1, 2 ** 1_000_001))  # in (0, 1): it does not escape
    dd.image_of = lambda cls: huge
    with pytest.raises(InconsistentSpectrumError, match="coefficients blew up"):
        list(decimation._orbit(dd, dd.exceptional[0]))
    # the step to level 1 forms the depth-1 class
    with pytest.raises(InconsistentSpectrumError, match="coefficients blew up"):
        spectrum(dd, 1)
    spectrum(dd, 0)
    with pytest.raises(InconsistentSpectrumError, match="coefficients blew up"):
        spectrum(dd, 1)


def test_escape_radius_refused_for_a_small_leading_coefficient():
    from fractal_trees.decimation import DecimationError, _escape_bound
    from fractal_trees.polys import Polynomial

    def poly(*coeffs):
        return Polynomial([Fraction(c) for c in coeffs])

    # deg den = deg num - 1; lc = 3 > 2 S_q = 2 certifies a radius
    assert _escape_bound(poly(0, 1, 3), poly(0, 1)) == 2
    # lc = 2 S_q and lc < 2 S_q are both refused
    for num, den in ((poly(0, 0, 2), poly(0, 1)), (poly(0, 0, 1), poly(1, 1))):
        with pytest.raises(DecimationError, match="cannot certify an escape radius"):
            _escape_bound(num, den)


# ---------------------------------------------------------------------------
# escape certificates for irrational classes


def _cls(*coeffs):
    return AlgebraicClass(Polynomial([Fraction(c) for c in coeffs]))


FAR_PAIR = _cls(1000001, -2000, 1)  # 1000 +- i


def test_far_quadratic_class_is_escaped():
    assert decimation._class_escaped(FAR_PAIR, Fraction(2))


def test_quadratic_class_inside_the_bound_is_not_escaped():
    # roots 3 +- i/sqrt(2), of modulus sqrt(19/2) ~ 3.08 < 81/16
    assert not decimation._class_escaped(_cls(Fraction(19, 2), -6, 1), Fraction(81, 16))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-200, 200), min_size=1, max_size=3),
    st.integers(1, 10 ** 6),
    st.booleans(),
    st.fractions(2, 20, max_denominator=16),
)
def test_escape_certificate_is_sound(middle, a0, negative, bound):
    try:
        cls = _cls(-a0 if negative else a0, *middle, 1)
    except ValueError:  # not squarefree
        return
    if decimation._class_escaped(cls, bound):
        coeffs = [int(c) for c in reversed(cls.minpoly.coeffs)]
        with mpmath.workdps(30):
            roots = mpmath.polyroots(coeffs, maxsteps=500, extraprec=100)
            assert min(abs(r) for r in roots) > mpmath.mpf(bound.numerator) / bound.denominator


@settings(max_examples=300, deadline=None)
@given(
    st.fractions(-50, 50, max_denominator=40),
    st.fractions(2, 20, max_denominator=16),
    st.sampled_from(["r", "0", "B", "-B"]),
)
def test_escape_certificate_is_exact_on_rational_classes(r, bound, pick):
    # with g = 1 Fujiwara's test reads |r| > B, so r = 0 and |r| = B stay
    r = {"r": r, "0": Fraction(0), "B": bound, "-B": -bound}[pick]
    assert decimation._class_escaped(AlgebraicClass.from_rational(r), bound) == (abs(r) > bound)


def test_orbit_into_a_far_irrational_class_escapes():
    dd = derive(builtin("sierpinski"))
    dd.image_of = lambda cls: FAR_PAIR
    # R is a polynomial on sierpinski, so an orbit that ends at once escaped
    assert dd.R.den.degree == 0
    assert list(decimation._orbit(dd, dd.exceptional[0])) == []
