"""The spectrum induction at depth: birth-indexed families, laziness, refusals."""

import hashlib
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_trees import builtin, derive, spectrum, tau
from fractal_trees import decimation
from fractal_trees.decimation import ForwardChain, InconsistentSpectrumError
from fractal_trees.polys import AlgebraicClass, Polynomial
from test_generalization import gasket2

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
    for s in [builtin(name) for name in FOUR] + [gasket2(3)]:
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
    for s in [builtin(name) for name in FOUR] + [gasket2(3)]:
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
    s = gasket2(3)
    dd = derive(s)
    h = hashlib.sha256()
    for n in range(61):
        for cls, k, mult in spectrum(dd, n).entries:
            h.update(f"{n}:{cls.minpoly.coeffs}:{k}:{mult};".encode())
        h.update(f"{n}:{sorted(tau(s, n, dd).factors.items())}|".encode())
    assert h.hexdigest() == SG3_TABLES_TAU_0_60


def _inject_orbit(dd, e, classes, status, cycle_start=0):
    chain = ForwardChain(dd, e)
    chain.classes = list(classes)
    chain.index = {cls: i for i, cls in enumerate(chain.classes)}
    chain.status = status
    chain.cycle_start = cycle_start
    dd._chains[e] = chain


def test_orbit_reaching_a_lifted_family_is_refused_at_its_level():
    # sierpinski: the 3/4 family is born at level 1 and lifts; an orbit
    # 1/2 -> 3/2 -> 3/4 meets it at depth 2, which is level 1 + 2
    dd = derive(builtin("sierpinski"))
    _inject_orbit(dd, rat("1/2"), [rat("1/2"), rat("3/2"), rat("3/4")], "escaped")
    with pytest.raises(InconsistentSpectrumError, match="deep family splitting"):
        spectrum(dd, 10)
    assert len(dd._tables) == 3
    assert spectrum(dd, 2).eigenvalue_count() == dd.v_count(2)
    with pytest.raises(InconsistentSpectrumError, match="depth-2 preiterates of 3/4"):
        spectrum(dd, 3)


def test_periodic_orbit_is_refused_where_it_returns():
    # diamond: 1 is born at level 1 and lifts; the orbit 1 -> 2 -> 1 -> ...
    # (cycle of period 2 from position 0) meets it again at depth 2
    dd = derive(builtin("diamond"))
    _inject_orbit(dd, rat(1), [rat(1), rat(2)], "cycle", cycle_start=0)
    for n in range(3):
        spectrum(dd, n)
    with pytest.raises(InconsistentSpectrumError, match="depth-2 preiterates of 1"):
        spectrum(dd, 3)


# ---------------------------------------------------------------------------
# orbit guards: each refusal names its error


def _new_class_each_call():
    """An image map that returns a fresh rational class in (0, 1) per call,
    so a forward orbit under it neither escapes nor cycles."""
    calls = iter(range(1, 10 ** 6))
    return lambda cls: rat(Fraction(next(calls), 10 ** 6))


def _long_orbit_derive(real_derive):
    """derive, with every exceptional orbit already 4,096 classes long and
    still active, and an image map that never closes it."""
    def wrapped(s):
        dd = real_derive(s)
        dd.image_of = _new_class_each_call()
        for e, chain in dd._chains.items():
            chain.classes = [e] + [dd.image_of(e) for _ in range(4095)]
            chain.index = {cls: i for i, cls in enumerate(chain.classes)}
        return dd
    return wrapped


def test_orbit_longer_than_the_class_cap_is_refused():
    dd = _long_orbit_derive(derive)(builtin("sierpinski"))
    chain = next(iter(dd._chains.values()))
    assert len(chain.classes) == 4096 and chain.status == "active"
    with pytest.raises(InconsistentSpectrumError, match="neither escapes nor cycles"):
        chain.class_at(4096)


def test_orbit_reaches_the_class_cap_from_one_class_quickly():
    # the cycle check is one dict lookup per step, so growing an orbit of
    # fresh classes from its start up to the cap takes linear time
    dd = derive(builtin("sierpinski"))
    dd.image_of = _new_class_each_call()
    chain = ForwardChain(dd, next(iter(dd._chains)))
    start = time.perf_counter()
    with pytest.raises(InconsistentSpectrumError, match="neither escapes nor cycles"):
        chain.class_at(5000)
    assert time.perf_counter() - start < 2
    assert len(chain.classes) == 4097 == len(chain.index)


def test_count_refused_by_the_class_cap_exits_2(monkeypatch, capsys):
    from fractal_trees import counting
    from fractal_trees.cli import main

    monkeypatch.setattr(counting, "derive", _long_orbit_derive(counting.derive))
    assert main(["count", "sierpinski", "-n", "4100"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "neither escapes nor cycles" in err


def test_orbit_coefficient_past_a_million_bits_is_refused():
    dd = derive(builtin("sierpinski"))
    huge = rat(Fraction(1, 2 ** 1_000_001))  # in (0, 1): it does not escape
    dd.image_of = lambda cls: huge
    chain = next(iter(dd._chains.values()))
    with pytest.raises(InconsistentSpectrumError, match="coefficients blew up"):
        chain.class_at(1)
    assert chain.classes[1:] == []


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


def test_orbit_into_a_far_irrational_class_escapes():
    dd = derive(builtin("sierpinski"))
    dd.image_of = lambda cls: FAR_PAIR
    chain = ForwardChain(dd, next(iter(dd._chains)))
    assert chain.class_at(1) is None
    assert chain.status == "escaped" and len(chain.classes) == 1
