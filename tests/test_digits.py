"""The exact decimal digit count of a factored integer, in plain integers,
against mpmath's logarithms."""

import signal
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_trees import BUILTIN_NAMES, builtin, derive, load_json, tau
from fractal_trees import factored
from fractal_trees.factored import FactoredInteger, factorize

SG3_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "structures" / "sg3.json"
BASES = [2, 3, 5, 7, 11, 13, 41, 10007, 8680121, 2 ** 61 - 1]
PRIMES_BELOW_100 = [p for p in range(2, 100) if all(p % d for d in range(2, p))]


def mpmath_digits10(factors) -> int:
    """The digit count summed in mpmath at doubling precision, as the
    package counted before its integer enclosure: a reference only."""
    if not factors:
        return 1
    if factors.keys() == {2, 5} and factors[2] == factors[5]:
        return factors[2] + 1
    start = max(e.bit_length() for e in factors.values()) * 302 // 1000 + 31
    dps = start
    while True:
        with mpmath.workdps(dps):
            acc = mpmath.fsum(e * mpmath.log10(p) for p, e in factors.items())
            whole = mpmath.floor(acc)
            margin = mpmath.mpf(10) ** (start - dps - 20)
            if margin < acc - whole < 1 - margin:
                return int(whole) + 1
        dps *= 2


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.sampled_from(BASES),
    st.integers(0, 300).flatmap(lambda d: st.integers(1, 10 ** d)),
    min_size=1, max_size=5,
))
def test_digit_count_matches_mpmath(factors):
    t = FactoredInteger(factors)
    digits = t.digits10()
    assert digits == mpmath_digits10(factors)
    if sum(e * p.bit_length() for p, e in factors.items()) <= 12_000:
        assert digits == len(str(t.value()))


@pytest.fixture(scope="module")
def structures():
    return [builtin(name) for name in BUILTIN_NAMES] + [load_json(str(SG3_JSON))]


def test_digit_counts_of_tau_match_mpmath(structures):
    for s in structures:
        dd = derive(s)
        for n in (110, 115, 120, 240, 245, 250, 1000):
            t = tau(s, n, dd)
            assert t.digits10() == mpmath_digits10(dict(t.factors)), (s.name, n)


def test_a_value_a_hair_off_a_power_of_ten_doubles_the_precision(monkeypatch):
    widths = []

    def recorded(bases, w):
        widths.append(w)
        return log10_fixed(bases, w)

    log10_fixed = factored._log10_fixed
    monkeypatch.setattr(factored, "_log10_fixed", recorded)
    for n in (10 ** 30 - 1, 10 ** 30 + 1, 10 ** 20 - 1, 10 ** 18 + 1):
        for k in (0, 1, 10 ** 20):
            # 10^k n: its log10 is k + 30 - 4.3e-31 for n = 10^30 - 1
            factors = factorize(n)
            factors[2], factors[5] = factors.get(2, 0) + k, factors.get(5, 0) + k
            widths.clear()
            assert FactoredInteger({p: e for p, e in factors.items() if e}).digits10() == k + len(str(n))
            assert len(widths) > 1 and widths[1] == 2 * widths[0], (n, k)


def _alarm(signum, frame):
    raise TimeoutError("the digit count did not return")


@pytest.mark.parametrize("factors, digits", [
    ({10: 3}, 4), ({4: 1, 25: 1}, 3), ({2: 1, 5: 3, 20: 2}, 6), ({}, 1), ({2: 5, 5: 5}, 6),
    ({10: 10 ** 70}, 10 ** 70 + 1),
])
def test_every_power_of_ten_returns(factors, digits):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(5)
    try:
        assert FactoredInteger(factors).digits10() == digits
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_the_relations_hold_exactly():
    for p, coeffs in factored._LN_RELATIONS.items():
        product = F(1)
        for x, c in zip(factored._ATANH_X, coeffs):
            product *= F(x + 1, x - 1) ** c
        assert product == p


@pytest.mark.parametrize("g", [8, 64, 300, 3000])
def test_each_series_is_short_by_less_than_its_bound(g):
    with mpmath.workprec(2 * g + 64):
        for u, v in [(1, 251), (1, 8749), (1, 3), (9, 73), (3, 29), (1, 5), (0, 7)]:
            gap = mpmath.ldexp(mpmath.atanh(mpmath.mpf(u) / v), g) - factored._atanh(u, v, g)
            assert 0 <= gap < g / 2 + 2, (u, v, g)


@pytest.mark.parametrize("w", [33, 100, 1000, 10_000])
def test_fixed_point_logs_lie_within_their_bounds(w):
    bases = PRIMES_BELOW_100 + [10007, 2 ** 61 - 1]
    g = w + w.bit_length() + 32
    logs = factored._ln_fixed(bases, g)
    quotients = factored._log10_fixed(bases, w)
    with mpmath.workprec(2 * g):
        for p in bases:
            ln, err = logs[p]
            assert abs(ln - mpmath.ldexp(mpmath.log(p), g)) <= err, p
            lp, eps = quotients[p]
            assert abs(lp - mpmath.ldexp(mpmath.log10(p), w)) <= eps, p
            assert eps <= 3, p
