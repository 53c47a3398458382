"""Asymptotic complexity constants (tree entropy) and their bounds.

c_n = ln tau(G_n) / |V_n| is evaluated from the exact prime exponents of
tau(G_n) with mpmath at a requested precision; the integer itself is
never formed.  One level walk (`counting.LevelWalk`: L_n = d L_{n-1} +
W_n, H_n = m H_{n-1} + new sites) gives the exponents of every level: it
steps a few levels, then evaluates each prime's closed form, fitted once
from the walk's checked linear recurrence (see `counting`), at every
later level.  `entropy` sums e ln p over each level's exponents as the
walk reaches it, primes ascending, with ln p computed once per prime by
mpmath, in plain integers that round as mpf arithmetic does
(`_level_value`), so each c_n is bit for bit the mpf objects' sum.
`decimal_printer` prints each value in plain integers too, character for
character as `mpmath.nstr` (libmp's `to_str`) does.
The general bounds ln(3)/2 <= c <=
ln((m-1)|V0|(|V0|-1) / (|V1|-|V0|)) apply when |V0| > 2 and G_1 is not a
tree; the 3-branch tree structure (builtin `tree3`) attains the lower
bound in the limit.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .counting import LevelWalk, check_structure, tau  # noqa: F401 - perfbench's tracer wraps tau here
from .decimation import DecimationData, DecimationError, derive
from .structures import SelfSimilarStructure

Q = Fraction

# c_n converges geometrically, while a level costs more the more digits its
# exponents and the precision have; the run to both caps takes a few seconds
ENTROPY_LEVEL_CAP = 5_000
ENTROPY_PRECISION_CAP = 2_000


class EntropyReport(Record):
    # values: ((n, c_n), ...) as mpf; the bounds are None where they do not apply
    __slots__ = ("name", "precision", "values", "extrapolated", "lower_bound", "upper_bound",
                 "bounds_applicable", "diffs_decreasing")


def g1_is_tree(s: SelfSimilarStructure) -> bool:
    total = sum(m for _, _, m in s.edges1)
    simple = all(m == 1 for _, _, m in s.edges1)
    return simple and total == s.v1_size - 1


def bounds(s: SelfSimilarStructure, precision: int = 30):
    """(lower, upper, applicable) for the asymptotic complexity constant.

    Inapplicable (None bounds) when |V0| = 2 or G_1 is a tree, where
    the bounds' hypotheses fail.
    """
    import mpmath

    applicable = s.v0_size > 2 and not g1_is_tree(s)
    with mpmath.workdps(precision + 10):
        if not applicable:
            return None, None, False
        lower = mpmath.log(3) / 2
        ratio = Q((s.m - 1) * s.v0_size * (s.v0_size - 1), s.v1_size - s.v0_size)
        upper = mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator)
        return lower, upper, True


def decimal_printer(dps: int):
    """The printer of zero and positive finite raw mpfs (sign, man, exp,
    bc) with |exp + bc| <= 3500, character for character as
    `mpmath.libmp.to_str(x, dps)` (what `mpmath.nstr(x, dps)` prints), for
    dps >= 1.

    It takes to_str's steps in plain integers: `to_digits_exp` at dps + 3
    digits (the value floored to fixed point, times 10^fixdps, read with
    `str`), the round-up through trailing 9s, the fixed or exponent layout
    and the stripping of trailing zeros.  Any other input raises
    `ValueError`, as does a dps past about 4,290, where `str` meets
    CPython's int-to-str digit limit (`entropy` stops at 2,000).
    """
    import math

    log2_10 = math.log(10, 2)  # to_digits_exp's own float
    bitprec = int((dps + 3) * log2_10) + 10
    min_fixed = min(-(dps // 3), -5)
    powers = {}  # 10^fixdps by fixdps; a printer sees one or two

    def to_str(x) -> str:
        sign, man, exp, bc = x
        if sign or not man or abs(exp + bc) > 3500:
            if x == (0, 0, 0, 0):
                return "0.0"
            raise ValueError(f"not a zero or positive finite mpf within 2^3500 of 1: {x!r}")
        fixprec = max(bitprec - exp - bc, 0)
        fixdps = int(fixprec / log2_10 + 0.5)
        shift = exp + fixprec
        fixed = man << shift if shift >= 0 else man >> -shift
        if fixdps not in powers:
            powers[fixdps] = 10 ** fixdps
        digits = str(fixed * powers[fixdps] >> fixprec)
        exponent = len(digits) - fixdps - 1
        if len(digits) > dps and digits[dps] in "56789":
            # round up past trailing 9s; the zeros to_str pads on here are
            # stripped below, and the fixed layout pads what it needs
            kept = digits[:dps].rstrip("9")
            if kept:
                digits = kept[:-1] + str(int(kept[-1]) + 1)
            else:
                digits = "1"
                exponent += 1
        else:
            digits = digits[:dps]
        if min_fixed < exponent < dps:
            if exponent < 0:
                digits = "0" * -exponent + digits
                split = 1
            else:
                split = exponent + 1
                digits = digits.ljust(split, "0")
            exponent = 0
        else:
            split = 1
        digits = f"{digits[:split]}.{digits[split:]}".rstrip("0")
        if digits[-1] == ".":
            digits += "0"
        if not exponent:
            return digits
        return f"{digits}e+{exponent}" if exponent > 0 else f"{digits}e{exponent}"

    return to_str


def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """The positive man 2^exp rounded to `prec` bits, to nearest with ties
    to even: libmp's `normalize` in `round_nearest`, less its stripping of
    trailing zeros, which changes no value."""
    cut = man.bit_length() - prec
    if cut > 0:
        half = man >> cut - 1  # the kept bits and the first cut one
        if half & 1 and (half & 2 or man & (1 << cut - 1) - 1):
            half += 1
        return half >> 1, exp + cut
    return man, exp


def _level_value(terms, v: int, prec: int) -> tuple[int, int]:
    """sum(e ln p) / v at `prec` bits as (man, exp), man odd or 0, for
    ((man, exp) of ln p, e >= 0) in summation order and an integer v > 0.

    Each product, each partial sum and the quotient is the exact value
    rounded once by `_round`, as libmp's `mpf_mul_int`, `mpf_add` and
    `mpf_div` round in `round_nearest`; a correctly rounded value is
    unique, so this is bit for bit the mpf objects' e * ln p, += and / v.
    Only the result's trailing zeros are stripped.
    """
    acc = acc_exp = 0
    for (man, exp), e in terms:
        if e:
            man, exp = _round(man * e, exp, prec)
            if acc:
                low = min(acc_exp, exp)
                man, exp = _round((acc << acc_exp - low) + (man << exp - low), low, prec)
            acc, acc_exp = man, exp
    if not acc:
        return 0, 0
    # the quotient has prec + 5 bits or more, and a sticky 1 below them
    # stands for a nonzero remainder: the rounding sees the same half bit
    # and a nonzero tail either way
    extra = prec - acc.bit_length() + v.bit_length() + 5
    quot, rem = divmod(acc << extra, v)
    man, exp = _round(2 * quot + (rem > 0), acc_exp - extra - 1, prec)
    zeros = (man & -man).bit_length() - 1
    return man >> zeros, exp + zeros


def entropy(
    s: SelfSimilarStructure,
    n_max: int = 30,
    precision: int = 30,
    dd: DecimationData | None = None,
) -> EntropyReport:
    """c_n for 2 <= n <= n_max from exact exponent data; c_{n_max} reported.

    `diffs_decreasing` compares the last five |c_(n+1) - c_n| at the
    working precision, `precision` + 10 digits.  Once c_n has converged to
    it they are rounding noise, 0 or one or two units in the last place (at
    30 digits, from n = 60 on nonpcf_sg and the hexagasket and from about
    n = 115 on sierpinski and the diamond), and the flag reports rounding
    there, not convergence.
    """
    check_structure(s, dd)
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if precision < 6:
        raise ValueError("precision must be at least 6 digits")
    if n_max > ENTROPY_LEVEL_CAP:
        raise ValueError(
            f"the entropy of {s.name} at level {n_max} is out of reach: levels above "
            f"{ENTROPY_LEVEL_CAP} are refused"
        )
    if precision > ENTROPY_PRECISION_CAP:
        raise ValueError(
            f"the entropy of {s.name} at {precision} digits is out of reach: precisions "
            f"above {ENTROPY_PRECISION_CAP} digits are refused"
        )
    if dd is None:
        try:
            dd = derive(s)
        except DecimationError as e:
            raise DecimationError(
                f"{e}; spectral decimation unavailable for {s.name!r} - use the "
                "brute-force oracle at small levels instead"
            ) from e
    import mpmath

    walk = LevelWalk(dd)
    m, v0, v1 = s.m, s.v0_size, s.v1_size
    v_n = v1  # |V_n| = m (|V_(n-1)| - |V0|) + |V1| from n = 1
    with mpmath.workdps(precision + 10):
        prec, make_mpf = mpmath.mp.prec, mpmath.mp.make_mpf
        logs = {}  # (man, exp) of ln p, once per prime
        values = []
        for n in range(2, n_max + 1):
            walk.jump(n)
            v_n = m * (v_n - v0) + v1
            terms = []
            for p, e in sorted(walk.exponents().items()):
                if p not in logs:
                    logs[p] = mpmath.log(p)._mpf_[1:3]
                terms.append((logs[p], e))
            man, exp = _level_value(terms, v_n, prec)
            values.append((n, make_mpf((0, man, exp, man.bit_length()))))
        last = [c for _, c in values[-6:]]
        tail = [abs(b - a) for a, b in zip(last, last[1:])]
        decreasing = all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
        lower, upper, applicable = bounds(s, precision)
    return EntropyReport(
        name=s.name,
        precision=precision,
        values=tuple(values),
        extrapolated=values[-1][1],
        lower_bound=lower,
        upper_bound=upper,
        bounds_applicable=applicable,
        diffs_decreasing=decreasing,
    )

