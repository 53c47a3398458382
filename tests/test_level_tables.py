"""The integer level step against the dict-keyed level step it replaced.

`ref_induction` and `RefLevelWalk` are the spectrum induction and the
level walk as they were before the induction indexed its classes: every
level is a dict keyed by `AlgebraicClass`, re-sorted by `key()`, and the
walk adds each lifted norm and the corner term `prod(kappa)/m` into its
per-prime sums at every level.  They are kept here as references only.
"""

from fractions import Fraction
from itertools import count, islice
from math import prod
from pathlib import Path

import pytest

from fractal_trees import builtin, derive, spectrum, tau
from fractal_trees.counting import AssemblyError, LevelWalk
from fractal_trees.decimation import (
    CASE_RULES,
    ZERO_CLASS,
    DecimationData,
    InconsistentSpectrumError,
    Induction,
)
from fractal_trees.factored import FactoredInteger, factorize
from fractal_trees.polys import AlgebraicClass
from fractal_trees.structures import BUILTIN_NAMES, load_json
from test_generalization import gasket
from test_induction import _inject_orbit, orbit_depths, rat

DATA = Path(__file__).resolve().parent / "data"
LEVELS = 80


def ref_induction(dd):
    """Yield (|V_n|, born_n, lifted_(n-1)) for n = 0, 1, 2, ..., one dict
    keyed by class per level."""
    s = dd.structure
    v_prev = s.v0_size
    born = {AlgebraicClass.from_rational(Fraction(v_prev, v_prev - 1)): v_prev - 1}
    yield v_prev, born, {}
    reach = orbit_depths(dd)
    deep_hit = None
    scale = 1
    for n in count(1):
        if deep_hit is not None and deep_hit[0] <= n:
            _, e, base, k = deep_hit
            raise InconsistentSpectrumError(
                f"exceptional value {e} sits inside the depth-{k} "
                f"preiterates of {base}; deep family splitting is not supported"
            )
        prev = {ZERO_CLASS: 1, **born}
        v_n = s.m * (v_prev - s.v0_size) + s.v1_size
        new = {}

        def put(cls, mult):
            if mult < 0:
                raise InconsistentSpectrumError(f"negative multiplicity for {cls} at level {n}")
            if mult == 0:
                return
            if cls in new:
                raise InconsistentSpectrumError(f"duplicate spectrum entry for {cls} at depth 0")
            new[cls] = mult

        for e, rec in dd.case_records.items():
            a, b, c = CASE_RULES[rec.case_id]
            put(e, a * scale * rec.mult_d + b * v_prev + c * prev.get(rec.image, 0))

        removed, lifted = 0, {}
        for base, mult in prev.items():
            if base == ZERO_CLASS or base in dd.split:
                removed += mult * base.degree
                for sub, root_mult in dd.preimage_classes(base):
                    if sub in dd.case_records or sub == ZERO_CLASS:
                        continue
                    if root_mult != 1:
                        raise InconsistentSpectrumError(
                            "repeated regular preimage inside a split family; "
                            "multiplicity rules for critical points are not covered"
                        )
                    put(sub, mult)
                continue
            lifted[base] = mult
            if base in reach:
                k, e = reach[base]
                if deep_hit is None or n - 1 + k < deep_hit[0]:
                    deep_hit = (n - 1 + k, e, base, k)

        total = 1 + dd.d * (v_prev - removed) + sum(
            mult * cls.degree for cls, mult in new.items()
        )
        if total != v_n:
            raise InconsistentSpectrumError(f"sum rule violated at level {n}: {total} != {v_n}")
        born = dict(sorted(new.items(), key=lambda it: it[0].key()))
        yield v_n, born, lifted
        v_prev, scale = v_n, scale * s.m


class RefLevelWalk:
    """Per-prime exponent sums of tau(G_n), every piece added at its level."""

    def __init__(self, s, dd):
        self.s, self.dd, self.level = s, dd, 0
        self._levels = ref_induction(dd)
        _, self.born, _ = next(self._levels)
        self.kappa, self.sites = s.corner_cell_counts(), s.gluing_sites()
        self._cache = {}
        self.corner = [s.v0_size - 1] * s.v0_size
        self.fixed = self._add(self._add({}, s.v0_size - 1, s.v0_size - 1), s.v0_size, -1)
        self.interior, self.inner_count, self.inner_sum = {}, 0, 0
        self.lifts = self.weight = 0
        self.m_power = 1

    def _add(self, acc, q, e):
        if q < 0:
            acc[-1] = acc.get(-1, 0) + e
        for part, scale in ((abs(q.numerator), e), (q.denominator, -e)):
            if part > 1:
                if part not in self._cache:
                    self._cache[part] = factorize(part)
                for p, k in self._cache[part].items():
                    acc[p] = acc.get(p, 0) + k * scale
        return acc

    def step(self):
        s, dd, n = self.s, self.dd, self.level + 1
        v_n, self.born, lifted = next(self._levels)
        for cls, mult in lifted.items():
            if cls.contains_zero():
                raise ValueError("the zero eigenvalue is never lifted to preiterates")
            self.weight += mult * cls.degree
            self._add(self.fixed, cls.norm(), mult)
        self.lifts = dd.d * self.lifts + self.weight
        self.level = n
        count_ = 1 + (dd.d - 1) * self.lifts + self.weight
        count_ += sum(m * c.degree for c, m in self.born.items())
        if count_ != v_n:
            raise InconsistentSpectrumError(f"sum rule violated at level {n}: {count_} != {v_n}")
        self.interior = {p: s.m * e for p, e in self.interior.items()}
        self.inner_count = s.m * self.inner_count + len(self.sites)
        self.inner_sum *= s.m
        for slots in self.sites.values():
            d = sum(self.corner[j] for _, j in slots)
            self._add(self.interior, d, 1)
            self.inner_sum += d
        self.corner = [k * c for k, c in zip(self.kappa, self.corner)]
        self.m_power *= s.m
        self._add(self.fixed, Fraction(prod(self.kappa), s.m), 1)
        if s.v0_size + self.inner_count != v_n:
            raise AssertionError("degree recursion vertex count mismatch")
        if sum(self.corner) + self.inner_sum != self.m_power * s.v0_size * (s.v0_size - 1):
            raise AssertionError("degree recursion handshake mismatch")

    def factors(self):
        out = dict(self.fixed)
        for cls, mult in self.born.items():
            if cls.contains_zero():
                raise ValueError("class norm of a class containing 0 vanishes")
            self._add(out, cls.norm(), mult)
        for p, e in self.interior.items():
            out[p] = out.get(p, 0) + e
        self._add(out, self.dd.ratio, self.lifts)
        sign = -1 if out.pop(-1, 0) % 2 else 1
        negative = sorted(p for p, e in out.items() if e < 0)
        if sign != 1 or negative:
            raise AssemblyError(
                f"assembly mismatch at level {self.level}: the product is not a positive "
                f"integer (sign {sign:+d}, negative exponents at primes {negative})"
            )
        return FactoredInteger({p: e for p, e in out.items() if e})


def _structures():
    return [
        *(builtin(name) for name in BUILTIN_NAMES),
        gasket(2, 3),
        gasket(3, 2),
        *(load_json(str(DATA / f"sg_2_{b}.json")) for b in (4, 5)),
    ]


@pytest.mark.parametrize("s", _structures(), ids=lambda s: s.name)
def test_level_step_matches_the_dict_reference(s):
    dd = derive(s)
    pairs = zip(islice(Induction(dd), LEVELS + 1), islice(ref_induction(dd), LEVELS + 1))
    for n, ((v, born, lifted), (v_ref, born_ref, lifted_ref)) in enumerate(pairs):
        assert v == v_ref, n
        assert list(born.items()) == list(born_ref.items()), n
        assert list(lifted.items()) == list(lifted_ref.items()), n
    walk, ref = LevelWalk(dd), RefLevelWalk(s, dd)
    while walk.level < LEVELS:
        walk.step()
        ref.step()
        assert walk.factors() == ref.factors(), walk.level


def _outcome(levels):
    """(levels reached, exception type and message) of an iterator or a walk."""
    reached = 0
    try:
        for _ in range(12):
            if isinstance(levels, (LevelWalk, RefLevelWalk)):
                levels.step()
                levels.factors()
            else:
                next(levels)
            reached += 1
    except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
        return reached, type(exc), str(exc)
    return reached, None, None


def _repeated_zero_root(monkeypatch):
    real = DecimationData.preimage_classes

    def preimage_classes(dd, base):
        out = real(dd, base)
        return out + [(rat("7/3"), 2)] if base == ZERO_CLASS else out

    monkeypatch.setattr(DecimationData, "preimage_classes", preimage_classes)


REFUSALS = {
    "deep hit": ("sierpinski", lambda mp: _inject_orbit(
        mp, [rat("1/2"), rat("3/2"), rat("3/4")], "escaped")),
    "fixed point": ("diamond", lambda mp: _inject_orbit(mp, [rat(1)], 0)),
    "repeated zero root": ("sierpinski", _repeated_zero_root),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_match_the_dict_reference(case, monkeypatch):
    name, inject = REFUSALS[case]
    inject(monkeypatch)
    s = builtin(name)
    dd = derive(s)
    got = _outcome(Induction(dd))
    assert got == _outcome(ref_induction(dd))
    assert got[1] is InconsistentSpectrumError
    walked = _outcome(LevelWalk(dd))
    assert walked == _outcome(RefLevelWalk(s, dd))
    assert walked[1:] == got[1:]


def test_level_loop_compares_and_sorts_no_class(monkeypatch):
    # the level loop works on table indices: interning the table compares a
    # few classes once per walk, and 2,000 levels add none
    s = builtin("sierpinski")
    dd = derive(s)
    tau(s, 50, dd)  # warm-up: the preimage factorizations are cached on dd
    calls = {"eq": 0, "key": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(AlgebraicClass, "__eq__", counted("eq", AlgebraicClass.__eq__))
    monkeypatch.setattr(AlgebraicClass, "key", counted("key", AlgebraicClass.key))
    tau(s, 2000, dd)
    assert calls["eq"] < 100 and calls["key"] < 100, calls


@pytest.mark.parametrize("name, never", [("hexagasket", "21/4"), ("sierpinski", "-3/2")])
def test_preimages_factored_only_for_split_bases_that_occur(name, never, monkeypatch):
    # 21/4 = R(3/2) escapes and -3/2 = R(3/2) has no eigenvalue at any level,
    # so no family of either class is born and their preimages are not needed
    bases = []
    real = DecimationData.preimage_classes

    def recording(dd, base):
        bases.append(base)
        return real(dd, base)

    monkeypatch.setattr(DecimationData, "preimage_classes", recording)
    s = builtin(name)
    dd = derive(s)
    assert rat(never) in dd.split
    tau(s, 40, dd)
    spectrum(dd, 40)
    assert bases and rat(never) not in bases
