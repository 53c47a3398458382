"""The package's value types behave as the frozen dataclasses they replace:
positional and keyword construction with the same defaults, equality and
hashing by field values, refused assignment, the `Name(field=value, ...)`
repr, and copy and pickle round trips."""

import copy
import pickle
from fractions import Fraction as F

import mpmath
import pytest

from fractal_trees import (
    AlgebraicClass,
    DegreeStats,
    EntropyReport,
    FactoredInteger,
    LevelGraph,
    Polynomial,
    RationalFunction,
    SelfSimilarStructure,
    ValidationReport,
    builtin,
    derive,
)
from fractal_trees.decimation import CaseRecord, DecimationData, SpectrumTable

HALF = "AlgebraicClass(minpoly=Polynomial([Fraction(-1, 2), Fraction(1, 1)]))"
ONE = "AlgebraicClass(minpoly=Polynomial([Fraction(-1, 1), Fraction(1, 1)]))"


def half():
    return AlgebraicClass.from_rational(F(1, 2))


# name -> (a builder of one value, by positional fields, the same value by
# keyword fields, and its repr as the frozen dataclass printed it)
RECORDS = {
    "SelfSimilarStructure": (
        lambda: SelfSimilarStructure(
            "interval", 2, 2, 3, ((0, 2, 1), (1, 2, 1)), (0, 1), ((0, 2), (2, 1))
        ),
        lambda: SelfSimilarStructure(
            name="interval", m=2, v0_size=2, v1_size=3, edges1=((0, 2, 1), (1, 2, 1)),
            boundary=(0, 1), cell_maps=((0, 2), (2, 1)),
        ),
        "SelfSimilarStructure(name='interval', m=2, v0_size=2, v1_size=3, "
        "edges1=((0, 2, 1), (1, 2, 1)), boundary=(0, 1), cell_maps=((0, 2), (2, 1)))",
    ),
    "ValidationReport": (
        lambda: ValidationReport(("loop edge",)),
        lambda: ValidationReport(violations=("loop edge",)),
        "ValidationReport(violations=('loop edge',))",
    ),
    "LevelGraph": (
        lambda: LevelGraph(3, ((0, 1, 1), (1, 2, 1)), 1, (0, 2)),
        lambda: LevelGraph(corners=(0, 2), level=1, edges=((0, 1, 1), (1, 2, 1)), vertex_count=3),
        "LevelGraph(vertex_count=3, edges=((0, 1, 1), (1, 2, 1)), level=1, corners=(0, 2))",
    ),
    "DegreeStats": (
        lambda: DegreeStats(1, (2, 2), {4: 1}),
        lambda: DegreeStats(level=1, corner_degrees=(2, 2), interior_histogram={4: 1}),
        "DegreeStats(level=1, corner_degrees=(2, 2), interior_histogram={4: 1})",
    ),
    "CaseRecord": (
        lambda: CaseRecord(half(), 4, 1, False, False, True, AlgebraicClass.from_rational(1)),
        lambda: CaseRecord(
            value=half(), case_id=4, mult_d=1, phi_zero=False, phi_pole=False,
            dr_nonzero=True, image=AlgebraicClass.from_rational(1),
        ),
        f"CaseRecord(value={HALF}, case_id=4, mult_d=1, phi_zero=False, phi_pole=False, "
        f"dr_nonzero=True, image={ONE})",
    ),
    "SpectrumTable": (
        lambda: SpectrumTable(1, 2, ((half(), 0, 3),)),
        lambda: SpectrumTable(level=1, d=2, entries=((half(), 0, 3),)),
        f"SpectrumTable(level=1, d=2, entries=(({HALF}, 0, 3),))",
    ),
    "EntropyReport": (
        lambda: EntropyReport(
            "interval", 6, ((2, mpmath.mpf(0)),), mpmath.mpf(0), None, None, False, True
        ),
        lambda: EntropyReport(
            name="interval", precision=6, values=((2, mpmath.mpf(0)),),
            extrapolated=mpmath.mpf(0), lower_bound=None, upper_bound=None,
            bounds_applicable=False, diffs_decreasing=True,
        ),
        "EntropyReport(name='interval', precision=6, values=((2, mpf('0.0')),), "
        "extrapolated=mpf('0.0'), lower_bound=None, upper_bound=None, "
        "bounds_applicable=False, diffs_decreasing=True)",
    ),
    "AlgebraicClass": (
        lambda: AlgebraicClass(Polynomial([-2, 0, 1])),
        lambda: AlgebraicClass(minpoly=Polynomial([-2, 0, 1])),
        "AlgebraicClass(minpoly=Polynomial([Fraction(-2, 1), Fraction(0, 1), Fraction(1, 1)]))",
    ),
    "FactoredInteger": (
        lambda: FactoredInteger({2: 2, 3: 1}),
        lambda: FactoredInteger(factors={3: 1, 2: 2}),
        "FactoredInteger(factors=mappingproxy({2: 2, 3: 1}))",
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def fields_of(value):
    return [f for f in type(value).__slots__ if not f.startswith("_") and f != "degree"]


def test_positional_and_keyword_construction_agree(record):
    by_position, by_keyword, _ = record
    a, b = by_position(), by_keyword()
    assert a is not b and type(a) is type(b)
    assert a == b and not a != b


def test_equal_values_hash_equal(record):
    a, b = record[0](), record[1]()
    if isinstance(a, DegreeStats):  # a dict field, unhashable as in the dataclass
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_assignment_and_deletion_raise(record):
    value = record[0]()
    for name in fields_of(value):
        old = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, old)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is old
    with pytest.raises(AttributeError):
        value.extra = 1


def test_repr_is_the_dataclass_repr(record):
    by_position, _, expected = record
    assert repr(by_position()) == expected


def test_copy_and_pickle_round_trip(record):
    value = record[0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and repr(twin) == repr(value)


def test_unequal_values_and_other_types():
    assert LevelGraph(3, ()) != LevelGraph(3, (), 1)
    assert ValidationReport(()) != ("",) and ValidationReport(()) != DegreeStats(0, (), {})
    assert FactoredInteger({2: 2, 3: 1}) == 12 and FactoredInteger({2: 1}) != FactoredInteger({})


def test_defaults():
    g = LevelGraph(3, ((0, 1, 1),))
    assert (g.level, g.corners) == (0, ())
    assert g == LevelGraph(vertex_count=3, edges=((0, 1, 1),), level=0, corners=())
    assert FactoredInteger().factors == {} and FactoredInteger() == 1
    assert SpectrumTable.zero_mult == 1 and SpectrumTable(0, 2, ()).zero_mult == 1
    assert SpectrumTable(0, 2, ()).eigenvalue_count() == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: LevelGraph(3),                       # a field missing
        lambda: LevelGraph(3, (), 0, (), 9),         # one too many
        lambda: LevelGraph(3, (), vertex_count=3),   # a field given twice
        lambda: LevelGraph(3, (), colour="red"),     # no such field
        lambda: ValidationReport(),
        lambda: AlgebraicClass(),
    ],
)
def test_wrong_fields_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_algebraic_class_and_factored_integer_still_check_their_input():
    with pytest.raises(ValueError, match="monic"):
        AlgebraicClass(Polynomial([1, 2]))
    with pytest.raises(ValueError, match=">= 1"):
        FactoredInteger({2: 0})
    source = {2: 3}
    f = FactoredInteger(source)
    source[2] = 5
    assert f.factors == {2: 3}
    with pytest.raises(TypeError):
        f.factors[2] = 4  # a read-only view


def test_polynomials_and_rational_functions_copy_and_pickle():
    p = Polynomial([F(1, 2), 0, 3])
    r = RationalFunction(Polynomial([0, 5, -4]), Polynomial([F(3), 1]))
    for value in (p, r, Polynomial(), RationalFunction(0)):
        for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
    with pytest.raises(AttributeError, match="Polynomial is immutable"):
        p.denominator = 1
    with pytest.raises(AttributeError, match="RationalFunction is immutable"):
        r.num = p


def test_algebraic_class_copy_keeps_its_derived_slots():
    cls = AlgebraicClass(Polynomial([-2, 0, 1]))
    for twin in (copy.copy(cls), pickle.loads(pickle.dumps(cls))):
        assert (twin.degree, twin.key(), hash(twin)) == (cls.degree, cls.key(), hash(cls))


def test_decimation_data_starts_with_fresh_caches():
    # a rebuilt DecimationData shares no cache with the one it was built
    # from; its image cache holds only what its own case records asked
    dd = derive(builtin("sierpinski"))
    three_quarters = AlgebraicClass.from_rational(F(3, 4))
    assert three_quarters not in dd.exceptional
    dd.image_of(three_quarters)
    dd.preimage_classes(three_quarters)
    fresh = DecimationData(dd.structure, dd.phi, dd.R, dd.charpoly_d)
    assert fresh._image_cache.keys() == set(dd.exceptional) and fresh._preimage_cache == {}
    assert fresh._sigma_mult == dd._sigma_mult and fresh._dr_num == dd._dr_num
    assert (fresh.case_records, fresh.split) == (dd.case_records, dd.split)
    other = DecimationData(dd.structure, dd.phi, dd.R, dd.charpoly_d)
    assert other.case_records is not fresh.case_records
    assert other._image_cache is not fresh._image_cache
