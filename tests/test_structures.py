import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_trees import (
    BUILTIN_NAMES,
    InvalidStructureError,
    SelfSimilarStructure,
    ValidationReport,
    builtin,
    derive,
    validate,
)
from fractal_trees.structures import from_json_dict, load_json, to_json_dict


def test_all_builtins_valid():
    for name in BUILTIN_NAMES:
        s = builtin(name)
        assert validate(s).ok, name


def test_builtin_shapes():
    s = builtin("sierpinski")
    assert (s.m, s.v0_size, s.v1_size) == (3, 3, 6)
    assert sum(m for _, _, m in s.edges1) == 9

    h = builtin("hexagasket")
    assert (h.m, h.v0_size, h.v1_size) == (6, 3, 12)

    d = builtin("diamond")
    assert (d.m, d.v0_size, d.v1_size) == (4, 2, 4)
    # G1 is the 4-cycle
    assert len(d.edges1) == 4 and all(m == 1 for _, _, m in d.edges1)

    i = builtin("interval")
    assert (i.m, i.v0_size, i.v1_size) == (2, 2, 3)


def test_nonpcf_multigraph():
    s = builtin("nonpcf_sg")
    assert (s.m, s.v0_size, s.v1_size) == (6, 3, 7)
    mults = sorted(m for _, _, m in s.edges1)
    assert mults == [1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]
    assert sum(m for u, v, m in s.edges1 if 6 in (u, v)) == 12  # the center


def test_builtins_are_built_once():
    for name in BUILTIN_NAMES:
        assert builtin(name) is builtin(name)


def _loop_structure():
    return SelfSimilarStructure.create(
        name="bad", m=2, v0_size=2, v1_size=3,
        edges1=[[0, 2], [2, 1], [1, 1]],
        boundary=[0, 1], cell_maps=[[0, 2], [2, 1]],
    )


def _fresh_sierpinski():
    s = builtin("sierpinski")
    return SelfSimilarStructure.create(
        s.name, s.m, s.v0_size, s.v1_size, s.edges1, s.boundary, s.cell_maps
    )


def test_structure_is_checked_once_and_its_report_kept(monkeypatch):
    from fractal_trees import structures

    checked = []
    real = structures._check
    monkeypatch.setattr(structures, "_check", lambda s: checked.append(s) or real(s))
    s, bad = _fresh_sierpinski(), _loop_structure()
    for _ in range(3):
        assert validate(s).ok and not validate(bad).ok
    assert checked == [s, bad]
    # an equal structure built afresh is a new object, checked again
    for t, fresh in ((s, _fresh_sierpinski()), (bad, _loop_structure())):
        assert fresh == t and fresh is not t and validate(fresh) == validate(t)
    assert len(checked) == 4


def test_derive_refuses_an_invalid_structure_on_every_call():
    bad = _loop_structure()
    for _ in range(3):
        with pytest.raises(InvalidStructureError, match="loop edge"):
            derive(bad)


def test_report_slot_is_not_a_field():
    # equality, hash and repr read the fields alone, whether or not a
    # structure has been validated
    checked, unchecked = _fresh_sierpinski(), _fresh_sierpinski()
    validate(checked)
    assert checked == unchecked and hash(checked) == hash(unchecked)
    assert repr(checked) == repr(unchecked)
    assert checked._fields == SelfSimilarStructure._fields
    assert "_report" in SelfSimilarStructure.__slots__
    assert "_report" not in SelfSimilarStructure._fields
    assert not hasattr(unchecked, "_report")
    with pytest.raises(AttributeError):
        checked._report = None


def test_unknown_builtin():
    with pytest.raises(KeyError):
        builtin("menger")


def test_boundary_boundary_edge_detected():
    s = builtin("sierpinski")
    bad = SelfSimilarStructure.create(
        name="bad",
        m=s.m,
        v0_size=s.v0_size,
        v1_size=s.v1_size,
        edges1=list(s.edges1) + [[0, 1]],
        boundary=s.boundary,
        cell_maps=s.cell_maps,
    )
    report = validate(bad)
    assert not report.ok
    assert any("boundary-boundary" in v for v in report.violations)


def test_fixed_point_violation_detected():
    # cell 0 sends corner 1 to boundary vertex 0
    bad = SelfSimilarStructure.create(
        name="bad",
        m=3,
        v0_size=3,
        v1_size=6,
        edges1=[[3, 0], [0, 5], [3, 5], [3, 1], [1, 4], [3, 4], [5, 4], [5, 2], [4, 2]],
        boundary=[0, 1, 2],
        cell_maps=[[3, 0, 5], [3, 1, 4], [5, 4, 2]],
    )
    report = validate(bad)
    assert any("fixed-point" in v for v in report.violations)


def test_loop_edge_detected():
    bad = SelfSimilarStructure.create(
        name="bad", m=2, v0_size=2, v1_size=3,
        edges1=[[0, 2], [2, 1], [1, 1]],
        boundary=[0, 1], cell_maps=[[0, 2], [2, 1]],
    )
    assert any("loop" in v for v in validate(bad).violations)


def test_cell_edge_consistency_detected():
    bad = SelfSimilarStructure.create(
        name="bad", m=2, v0_size=2, v1_size=3,
        edges1=[[0, 2], [2, 1], [0, 2]],  # extra multiplicity
        boundary=[0, 1], cell_maps=[[0, 2], [2, 1]],
    )
    assert any("inconsistent with cell maps" in v for v in validate(bad).violations)


def test_injectivity_violation_detected():
    bad = SelfSimilarStructure.create(
        name="bad", m=2, v0_size=2, v1_size=3,
        edges1=[[0, 2], [2, 1]],
        boundary=[0, 1], cell_maps=[[0, 0], [2, 1]],
    )
    assert any("not distinct" in v for v in validate(bad).violations)


def test_json_round_trip(tmp_path):
    s = builtin("hexagasket")
    d = to_json_dict(s)
    back = from_json_dict(d)
    assert back == s

    path = tmp_path / "hex.json"
    path.write_text(json.dumps(d))
    assert load_json(str(path)) == s


def test_json_missing_field():
    with pytest.raises(ValueError, match="missing field"):
        from_json_dict({"name": "x"})


def test_json_top_level_must_be_object():
    with pytest.raises(InvalidStructureError, match="JSON object"):
        from_json_dict([to_json_dict(builtin("diamond"))])


@pytest.mark.parametrize(
    "key, value",
    [
        ("edges", [["0", 2, 1], [0, 3, 1], [1, 2, 1], [1, 3, 1]]),
        ("cell_maps", None),
        ("boundary", [0, 1.5]),
        ("v1_size", 2.5),
        ("cells", True),
        ("name", 7),
    ],
)
def test_json_wrong_type_names_the_field(key, value):
    d = to_json_dict(builtin("diamond"))
    d[key] = value
    with pytest.raises(InvalidStructureError, match=f"field '{key}'"):
        from_json_dict(d)


def test_oversized_v1_refused_before_per_vertex_checks():
    # more vertices than cell corners: refused before the connectivity and
    # coverage checks build a table per vertex, so a huge v1_size costs nothing
    d = to_json_dict(builtin("diamond"))
    d["v1_size"] = 10**5
    report = validate(from_json_dict(d))
    assert report.violations == ("uncovered V1 vertex (not any cell corner image)",)


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(-3, 12, allow_nan=False),
    st.text(max_size=3),
)


@st.composite
def mutated_json(draw):
    """A builtin's JSON form with types swapped, keys dropped, lists nested."""
    d = to_json_dict(builtin(draw(st.sampled_from(BUILTIN_NAMES))))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(d)))
        op = draw(st.sampled_from(["drop", "swap", "nest", "swap_item"]))
        if op == "drop":
            del d[key]
        elif op == "swap":
            d[key] = draw(st.one_of(_JSON_SCALARS, st.just([]), st.just({})))
        elif op == "nest":
            d[key] = [d[key]]
        elif isinstance(d[key], list) and d[key]:
            items = d[key]
            i = draw(st.integers(0, len(items) - 1))
            if isinstance(items[i], list) and items[i] and draw(st.booleans()):
                j = draw(st.integers(0, len(items[i]) - 1))
                items[i][j] = draw(_JSON_SCALARS)
            else:
                items[i] = draw(st.one_of(_JSON_SCALARS, st.just([])))
    return draw(st.sampled_from([d, [d], None, 1.5, "x"])) if draw(st.integers(0, 9)) == 0 else d


@settings(max_examples=300, deadline=None)
@given(mutated_json())
def test_malformed_json_gives_named_error(d):
    try:
        s = from_json_dict(d)
    except InvalidStructureError:
        return
    assert isinstance(s, SelfSimilarStructure)
    assert isinstance(validate(s), ValidationReport)
