"""Refusals that no valid input reaches, each reached by an injected fault,
and the fact the level walk's one corner degree rests on.

Every structure `derive` accepts has one corner cell count kappa
(`DecimationData`'s docstring has the proof): a valid structure with
unequal counts is refused at its moments, and hand-built decimation data
with unequal counts by `DecimationData` itself.  The other checks here
guard against faults in the code; each test injects one fault and expects
the check's own exception type and message, also through the CLI.
"""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_trees import builtin, derive, spectrum
from fractal_trees import decimation, kirchhoff, levels
from fractal_trees.counting import LevelWalk
from fractal_trees.decimation import (
    DecimationData,
    DecimationError,
    InconsistentSpectrumError,
    Induction,
    NotFullySymmetricError,
    Spectra,
    UnclassifiableError,
)
from fractal_trees.kirchhoff import det_star_P
from fractal_trees.levels import LevelGraph, build_level, degree_stats
from fractal_trees.polys import Polynomial
from fractal_trees.structures import (
    BUILTIN_NAMES, SelfSimilarStructure, _edges_from_cells, load_json, validate,
)
from test_cli import run
from test_generalization import gasket
from test_induction import rat
from test_jump import _closed_form

DATA = Path(__file__).resolve().parent / "data"
UNEVEN = str(DATA / "uneven_corners.json")
SCHUR = (
    "Schur complement does not factor through the boundary Laplacian; "
    "structure is not fully symmetric"
)


def _structure(name, v0, cells):
    """The structure whose G1 is one complete graph per cell, boundary 0..v0-1."""
    v1 = 1 + max(v for cm in cells for v in cm)
    return SelfSimilarStructure.create(
        name, len(cells), v0, v1, _edges_from_cells(cells), range(v0), cells)


# ---------------------------------------------------------------------------
# one corner count per accepted structure


@st.composite
def two_terminal(draw):
    """A two-terminal multigraph, each edge a cell oriented from boundary
    point 0 to 1, with unequal terminal degrees: point j sits at corner j
    of each cell it meets, so its degree is kappa_j.  A path joins the
    internal vertices 2..k+1; no edge joins the terminals."""
    k = draw(st.integers(1, 3))
    inner = st.integers(2, k + 1)
    d0 = draw(st.integers(1, 3))
    d1 = draw(st.integers(1, 3).filter(lambda d: d != d0))
    cells = [[0, draw(inner)] for _ in range(d0)] + [[draw(inner), 1] for _ in range(d1)]
    cells += [[v, v + 1] for v in range(2, k + 1)]
    if k > 1:
        cells += draw(st.lists(st.lists(inner, min_size=2, max_size=2, unique=True), max_size=2))
    return _structure("two_terminal", 2, cells)


@st.composite
def three_corner(draw):
    """Triangles on boundary points 0, 1, 2 and internal vertices 3..k+2:
    kappa_j cells put point j at corner j and two internal vertices at the
    others, the kappa_j not all equal; a chain of internal triangles joins
    the internal vertices."""
    k = draw(st.integers(2, 4))
    kappa = draw(st.tuples(*[st.integers(1, 3)] * 3).filter(lambda t: len(set(t)) > 1))
    pair = st.lists(st.integers(3, k + 2), min_size=2, max_size=2, unique=True)
    cells = [[v, v + 1, v + 2] for v in range(3, k + 1)]
    for j, count in enumerate(kappa):
        for _ in range(count):
            others = draw(pair)
            cells.append(others[:j] + [j] + others[j:])
    return _structure("three_corner", 3, cells)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(two_terminal(), three_corner()))
def test_valid_structures_with_unequal_corner_counts_are_refused_by_derive(s):
    assert validate(s).ok
    assert len(set(s.corner_cell_counts())) > 1
    with pytest.raises(NotFullySymmetricError, match=f"^{SCHUR}$"):
        derive(s)


def test_hand_built_data_with_unequal_corner_counts_is_refused(capsys):
    # phi, R and chi_D of the interval, which has |V0| = 2 too, on the valid
    # structure with cell maps [[0, 2], [0, 2], [2, 1]] (kappa = [2, 1])
    s, dd = load_json(UNEVEN), derive(builtin("interval"))
    assert validate(s).ok and s.corner_cell_counts() == [2, 1]
    message = "corner cell counts [2, 1] are unequal; structure is not fully symmetric"
    with pytest.raises(NotFullySymmetricError, match=f"^{re.escape(message)}$"):
        DecimationData(s, dd.phi, dd.R, dd.charpoly_d)
    with pytest.raises(NotFullySymmetricError, match=f"^{SCHUR}$"):
        derive(s)
    for argv in (["decimate", UNEVEN], ["count", UNEVEN, "-n", "3"]):
        assert run(capsys, *argv) == (1, "", f"error: {SCHUR}\n")


def test_every_accepted_structure_has_one_corner_count():
    structures = [builtin(name) for name in BUILTIN_NAMES]
    structures += [gasket(2, 3), *(load_json(str(DATA / f"sg_2_{b}.json")) for b in (4, 5))]
    for s in structures:
        assert s.corner_cell_counts() == [derive(s).kappa] * s.v0_size, s.name


# ---------------------------------------------------------------------------
# derive's refusals past the moment check


def _moments_with(monkeypatch, change):
    """derive's moments B D^t C, each changed in place by change(t, scale, mom)."""
    real = decimation._moments

    def moments(b, v0, delta):
        for t, (scale, mom) in enumerate(real(b, v0, delta)):
            change(t, scale, mom)
            yield scale, mom

    monkeypatch.setattr(decimation, "_moments", moments)


def _no_off_diagonal(t, scale, mom):
    for i, row in enumerate(mom):
        row[:] = [x if i == j else 0 for j, x in enumerate(row)]


def _shifted_diagonal(t, scale, mom):
    if t == 0:
        for i, row in enumerate(mom):
            row[i] += scale


def _short_product(monkeypatch):
    # chi_D (1 - z) loses its two top coefficients
    real = decimation._mul_int
    monkeypatch.setattr(decimation, "_mul_int", lambda a, b: real(a, b)[:-2])


DERIVE_FAULTS = {
    # every moment keeps one diagonal and one off-diagonal value, 0 off it
    "phi vanishes": (lambda mp: _moments_with(mp, _no_off_diagonal),
                     NotFullySymmetricError, "phi(z) vanishes identically"),
    # B C gains the identity: S(0) keeps its shape, but its rows no longer sum to 0
    "R(0)": (lambda mp: _moments_with(mp, _shifted_diagonal),
             DecimationError, "R(0) != 0; decimation assumptions violated"),
    "degree": (_short_product, DecimationError,
               "deg num(R) <= deg den(R); decimation assumptions violated"),
}


@pytest.mark.parametrize("fault", DERIVE_FAULTS)
def test_derive_refusals_past_the_moment_check(monkeypatch, capsys, fault):
    inject, kind, message = DERIVE_FAULTS[fault]
    inject(monkeypatch)
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as refused:
        derive(builtin("sierpinski"))
    assert type(refused.value) is kind
    assert run(capsys, "count", "sierpinski", "-n", "3") == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# the induction's refusals


def _image_pole(monkeypatch, value):
    """R given a pole at the exceptional value `value`."""
    real = DecimationData.image_of
    pole = rat(value)
    monkeypatch.setattr(DecimationData, "image_of",
                        lambda dd, cls: None if cls == pole else real(dd, cls))


@pytest.mark.parametrize("name, value, case, message", [
    # sierpinski's 5/4 is case 3, an eigenvalue of D at a pole of phi
    ("sierpinski", "5/4", 3, "value 5/4: pole of both phi and R is outside the case table"),
    # nonpcf_sg's 3/2 is case 4, an eigenvalue of D with phi regular and not 0
    ("nonpcf_sg", "3/2", 4, "value 3/2: eigenvalue of D at a pole of R with phi regular "
                            "is outside the case table"),
])
def test_classify_refuses_a_pole_of_r_outside_the_case_table(
    monkeypatch, capsys, name, value, case, message
):
    assert derive(builtin(name)).case_records[rat(value)].case_id == case
    _image_pole(monkeypatch, value)
    with pytest.raises(UnclassifiableError, match=f"^{re.escape(message)}$"):
        derive(builtin(name))
    assert run(capsys, "count", name, "-n", "3") == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, "verify", name, "--max-level", "1")
    assert (code, out, err) == (1, "", f"error: decimation failed: {message}\n")


def test_a_class_with_two_sources_withholds_the_certificate(monkeypatch, capsys):
    # sierpinski's split class -3/2 is never born; given 3/4, the preimage
    # of 3/2 that level 1 interns, as a second source, it never writes it,
    # but `needs_zero` cannot vouch for that, so the walk steps every level
    code, expected, _ = run(capsys, "count", "sierpinski", "-n", "40", "--factored")
    assert code == 0
    real = Induction._start

    def _start(self):
        real(self)
        self.subs[self.index[rat("-3/2")]] = [self._intern(rat("3/4"))]

    monkeypatch.setattr(Induction, "_start", _start)
    walk = LevelWalk(derive(builtin("sierpinski")))
    for n in range(1, 41):
        walk.jump(n)
        assert walk._levels.needs_zero() is None and not walk.jumps
        assert walk.factors() == _closed_form(n), n
    assert run(capsys, "count", "sierpinski", "-n", "40", "--factored") == (0, expected, "")


def _emptied_lifts(monkeypatch):
    """A `Spectra` pass that empties its own copy of each level's lifted
    families once the level has passed: the pass's checks at that level
    see them, and the next table asked for misses them."""
    real = Spectra._step

    def _step(self):
        out = real(self)
        if self._lifts:
            self._lifts[-1].clear()
        return out

    monkeypatch.setattr(Spectra, "_step", _step)


def test_spectra_sum_rule_refuses_a_table_that_lost_its_families(monkeypatch, capsys):
    # a level's table is built before its lifted families are emptied, so
    # the first table that misses some is level 3's: 3/4 lifted to level 2
    dd = derive(builtin("sierpinski"))
    tables = {n: spectrum(dd, n) for n in (1, 2)}
    _emptied_lifts(monkeypatch)
    assert {n: spectrum(dd, n) for n in (1, 2)} == tables
    message = "sum rule violated at level 3: 34 != 42"
    with pytest.raises(InconsistentSpectrumError, match=f"^{message}$"):
        spectrum(dd, 3)
    assert run(capsys, "decimate", "sierpinski", "-n", "3") == (2, "", f"error: {message}\n")
    # verify's walk reads the families it is handed, which are whole, and
    # passes; the level-30 table fails
    code, out, err = run(capsys, "verify", "sierpinski", "--max-level", "2")
    failed = [line for line in out.splitlines() if not line.startswith("PASS")]
    assert (code, err) == (2, "")
    assert failed == ["FAIL  spectrum sum rule, levels 0..30  (sum rule violated at level 30: "
                      "217329528322135 != 308836698141975)"]


def test_a_reader_that_empties_its_families_changes_no_table(monkeypatch, capsys):
    # the reader keeps a copy and empties the dict it was handed
    dd = derive(builtin("sierpinski"))
    tables = {n: spectrum(dd, n) for n in (1, 2, 3, 30)}
    outputs = [run(capsys, "decimate", "sierpinski", "-n", "3"),
               run(capsys, "verify", "sierpinski", "--max-level", "2")]
    real = Induction.__next__

    def __next__(self):
        v_n, born, lifted = real(self)
        kept = dict(lifted)
        lifted.clear()
        return v_n, born, kept

    monkeypatch.setattr(Induction, "__next__", __next__)
    assert {n: spectrum(dd, n) for n in (1, 2, 3, 30)} == tables
    assert [run(capsys, "decimate", "sierpinski", "-n", "3"),
            run(capsys, "verify", "sierpinski", "--max-level", "2")] == outputs
    assert outputs[1][0] == 0


# ---------------------------------------------------------------------------
# the degree recursions' and the Kirchhoff oracle's code-fault checks


def _glued(monkeypatch, change):
    """gluing_sites with change(sites) applied: the level-1 gluing data that
    the level walk and `degree_stats` read."""
    real = SelfSimilarStructure.gluing_sites

    def gluing_sites(s):
        sites = real(s)
        change(sites)
        return sites

    monkeypatch.setattr(SelfSimilarStructure, "gluing_sites", gluing_sites)


def _extra_site(sites):
    sites[max(sites) + 1] = [(0, 1)]


def _extra_slot(sites):
    sites[min(sites)].append((0, 1))


def _vertex_count_plus_one(monkeypatch):
    real = levels.vertex_count_formula
    monkeypatch.setattr(levels, "vertex_count_formula", lambda s, n: real(s, n) + 1)


def _isolated_vertex_0(monkeypatch):
    # the glued edges lose every edge at vertex 0
    real = LevelGraph.from_edges
    monkeypatch.setattr(LevelGraph, "from_edges", classmethod(
        lambda cls, count, edges, *rest: real(count, [e for e in edges if 0 not in e[:2]], *rest)))


def _charpoly_with(monkeypatch, change):
    real = kirchhoff.prob_laplacian_charpoly

    def charpoly(g):
        nums = list(real(g).numerators)
        change(nums)
        return Polynomial.from_integers(nums, real(g).denominator)

    monkeypatch.setattr(kirchhoff, "prob_laplacian_charpoly", charpoly)


def _walk_to(n):
    LevelWalk(derive(builtin("sierpinski"))).jump(n)


CODE_FAULTS = {
    "walk vertex count": (lambda mp: _glued(mp, _extra_site), lambda: _walk_to(3),
                          AssertionError, "degree recursion vertex count mismatch"),
    "walk handshake": (lambda mp: _glued(mp, _extra_slot), lambda: _walk_to(3),
                       AssertionError, "degree recursion handshake mismatch"),
    "build_level vertex count": (_vertex_count_plus_one,
                                 lambda: build_level(builtin("sierpinski"), 2),
                                 AssertionError, "vertex count recursion violated"),
    "build_level connectivity": (_isolated_vertex_0, lambda: build_level(builtin("sierpinski"), 2),
                                 AssertionError, "level graph not connected"),
    "degree_stats vertex count": (lambda mp: _glued(mp, _extra_site),
                                  lambda: degree_stats(builtin("sierpinski"), 2),
                                  AssertionError, "degree recursion vertex count mismatch"),
    "degree_stats handshake": (lambda mp: _glued(mp, _extra_slot),
                               lambda: degree_stats(builtin("sierpinski"), 2),
                               AssertionError, "degree recursion handshake mismatch"),
    "det_star_P one vertex": (None, lambda: det_star_P(LevelGraph.from_edges(1, [])),
                              ValueError, "need at least 2 vertices"),
    "det_star_P zero eigenvalue": (
        lambda mp: _charpoly_with(mp, lambda nums: nums.__setitem__(0, 1)),
        lambda: det_star_P(build_level(builtin("sierpinski"), 1)),
        AssertionError, "probabilistic Laplacian lost its zero eigenvalue"),
    "det_star_P sign": (
        lambda mp: _charpoly_with(mp, lambda nums: nums.__setitem__(1, -nums[1])),
        lambda: det_star_P(build_level(builtin("sierpinski"), 1)),
        AssertionError, "nonzero eigenvalue product must be positive"),
}


@pytest.mark.parametrize("fault", CODE_FAULTS)
def test_code_fault_checks_raise_their_own_refusal(monkeypatch, fault):
    inject, call, kind, message = CODE_FAULTS[fault]
    if inject is not None:  # a graph with one vertex is refused as it is
        call()  # no refusal without the fault
        inject(monkeypatch)
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as refused:
        call()
    assert type(refused.value) is kind
