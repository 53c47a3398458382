"""Structures beyond the builtins: ones that must work, one that must not.

The gaskets SG_{2,b} (a triangle cut into b parts per side, the upward
triangles as cells) are fully symmetric structures the engine was not
tuned on; every exactness gate has to certify them from scratch.  SG_{2,3}
(sg3, six cells, |V1| = 10) is checked in depth; SG_{2,4}, SG_{2,5} and
SG_{2,6} carry exceptional classes of degree 5 and 7, which only a
factorization of every degree can split.  The pentagasket's symmetry
group is transitive but not doubly transitive on its five boundary
points, so the scalar decimation identity genuinely fails and derivation
must refuse rather than produce numbers.
"""

import json
from pathlib import Path

import mpmath
import pytest

from fractal_trees import (
    build_level,
    builtin,
    crosscheck_spectrum,
    derive,
    entropy,
    spectrum,
    tau,
    tau_bruteforce,
)
from fractal_trees.decimation import NotFullySymmetricError
from fractal_trees.structures import SelfSimilarStructure, to_json_dict, validate


def gasket2(b: int) -> SelfSimilarStructure:
    # triangle subdivided into b^2 small triangles; the b(b+1)/2 upward ones
    # are the cells and the three apexes the boundary.  Lattice points row
    # by row, point c of row r at r(r+1)/2 + c: for b = 3, 0 / 1 2 / 3 4 5 / 6 7 8 9.
    def at(r, c):
        return r * (r + 1) // 2 + c

    cells = [[at(r, c), at(r + 1, c), at(r + 1, c + 1)] for r in range(b) for c in range(r + 1)]
    edges = [[cm[i], cm[j]] for cm in cells for i in range(3) for j in range(i + 1, 3)]
    return SelfSimilarStructure.create(
        name=f"sg{b}", m=len(cells), v0_size=3, v1_size=at(b + 1, 0),
        edges1=edges, boundary=[0, at(b, 0), at(b, b)], cell_maps=cells,
    )


def pentagasket() -> SelfSimilarStructure:
    # five K5 cells in a ring, adjacent cells sharing one junction point
    cells = []
    for k in range(5):
        cm = [0] * 5
        cm[k] = k
        cm[(k + 1) % 5] = 5 + k
        cm[(k - 1) % 5] = 5 + ((k - 1) % 5)
        cm[(k + 2) % 5] = 10 + 2 * k
        cm[(k + 3) % 5] = 11 + 2 * k
        cells.append(cm)
    edges = []
    for cm in cells:
        for a in range(5):
            for b in range(a + 1, 5):
                edges.append([cm[a], cm[b]])
    return SelfSimilarStructure.create(
        name="pentagasket", m=5, v0_size=5, v1_size=20,
        edges1=edges, boundary=[0, 1, 2, 3, 4], cell_maps=cells,
    )


@pytest.fixture(scope="module")
def sg3_dd():
    return derive(gasket2(3))


def test_sg3_structure_valid():
    s = gasket2(3)
    assert validate(s).ok
    assert [list(cm) for cm in s.cell_maps] == [
        [0, 1, 2], [1, 3, 4], [2, 4, 5], [3, 6, 7], [4, 7, 8], [5, 8, 9]
    ]
    assert list(s.boundary) == [0, 6, 9]


def test_sg3_decimation_data(sg3_dd):
    d, q0, pd = sg3_dd.primitive_triple()
    assert (d, q0, pd) == (4, -7, 96)
    assert sg3_dd.R.num.constant_term() == 0


def test_sg3_oracle_agreement(sg3_dd):
    s = gasket2(3)
    for n in (0, 1, 2):
        assert tau(s, n, sg3_dd) == tau_bruteforce(build_level(s, n)), n
    assert tau(s, 1, sg3_dd) == 5292  # 2^2 * 3^3 * 7^2


def test_sg3_spectrum_certified(sg3_dd):
    for n in (1, 2):
        ok, msg = crosscheck_spectrum(sg3_dd, n)
        assert ok, msg
    for n in range(31):
        t = spectrum(sg3_dd, n)
        assert t.eigenvalue_count() == sg3_dd.v_count(n)


def test_sg3_entropy_in_bounds(sg3_dd):
    rep = entropy(gasket2(3), n_max=30, precision=30, dd=sg3_dd)
    assert rep.bounds_applicable
    assert rep.lower_bound <= rep.extrapolated <= rep.upper_bound
    assert rep.diffs_decreasing
    # denser than the ordinary gasket, as expected
    sg = entropy(builtin("sierpinski"), n_max=30, precision=30)
    assert rep.extrapolated > sg.extrapolated


# tau(G_1) of SG_{2,b}, from the Kirchhoff oracle
GASKET_TAU_G1 = {4: 2723220, 5: 7242690816, 6: 98719805835000}


@pytest.mark.parametrize("b, top", [(4, 2), (5, 2), (6, 1)])
def test_larger_gaskets_match_kirchhoff(b, top):
    s = gasket2(b)
    dd = derive(s)
    for n in range(top + 1):
        assert tau(s, n, dd) == tau_bruteforce(build_level(s, n)), (b, n)
    assert tau(s, 1, dd) == GASKET_TAU_G1[b]
    assert spectrum(dd, 30).eigenvalue_count() == dd.v_count(30)


@pytest.mark.parametrize("b", [4, 5])
def test_committed_gasket_files(b):
    path = Path(__file__).parent / "data" / f"sg_2_{b}.json"
    assert json.loads(path.read_text()) == to_json_dict(gasket2(b))


def test_pentagasket_valid_but_refused():
    p = pentagasket()
    assert validate(p).ok
    with pytest.raises(NotFullySymmetricError):
        derive(p)


def test_cli_verify_on_custom_structures(tmp_path, capsys):
    from fractal_trees.cli import main

    good = tmp_path / "sg3.json"
    good.write_text(json.dumps(to_json_dict(gasket2(3))))
    code = main(["verify", str(good), "--max-level", "2"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "FAIL" not in out

    bad = tmp_path / "penta.json"
    bad.write_text(json.dumps(to_json_dict(pentagasket())))
    code = main(["verify", str(bad)])
    _, err = capsys.readouterr()
    assert code == 1
    assert "decimation failed" in err
