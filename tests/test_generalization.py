"""Structures beyond the builtins: ones that must work, one that must not.

The gaskets SG_{d,b} (a d-simplex cut into b parts per side, the upward
sub-simplices as cells) are fully symmetric structures the engine was not
tuned on; every exactness gate has to certify them from scratch.  SG_{2,3}
(sg3, six cells, |V1| = 10) is checked in depth; SG_{2,4}, SG_{2,5} and
SG_{2,6} carry exceptional classes of degree 5 and 7, which only a
factorization of every degree can split, and SG_{2,8} (|V1| = 45) is the
largest structure `derive` meets here.  The pentagasket's symmetry
group is transitive but not doubly transitive on its five boundary
points, so the scalar decimation identity genuinely fails and derivation
must refuse rather than produce numbers.
"""

import json
from fractions import Fraction as F
from itertools import product
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
from fractal_trees.matrices import solve_linear
from fractal_trees.polys import Polynomial
from fractal_trees.structures import SelfSimilarStructure, to_json_dict, validate


def gasket(d: int, b: int) -> SelfSimilarStructure:
    # the lattice points of the d-simplex cut into b parts per side, in the
    # staircase coordinates b >= x_1 >= ... >= x_d >= 0, numbered in
    # lexicographic order; corner j of the cell at y is y + (1, .., 1, 0, .., 0)
    # with j ones, y running over the points with x_1 < b, and the boundary
    # is the corners b (1, .., 1, 0, .., 0).  For d = 2 the point (r, c) is
    # c of row r: for b = 3, 0 / 1 2 / 3 4 5 / 6 7 8 9.
    points = [x for x in product(range(b + 1), repeat=d) if list(x) == sorted(x, reverse=True)]
    at = {x: i for i, x in enumerate(points)}
    steps = [[int(i < j) for i in range(d)] for j in range(d + 1)]

    def corner(x, step, scale=1):
        return at[tuple(a + scale * u for a, u in zip(x, step))]

    cells = [[corner(x, u) for u in steps] for x in points if x[0] < b]
    edges = [[cm[i], cm[j]] for cm in cells for i in range(d + 1) for j in range(i + 1, d + 1)]
    return SelfSimilarStructure.create(
        name=f"sg{b}" if d == 2 else f"sg{d}_{b}", m=len(cells), v0_size=d + 1,
        v1_size=len(points), edges1=edges, boundary=[corner((0,) * d, u, b) for u in steps],
        cell_maps=cells,
    )


def schur_at(s, z):
    """S(z) = (A - zI) - B (D - zI)^-1 C of P1, by one Fraction solve at z."""
    g1 = build_level(s, 1)
    v0, v1 = s.v0_size, g1.vertex_count
    degs = g1.degrees()
    p1 = [[F(int(i == j)) for j in range(v1)] for i in range(v1)]
    for u, v, mult in g1.edges:
        p1[u][v] -= F(mult, degs[u])
        p1[v][u] -= F(mult, degs[v])
    interior = range(v0, v1)
    x = solve_linear(
        [[p1[i][j] - z * (i == j) for j in interior] for i in interior],
        [[p1[i][j] for j in range(v0)] for i in interior],
    )
    return [
        [p1[i][j] - z * (i == j) - sum(p1[i][t] * x[t - v0][j] for t in interior)
         for j in range(v0)]
        for i in range(v0)
    ]


def assert_schur_factors(s, dd, z):
    """S(z) = phi(z) (P0 - R(z)) at a point z off the roots of chi_D."""
    assert dd.charpoly_d(z) != 0
    v0 = s.v0_size
    phi, r = dd.phi(z), dd.R(z)
    assert schur_at(s, z) == [
        [phi * ((1 if i == j else F(-1, v0 - 1)) - (r if i == j else 0)) for j in range(v0)]
        for i in range(v0)
    ]


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
    return derive(gasket(2, 3))


def test_sg3_structure_valid():
    s = gasket(2, 3)
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
    s = gasket(2, 3)
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
    rep = entropy(gasket(2, 3), n_max=30, precision=30, dd=sg3_dd)
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
    s = gasket(2, b)
    dd = derive(s)
    for n in range(top + 1):
        assert tau(s, n, dd) == tau_bruteforce(build_level(s, n)), (b, n)
    assert tau(s, 1, dd) == GASKET_TAU_G1[b]
    assert spectrum(dd, 30).eigenvalue_count() == dd.v_count(30)


# phi (num, den), R (num, den) and the case records (minpoly, case, mult_D,
# phi_zero, phi_pole, R_pole, dr_nonzero, image minpoly) in exceptional
# order, coefficients lowest degree first; recorded by an independent
# route, k + 2 Fraction solves of S at integer points and interpolation
PINNED_GASKETS = {
    (2, 4): (
        (
            "41/1536 -319/4608 133/2304 -1/64",
            "103/1536 -5071/4608 11525/2304 -2897/288 1465/144 -61/12 1",
        ),
        (
            "0 515/18 -6569/36 4004/9 -4684/9 880/3 -64",
            "41/36 -79/36 1",
        ),
        [
            ("-3/2 1", 5, 2, True, False, False, True, "345/14 1"),
            ("-5/4 1", 4, 1, False, False, False, True, "0 1"),
            ("-1 1", 3, 1, False, True, False, True, "-3/2 1"),
            ("1/8 -17/12 1", 3, 1, False, True, False, True, "-3/2 1"),
            ("41/36 -79/36 1", 7, 0, True, False, True, True, None),
            ("-103/192 35/16 -8/3 1", 3, 2, False, True, False, True, "0 1"),
        ],
    ),
    (2, 5): (
        (
            "-197/27648 22229/663552 -10075/165888 8881/165888 -319/13824 1/256",
            ("-1663/82944 382469/663552 -1572131/331776 773155/41472 -867871/20736 "
             "1196311/20736 -43075/864 475/18 -47/6 1"),
        ),
        (
            ("0 8315/162 -47285/81 222536/81 -1140295/162 875467/81 -276584/27 52928/9 -5632/3 "
             "256"),
            "197/162 -6359/1296 4597/648 -119/27 1",
        ),
        [
            ("-3/2 1", 5, 3, True, False, False, True, "-1023/7 1"),
            ("-1 1", 4, 1, False, False, False, True, "0 1"),
            ("1/18 -19/16 119/36 -19/6 1", 3, 1, False, True, False, True, "-3/2 1"),
            ("197/162 -6359/1296 4597/648 -119/27 1", 7, 0, True, False, True, True, None),
            (
                "-1663/4608 6131/2304 -1999/288 299/36 -14/3 1",
                3, 2, False, True, False, True, "0 1",
            ),
        ],
    ),
    (3, 2): (
        (
            "2/9 -1/6",
            "1/3 -4/3 1",
        ),
        (
            "0 6 -6",
            "1",
        ),
        [
            ("-4/3 1", 5, 2, True, False, False, True, "8/3 1"),
            ("-1 1", 3, 3, False, True, False, True, "0 1"),
            ("-1/3 1", 3, 1, False, True, False, True, "-4/3 1"),
        ],
    ),
    (4, 2): (
        (
            "5/32 -1/8",
            "7/32 -9/8 1",
        ),
        (
            "0 7 -8",
            "1",
        ),
        [
            ("-5/4 1", 5, 5, True, False, False, True, "15/4 1"),
            ("-7/8 1", 3, 4, False, True, False, True, "0 1"),
            ("-1/4 1", 3, 1, False, True, False, True, "-5/4 1"),
        ],
    ),
    (2, 6): (
        (
            ("49175/31850496 -1055869/95551488 1036951/31850496 -411295/7962624 "
             "572657/11943936 -104093/3981312 2581/331776 -1/1024"),
            ("150913/31850496 -749293/3538944 86082667/31850496 -67558645/3981312 "
             "252409561/3981312 -614391029/3981312 7976119/31104 -36971399/124416 623587/2592 "
             "-230887/1728 3497/72 -125/12 1"),
        ),
        (
            ("0 1056391/15552 -3070699/2592 15238321/1728 -290182129/7776 130281059/1296 "
             "-14755766/81 55361818/243 -15997064/81 3151216/27 -404224/9 30464/3 -1024"),
            "49175/46656 -106391/15552 274723/15552 -547867/23328 66383/3888 -2095/324 1",
        ),
        [
            ("-3/2 1", 5, 4, True, False, False, True, "17703/22 1"),
            ("49/48 -25/12 1", 4, 1, False, False, False, True, "0 1"),
            (
                "-7/288 233/288 -995/288 805/144 -47/12 1",
                3, 1, False, True, False, True, "-3/2 1",
            ),
            (
                "49175/46656 -106391/15552 274723/15552 -547867/23328 66383/3888 -2095/324 1",
                7, 0, True, False, True, True, None,
            ),
            (
                "-21559/110592 122885/55296 -87703/9216 142861/6912 -21773/864 841/48 -13/2 1",
                3, 2, False, True, False, True, "0 1",
            ),
        ],
    ),
}


def _p(text):
    return Polynomial([F(c) for c in text.split()])


@pytest.mark.parametrize("d, b", sorted(PINNED_GASKETS))
def test_derive_pinned_on_gaskets(d, b):
    s = gasket(d, b)
    dd = derive(s)
    phi, r, records = PINNED_GASKETS[d, b]
    assert (dd.phi.num, dd.phi.den) == tuple(map(_p, phi))
    assert (dd.R.num, dd.R.den) == tuple(map(_p, r))
    assert [
        (rec.value.minpoly, rec.case_id, rec.mult_d, rec.phi_zero, rec.phi_pole,
         rec.r_pole, rec.dr_nonzero, rec.image and rec.image.minpoly)
        for rec in map(dd.case_records.get, dd.exceptional)
    ] == [(_p(v), *flags, img and _p(img)) for v, *flags, img in records]
    for z in (F(7, 3), F(-5, 11)):
        assert_schur_factors(s, dd, z)


def test_sg_2_8_derive():
    # |V1| = 45, k = 42: derive takes well under a second
    s = gasket(2, 8)
    dd = derive(s)
    assert dd.primitive_triple() == (20, 1601710713, -35664401793024)
    assert_schur_factors(s, dd, F(-5, 11))


@pytest.mark.parametrize("b", [4, 5])
def test_committed_gasket_files(b):
    path = Path(__file__).parent / "data" / f"sg_2_{b}.json"
    assert json.loads(path.read_text()) == to_json_dict(gasket(2, b))


def test_pentagasket_valid_but_refused():
    p = pentagasket()
    assert validate(p).ok
    with pytest.raises(NotFullySymmetricError):
        derive(p)


def test_cli_verify_on_custom_structures(tmp_path, capsys):
    from fractal_trees.cli import main

    good = tmp_path / "sg3.json"
    good.write_text(json.dumps(to_json_dict(gasket(2, 3))))
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
