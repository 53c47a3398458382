"""Structures beyond the builtins: ones that must work, one that must not.

The gaskets SG_{d,b} (a d-simplex cut into b parts per side, the upward
sub-simplices as cells) are fully symmetric structures the engine was not
tuned on; every exactness gate has to certify them from scratch.  SG_{2,3}
(sg3, six cells, |V1| = 10) is checked in depth; SG_{2,4}, SG_{2,5} and
SG_{2,6} carry exceptional classes of degree 5 and 7, which only a
factorization of every degree can split, and SG_{2,8} (|V1| = 45) and
SG_{2,10} (|V1| = 66) are the largest structures `derive` meets here.  The pentagasket's symmetry
group is transitive but not doubly transitive on its five boundary
points, so the scalar decimation identity genuinely fails and derivation
must refuse rather than produce numbers.
"""

import hashlib
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
from fractal_trees.polys import Polynomial
from fractal_trees.structures import SelfSimilarStructure, to_json_dict, validate
from conftest import gauss_jordan_q


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
    """S(z) = (A - zI) - B (D - zI)^-1 C of P1, by one Fraction solve at z
    (`gauss_jordan_q`, independent of `matrices.solve_linear`)."""
    g1 = build_level(s, 1)
    v0, v1 = s.v0_size, g1.vertex_count
    degs = g1.degrees()
    p1 = [[F(int(i == j)) for j in range(v1)] for i in range(v1)]
    for u, v, mult in g1.edges:
        p1[u][v] -= F(mult, degs[u])
        p1[v][u] -= F(mult, degs[v])
    interior = range(v0, v1)
    x = gauss_jordan_q(
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


# SG_{2,10} (|V1| = 66) in the same layout, recorded when gcds ran Euclid
# over Q, and the sha256 of repr(sorted(tau(G_40).factors.items()))
SG_2_10 = (
    (
        ('1376608164812089/638959998741245853696 -53344850604850351/958439998111868780544 '
         '1266217087388806909/1916879996223737561088 '
         '-9242736110798206639/1916879996223737561088 '
         '46768145400988138403/1916879996223737561088 '
         '-43758012265011283723/479219999055934390272 '
         '15758131742830153873/59902499881991798784 '
         '-143514865032365112701/239609999527967195136 '
         '65721144632695804763/59902499881991798784 '
         '-32673920354004319667/19967499960663932928 '
         '1665996427978337843/831979165027663872 -1119690294127808729/554652776685109248 '
         '155117348792115125/92442129447518208 -2946133241523103/2567836929097728 '
         '1647374338284965/2567836929097728 -124296513347765/427972821516288 '
         '467183392099/4458050224128 -349868474045/11888133931008 1023598373/165112971264 '
         '-25358573/27518828544 592933/6879707136 -1/262144'),
        ('5253876532492159/638959998741245853696 '
         '-1207853192037962965/958439998111868780544 '
         '11742883872783734207/212986666247081951232 '
         '-2384024217447901961509/1916879996223737561088 '
         '3781516131073731451927/212986666247081951232 '
         '-42619797937548184782059/239609999527967195136 '
         '19921692674986275429479/14975624970497949696 '
         '-1853650527131692261795081/239609999527967195136 '
         '539086738515598935569611/14975624970497949696 '
         '-8198171251769926149700241/59902499881991798784 '
         '6467170247169140135021357/14975624970497949696 '
         '-5713420342203169164621073/4991874990165983232 '
         '2139241832187597938485135/831979165027663872 '
         '-18990666753403341959891/3851755393646592 '
         '187441780689405264673961/23110532361879552 '
         '-44246641055638250470243/3851755393646592 4506106211170540170509/320979616137216 '
         '-176139933788102648281/11888133931008 40119560447157527657/2972033482752 '
         '-2624871052787937763/247669456896 110634708037827089/15479341056 '
         '-10628419841373899/2579890176 144435576208337/71663616 -1856157593779/2239488 '
         '140711461261/497664 -19548328337/248832 13302823/768 -5037265/1728 12661/36 '
         '-325/12 1'),
    ),
    (
        ('0 288963209287068745/3656158440062976 -2790689569221039365/609359740010496 '
         '436904206060912570981/3656158440062976 -1152282572353918963759/609359740010496 '
         '75196475043281723360705/3656158440062976 '
         '-301435316172829026459149/1828079220031488 '
         '931413540356624260168415/914039610015744 '
         '-1143958106359681105390009/228509902503936 '
         '142769733349972820798195/7140934453248 '
         '-7540800505000278924427579/114254951251968 '
         '3473016285758217061978753/19042491875328 -675992241646810527704117/1586874322944 '
         '149374304013630867722203/176319369216 -127158470252665957423301/88159684608 '
         '15504172092724496036423/7346640384 -6513831248551224168325/2448880128 '
         '43703141959891170649/15116544 -30713681216041250807/11337408 '
         '688090102403026429/314928 -89281798007185823/59049 17585455294457266/19683 '
         '-979057142529416/2187 412025373353344/2187 -15969718984192/243 4534020716288/243 '
         '-113424016384/27 19479875584/27 -798982144/9 20905984/3 -262144'),
        ('1376608164812089/3656158440062976 -8661373740006377/914039610015744 '
         '398975365822918631/3656158440062976 -2814928459717456459/3656158440062976 '
         '13712762827184408495/3656158440062976 -24601087234279386317/1828079220031488 '
         '33821322236120614889/914039610015744 -9141128566353708151/114254951251968 '
         '5270987499998709829/38084983750656 -2459105039334100001/12694994583552 '
         '467208963619916819/2115832430592 -36248962805993995/176319369216 '
         '3059978636301005/19591041024 -944095948915067/9795520512 '
         '39071021631661/816293376 -5128274453827/272097792 260739979973/45349632 '
         '-412631917/314928 22037171/104976 -553567/26244 1'),
    ),
    [
        (
            '-3/2 1',
            5, 8, True, False, False, True,
            '-74848127475/5858162 1',
        ),
        (
            ('-114587/165888 80179/13824 -812681/41472 728459/20736 -15755/432 3179/144 '
             '-29/4 1'),
            4, 1, False, False, False, True,
            '0 1',
        ),
        (
            ('10417/8957952 -904061/6718464 18553555/8957952 -383292421/26873856 '
             '1516794859/26873856 -639855445/4478976 182145221/746496 -8967253/31104 '
             '4905779/20736 -114547/864 6977/144 -125/12 1'),
            3, 1, False, True, False, True,
            '-3/2 1',
        ),
        (
            ('504356007727/71328803586048 -3156336316007/11888133931008 '
             '12171171162215/2972033482752 -10033618899787/278628139008 '
             '924375806912225/4458050224128 -626494582803559/743008370688 '
             '176650995078583/69657034752 -59971847884463/10319560704 '
             '20013747521717/1934917632 -24881938175113/1719926784 6876205539379/429981696 '
             '-125196789641/8957952 14342272837/1492992 -319263887/62208 14429161/6912 '
             '-269849/432 18667/144 -50/3 1'),
            3, 2, False, True, False, True,
            '0 1',
        ),
        (
            ('1376608164812089/3656158440062976 -8661373740006377/914039610015744 '
             '398975365822918631/3656158440062976 -2814928459717456459/3656158440062976 '
             '13712762827184408495/3656158440062976 -24601087234279386317/1828079220031488 '
             '33821322236120614889/914039610015744 -9141128566353708151/114254951251968 '
             '5270987499998709829/38084983750656 -2459105039334100001/12694994583552 '
             '467208963619916819/2115832430592 -36248962805993995/176319369216 '
             '3059978636301005/19591041024 -944095948915067/9795520512 '
             '39071021631661/816293376 -5128274453827/272097792 260739979973/45349632 '
             '-412631917/314928 22037171/104976 -553567/26244 1'),
            7, 0, True, False, True, True,
            None,
        ),
    ],
)
SG_2_10_TAU_40_SHA256 = "cff745e1a85cfc19251adfeb1fc2d3cf99be49c1337c7bcecb4691cec4dc1850"


def _p(text):
    return Polynomial([F(c) for c in text.split()])


def assert_pinned(dd, phi, r, records):
    assert (dd.phi.num, dd.phi.den) == tuple(map(_p, phi))
    assert (dd.R.num, dd.R.den) == tuple(map(_p, r))
    assert [
        (rec.value.minpoly, rec.case_id, rec.mult_d, rec.phi_zero, rec.phi_pole,
         rec.r_pole, rec.dr_nonzero, rec.image and rec.image.minpoly)
        for rec in map(dd.case_records.get, dd.exceptional)
    ] == [(_p(v), *flags, img and _p(img)) for v, *flags, img in records]


@pytest.mark.parametrize("d, b", sorted(PINNED_GASKETS))
def test_derive_pinned_on_gaskets(d, b):
    s = gasket(d, b)
    dd = derive(s)
    assert_pinned(dd, *PINNED_GASKETS[d, b])
    for z in (F(7, 3), F(-5, 11)):
        assert_schur_factors(s, dd, z)


def test_sg_2_8_derive():
    # |V1| = 45, k = 42: derive takes well under a second
    s = gasket(2, 8)
    dd = derive(s)
    assert dd.primitive_triple() == (20, 1601710713, -35664401793024)
    assert_schur_factors(s, dd, F(-5, 11))


def test_sg_2_10_derive_pinned():
    # |V1| = 66: the degree-63 chi_D and its degree-60 cofactors are where
    # gcds by Euclid over Q took about 6 s; the primitive remainder
    # sequence takes about 0.3 s
    s = gasket(2, 10)
    dd = derive(s)
    assert_pinned(dd, *SG_2_10)
    factors = repr(sorted(tau(s, 40, dd).factors.items()))
    assert hashlib.sha256(factors.encode()).hexdigest() == SG_2_10_TAU_40_SHA256


def test_sg_3_6_counts_take_the_orbits_only_as_deep_as_the_level(tmp_path, capsys):
    # the quartic exceptional value's forward orbit escapes only at depth 5,
    # and its classes' heights grow about 16 times per step (18, 121, 1,928,
    # 30,832 and 493,340 bits), so every command hung while the first level
    # step walked the orbits to their ends; levels 1 and 2 form classes of
    # at most 1,928 bits, and the Kirchhoff oracle at level 2 takes about 2.5 s
    from fractal_trees.cli import main

    s = gasket(3, 6)
    dd = derive(s)
    for n in (1, 2):
        assert tau(s, n, dd) == tau_bruteforce(build_level(s, n)), n
    path = tmp_path / "sg_3_6.json"
    path.write_text(json.dumps(to_json_dict(s)))
    assert main(["decimate", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "sigma(P_1)" in out and err == ""


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
