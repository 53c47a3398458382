import hashlib
import inspect
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractal_trees import (
    SelfSimilarStructure,
    build_level,
    builtin,
    crosscheck_spectrum,
    derive,
    spectrum,
    tau,
)
from fractal_trees import decimation
from fractal_trees.counting import LevelWalk
from fractal_trees.decimation import (
    DecimationData,
    NotFullySymmetricError,
    Spectra,
    SpectrumTable,
    UnclassifiableError,
    ZERO_CLASS,
    classify,
)
from fractal_trees.kirchhoff import prob_laplacian_charpoly, scaled_prob_laplacian
from fractal_trees.matrices import charpoly
from fractal_trees.polys import (
    AlgebraicClass,
    Polynomial,
    RationalFunction,
    factor_classes,
    preimage_poly,
    squarefree_decomposition,
)
from fractal_trees.structures import BUILTIN_NAMES, InvalidStructureError, load_json
from test_cli import run
from test_generalization import assert_schur_factors, gasket
from conftest import gauss_jordan_q, scaled, small_rationals
from test_polys import _is_rational_square, irreducible_factors

DATA = Path(__file__).parent / "data"
SQRT2_PAIR = AlgebraicClass(Polynomial([F(7, 16), F(-3, 2), 1]))
SQRT5_PAIR = AlgebraicClass(Polynomial([F(1, 4), F(-3, 2), 1]))


def rat(x):
    return AlgebraicClass.from_rational(F(x))


def rf(num, den=(1,)):
    return RationalFunction(Polynomial([F(c) for c in num]), Polynomial([F(c) for c in den]))


def rebuilt(dd, R=None):
    """dd rebuilt from its four facts through `DecimationData.__init__`
    (with R in place of dd.R when given), with `image_of`'s cache emptied
    of the images the construction's case records asked for."""
    fresh = DecimationData(dd.structure, dd.phi, dd.R if R is None else R, dd.charpoly_d)
    fresh._image_cache.clear()
    return fresh


@pytest.fixture(scope="module")
def dds():
    return {name: derive(builtin(name)) for name in
            ("sierpinski", "nonpcf_sg", "diamond", "hexagasket", "interval", "tree3")}


# ---------------------------------------------------------------------------
# derived decimation data


def test_sierpinski_R(dds):
    dd = dds["sierpinski"]
    assert dd.R == rf([0, 5, -4])  # z(5 - 4z)
    assert dd.primitive_triple() == (2, F(1), F(-4))


def test_diamond_R(dds):
    dd = dds["diamond"]
    assert dd.R == rf([0, 4, -2])  # 2z(2 - z)
    assert dd.primitive_triple() == (2, F(1), F(-2))


def test_nonpcf_R(dds):
    dd = dds["nonpcf_sg"]
    # -24z(z-1)(2z-3) / (14z - 15)
    assert dd.R == rf([0, -72, 120, -48], [-15, 14])
    assert dd.primitive_triple() == (3, F(-15), F(-48))


def test_hexagasket_R(dds):
    dd = dds["hexagasket"]
    # 2z(z-1)(7 - 24z + 16z^2) / (2z - 1)
    assert dd.R == rf([0, -14, 62, -80, 32], [-1, 2])
    assert dd.primitive_triple() == (4, F(-1), F(32))


def test_interval_R(dds):
    assert dds["interval"].R == rf([0, 4, -2])


def test_R_normalization_invariants(dds):
    for name, dd in dds.items():
        assert dd.R.num.constant_term() == 0  # R(0) = 0
        assert dd.R.num.degree > dd.R.den.degree
        assert dd.R.den.leading() == 1
        # the ratio used by the preiterate product is normalization free
        num, den = dd.primitive_R()
        assert (-1) ** (dd.d + 1) * den.constant_term() / num.leading() == dd.ratio


def test_sigma_d_sierpinski(dds):
    sigma = {(str(c), m) for c, m in dds["sierpinski"].sigma_d}
    assert sigma == {("5/4", 2), ("1/2", 1)}


def test_sigma_d_hexagasket(dds):
    sigma = {(c, m) for c, m in dds["hexagasket"].sigma_d}
    assert sigma == {(rat("3/2"), 3), (SQRT2_PAIR, 2), (SQRT5_PAIR, 1)}


def test_exceptional_sets(dds):
    assert set(dds["sierpinski"].exceptional) == {rat("3/2"), rat("5/4"), rat("1/2")}
    assert set(dds["diamond"].exceptional) == {rat(1)}
    assert set(dds["nonpcf_sg"].exceptional) == {
        rat("3/2"), rat(1), rat("1/2"), rat("15/14")
    }
    assert set(dds["hexagasket"].exceptional) == {
        rat("3/2"), rat("1/2"), SQRT2_PAIR, SQRT5_PAIR
    }


# ---------------------------------------------------------------------------
# case classification


def test_sierpinski_cases(dds):
    dd = dds["sierpinski"]
    cases = {str(c): dd.case_records[c].case_id for c in dd.exceptional}
    assert cases == {"3/2": 2, "5/4": 3, "1/2": 3}
    rec = dd.case_records[rat("3/2")]
    assert rec.phi_zero and rec.mult_d == 0
    rec54 = dd.case_records[rat("5/4")]
    assert rec54.phi_pole and rec54.mult_d == 2
    assert rec54.image == ZERO_CLASS


def test_diamond_case_six(dds):
    rec = dds["diamond"].case_records[rat(1)]
    assert rec.case_id == 6
    assert rec.mult_d == 2 and rec.phi_pole and not rec.dr_nonzero
    assert rec.image == rat(2)


def test_nonpcf_cases(dds):
    dd = dds["nonpcf_sg"]
    cases = {str(c): dd.case_records[c].case_id for c in dd.exceptional}
    assert cases == {"3/2": 4, "1": 3, "1/2": 3, "15/14": 7}
    assert dd.case_records[rat("15/14")].r_pole


def test_hexagasket_cases(dds):
    dd = dds["hexagasket"]
    cases = {c: dd.case_records[c].case_id for c in dd.exceptional}
    assert cases == {rat("3/2"): 5, rat("1/2"): 7, SQRT2_PAIR: 3, SQRT5_PAIR: 3}
    assert dd.case_records[SQRT2_PAIR].image == ZERO_CLASS
    assert dd.case_records[SQRT5_PAIR].image == rat("3/2")


# the exceptional value 1 at a double zero of phi (case 7) and at a double
# pole of R (case 8): the rules were derived for simple ones, and both
# structures exited 2 at level 1 ("sum rule violated at level 1: 4 != 6"
# and "8 != 6") before `classify` refused them
DOUBLE_ORDERS = {
    "pendants": "value 1: case 7 at a zero of phi of order 2 and a pole of R of order 1 "
                "is outside the case table",
    "double_pole": "value 1: case 8 at a zero of phi of order 1 and a pole of R of order 2 "
                   "is outside the case table",
}


@pytest.mark.parametrize("name", DOUBLE_ORDERS)
def test_a_double_zero_of_phi_or_pole_of_r_is_refused_by_name(capsys, name):
    path, message = str(DATA / f"{name}.json"), DOUBLE_ORDERS[name]
    with pytest.raises(UnclassifiableError, match=f"^{re.escape(message)}$"):
        derive(load_json(path))
    for argv, prefix in (
        (["decimate", path], ""),
        (["count", path, "-n", "1"], ""),
        (["verify", path], "decimation failed: "),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {prefix}{message}\n"), argv


def test_order_of_a_class_in_a_polynomial():
    # the order `classify` reads at a zero of phi or a pole of R, for a
    # rational and a quadratic class
    z = Polynomial.x()
    for mp, u in ((z - F(1, 2), z + 3), (z * z - 2, z * z + z + 1)):
        for k in (1, 2, 3):
            assert decimation._order(mp, mp ** k * u) == k


def test_probe_value_not_exceptional(dds):
    rec = classify(dds["sierpinski"], rat("3/4"))
    assert rec.case_id == 1
    assert rec.image == rat("3/2")


def test_probe_zero_never_exceptional(dds):
    # connectivity pins the zero eigenvalue at multiplicity one; it never
    # appears in the exceptional machinery for any builtin
    for name, dd in dds.items():
        assert ZERO_CLASS not in dd.exceptional, name
        rec = classify(dd, ZERO_CLASS)
        assert rec.case_id == 1 and rec.image == ZERO_CLASS, name


def test_image_class_resultant_against_numeric_roots(dds):
    # high-precision numeric cross-check of the exact image route (the
    # charpoly of multiplication by R(alpha) on Q[z]/(f)):
    # both conjugates (3 +- sqrt2)/4 are mapped to 0 by the hexagasket map
    import mpmath

    dd = dds["hexagasket"]
    assert dd.image_of(SQRT2_PAIR) == ZERO_CLASS
    with mpmath.workdps(60):
        for sign in (1, -1):
            root = (3 + sign * mpmath.sqrt(2)) / 4
            num = mpmath.polyval([mpmath.mpf(str(c)) for c in reversed(dd.R.num.coeffs)], root)
            den = mpmath.polyval([mpmath.mpf(str(c)) for c in reversed(dd.R.den.coeffs)], root)
            assert abs(num / den) < mpmath.mpf("1e-50")


def test_image_of_quadratic_through_square(dds):
    # z^2 - 2 under R(z) = z^2 maps to the single value 2
    dd = rebuilt(dds["sierpinski"], R=rf([0, 0, 1]))
    assert dd.image_of(AlgebraicClass(Polynomial([F(-2), F(0), F(1)]))) == rat(2)


@pytest.fixture(scope="module")
def image_dds(dds):
    return [*dds.values(), derive(gasket(2, 3))]


@settings(max_examples=20, deadline=None)
@given(irreducible_factors())
def test_image_of_is_a_class_under_every_R(image_dds, factors):
    # exact and independent of charpoly: each alpha is a preimage of R(alpha),
    # and Q(R(alpha)) is a subfield of Q(alpha)
    for f in factors:
        for dd in image_dds:
            if f.divides(dd.R.den):
                continue  # a pole class has no image
            h = dd.image_of(AlgebraicClass(f))
            assert f.divides(preimage_poly(h.minpoly, dd.R.num, dd.R.den))
            assert f.degree % h.degree == 0
            if f.degree == 1:  # a rational class maps by the closed form R(r)
                assert h == AlgebraicClass.from_rational(dd.R(-f.coeffs[0]))


@pytest.fixture(scope="module")
def nine_dds(image_dds):
    data = Path(__file__).parent / "data"
    return [*image_dds, *(derive(load_json(str(data / f))) for f in ("sg_2_4.json", "sg_2_5.json"))]


# the escape radius of R per structure (sg4 and sg5 are SG_{2,4} and SG_{2,5})
ESCAPE_BOUNDS = {
    "sierpinski": 2, "nonpcf_sg": F(125, 24), "diamond": 3, "hexagasket": F(81, 16),
    "interval": 3, "tree3": 2, "sg3": F(343, 48), "sg4": F(17741, 768), "sg5": F(8482075, 55296),
}


def test_decimation_data_is_decided_by_four_facts(nine_dds):
    # the structure, phi, R and chi_D that derive found decide the rest again
    assert list(inspect.signature(DecimationData).parameters) == ["structure", "phi", "R", "charpoly_d"]
    for dd in nine_dds:
        fresh = DecimationData(dd.structure, dd.phi, dd.R, dd.charpoly_d)
        for name in ("d", "ratio", "escape_bound", "sigma_d", "exceptional", "case_records", "split"):
            assert getattr(fresh, name) == getattr(dd, name), (dd.structure.name, name)
        assert list(fresh.case_records) == list(fresh.exceptional)
    assert {dd.structure.name: dd.escape_bound for dd in nine_dds} == ESCAPE_BOUNDS


def ref_system(dd, cls):
    """M_den^-1 M_num (transposed) on Q[z]/(f), f the minimal polynomial
    of cls, as a Fraction matrix by Gauss-Jordan elimination in Fractions."""
    f = cls.minpoly

    def times(p):
        rows, v = [], p % f
        for _ in range(f.degree):
            rows.append(list(v.coeffs) + [F(0)] * (f.degree - len(v.coeffs)))
            v = (v * Polynomial.x()) % f
        return rows

    return gauss_jordan_q(times(dd.R.den), times(dd.R.num))


def ref_image(dd, cls):
    """The class of R(alpha) for alpha in cls by the matrix route at every
    degree, rational classes included: the squarefree part of the charpoly
    of M_den^-1 M_num on Q[z]/(f), or None at a pole of R."""
    if cls.minpoly.divides(dd.R.den):
        return None
    [(g, _)] = squarefree_decomposition(charpoly(*scaled(ref_system(dd, cls))))
    return AlgebraicClass(g)


def classes_seen(s):
    """derive(s), the pairs (base, preimage) of the split bases tau(G_40)
    reaches, and every class of those pairs or that `image_of` is asked
    about by derive (case records and orbits) and tau(G_40)."""
    real_image, real_preimages = DecimationData.image_of, DecimationData.preimage_classes
    seen, pairs = set(), set()

    def spy_image(self, cls):
        seen.add(cls)
        return real_image(self, cls)

    def spy_preimages(self, base):
        found = real_preimages(self, base)
        pairs.update((base, cls) for cls, _ in found)
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DecimationData, "image_of", spy_image)
        mp.setattr(DecimationData, "preimage_classes", spy_preimages)
        dd = derive(s)
        tau(s, 40, dd)
    return dd, seen | {c for pair in pairs for c in pair}, pairs


@pytest.fixture(scope="module")
def images_seen():
    """`classes_seen` per structure: the six builtins, sg3, SG_{3,4},
    SG_{3,5}, SG_{2,4} and SG_{2,5}, the last two kept last."""
    data = Path(__file__).parent / "data"
    structures = [*(builtin(name) for name in BUILTIN_NAMES), gasket(2, 3), gasket(3, 4),
                  gasket(3, 5), *(load_json(str(data / f)) for f in ("sg_2_4.json", "sg_2_5.json"))]
    return [classes_seen(s) for s in structures]


def test_image_of_matches_the_matrix_route_on_every_class_seen(images_seen):
    degrees, poles = set(), 0
    for dd, classes, pairs in images_seen:
        for cls in classes:
            image = dd.image_of(cls)
            assert image == ref_image(dd, cls), (dd.structure.name, cls)
            degrees.add(cls.degree)
            poles += image is None
        for base, cls in pairs:
            assert dd.image_of(cls) == base, (dd.structure.name, cls)
    assert {1, 2, 3, 4, 5, 6} <= degrees and poles
    assert all(pairs for _, _, pairs in images_seen)


def _tall_images(cases, monkeypatch):
    """(structure, degree, class, image) for each non-pole class of degree
    3 or more in `cases` (as `classes_seen` gives them), each checked to hand
    `charpoly` the (B, delta) of the Fraction route's M_den^-1 M_num, B
    and delta coprime, and to match `ref_image`."""
    handed, real = [], decimation.charpoly
    monkeypatch.setattr(decimation, "charpoly", lambda b, delta=1: handed.append((b, delta))
                        or real(b, delta))
    out = []
    for dd, classes, _ in cases:
        fresh = rebuilt(dd)
        for cls in sorted(classes, key=AlgebraicClass.key):
            if cls.degree < 3 or cls.minpoly.divides(dd.R.den):
                continue
            handed.clear()
            image = fresh.image_of(cls)
            assert handed == [scaled(ref_system(dd, cls))], (dd.structure.name, cls)
            assert image == ref_image(dd, cls), (dd.structure.name, cls)
            out.append((dd.structure.name, cls.degree, str(cls.minpoly), str(image.minpoly)))
    return out


# sha256 of `_tall_images` on `images_seen` and on SG_{2,10}, from the
# Fraction route that `image_of` took before its integer solve
TALL_IMAGES = "d073850741854a516131040ff4cd0856ba8fa2965390f247dd195554928243e8"


def test_tall_classes_keep_their_images_and_the_fraction_route_pair(images_seen, monkeypatch):
    tall = _tall_images([*images_seen, classes_seen(gasket(2, 10))], monkeypatch)
    assert {name for name, *_ in tall} == {"sg3_4", "sg3_5", "sg4", "sg5", "sg10"}
    assert {degree for _, degree, *_ in tall} == {3, 4, 5, 6, 7, 12, 18}
    assert hashlib.sha256(repr(tall).encode()).hexdigest() == TALL_IMAGES


def test_rational_and_quadratic_classes_never_reach_solve_linear(images_seen, monkeypatch):
    def refuse(*args):
        raise AssertionError("solve_linear ran")

    # rebuilt before the refusal: the construction's case records may map a
    # class of degree 3 or more
    rebuilt_dds = [rebuilt(dd) for dd, _, _ in images_seen]
    monkeypatch.setattr(decimation, "solve_linear", refuse)
    degrees = set()
    for (dd, classes, _), fresh in zip(images_seen, rebuilt_dds):
        for cls in classes:
            if cls.degree <= 2:
                assert fresh.image_of(cls) == ref_image(dd, cls), (dd.structure.name, cls)
                degrees.add(cls.degree)
    assert degrees == {1, 2}
    # a class of degree 3 seen on SG_{2,4} or SG_{2,5} still takes the matrix route
    fresh, cubic = next(
        (fresh, cls) for (dd, classes, _), fresh in zip(images_seen[-2:], rebuilt_dds[-2:])
        for cls in sorted(classes, key=AlgebraicClass.key)
        if cls.degree == 3 and not cls.minpoly.divides(dd.R.den)
    )
    with pytest.raises(AssertionError, match="solve_linear"):
        fresh.image_of(cubic)


@st.composite
def irreducible_quadratics(draw):
    """z^2 + bz + c with a discriminant that is not a rational square."""
    b, c = draw(small_rationals), draw(small_rationals)
    assume(not _is_rational_square(b * b - 4 * c))
    return Polynomial([c, b, F(1)])


@settings(max_examples=60, deadline=None)
@given(irreducible_quadratics())
def test_quadratic_image_matches_the_matrix_route(dds, f):
    cls = AlgebraicClass(f)
    for dd in dds.values():
        assert rebuilt(dd).image_of(cls) == ref_image(dd, cls)


def test_quadratic_image_at_a_pole_and_onto_a_rational():
    # SG_{2,4}'s R has an irreducible quadratic denominator; the preimages
    # of 3/4 under the gasket's R(z) = z(5 - 4z) are a quadratic class
    # whose image is rational
    pole_dd = derive(gasket(2, 4))
    pole = AlgebraicClass(pole_dd.R.den)
    assert pole.degree == 2
    assert pole_dd.image_of(pole) is None and ref_image(pole_dd, pole) is None
    dd = derive(builtin("sierpinski"))
    pair = AlgebraicClass(preimage_poly(Polynomial([F(-3, 4), F(1)]), dd.R.num, dd.R.den))
    assert pair.degree == 2 and dd.image_of(pair) == rat(F(3, 4)) == ref_image(dd, pair)


def ref_phi_and_r(s):
    """phi and R from the moment sum in Polynomial and Fraction arithmetic:
    chi_D S = chi_D (1 - z) I + sum_t M_t q_t, one product per moment."""
    v0 = s.v0_size
    b, delta = scaled_prob_laplacian(build_level(s, 1))
    chi_d = charpoly([row[v0:] for row in b[v0:]], delta)
    n11, n12 = chi_d * Polynomial([1, -1]), Polynomial()
    for t, (scale, mom) in enumerate(decimation._moments(b, v0, delta)):
        q_t = Polynomial.from_integers(chi_d.numerators[t + 1:], chi_d.denominator)
        n11 += q_t * F(mom[0][0], scale)
        n12 += q_t * F(mom[0][1], scale)
    phi = RationalFunction(n12 * -(v0 - 1), chi_d)
    return phi, RationalFunction(n11 + n12 * (v0 - 1), n12 * (v0 - 1))


@pytest.mark.parametrize("s", [*(builtin(name) for name in BUILTIN_NAMES),
                               *(gasket(2, b) for b in range(3, 7))], ids=lambda s: s.name)
def test_integer_schur_sums_match_the_polynomial_sum(s):
    dd = derive(s)
    assert (dd.phi, dd.R) == ref_phi_and_r(s)


def test_sigma_d_is_the_complete_factorization_of_chi_d(nine_dds):
    # classify reads mult_D from sigma(D), so the classes must be distinct
    # and their powers must multiply back to chi_D
    for dd in nine_dds:
        classes = [cls for cls, _ in dd.sigma_d]
        assert len(set(classes)) == len(classes), dd.structure.name
        product = Polynomial.const(1)
        for cls, mult in dd.sigma_d:
            product = product * cls.minpoly ** mult
        assert product == dd.charpoly_d.monic(), dd.structure.name


def ref_preimage_classes(dd, base):
    """The full factorization of q(R(z)), q the minimal polynomial of base,
    by one `factor_classes` call with no class divided out first: the
    reference `preimage_classes` must match."""
    return factor_classes(preimage_poly(base.minpoly, dd.R.num, dd.R.den))


PREIMAGE_STRUCTURES = {
    **{name: lambda name=name: builtin(name) for name in BUILTIN_NAMES},
    **{f"sg_2_{b}": lambda b=b: gasket(2, b) for b in (3, 4, 5, 8)},
}


@pytest.mark.parametrize("name", sorted(PREIMAGE_STRUCTURES))
def test_preimage_classes_match_the_full_factorization(name, monkeypatch):
    # every split base that tau(G_40) reaches factors as before, and the
    # classes divided out first never reach Zassenhaus: after derive, the
    # only factor_classes calls are preimage_classes' cofactors
    s = PREIMAGE_STRUCTURES[name]()
    dd = derive(s)
    factored, bases = [], []
    real_factor, real_preimages = decimation.factor_classes, DecimationData.preimage_classes

    def spy_factor(p):
        out = real_factor(p)
        factored.extend(cls for cls, _ in out)
        return out

    def spy_preimages(self, base):
        bases.append(base)
        return real_preimages(self, base)

    monkeypatch.setattr(decimation, "factor_classes", spy_factor)
    monkeypatch.setattr(DecimationData, "preimage_classes", spy_preimages)
    tau(s, 40, dd)
    monkeypatch.undo()
    assert (ZERO_CLASS, 1) in dd.preimage_classes(ZERO_CLASS)  # divided out, not factored
    assert not (set(dd.case_records) | {ZERO_CLASS}) & set(factored)
    for base in set(bases):
        assert dd.preimage_classes(base) == ref_preimage_classes(dd, base), base


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("fractal", [
    "sierpinski", "hexagasket", str(ROOT / "perfbench" / "structures" / "sg3.json"),
    str(ROOT / "tests" / "data" / "sg_2_5.json"),
], ids=["sierpinski", "hexagasket", "sg3", "sg_2_5"])
def test_no_command_factors_a_split_base_twice(fractal, monkeypatch, capsys):
    # `preimage_classes` keeps no cache: each pass records a split base's
    # preimages once (`Induction.subs`), and every command runs one pass per
    # DecimationData, so no (decimation data, base) pair is factored twice
    from fractal_trees.cli import main

    real, calls = DecimationData.preimage_classes, []

    def spy(dd, base):
        calls.append((dd, base))
        return real(dd, base)

    monkeypatch.setattr(DecimationData, "preimage_classes", spy)
    for argv in (["decimate", fractal, "-n", "3"], ["count", fractal, "-n", "40", "--format", "json"],
                 ["entropy", fractal, "-n", "60"], ["verify", fractal, "--max-level", "3"]):
        calls.clear()
        assert main(argv) == 0, argv
        capsys.readouterr()
        pairs = [(id(dd), base) for dd, base in calls]
        assert pairs and len(set(pairs)) == len(pairs), argv


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_level_zero(dds):
    t = spectrum(dds["sierpinski"], 0)
    assert t.entries == ((rat("3/2"), 0, 2),)
    assert t.zero_mult == 1


def test_sierpinski_level_one(dds):
    t = spectrum(dds["sierpinski"], 1)
    assert dict(((str(c), k), m) for c, k, m in t.entries) == {
        ("3/2", 0): 3,
        ("3/4", 0): 2,
    }


def test_nonpcf_level_one(dds):
    t = spectrum(dds["nonpcf_sg"], 1)
    assert dict(((str(c), k), m) for c, k, m in t.entries) == {
        ("5/4", 0): 2,
        ("3/2", 0): 2,
        ("3/4", 0): 2,
    }


def test_hexagasket_level_one(dds):
    t = spectrum(dds["hexagasket"], 1)
    assert dict(((str(c), k), m) for c, k, m in t.entries) == {
        ("1", 0): 1,
        ("1/4", 0): 2,
        ("3/4", 0): 2,
        ("3/2", 0): 6,
    }


def test_diamond_level_one(dds):
    t = spectrum(dds["diamond"], 1)
    assert dict(((str(c), k), m) for c, k, m in t.entries) == {
        ("2", 0): 1,
        ("1", 0): 2,
    }


def test_spectrum_sum_rule_to_30(dds):
    for name, dd in dds.items():
        for n in range(31):
            t = spectrum(dd, n)
            assert t.eigenvalue_count() == dd.v_count(n), (name, n)


ONE_PASS = [*BUILTIN_NAMES, "sg3", "sg_2_4", "sg_2_5"]


def _one_pass_structure(name):
    if name in BUILTIN_NAMES:
        return builtin(name)
    if name == "sg3":
        return gasket(2, 3)
    return load_json(str(Path(__file__).parent / "data" / f"{name}.json"))


@pytest.mark.parametrize("name", ONE_PASS)
def test_one_pass_tables_equal_spectrum(name):
    # the tables `verify` reads, kept by one induction pass asked in any order
    dd = derive(_one_pass_structure(name))
    levels = Spectra(dd, [30, 2, 1, 2])
    assert levels.spectrum(30) == spectrum(dd, 30)
    assert [t.level for t in levels.tables.values()] == [1, 2, 30]
    assert list(levels.tables.values()) == [spectrum(dd, n) for n in (1, 2, 30)]
    assert [levels.spectrum(n) for n in (2, 1)] == [spectrum(dd, n) for n in (2, 1)]


def test_one_pass_stops_at_the_highest_level_asked(dds, monkeypatch):
    steps = []
    real_next = decimation.Induction.__next__

    def counted(self):
        steps.append(self.level + 1)
        return real_next(self)

    monkeypatch.setattr(decimation.Induction, "__next__", counted)
    levels = Spectra(dds["sierpinski"], [0, 3])
    assert [levels.spectrum(n).level for n in (0, 3)] == [0, 3]
    assert steps == [0, 1, 2, 3]
    # a kept table is read again without a step, and a level not asked for
    # is refused before any step
    assert levels.spectrum(0).level == 0
    with pytest.raises(ValueError, match="level 4 was not asked for"):
        levels.spectrum(4)
    assert steps == [0, 1, 2, 3]
    assert Spectra(dds["sierpinski"], []).tables == {}
    assert steps == [0, 1, 2, 3]


def test_one_pass_refuses_levels_out_of_range(dds):
    dd = dds["sierpinski"]
    with pytest.raises(ValueError, match="level must be nonnegative"):
        Spectra(dd, [2, -1])
    with pytest.raises(ValueError, match="levels above 2000 are refused"):
        Spectra(dd, [1, 2001])


@pytest.mark.parametrize("name", ONE_PASS)
def test_a_walk_on_the_shared_pass_equals_a_plain_walk(name):
    # `verify`: the walk reads the pass first, then the pass steps on to 30
    dd = derive(_one_pass_structure(name))
    levels = Spectra(dd, [1, 2, 30])
    shared, plain = LevelWalk(dd, levels), LevelWalk(dd)
    jump = None
    for n in range(31):
        shared.jump(n)
        plain.jump(n)
        assert shared.factors() == plain.factors(), n
        assert (shared.level, shared.jumps) == (plain.level, plain.jumps), n
        assert (shared.recurrence, shared.terms, shared.forms) == (
            plain.recurrence, plain.terms, plain.forms
        ), n
        if jump is None and shared.jumps:
            jump = n
    # the walk read the pass to its jump, and left the rest to the tables
    assert jump is not None and levels.level == jump
    assert [levels.spectrum(n) for n in (1, 2, 30)] == [spectrum(dd, n) for n in (1, 2, 30)]
    assert levels.level == 30


def test_a_walk_refuses_a_pass_stepped_ahead_of_it(dds):
    dd = dds["hexagasket"]
    levels = Spectra(dd, [1, 3])
    walk = LevelWalk(dd, levels)
    walk.jump(walk.level + 1)
    assert walk.level == levels.level == 1 and not walk.jumps
    levels.spectrum(3)
    with pytest.raises(AssertionError, match="induction was moved past level 1"):
        walk.jump(walk.level + 1)
    with pytest.raises(AssertionError, match="induction was moved past level -1"):
        LevelWalk(dd, levels)
    # a fresh walk reads its own induction, and one given fresh
    fresh = Spectra(dd, [1])
    assert LevelWalk(dd, fresh).level == fresh.level == 0


def test_crosscheck_refuses_a_table_of_another_level(dds):
    dd = dds["sierpinski"]
    assert crosscheck_spectrum(dd, 2, table=spectrum(dd, 2)) == (
        True, "charpoly matches spectrum table"
    )
    with pytest.raises(ValueError, match="crosscheck at level 2 was given the level-1 table"):
        crosscheck_spectrum(dd, 2, table=spectrum(dd, 1))


def test_multiplicity_tables_match_published_formulas(dds):
    for n in range(2, 11):
        got = {(c, k): m for c, k, m in spectrum(dds["sierpinski"], n).entries}
        want = {(rat("3/2"), 0): (3 ** n + 3) // 2}
        for k in range(n):
            want[(rat("3/4"), k)] = (3 ** (n - k - 1) + 3) // 2
        for k in range(n - 1):
            want[(rat("5/4"), k)] = (3 ** (n - k - 1) - 1) // 2
        assert got == {k: v for k, v in want.items() if v}

        got = {(c, k): m for c, k, m in spectrum(dds["nonpcf_sg"], n).entries}
        want = {(rat("3/2"), 0): 6 ** (n - 1) + 1}
        for b in ("3/4", "5/4"):
            for k in range(n - 1):
                want[(rat(b), k)] = 6 ** (n - k - 2) + 1
            want[(rat(b), n - 1)] = 2
        for k in range(n - 1):
            want[(rat("1/2"), k)] = (11 * 6 ** (n - k - 2) - 6) // 5
            want[(rat(1), k)] = (6 ** (n - k) - 6) // 5
        assert got == {k: v for k, v in want.items() if v}

        got = {(c, k): m for c, k, m in spectrum(dds["diamond"], n).entries}
        want = {(rat(2), 0): 1}
        for k in range(n):
            want[(rat(1), k)] = (4 ** (n - k) + 2) // 3
        assert got == want

        got = {(c, k): m for c, k, m in spectrum(dds["hexagasket"], n).entries}
        want = {(rat("3/2"), 0): (6 + 4 * 6 ** n) // 5}
        for k in range(n):
            want[(rat(1), k)] = 1
            want[(rat("1/4"), k)] = (6 + 4 * 6 ** (n - k - 1)) // 5
            want[(rat("3/4"), k)] = (6 + 4 * 6 ** (n - k - 1)) // 5
        for k in range(n - 1):
            want[(SQRT2_PAIR, k)] = (6 ** (n - k - 1) - 1) // 5
        assert got == {k: v for k, v in want.items() if v}


def test_conjugate_pair_tracked_as_one_class(dds):
    # the hexagasket pair enters as a single degree-2 class, so both
    # conjugates automatically carry identical multiplicities
    t = spectrum(dds["hexagasket"], 5)
    pair_entries = [(k, m) for c, k, m in t.entries if c == SQRT2_PAIR]
    assert pair_entries
    assert all(c.degree == 2 for c, _, _ in t.entries if c == SQRT2_PAIR)


def test_crosscheck_small_levels(dds):
    for name in ("sierpinski", "nonpcf_sg", "diamond", "hexagasket"):
        for n in (1, 2):
            ok, msg = crosscheck_spectrum(dds[name], n)
            assert ok, (name, n, msg)


def test_crosscheck_level_three_small_graphs(dds):
    # one level deeper on the two fractals whose G_3 stays small
    for name in ("sierpinski", "diamond"):
        ok, msg = crosscheck_spectrum(dds[name], 3)
        assert ok, (name, msg)


@pytest.mark.parametrize(
    "name, n, chi_degree, chi_terms, mult_degree, mult_terms",
    [("sierpinski", 1, 3, 1, 7, 7), ("hexagasket", 2, 3, 1, 67, 67)],
)
def test_crosscheck_reports_a_mismatch(
    dds, monkeypatch, name, n, chi_degree, chi_terms, mult_degree, mult_terms
):
    dd = dds[name]
    chi = prob_laplacian_charpoly(build_level(dd.structure, n))
    # one coefficient of the charpoly off by one
    coeffs = list(chi.coeffs)
    coeffs[3] += 1
    assert crosscheck_spectrum(dd, n, chi=Polynomial(coeffs)) == (
        False,
        f"charpoly mismatch at level {n}: difference has degree {chi_degree} "
        f"and {chi_terms} nonzero coefficients",
    )
    # one multiplicity of the spectrum table off by one
    table = spectrum(dd, n)
    (cls, k, mult), *rest = table.entries
    bumped = SpectrumTable(table.level, table.d, ((cls, k, mult + 1), *rest))
    monkeypatch.setattr(decimation, "spectrum", lambda dd_, n_: bumped)
    assert crosscheck_spectrum(dd, n, chi=chi) == (
        False,
        f"charpoly mismatch at level {n}: difference has degree {mult_degree} "
        f"and {mult_terms} nonzero coefficients",
    )


# ---------------------------------------------------------------------------
# failure modes


def test_boundary_edge_rejected_by_derive():
    # complete graph as its own "cell map" puts an edge between corners
    bad = SelfSimilarStructure.create(
        name="bad",
        m=2,
        v0_size=2,
        v1_size=3,
        edges1=[[0, 1], [1, 2]],
        boundary=[0, 1],
        cell_maps=[[0, 1], [1, 2]],
    )
    with pytest.raises(InvalidStructureError, match="boundary-boundary edge"):
        derive(bad)


def test_negative_level_rejected(dds):
    with pytest.raises(ValueError):
        spectrum(dds["sierpinski"], -1)


# ---------------------------------------------------------------------------
# derive's outputs, pinned


def _p(coeffs):
    return Polynomial([F(c) for c in coeffs])


# phi num/den, R num/den, chi_D = det(D - zI), each
# lowest degree first, recorded from the earlier Gaussian elimination over Q(z)
PINNED_DERIVE = {
    "sierpinski": (
        ("3/8", "-1/4"), ("5/8", "-7/4", 1),
        (0, 5, -4), (1,),
        ("25/32", "-45/16", 3, -1),
    ),
    "nonpcf_sg": (
        ("5/16", "-7/24"), ("1/2", "-3/2", 1),
        (0, "-36/7", "60/7", "-24/7"), ("-15/14", 1),
        ("3/4", "-7/2", "23/4", -4, 1),
    ),
    "diamond": (
        ("-1/2",), (-1, 1),
        (0, 4, -2), (1,),
        (1, -2, 1),
    ),
    "hexagasket": (
        ("3/64", "-1/8", "1/16"), ("7/64", "-33/32", "47/16", -3, 1),
        (0, -7, 31, -40, 16), ("-1/2", 1),
        ("1323/8192", "-2457/1024", "29277/2048", "-46543/1024", "11007/128",
         "-26025/256", "1215/16", "-279/8", 9, -1),
    ),
    "interval": (
        ("-1/2",), (-1, 1),
        (0, 4, -2), (1,),
        (1, -1),
    ),
    "tree3": (
        ("1/4", "-1/6"), ("1/2", "-3/2", 1),
        (0, 6, -6), (1,),
        ("3/4", "-7/2", "23/4", -4, 1),
    ),
    "sg3": (
        ("7/64", "-1/6", "1/16"), ("15/64", "-61/32", "67/16", "-7/2", 1),
        (0, -15, 47, -48, 16), ("-7/6", 1),
        ("675/2048", "-1845/512", "3639/256", "-7249/256", "127/4", "-163/8", 7, -1),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DERIVE))
def test_derive_outputs_pinned(name):
    s = gasket(2, 3) if name == "sg3" else builtin(name)
    dd = derive(s)
    phi_n, phi_d, r_n, r_d, chi = PINNED_DERIVE[name]
    assert (dd.phi.num, dd.phi.den) == (_p(phi_n), _p(phi_d))
    assert (dd.R.num, dd.R.den) == (_p(r_n), _p(r_d))
    assert dd.charpoly_d == _p(chi)
    # S = phi (P0 - R), checked against one direct solve of S at a point
    assert_schur_factors(s, dd, F(7, 3))


def test_derive_skips_roots_of_chi_d():
    # chi_D vanishes at z = 1 here, so no solve can read S(1); derive reads
    # S through the moments B D^t C and evaluates it at no point, and the
    # pinned test above covers the result
    for name in ("nonpcf_sg", "diamond", "interval", "tree3"):
        assert _p(PINNED_DERIVE[name][4])(F(1)) == 0, name


@pytest.mark.parametrize("entry", [(2, 2), (2, 1)], ids=["diag", "off"])
@pytest.mark.parametrize("bad", range(3))
def test_symmetry_check_reads_every_moment(monkeypatch, bad, entry):
    # sierpinski has k = 3 interior vertices, so derive reads the moments
    # B D^t C for t = 0, 1, 2; one perturbed entry, diagonal or not, in any
    # of them, the last included, breaks the one-diagonal, one-off-diagonal
    # shape, and derive refuses at that moment without computing the rest
    moments, drawn = decimation._moments, []

    def perturbed(b, v0, delta):
        for t, (scale, mom) in enumerate(moments(b, v0, delta)):
            drawn.append(t)
            if t == bad:
                mom[entry[0]][entry[1]] += 1
            yield scale, mom

    monkeypatch.setattr(decimation, "_moments", perturbed)
    with pytest.raises(NotFullySymmetricError, match="does not factor"):
        derive(builtin("sierpinski"))
    assert drawn == list(range(bad + 1))


@pytest.mark.parametrize("i, j", [(3, 4), (5, 3), (4, 4)])
def test_perturbed_d_entry_is_refused(monkeypatch, i, j):
    # sierpinski's interior block D is rows and columns 3..5 of P1; moving
    # one entry of delta P1 breaks the boundary symmetry of some moment B D^t C
    def perturbed(g):
        b, delta = scaled_prob_laplacian(g)
        b[i][j] += 1
        return b, delta

    monkeypatch.setattr(decimation, "scaled_prob_laplacian", perturbed)
    with pytest.raises(NotFullySymmetricError, match="does not factor"):
        derive(builtin("sierpinski"))
