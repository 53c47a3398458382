import inspect
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
from fractal_trees.decimation import (
    DecimationData,
    NotFullySymmetricError,
    SpectrumTable,
    ZERO_CLASS,
    classify,
)
from fractal_trees.kirchhoff import prob_laplacian_charpoly, scaled_prob_laplacian
from fractal_trees.matrices import charpoly, scaled_charpoly
from fractal_trees.polys import (
    AlgebraicClass,
    Polynomial,
    RationalFunction,
    factor_classes,
    preimage_poly,
    squarefree_decomposition,
)
from fractal_trees.structures import BUILTIN_NAMES, InvalidStructureError, load_json
from test_generalization import assert_schur_factors, gasket
from conftest import gauss_jordan_q, small_rationals
from test_polys import _is_rational_square, irreducible_factors

SQRT2_PAIR = AlgebraicClass(Polynomial([F(7, 16), F(-3, 2), 1]))
SQRT5_PAIR = AlgebraicClass(Polynomial([F(1, 4), F(-3, 2), 1]))


def rat(x):
    return AlgebraicClass.from_rational(F(x))


def rf(num, den=(1,)):
    return RationalFunction(Polynomial([F(c) for c in num]), Polynomial([F(c) for c in den]))


def rebuilt(dd, R=None):
    """dd rebuilt from its four facts through `DecimationData.__init__`
    (with R in place of dd.R when given), so no cached `_preimage_cache`
    entry carries over, and with `image_of`'s cache
    emptied of the images the construction's case records asked for."""
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


def ref_image(dd, cls):
    """The class of R(alpha) for alpha in cls by the matrix route at every
    degree, rational classes included: the squarefree part of the charpoly
    of M_den^-1 M_num on Q[z]/(f), or None at a pole of R."""
    f = cls.minpoly
    if f.divides(dd.R.den):
        return None

    def times(p):
        rows, v = [], p % f
        for _ in range(f.degree):
            rows.append(list(v.coeffs) + [F(0)] * (f.degree - len(v.coeffs)))
            v = (v * Polynomial.x()) % f
        return rows

    [(g, _)] = squarefree_decomposition(charpoly(gauss_jordan_q(times(dd.R.den), times(dd.R.num))))
    return AlgebraicClass(g)


@pytest.fixture(scope="module")
def images_seen():
    """Per structure (the six builtins, sg3, SG_{3,4}, SG_{3,5}, SG_{2,4}
    and SG_{2,5}, the last two kept last), its decimation data, the pairs
    (base, preimage) of the split bases tau(G_40) reaches, and every class
    of those pairs or that `image_of` is asked about by derive (case
    records and orbits) and tau(G_40)."""
    data = Path(__file__).parent / "data"
    structures = [*(builtin(name) for name in BUILTIN_NAMES), gasket(2, 3), gasket(3, 4),
                  gasket(3, 5), *(load_json(str(data / f)) for f in ("sg_2_4.json", "sg_2_5.json"))]
    real_image, real_preimages = DecimationData.image_of, DecimationData.preimage_classes
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for s in structures:
            seen, pairs = set(), set()

            def spy_image(self, cls):
                seen.add(cls)
                return real_image(self, cls)

            def spy_preimages(self, base):
                found = real_preimages(self, base)
                pairs.update((base, cls) for cls, _ in found)
                return found

            mp.setattr(DecimationData, "image_of", spy_image)
            mp.setattr(DecimationData, "preimage_classes", spy_preimages)
            dd = derive(s)
            tau(s, 40, dd)
            out.append((dd, seen | {c for pair in pairs for c in pair}, pairs))
    return out


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
    chi_d = scaled_charpoly([row[v0:] for row in b[v0:]], delta)
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
