import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from foliationlab.gaussrat import GaussRat
from foliationlab.mvpoly import MVPoly
from foliationlab.classify import singularity_report
from foliationlab.foliation import LogDivisor, VectorFieldGerm, is_singular_at_origin, milnor_number, translate_to_point
from foliationlab.blowup import (
    SectionExists,
    blow_up,
    ceil_nth_root,
    effectivity_count,
    exceptional_loci,
    exceptional_multiplicity,
    pullback_one_form,
    transform_vector_field,
)
from foliationlab import unipoly
from foliationlab.corpus import oneform_corpus, seidenberg_corpus
from foliationlab.dsl import parse_vector_field

from helpers import (
    chart_by_chart,
    chart_images,
    chart_relabel,
    jordan_fixtures,
    points_on_E,
    reference_pullback_one_form,
    reference_transform,
    scalar_matrix,
    seeded_towers,
)

VARS = ("x", "y")
X = MVPoly.var(VARS, "x")
Y = MVPoly.var(VARS, "y")


def germ(*comps):
    return VectorFieldGerm(VARS, comps)


def test_charts_and_substitution():
    # chart 1: (x, y) = (u, u w); chart 2: (x, y) = (u w, u)
    assert chart_relabel(Y, 0) == X * Y
    assert chart_relabel(X, 1) == X * Y
    assert chart_relabel(Y, 1) == Y
    with pytest.raises(ValueError, match="ambient dimension >= 2"):
        transform_vector_field(VectorFieldGerm(("x",), [MVPoly.var(("x",), "x")]), 0)
    vs3 = ("x", "y", "z")
    z = MVPoly.var(vs3, "z")
    assert chart_relabel(z, 0) == MVPoly.var(vs3, "x") * z


def test_chart_transition_round_trip():
    """The ambient point (u, u w) of chart 1 is (1/w, u w) in chart 2 (the
    transition `cli._charts_compatible` uses): every polynomial pulled
    back to either chart takes one value there."""
    u, w = GaussRat(Fraction(1, 3)), GaussRat(2)
    p0, p1 = (u, w), (GaussRat(1) / w, u * w)
    for p in (X, Y, X * Y + 3 * X**3, Y**2 - X):
        assert chart_relabel(p, 0).evaluate(p0) == chart_relabel(p, 1).evaluate(p1) == p.evaluate((u, u * w))


def test_transform_fixtures():
    radial = germ(X, Y)
    st = transform_vector_field(radial, 0)
    assert st.saturation_exponent == 1
    assert not st.exceptional_invariant
    assert st.saturated_field.components[0] == MVPoly.const(VARS, 1)

    saddle = germ(X, -1 * Y)
    st = transform_vector_field(saddle, 0)
    assert st.saturation_exponent == 0
    assert st.exceptional_invariant
    assert st.raw_field.components[1] == -2 * Y

    nilp = germ(Y, X * X)
    st = transform_vector_field(nilp, 0)
    assert st.saturation_exponent == 0
    assert st.saturated_field.components[0] == X * Y
    assert st.saturated_field.components[1] == X - Y * Y


def test_divisor_tracking():
    saddle = germ(X, -1 * Y)
    st = transform_vector_field(saddle, 0, LogDivisor({0, 1}), level=3)
    # strict transform of {y=0} plus the exceptional axis at position 0
    assert st.divisor.axes == frozenset({0, 1})
    assert st.divisor.history[0] == "exceptional:3"
    assert st.divisor.history[1] == "original"
    radial = germ(X, Y)
    st = transform_vector_field(radial, 0, LogDivisor({1}))
    assert 0 not in st.divisor.axes  # dicritical: E stays out


def _ambient_vector(sat, point):
    j = sat.chart
    vec = sat.saturated_field.evaluate(point)
    u = point[j]
    out = []
    for i in range(len(point)):
        if i == j:
            out.append(vec[j])
        else:
            out.append(vec[i] * u + point[i] * vec[j])
    return out


def test_chart_compatibility_on_corpus():
    rng = random.Random(11)
    samples = [
        (GaussRat(Fraction(1, 3)), GaussRat(2)),
        (GaussRat(Fraction(-1, 2)), GaussRat(Fraction(3, 4))),
    ]
    for _ in range(40):
        terms1, terms2 = {}, {}
        for _t in range(rng.randrange(1, 4)):
            e = (rng.randrange(0, 3), rng.randrange(0, 3))
            if 1 <= sum(e) <= 4:
                terms1[e] = GaussRat(rng.choice([1, -1, 2, -2]))
        for _t in range(rng.randrange(1, 4)):
            e = (rng.randrange(0, 3), rng.randrange(0, 3))
            if 1 <= sum(e) <= 4:
                terms2[e] = GaussRat(rng.choice([1, -1, 2, -2]))
        v = VectorFieldGerm(VARS, (MVPoly(VARS, terms1), MVPoly(VARS, terms2)))
        if not is_singular_at_origin(v) or all(c.is_zero() for c in v.components):
            continue
        sats = [transform_vector_field(v, j) for j in range(2)]
        for u, w in samples:
            p0, p1 = (u, w), (GaussRat(1) / w, u * w)  # one ambient point in charts 1 and 2
            v0 = _ambient_vector(sats[0], p0)
            v1 = _ambient_vector(sats[1], p1)
            assert (v0[0] * v1[1] - v0[1] * v1[0]).is_zero()


def test_saturation_lower_bound():
    rng = random.Random(5)
    checked = 0
    while checked < 60:
        terms1, terms2 = {}, {}
        for _t in range(rng.randrange(1, 4)):
            e = (rng.randrange(0, 4), rng.randrange(0, 4))
            if 1 <= sum(e) <= 4:
                terms1[e] = GaussRat(rng.choice([1, -1, 2]))
        for _t in range(rng.randrange(1, 4)):
            e = (rng.randrange(0, 4), rng.randrange(0, 4))
            if 1 <= sum(e) <= 4:
                terms2[e] = GaussRat(rng.choice([1, -1, 2]))
        v = VectorFieldGerm(VARS, (MVPoly(VARS, terms1), MVPoly(VARS, terms2)))
        if not is_singular_at_origin(v) or all(c.is_zero() for c in v.components):
            continue
        m = min(c.vanishing_order() for c in v.components)
        for j in range(2):
            st = transform_vector_field(v, j)
            assert st.saturation_exponent >= m - 1
        checked += 1


def test_pullback_one_form_examples():
    pb = pullback_one_form([MVPoly.const(VARS, 1), MVPoly.zero(VARS)], 0)
    assert pb.dlog_coeff == MVPoly.const(VARS, 1)
    assert pb.dw_coeffs[1].is_zero()
    pb = pullback_one_form([MVPoly.zero(VARS), MVPoly.const(VARS, 1)], 0)
    assert pb.dlog_coeff == Y and pb.dw_coeffs[1] == MVPoly.const(VARS, 1)
    pb = pullback_one_form([-1 * Y, X], 0)
    assert pb.dlog_coeff.is_zero()
    assert pb.dw_coeffs[1] == X


# Gaussian-rational coefficients whose real and imaginary parts have their
# own denominators, so the one-form kernel merges over an lcm
ONE_FORM_COEFFS = st.builds(lambda a, b, d, e: GaussRat(Fraction(a, d), Fraction(b, e)),
                            st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 12), st.integers(1, 12))


@st.composite
def one_forms(draw):
    n = draw(st.integers(2, 4))
    variables = ("z1", "z2", "z3", "z4")[:n]
    exps = st.tuples(*[st.integers(0, 2)] * n)
    return [MVPoly(variables, draw(st.dictionaries(exps, ONE_FORM_COEFFS, max_size=4))) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(one_forms())
@example([MVPoly(VARS, {(1, 0): GaussRat(Fraction(1, 2)), (0, 1): GaussRat(0, Fraction(1, 3))}),
          MVPoly(VARS, {(0, 0): GaussRat(Fraction(-1, 6)), (0, 1): GaussRat(Fraction(1, 4), 1)})])
def test_pullback_one_form_matches_the_ring_oracle(b):
    """Every chart, dims 2-4: the exponent-relabelling kernel against
    `MVPoly.subs` of the chart images and ring products."""
    for j in range(len(b)):
        pb = pullback_one_form(b, j)
        q_log, q_dw = reference_pullback_one_form(b, j)
        assert pb.certified and pb.dlog_coeff == q_log and pb.dw_coeffs == q_dw


def test_siu_divisibility_battery_small():
    for variables, coeffs in oneform_corpus(60, seed=3):
        for j in range(len(variables)):
            pb = pullback_one_form(coeffs, j)
            assert pb.certified


def test_exceptional_multiplicity_tower():
    for k in (1, 2, 7, 16):
        assert exceptional_multiplicity(Y, [0] * k) == k
    assert exceptional_multiplicity(X**4, [0] * 4) == 4
    assert exceptional_multiplicity(Y, [0]) == 1
    with pytest.raises(ValueError):
        exceptional_multiplicity(MVPoly.zero(VARS), [0])


def test_exceptional_multiplicity_additive():
    paths = [[0, 0, 1], [1, 0], [0] * 5]
    polys = [X + Y, Y * Y + X**3, X * Y]
    for path in paths:
        for p in polys:
            for q in polys:
                assert exceptional_multiplicity(p * q, path) == exceptional_multiplicity(
                    p, path
                ) + exceptional_multiplicity(q, path)


def test_effectivity_count_examples():
    r = effectivity_count(2, 4, 2)
    assert isinstance(r, SectionExists) and r.count == 11 and r.degree == 4
    assert effectivity_count(2, 1, 1).count == 2
    assert effectivity_count(3, 8, 1).count == 7
    assert ceil_nth_root(8, 3) == 2
    assert ceil_nth_root(9, 3) == 3
    assert ceil_nth_root(64, 2) == 8
    assert ceil_nth_root(65, 2) == 9


@st.composite
def _fields(draw):
    """(v, divisor, level) in dims 2-4, each component over its own
    denominators.  Shapes: "any" (constant terms make non-singular centers,
    empty components zero ones), "dicritical" (g * radial + terms of degree
    >= 3 with g(0) != 0, so s > 0) and "zero" (the zero field)."""
    n = draw(st.integers(2, 4))
    names = ("x", "y", "z", "w")[:n]
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 3)
    high = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: 3 <= sum(e) <= 4)

    def poly(exps, max_size):
        den = draw(st.sampled_from([1, 2, 3, 4, 6, 9]))
        part = st.integers(-4, 4)
        coeff = st.builds(lambda a, b, d: GaussRat(Fraction(a, den * d), Fraction(b, den)), part, part,
                          st.sampled_from([1, 2, 5]))
        return MVPoly(names, draw(st.dictionaries(exps, coeff, max_size=max_size)))

    shape = draw(st.sampled_from(["any", "any", "dicritical", "zero"]))
    if shape == "zero":
        comps = [MVPoly.zero(names)] * n
    elif shape == "dicritical":
        g = poly(exps.filter(any), 2) + draw(st.sampled_from([1, -2, GaussRat(1, 1), GaussRat(Fraction(1, 3))]))
        comps = [g * MVPoly.var(names, x) + poly(high, 2) for x in names]
    else:
        comps = [poly(exps, 3) for _ in names]
    divisor = LogDivisor(draw(st.sets(st.integers(0, n - 1))))
    return VectorFieldGerm(names, comps), draw(st.none() | st.just(divisor)), draw(st.integers(1, 3))


VARS3 = ("x", "y", "z")
X3, Y3, Z3 = (MVPoly.var(VARS3, name) for name in VARS3)
ZERO3 = MVPoly.zero(VARS3)


@given(_fields())
@example((VectorFieldGerm(VARS3, [X3 + 1, Y3 * Fraction(1, 2), ZERO3]), None, 1))  # non-singular: drop = 0
@example((VectorFieldGerm(VARS3, [X3 * Fraction(1, 3), Y3 * Fraction(1, 3), Z3 * Fraction(1, 3) + X3**3]),
          LogDivisor({1}), 2))  # dicritical: s = 1
@example((VectorFieldGerm(VARS3, [ZERO3] * 3), None, 1))
@settings(max_examples=150, deadline=None)
def test_transform_matches_ring_operations(case):
    """The one-pass chart transform against substitution plus MVPoly ring
    operations, chart by chart."""
    v, divisor, level = case
    for j in range(v.dim()):
        try:
            want, want_raw = reference_transform(v, j, divisor, level)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                transform_vector_field(v, j, divisor, level)
            continue
        got = transform_vector_field(v, j, divisor, level)
        for got_field, want_field in ((got.raw_field, want_raw), (got.saturated_field, want.saturated_field)):
            assert [(p.den, p.num) for p in got_field.components] == [(p.den, p.num) for p in want_field.components]
        assert got.saturation_exponent == want.saturation_exponent
        assert got.divisor == want.divisor
        assert got.exceptional_invariant == want.exceptional_invariant
        assert got == want


def test_transform_chart_dimension_mismatch():
    """A chart index past the germ's dimension is refused."""
    for v, j in ((VectorFieldGerm(VARS3, [X3, Y3, Z3]), 3), (germ(X, Y), 2), (germ(X, Y), -1)):
        with pytest.raises(ValueError, match="chart index out of range"):
            transform_vector_field(v, j)
    with pytest.raises(ValueError, match="chart index out of range"):
        pullback_one_form([X, Y], 2)


def test_chart_substitution_dimension_mismatch():
    """A chart path with a chart outside the polynomial's ring is refused,
    not applied to the wrong variables or left to fail on an index, and so
    are an empty path and the zero polynomial."""
    for p, path, message in ((MVPoly.zero(VARS), [0], "zero polynomial"), (Y, [], "empty chart path"),
                             (Y, [0, 2], "chart index out of range"),
                             (MVPoly.var(("x",), "x"), [0], "ambient dimension >= 2")):
        with pytest.raises(ValueError, match=message):
            exceptional_multiplicity(p, path)


@st.composite
def _polys_and_chart_paths(draw):
    """A nonzero polynomial in 2-4 variables with coefficients over mixed
    denominators, and a chart path of length 1-4."""
    n = draw(st.integers(2, 4))
    variables = ("x", "y", "z", "w")[:n]
    part, den = st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7])
    coeff = st.builds(lambda a, b, d, e: GaussRat(Fraction(a, d), Fraction(b, e)), part, part, den, den)
    exps = st.tuples(*(st.integers(0, 3) for _ in range(n)))
    terms = draw(st.dictionaries(exps, coeff.filter(lambda c: not c.is_zero()), min_size=1, max_size=5))
    return MVPoly(variables, terms), draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))


@given(_polys_and_chart_paths())
@settings(max_examples=60, deadline=None)
def test_chart_pullback_matches_substitution(case):
    """The chart map on exponents agrees with the ring homomorphism of the
    chart's images, and so does the exceptional multiplicity along a path."""
    p, path = case
    for j in range(p.nvars()):
        assert chart_relabel(p, j) == p.subs(chart_images(p.variables, j))
    q = p
    for j in path:
        q = q.subs(chart_images(p.variables, j))
    assert exceptional_multiplicity(p, path) == q.min_exponent_in(path[-1])


def test_singular_points_on_E_dedupe():
    # saddle: one point per chart (both eigendirections)
    saddle = germ(X, -1 * Y)
    (_, l0), (_, l1) = blow_up(saddle)
    assert len(l0.points) == 1 and len(l1.points) == 1


def test_singular_cluster_detected():
    # y' directions at w^2 = 2: irrational cluster
    v = germ(X, 2 * Y + X * X + 0 * Y)
    v = germ(Y * Y - 2 * X * X, X * Y)
    _, locus = blow_up(v)[0]
    assert locus.cluster is not None or locus.points


def _snapshot(sat, locus):
    return (sat.to_jsonable(), sat.raw_field.to_text(), locus.points,
            locus.cluster,
            locus.complete, locus.non_isolated, locus.notes)


def test_blow_up_equals_chart_by_chart():
    cases = [(fx["germ"], fx["divisor"], 1) for fx in jordan_fixtures()]
    cases += [(v, None, 2) for v in seidenberg_corpus()[::5]]
    for v, divisor, level in cases:
        got = [_snapshot(*entry) for entry in blow_up(v, divisor, level)]
        assert got == [_snapshot(*entry) for entry in chart_by_chart(v, divisor, level)]


@pytest.mark.parametrize("text, divisor, s, note", [
    ("v = y d/dx + 2*x d/dy + z d/dz", None, 0, "eigenvalues outside Q(i)"),
    ("v = x d/dx + y d/dy - z d/dz", LogDivisor({2}), 0, "eigenspace of dimension >= 2"),
    # radial center: s = 1, so the restricted system on E answers
    ("v = (x + y^2) d/dx + y d/dy + (z + x*z) d/dz", None, 1, None),
])
def test_blow_up_equals_chart_by_chart_dim3(text, divisor, s, note):
    v = parse_vector_field(text)
    got = blow_up(v, divisor, level=3)
    assert [_snapshot(*entry) for entry in got] == [_snapshot(*entry) for entry in chart_by_chart(v, divisor, 3)]
    assert [sat.saturation_exponent for sat, _ in got] == [s] * 3
    assert all((note in locus.notes[0]) if note else not locus.non_isolated for _, locus in got)


@st.composite
def _singular_fields_dim3_4(draw):
    """Germs of dims 3-4 singular at the origin, each component with one to
    three terms of degree 1-3, or of degree 2-3 so that s >= 1 and the
    restricted system on E answers."""
    n = draw(st.integers(3, 4))
    names = ("x", "y", "z", "w")[:n]
    low = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: low <= sum(e) <= 3)
    coeff = st.builds(GaussRat, st.integers(-3, 3), st.integers(-1, 1)).filter(lambda c: not c.is_zero())
    return VectorFieldGerm(names, [MVPoly(names, draw(st.dictionaries(exps, coeff, min_size=1, max_size=3)))
                                   for _ in names])


@given(_singular_fields_dim3_4())
@example(parse_vector_field("v = (x + y^2) d/dx + y d/dy + (z + x*z) d/dz"))  # radial: s = 1
@example(parse_vector_field("v = x^2 d/dx + y^2 d/dy + (z^2 + x*y) d/dz"))
@settings(max_examples=80, deadline=None)
def test_complete_locus_points_are_singular(v):
    """Every point of a complete singular locus on E in dims 3-4 is a zero
    of every saturated component: an eigendirection of a multiplicity-one
    center, or the solution of a restricted system of degree <= 1, which is
    zero at every index set to zero."""
    for sat, locus in blow_up(v):
        if locus.complete:
            assert all(c.evaluate(pt).is_zero() for pt in locus.points for c in sat.saturated_field.components)


@st.composite
def _centers_dim3_4(draw, kinds=("matrix", "scalar", "none")):
    """Germs of dims 3-4 singular at the origin: a linear part that is a
    sparse Gaussian-integer matrix, a nonzero scalar matrix or none (so
    multiplicity >= 2), plus up to two terms of degree 2-3 per component."""
    n = draw(st.integers(3, 4))
    names = ("x", "y", "z", "w")[:n]
    kind = draw(st.sampled_from(kinds))
    scale = draw(st.sampled_from([GaussRat(1), GaussRat(-2), GaussRat(0, 1), GaussRat(Fraction(1, 2), 1)]))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, GaussRat(0, 1), GaussRat(1, -2)])
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: 2 <= sum(e) <= 3)
    coeff = st.builds(GaussRat, st.integers(-3, 3), st.integers(-1, 1)).filter(lambda c: not c.is_zero())
    comps = []
    for i in range(n):
        terms = draw(st.dictionaries(exps, coeff, min_size=int(kind == "none"), max_size=2))
        for k in range(n):
            a = draw(entry) if kind == "matrix" else scale if kind == "scalar" and k == i else 0
            if a != 0:
                terms[tuple(int(t == k) for t in range(n))] = GaussRat.coerce(a)
        comps.append(MVPoly(names, terms))
    assume(any(not p.is_zero() for p in comps))
    return VectorFieldGerm(names, comps)


@given(_centers_dim3_4(("matrix", "scalar")))
@settings(max_examples=80, deadline=None)
def test_multiplicity_one_center_has_s_zero_everywhere_iff_not_scalar(v):
    """For a multiplicity-one center with linear part A, the u^1 coefficient
    of P_i in chart j is (A(e_j + w))_i - w_i (A(e_j + w))_j: every chart
    has s = 0 unless A = cI, and then every chart has s >= 1."""
    assume(singularity_report(v).multiplicity == 1)
    lp = v.linear_part()
    s = [transform_vector_field(v, j).saturation_exponent for j in range(v.dim())]
    if lp == scalar_matrix(v.dim(), lp[0][0]):
        assert min(s) >= 1
    else:
        assert s == [0] * v.dim()


def _fields(locus):
    return locus.points, locus.cluster, locus.complete, locus.non_isolated, locus.notes


@given(_centers_dim3_4())
@example(parse_vector_field("v = x d/dx + y d/dy + 5*z d/dz"))  # a plane of eigendirections
@example(parse_vector_field("v = y d/dx + 2*x d/dy + z d/dz"))  # eigenvalues outside Q(i)
@example(parse_vector_field("v = (x + y^2) d/dx + y d/dy + (z + x*z) d/dz"))  # scalar: s = 1
@settings(max_examples=80, deadline=None)
def test_exceptional_loci_equal_blow_up_loci(v):
    """The loci read from the spectrum, or from `blow_up` when the center
    is scalar or of multiplicity >= 2, are `blow_up`'s loci field by field."""
    assert [_fields(locus) for locus in exceptional_loci(v)] == [_fields(locus) for _, locus in blow_up(v)]


def _chart2_points_by_root_search(sat):
    """Chart 2's points on E by the general path: the roots of gcd(a, b) on
    E, of which the chart keeps only w = 0."""
    a, b = (unipoly.from_mvpoly(c, 0) for c in sat.saturated_field.components)
    g = unipoly.poly_gcd(a, b)
    if unipoly.degree(g) <= 0:
        return []
    roots = unipoly.gaussian_rational_roots(g).roots
    return [(GaussRat(0), GaussRat(0))] if any(w0.is_zero() for w0 in roots) else []


def test_chart2_locus_matches_root_search_on_seeded_towers():
    found = {True: 0, False: 0}
    for tower in seeded_towers():
        for node in tower.nodes.values():
            sat = node.transform
            if sat.chart != 1:
                continue
            locus = points_on_E(sat)
            assert not locus.non_isolated and locus.complete and locus.cluster is None
            assert locus.points == _chart2_points_by_root_search(sat)
            found[bool(locus.points)] += 1
    assert found[True] and found[False]


def test_milnor_conservation_over_one_blowup():
    """Ledger for `blow_up`, the E-locus and `translate_to_point`: over one
    blow-up of a center of multiplicity nu, the saturated transform's Milnor
    numbers on E sum to mu_0 - nu^2 + nu + 1 (E invariant) or
    mu_0 - nu^2 - nu + 1 (dicritical center) (Camacho-Lins Neto-Sad 1984).
    Conjugate points have equal mu, so a cluster of degree d must leave a
    positive remainder divisible by d."""
    kinds = set()
    for v in seidenberg_corpus():
        rep = singularity_report(v)
        nu, dicritical = rep.multiplicity, rep.dicritical
        want = milnor_number(v) - nu * nu + (-nu if dicritical else nu) + 1
        got, clusters = 0, []
        for sat, locus in blow_up(v):
            got += sum(milnor_number(translate_to_point(sat.saturated_field, p)) for p in locus.points)
            clusters += [] if locus.cluster is None else [locus.cluster]
        if not clusters:
            assert got == want, v
        else:
            assert len(clusters) == 1, v
            remainder = want - got
            assert remainder > 0 and remainder % unipoly.degree(clusters[0]) == 0, v
        kinds.add((bool(clusters), dicritical))
    assert kinds == {(False, False), (False, True), (True, False)}
