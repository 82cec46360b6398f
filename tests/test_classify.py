import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliationlab.gaussrat import GaussRat, I
from foliationlab.mvpoly import MVPoly
from foliationlab.foliation import (
    FoliationError,
    LogDivisor,
    VectorFieldGerm,
    is_singular_at_origin,
    milnor_number,
)
from foliationlab import blowup, classify, linalg, unipoly
from foliationlab.classify import (
    classify_simple,
    corner_witnesses,
    is_dicritical,
    singularity_report,
)
from foliationlab.dsl import parse_vector_field

from helpers import (
    conjugate_by,
    inverse,
    mat,
    reference_simple_b_status,
    reference_surface_type,
    scalar_matrix,
    seeded_tower_germs,
)

VARS = ("x", "y")
X = MVPoly.var(VARS, "x")
Y = MVPoly.var(VARS, "y")


def germ(*comps):
    return VectorFieldGerm(VARS, comps)


def test_ratio_in_q_plus():
    """A pair (p, q) of divisor axes is a corner witness iff lam_p != 0 and
    lam_q / lam_p is not a positive rational."""
    def witnessed(lam, mu):
        return (0, 1) in corner_witnesses({0: GaussRat.coerce(lam), 1: GaussRat.coerce(mu)})

    assert not witnessed(GaussRat(1), GaussRat(2))
    assert witnessed(GaussRat(1), GaussRat(-1))
    assert not witnessed(I, 2 * I)
    assert not witnessed(GaussRat(0), GaussRat(1))  # zero pivot
    assert witnessed(GaussRat(1), GaussRat(0))
    assert corner_witnesses({0: GaussRat(0), 1: GaussRat(1)}) == [(1, 0)]


def test_multiplicity():
    assert singularity_report(germ(X, Y)).multiplicity == 1
    assert singularity_report(germ(Y, X * X)).multiplicity == 1
    assert singularity_report(germ(X * X, Y**3)).multiplicity == 2
    with pytest.raises(FoliationError, match="germ is not singular at the origin"):
        singularity_report(parse_vector_field("v = d/dx + y d/dy"))


def test_reduced():
    assert singularity_report(germ(X, -1 * Y)).reduced
    rep = singularity_report(germ(Y, X * X))
    assert not rep.reduced and "nilpotent" in rep.notes[0]
    rep = singularity_report(germ(X * X, Y * Y))
    assert not rep.reduced and "multiplicity" in rep.notes[0]


def test_surface_types():
    assert singularity_report(germ(X, -1 * Y)).surface_type.kind == "non_degenerate"
    t = singularity_report(germ(X, Y**3)).surface_type
    assert t.kind == "degenerate" and t.k == 3
    assert singularity_report(germ(Y, X * X)).surface_type.kind == "unclassified"
    # saddle-node with the nonzero eigenvalue on the second axis
    t = singularity_report(germ(X * X, Y)).surface_type
    assert t.kind == "degenerate" and t.k == 2
    vs3 = ("x", "y", "z")
    rep = singularity_report(VectorFieldGerm(vs3, [MVPoly.var(vs3, n) for n in vs3]))
    assert rep.surface_type.kind == "not_applicable"


def test_one_report_runs_the_gate_once(monkeypatch):
    """The report reads its dicriticality off the multiplicity its gate
    returned: one singular test and one multiplicity per call."""
    gates, singular_tests = [], []
    gate, singular = classify._multiplicity, classify.is_singular_at_origin
    monkeypatch.setattr(classify, "_multiplicity", lambda v: gates.append(v) or gate(v))
    monkeypatch.setattr(classify, "is_singular_at_origin", lambda v: singular_tests.append(v) or singular(v))
    for text, divisor in [("v = (x + x^2) d/dx + (y + x*y) d/dy", None),
                          ("v = x d/dx - y d/dy", LogDivisor({0})),
                          ("v = x*y d/dx + x*y^2 d/dy", None),
                          ("v = x d/dx + y d/dy + 2*z d/dz", None)]:
        gates.clear()
        singular_tests.clear()
        singularity_report(parse_vector_field(text), divisor)
        assert len(gates) == 1 and len(singular_tests) == 1, text


def test_surface_type_matches_conjugation_reference():
    """The kernel-axis test gives the whole SurfaceType, note included, that
    the test on the fully conjugated field gives, on every germ of the seed
    0-3 Seidenberg towers; the escape notes name the same first monomial."""
    kinds = set()
    for v in seeded_tower_germs():
        got = singularity_report(v).surface_type
        assert got == reference_surface_type(v), v
        kinds.add(got.note.split(" ")[0] if got.kind == "unclassified" else got.kind)
    assert kinds == {"non_degenerate", "degenerate", "linear", "second", "monomial"}


@st.composite
def _saddle_nodes(draw):
    """Dim-2 germs with eigenvalues lam != 0 and 0, drawn in eigen-coordinates
    as (lam*x + h_1, h_2) with h_2(0, y) of order k = 2-4 and h_1 of degree
    2-4 (an escaping monomial y^j, j < k, or none), then moved to
    coordinates z = U^-1 w, U an invertible integer matrix."""
    small = st.integers(-2, 2)
    coeff = st.builds(GaussRat, small, st.integers(-1, 1))
    lam = draw(coeff.filter(lambda c: not c.is_zero()))
    k = draw(st.integers(2, 4))
    mons = [(i, d - i) for d in range(2, 5) for i in range(d + 1)]
    h1 = draw(st.dictionaries(st.sampled_from(mons), coeff, max_size=4))
    h2 = draw(st.dictionaries(st.sampled_from([e for e in mons if e[0] or e[1] > k]), coeff, max_size=4))
    h2[(0, k)] = draw(coeff.filter(lambda c: not c.is_zero()))
    h1[(1, 0)] = lam
    w = VectorFieldGerm(VARS, [MVPoly(VARS, h1), MVPoly(VARS, h2)])
    u = draw(st.lists(small, min_size=4, max_size=4).filter(lambda e: e[0] * e[3] != e[1] * e[2]))
    return conjugate_by(w, inverse(mat([u[:2], u[2:]])))


@settings(max_examples=100, deadline=None)
@given(_saddle_nodes())
@example(conjugate_by(germ(X + Y * Y, Y**3), inverse(mat([[1, 1], [1, -1]]))))
@example(parse_vector_field("v = (y^2) d/dx + (x + 2*y) d/dy"))  # first row zero: v_ker from the second
@example(parse_vector_field("v = (2*y + x^2) d/dx + (3*y) d/dy"))  # first column zero: v_lam is the second
def test_surface_type_matches_conjugation_reference_on_saddle_nodes(v):
    assert singularity_report(v).surface_type == reference_surface_type(v)


def test_classify_simple_examples():
    assert classify_simple(germ(X, -1 * Y), LogDivisor({0})).kind == "simple_point_B"
    assert classify_simple(germ(X * X, -1 * Y), LogDivisor({0})).kind == "simple_point_A"
    assert classify_simple(germ(X, 2 * Y), LogDivisor({0, 1})).kind == "not_simple"
    assert classify_simple(germ(X, I * Y), LogDivisor({0, 1})).kind == "simple_corner"
    with pytest.raises(FoliationError, match="no divisor axis through the origin"):
        classify_simple(germ(X, Y), LogDivisor.empty())
    # no multiplicity gate here: the zero field is not simple
    zero = germ(MVPoly.zero(VARS), MVPoly.zero(VARS))
    assert classify_simple(zero, LogDivisor({0})).kind == "not_simple"


def test_simple_type_b_with_irrational_others():
    # eigenvalues 1 and +-sqrt(2): not in Q(i), but no positive-rational
    # ratio with 1, so type (B) still certified exactly
    vs3 = ("x", "y", "z")
    x3, y3, z3 = (MVPoly.var(vs3, n) for n in vs3)
    v = VectorFieldGerm(vs3, (x3, 2 * z3, y3))
    assert isinstance(linalg.eigenvalues_exact(v.linear_part()), linalg.Indeterminate)
    status = classify_simple(v, LogDivisor({0}))
    assert status.kind == "simple_point_B"
    # eigenvalues 1 and roots of s^2 = 2 scaled: ratio sqrt(2) not rational
    w = VectorFieldGerm(vs3, (x3, y3 + z3, 2 * y3 + z3))  # block eigenvalues 1 +- sqrt 2... trace 2
    status = classify_simple(w, LogDivisor({0}))
    assert status.kind in ("simple_point_B", "not_simple")


_SPECTRUM = [GaussRat(a, b) for a, b in [(1, 0), (-1, 0), (2, 0), (0, 1), (1, 1)]]
_RATIOS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(3)]


@st.composite
def _one_axis_germs(draw):
    """(v, divisor, lam) in dims 2-4 with one invariant divisor axis j0:
    v_j0 = z_j0 (lam + terms of degree 1-2), lam != 0.  The other rows of
    the linear part are upper triangular half the time, with diagonal
    entries from lam*{1, 2, 1/2, -1, 3} and a small spectrum, so repeated
    lam and rational ratios are common; they also get terms of degree 2."""
    n = draw(st.integers(2, 4))
    names = ("x", "y", "z", "w")[:n]
    j0 = draw(st.integers(0, n - 1))
    lam = draw(st.sampled_from(_SPECTRUM))
    small = st.builds(GaussRat, st.integers(-2, 2), st.integers(-1, 1))
    diagonal = st.one_of(st.sampled_from([lam * q for q in _RATIOS] + _SPECTRUM), small)
    triangular = draw(st.booleans())

    def terms(low, high):
        exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: low <= sum(e) <= high)
        return MVPoly(names, draw(st.dictionaries(exps, small, max_size=3)))

    def unit(k):
        return tuple(int(i == k) for i in range(n))

    comps = []
    for i in range(n):
        if i == j0:
            comps.append(MVPoly.var(names, names[i]) * (terms(1, 2) + lam))
            continue
        row = {unit(k): draw(diagonal if k == i else small) for k in range(n) if not (triangular and k < i)}
        comps.append(MVPoly(names, row) + terms(2, 2))
    return VectorFieldGerm(names, comps), LogDivisor({j0}), lam


def _case(text, axis, lam):
    return parse_vector_field(text), LogDivisor({axis}), GaussRat.coerce(lam)


@settings(max_examples=150, deadline=None)
@given(_one_axis_germs())
def test_divisor_eigenvalue_is_a_root_of_the_char_poly(case):
    """Row j0 of the linear part is lam*e_j0, so lam is an eigenvalue."""
    v, divisor, lam = case
    assert classify.log_coefficients(v, divisor) == {min(divisor.axes): lam}
    assert unipoly.poly_eval(linalg.char_poly(v.linear_part()), lam).is_zero()


@settings(max_examples=150, deadline=None)
@given(_one_axis_germs())
@example(_case("v = x d/dx - y d/dy", 0, 1))  # simple_point_B
@example(_case("v = x d/dx + y^2 d/dy", 0, 1))  # simple_point_B, another eigenvalue 0
@example(_case("v = x d/dx + y d/dy", 0, 1))  # lam repeated
@example(_case("v = x d/dx + (x + y) d/dy", 0, 1))  # lam in a Jordan block
@example(_case("v = x d/dx + y d/dy + 3*z d/dz", 1, 1))  # lam repeated, another ratio 3
@example(_case("v = 2*x d/dx + (x + y) d/dy", 0, 2))  # ratio 1/2
@example(_case("v = i*x d/dx + 3*i*y d/dy", 0, GaussRat(0, 1)))  # ratio 3 on a Gaussian lam
@example(_case("v = x d/dx + 2*z d/dy + y d/dz", 0, 1))  # others +-sqrt(2), outside Q(i)
@example(_case("v = x d/dx + 2*z d/dy + 8*y d/dz", 0, 1))  # others +-4: ratio 4
def test_simple_status_matches_two_deflation_reference(case):
    v, divisor, lam = case
    cp = linalg.char_poly(v.linear_part())
    assert classify._simple_status(v, divisor, cp) == reference_simple_b_status(cp, lam)


def test_simple_status_deflates_once(monkeypatch):
    calls = []
    deflate = unipoly.deflate
    monkeypatch.setattr(unipoly, "deflate", lambda p, root: calls.append(root) or deflate(p, root))
    for text, kind in [("v = x d/dx - y d/dy + i*z d/dz", "simple_point_B"),
                       ("v = x d/dx + y d/dy - z d/dz", "not_simple"),  # 1 repeated
                       ("v = x d/dx + 2*z d/dy + 8*y d/dz", "not_simple")]:  # ratio 4
        calls.clear()
        assert classify_simple(parse_vector_field(text), LogDivisor({0})).kind == kind
        assert calls == [GaussRat(1)]


def test_dicriticality_fixtures():
    assert is_dicritical(germ(X, Y)) is True
    assert is_dicritical(germ(X, -1 * Y)) is False
    assert is_dicritical(germ(X, -2 * Y)) is False
    assert is_dicritical(germ(Y, -1 * X)) is False
    assert is_dicritical(germ(Y, X)) is False


def test_conjugation_invariance():
    rng = random.Random(3)
    germs = [germ(X, -1 * Y), germ(Y, X * X), germ(X * X, Y), germ(X, 2 * Y)]
    mats = [
        mat([[1, 1], [0, 1]]),
        mat([[2, 1], [1, 1]]),
        mat([[1, -2], [1, 3]]),
    ]
    for v in germs:
        rep = singularity_report(v)
        for p in mats:
            w = conjugate_by(v, p)
            rep2 = singularity_report(w)
            assert rep.multiplicity == rep2.multiplicity
            assert rep.reduced == rep2.reduced
            assert rep.dicritical == rep2.dicritical


def test_report_serialization():
    rep = singularity_report(germ(Y, X * X))
    doc = rep.to_jsonable()
    assert doc["multiplicity"] == 1
    assert doc["reduced"] is False
    assert doc["surface_type"]["kind"] == "unclassified"
    # non-invariant divisor degrades to a note, not an error
    rep = singularity_report(germ(Y, X * X), LogDivisor({1}))
    assert rep.simple_status is None and rep.notes


# -- is_dicritical against the one-blow-up definition ------------------------

VARS4 = ("x", "y", "z", "w")


def _dicritical_by_blowup(v):
    """Reference: blow up once and test E-invariance in every chart; the
    zero field has no multiplicity, so no blow-up of it is read."""
    if not is_singular_at_origin(v):
        raise FoliationError("germ is not singular at the origin")
    if v.dim() == 2 and milnor_number(v) == math.inf:
        raise FoliationError("singular locus is not isolated at the origin")
    if all(c.is_zero() for c in v.components):
        raise FoliationError("zero vector field has no multiplicity")
    for j in range(v.dim()):
        sat = blowup.transform_vector_field(v, j)
        if not sat.exceptional_invariant:
            return True
    return False


def _outcome(fn, v):
    try:
        return ("value", fn(v))
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


@st.composite
def _germs(draw):
    """Germs of dims 2-4 whose leading form has degree 1-3, half of them
    radial (h * z), plus terms of the next two degrees."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    variables = VARS4[:n]
    coeff = st.builds(GaussRat, st.integers(-2, 2), st.integers(-1, 1))

    def homogeneous(d):
        mons = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
        return MVPoly(variables, draw(st.dictionaries(st.sampled_from(mons), coeff, max_size=3)))

    if draw(st.booleans()):
        h = homogeneous(m - 1)
        lead = [h * MVPoly.var(variables, name) for name in variables]
    else:
        lead = [homogeneous(m) for _ in variables]
    return VectorFieldGerm(variables, [a + homogeneous(m + 1) + homogeneous(m + 2) for a in lead])


@settings(max_examples=150, deadline=None)
@given(_germs())
def test_is_dicritical_matches_one_blowup(v):
    assert _outcome(is_dicritical, v) == _outcome(_dicritical_by_blowup, v)


def test_is_dicritical_errors_match_one_blowup():
    vs3 = VARS4[:3]
    cases = [
        germ(MVPoly.zero(VARS), MVPoly.zero(VARS)),  # zero field
        VectorFieldGerm(vs3, [MVPoly.zero(vs3)] * 3),  # zero field, dim 3
        germ(MVPoly.const(VARS, 1), X),  # nonsingular
        germ(X * Y, Y * Y),  # dim 2, not isolated
        parse_vector_field("v = x^2 d/dx"),  # dim 1
    ]
    for v in cases:
        got = _outcome(is_dicritical, v)
        assert got[0] != "value"
        assert got == _outcome(_dicritical_by_blowup, v)


def test_is_dicritical_makes_no_blowup(monkeypatch):
    def no_blowup(*args, **kwargs):
        raise AssertionError("is_dicritical blew up")

    monkeypatch.setattr(blowup, "transform_vector_field", no_blowup)
    assert is_dicritical(germ(X * X + Y * Y * Y, X * Y)) is True
    assert is_dicritical(germ(X, -1 * Y)) is False


def test_seidenberg_terminal_dicritical_iff_scalar_linear_part():
    """A multiplicity-1 germ is dicritical iff its linear part is scalar, the
    test `seidenberg_terminal` makes: checked against `is_dicritical` on the
    roots of the seed 0-3 corpora and every singular point of their towers."""
    found = {True: 0, False: 0}
    for v in seeded_tower_germs():
        if not is_singular_at_origin(v) or (rep := singularity_report(v)).multiplicity != 1:
            continue
        lp = v.linear_part()
        scalar = lp == scalar_matrix(2, lp[0][0])
        assert is_dicritical(v) == scalar
        if rep.reduced:
            assert (classify.seidenberg_terminal(v) == "reduced but dicritical") == scalar
        found[scalar] += 1
    assert found[True] and found[False]
