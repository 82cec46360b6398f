import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliationlab import linalg, unipoly
from foliationlab.classify import classify_simple
from foliationlab.dsl import parse_divisor, parse_vector_field
from foliationlab.gaussrat import GaussRat, I
from foliationlab.mvpoly import MVPoly
from foliationlab.foliation import LogDivisor, VectorFieldGerm
from foliationlab.separatrix import (
    CurveInDivisor,
    FormalCurve,
    NotACorner,
    Resonance,
    ZeroEigenvalueDirection,
    corner_has_no_transverse_separatrix,
    direction_of_eigenvalue,
    formal_separatrix,
    separatrix_lift_check,
)

from helpers import coeffs, inverse, mat, mat_mul, reference_corner_report, reference_formal_separatrix

VARS = ("x", "y")
X = MVPoly.var(VARS, "x")
Y = MVPoly.var(VARS, "y")


def germ(*comps):
    return VectorFieldGerm(VARS, comps)


def _axis_curve(order, axis=0):
    comps = [unipoly.ZERO_POLY, unipoly.ZERO_POLY]
    comps[axis] = unipoly.from_coeffs([0, 1])
    return FormalCurve(VARS, tuple(comps), 0, GaussRat(1), order, math.inf)


def test_diagonal_axis_curve():
    v = germ(X, -1 * Y)
    d = direction_of_eigenvalue(v, GaussRat(1))
    fc = formal_separatrix(v, d, 6)
    assert coeffs(fc.components[0])[1] == GaussRat(1)
    assert fc.components[1] == unipoly.ZERO_POLY
    assert fc.residual_order is math.inf


def test_invariant_parabola():
    v = germ(X, -1 * Y + X * X)
    d = direction_of_eigenvalue(v, GaussRat(1))
    fc = formal_separatrix(v, d, 4)
    assert coeffs(fc.components[1])[2] == GaussRat(Fraction(1, 3))
    assert fc.residual_order >= 4


def test_resonance_detected():
    v = germ(X, 2 * Y + X * X)
    d = direction_of_eigenvalue(v, GaussRat(1))
    r = formal_separatrix(v, d, 4)
    assert isinstance(r, Resonance) and r.order == 2


def test_zero_direction_rejected():
    v = germ(X * X, -1 * Y)
    with pytest.raises(ZeroEigenvalueDirection):
        formal_separatrix(v, direction_of_eigenvalue(v, GaussRat(0)), 4)


def test_residual_certification():
    """Substituting the curve into the tangency equations vanishes to >= N."""
    v = germ(X, -1 * Y + X * X)
    d = direction_of_eigenvalue(v, GaussRat(1))
    for order in (4, 6, 8):
        fc = formal_separatrix(v, d, order)
        assert all(unipoly.degree(c) <= order for c in fc.components)
        f = [MVPoly(("t",), {(k,): c for k, c in enumerate(coeffs(comp))}) for comp in fc.components]
        a1, a2 = (a.subs(f) for a in v.components)
        wedge = f[0].derivative(0) * a2 - f[1].derivative(0) * a1
        assert wedge.vanishing_order() >= order


def test_corner_confirmed_for_required_ratios():
    ratios = [GaussRat(-1), GaussRat(-2), GaussRat(Fraction(-1, 2)), I]
    for lam in ratios:
        v = germ(X, lam * Y)
        rep = corner_has_no_transverse_separatrix(v, LogDivisor({0, 1}))
        assert rep.outcome == "confirmed"
        assert rep.ratio_witnesses


def test_corner_gate():
    v = germ(2 * X, 3 * Y)  # ratio 3/2 in Q+: not a corner
    with pytest.raises(NotACorner):
        corner_has_no_transverse_separatrix(v, LogDivisor({0, 1}))


def test_lift_type_a():
    v = germ(X * X, -1 * Y)
    curve = _axis_curve(6, axis=0)
    res = separatrix_lift_check(v, LogDivisor({0}), curve)
    assert res.outcome == "meets_simple_point"
    assert res.chart == 0
    assert res.status.kind == "simple_point_A"
    assert res.unique_simple


def test_lift_saddle_transverse():
    v = germ(X, -1 * Y)
    curve = _axis_curve(6, axis=1)
    res = separatrix_lift_check(v, LogDivisor({1}), curve)
    assert res.outcome == "meets_simple_point"
    assert res.chart == 1


def test_lift_curve_in_divisor():
    v = germ(X, -1 * Y)
    curve = _axis_curve(6, axis=0)
    with pytest.raises(CurveInDivisor):
        separatrix_lift_check(v, LogDivisor({1}), curve)


def test_nonresonant_solvability():
    """Whenever k*1 - lambda_i never vanishes for 2 <= k <= N, the solver
    succeeds (matches the Q+ exclusions)."""
    for lam in (GaussRat(-1), GaussRat(-3), GaussRat(Fraction(-5, 2)), I, GaussRat(0, -2)):
        v = germ(X + Y * Y, lam * Y + X * Y)
        d = direction_of_eigenvalue(v, GaussRat(1))
        fc = formal_separatrix(v, d, 8)
        assert isinstance(fc, FormalCurve)
        assert fc.residual_order >= 8


def test_jordan_block_dim3():
    vs3 = ("x", "y", "z")
    x3, y3, z3 = (MVPoly.var(vs3, n) for n in vs3)
    v = VectorFieldGerm(vs3, (x3, -1 * y3 + z3, -1 * z3))
    fc = formal_separatrix(v, direction_of_eigenvalue(v, GaussRat(1)), 6)
    assert isinstance(fc, FormalCurve)
    assert coeffs(fc.components[0])[1] == GaussRat(1)


_VS3 = ("x", "y", "z")
_X3, _Y3, _Z3 = (MVPoly.var(_VS3, n) for n in _VS3)

# Full to_jsonable() records of three solves, recorded before the graph-gauge
# curve moved onto MVPoly: a dense non-polynomial curve with a finite
# residual order, a dim-3 curve, and a resonance obstruction.
PINNED = [
    (germ(X + Y * Y, -2 * Y + X * X + X * Y), 24, {
        "variables": ["x", "y"],
        "components": [
            ["0", "1"] + ["0"] * 23,
            ["0", "0", "1/4", "1/20", "1/120", "-11/3360", "-169/53760", "-1103/806400",
             "-3581/20160000", "358627/1774080000", "7837499/42577920000",
             "291308461/3874590720000", "1951290569/542442700800000",
             "-270450921889/14793891840000000", "-74043533189533/5207449927680000000",
             "-150081307096031/29508882923520000000", "25909157918417/59017765847040000000",
             "433760591800703/236071063388160000000",
             "18337549172943485321/14872476993454080000000000",
             "137852420990705860259/381726909498654720000000000",
             "-16362993619930648200593/151163856161467269120000000000",
             "-74762344942958260638619/386307632412638576640000000000",
             "-23456258298262948328986897/208606121502824831385600000000000",
             "-1179077997095410884783196961/48426421063155764428800000000000000",
             "54821181475242744871127833247/3204948593997945136742400000000000000"],
        ],
        "tangent_direction": 1, "eigenvalue": "1", "truncation_order": 24, "residual_order": 25,
    }),
    (VectorFieldGerm(_VS3, (_X3, -1 * _Y3 + _Z3 + _X3 * _X3, -1 * _Z3 + _X3 * _Y3)), 10, {
        "variables": ["x", "y", "z"],
        "components": [
            ["0", "1"] + ["0"] * 9,
            ["0", "0", "1/3", "1/48", "1/1200", "1/43200", "1/2116800", "1/135475200",
             "1/10973491200", "1/1097349120000", "1/132779243520000"],
            ["0", "0", "0", "1/12", "1/240", "1/7200", "1/302400", "1/16934400",
             "1/1219276800", "1/109734912000", "1/12070840320000"],
        ],
        "tangent_direction": 2, "eigenvalue": "1", "truncation_order": 10, "residual_order": 11,
    }),
    (germ(X, 3 * Y + X * X * X + X * Y), 6, {"resonance_order": 3, "obstruction": ["-1"]}),
]


@pytest.mark.parametrize("v, order, expected", PINNED, ids=["dense_dim2", "dim3", "resonance"])
def test_pinned_to_jsonable(v, order, expected):
    result = formal_separatrix(v, direction_of_eigenvalue(v, GaussRat(1)), order)
    assert result.to_jsonable() == expected


_SPECTRUM = st.sampled_from([GaussRat(a, b) for a, b in
                             [(1, 0), (-1, 0), (2, 0), (3, 0), (-2, 0), (0, 1), (0, -1), (1, 1), (0, 0)]])
_COEFF = st.builds(lambda re, im, d: GaussRat(Fraction(re, d), im), st.integers(-2, 2), st.integers(-1, 1),
                   st.sampled_from([1, 1, 2, 3]))


@st.composite
def _qi_spectrum_germs(draw):
    """A germ of dim 2-4 whose linear part U T U^-1 has its spectrum (the
    diagonal of the upper triangular T, repeats and resonant pairs
    included) in Q(i); U is unitriangular lower times upper, so the
    eigenvectors have no fixed support.  Plus terms of degree 2-3."""
    n = draw(st.integers(2, 4))
    names = ("x", "y", "z", "w")[:n]
    small = st.integers(-1, 1)
    t = [[draw(_SPECTRUM) if i == j else GaussRat(draw(small)) if j > i else GaussRat(0) for j in range(n)]
         for i in range(n)]
    lower = [[1 if i == j else draw(small) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else draw(small) if j > i else 0 for j in range(n)] for i in range(n)]
    u = mat_mul(mat(lower), mat(upper))
    lin = mat_mul(mat_mul(u, mat(t)), inverse(u))
    comps = []
    for i in range(n):
        terms = {tuple(int(k == j) for k in range(n)): lin[i][j] for j in range(n)}
        for _ in range(draw(st.integers(0, 3))):
            exp = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
            if 2 <= sum(exp) <= 3:
                terms[exp] = draw(_COEFF)
        comps.append(MVPoly(names, terms))
    return VectorFieldGerm(names, comps)


def _outcome(solve, v, direction, order):
    try:
        return solve(v, direction, order).to_jsonable()
    except Exception as exc:  # the exception itself is part of the contract
        return type(exc).__name__, str(exc)


@settings(max_examples=60, deadline=None)
@given(_qi_spectrum_germs(), st.integers(2, 6))
@example(germ(X, 2 * Y + X * X), 4)
@example(germ(X, 3 * Y + X * X * X + X * Y), 6)
@example(VectorFieldGerm(_VS3, (_X3, -1 * _Y3 + _Z3 + _X3 * _X3, -1 * _Z3 + _X3 * _Y3)), 6)
def test_formal_separatrix_matches_graph_gauge_reference(v, order):
    """Solving in the original coordinates gives the same curve, residual
    order, resonance obstruction or error as the graph-gauge solver behind
    a full linear change of coordinates, on every eigendirection."""
    ev = linalg.eigenvalues_exact(v.linear_part())
    assert not isinstance(ev, linalg.Indeterminate)
    for d in range(len(ev)):
        assert _outcome(formal_separatrix, v, d, order) == _outcome(reference_formal_separatrix, v, d, order)


_AXIS_SPECTRUM = st.sampled_from([GaussRat(a, b) for a, b in [(1, 0), (-1, 0), (2, 0), (0, 1), (1, 1), (0, 0)]])


@st.composite
def _log_germs(draw, min_axes):
    """(v, divisor) in dims 2-4 with `min_axes` or more divisor axes.  On an
    axis j the component is z_j (lambda_j + terms of degree 1-2), lambda_j
    from a small spectrum so that axes share eigenvalues; off the axes it
    has terms of degree 1-2.  The axes are invariant and v is singular."""
    n = draw(st.integers(2, 4))
    names = ("x", "y", "z", "w")[:n]
    axes = draw(st.sets(st.integers(0, n - 1), min_size=min_axes))

    def terms(low):
        exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: low <= sum(e) <= 2)
        return MVPoly(names, draw(st.dictionaries(exps, _COEFF, max_size=3)))

    comps = [MVPoly.var(names, names[i]) * (terms(1) + draw(_AXIS_SPECTRUM)) if i in axes else terms(1)
             for i in range(n)]
    return VectorFieldGerm(names, comps), LogDivisor(axes)


# dim 4, eigenvalues 1, -1 and +-sqrt(2) outside Q(i): the report keeps its note
_DIM4_NOTE = parse_vector_field("v = x d/dx - y d/dy + (z + w) d/dz + (z - w) d/dw")
_DIM4_NOTE_CASE = (_DIM4_NOTE, parse_divisor("{x, y}", _DIM4_NOTE.variables))
_VS3_CORNER = VectorFieldGerm(_VS3, (_X3, -1 * _Y3, _Z3 + _X3 * _Z3))


@given(_log_germs(1))
@example((germ(X * X, -1 * Y), LogDivisor({0})))  # simple_point_A
@example((_VS3_CORNER, LogDivisor({1})))  # simple_point_B
@settings(max_examples=150, deadline=None)
def test_simple_points_have_one_divisor_axis(case):
    """`classify_simple` calls a germ a simple point only with one divisor
    axis.  `separatrix_lift_check` checks that the curve's component on
    that axis is finite, so the curve always has a finite component."""
    v, divisor = case
    if classify_simple(v, divisor).kind in ("simple_point_A", "simple_point_B"):
        assert divisor.axis_count() == 1


@given(_log_germs(2))
@example((_VS3_CORNER, LogDivisor({0, 1, 2})))  # eigenvalue 1 on axes x and z
@settings(max_examples=120, deadline=None)
def test_no_corner_eigenvector_is_nonzero_on_every_axis(case):
    """Camacho-Sad: a simple corner has no eigendirection transverse to its
    divisor.  Row j of the linear part is lambda_j e_j on an axis j, so an
    eigenvector nonzero there has eigenvalue lambda_j."""
    v, divisor = case
    if classify_simple(v, divisor).kind != "simple_corner":
        return
    lp = v.linear_part()
    for lam in unipoly.gaussian_rational_roots(linalg.char_poly(lp)).roots:
        for vec in linalg.eigenspace(lp, lam):
            assert any(vec[j].is_zero() for j in divisor.axes)
            assert all(lp[j][j] == lam for j in divisor.axes if not vec[j].is_zero())


@given(_log_germs(2))
@example((_VS3_CORNER, LogDivisor({0, 1, 2})))
@settings(max_examples=120, deadline=None)
def test_corner_report_matches_eigendirection_reference(case):
    """The corner report without eigendirection attempts writes the same
    JSON as the reference that tries every eigendirection, or raises the
    same NotACorner."""
    v, divisor = case
    try:
        want = reference_corner_report(v, divisor, 6).to_jsonable()
    except NotACorner as exc:
        with pytest.raises(NotACorner, match=str(exc)):
            corner_has_no_transverse_separatrix(v, divisor)
        return
    got = corner_has_no_transverse_separatrix(v, divisor).to_jsonable()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert got["outcome"] == "confirmed" and got["attempts"] == []


def test_corner_report_keeps_the_note_outside_Q_i():
    """A dim-4 corner whose spectrum leaves Q(i) keeps its note, and its
    report equals the reference's."""
    rep = corner_has_no_transverse_separatrix(*_DIM4_NOTE_CASE)
    assert rep.notes == ["eigenvalues outside Q(i): eigendirection attempts skipped"]
    assert rep.to_jsonable() == reference_corner_report(*_DIM4_NOTE_CASE, 8).to_jsonable()
