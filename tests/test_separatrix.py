import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliationlab import linalg
from foliationlab.gaussrat import GaussRat, I
from foliationlab.mvpoly import MVPoly
from foliationlab.series import TruncatedSeries
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
from foliationlab.series import poly_eval_series

from helpers import inverse, mat, mat_mul, reference_formal_separatrix

VARS = ("x", "y")
X = MVPoly.var(VARS, "x")
Y = MVPoly.var(VARS, "y")


def germ(*comps):
    return VectorFieldGerm(VARS, comps)


def _axis_curve(order, axis=0):
    comps = [TruncatedSeries.zero(order), TruncatedSeries.zero(order)]
    comps[axis] = TruncatedSeries.t(order)
    return FormalCurve(VARS, tuple(comps), 0, GaussRat(1), order, math.inf)


def test_diagonal_axis_curve():
    v = germ(X, -1 * Y)
    d = direction_of_eigenvalue(v, GaussRat(1))
    fc = formal_separatrix(v, d, 6)
    assert fc.components[0].coeffs[1] == GaussRat(1)
    assert all(c.is_zero() for c in fc.components[1].coeffs)
    assert fc.residual_order is math.inf


def test_invariant_parabola():
    v = germ(X, -1 * Y + X * X)
    d = direction_of_eigenvalue(v, GaussRat(1))
    fc = formal_separatrix(v, d, 4)
    assert fc.components[1].coeffs[2] == GaussRat(Fraction(1, 3))
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
        a1 = poly_eval_series(v.components[0], list(fc.components))
        a2 = poly_eval_series(v.components[1], list(fc.components))
        a1, a2 = (TruncatedSeries(a.coeffs[:order], order - 1) for a in (a1, a2))
        wedge = fc.components[0].derivative() * a2 - fc.components[1].derivative() * a1
        val = wedge.valuation()
        assert val is math.inf or val >= order


def test_corner_confirmed_for_required_ratios():
    ratios = [GaussRat(-1), GaussRat(-2), GaussRat(Fraction(-1, 2)), I]
    for lam in ratios:
        v = germ(X, lam * Y)
        rep = corner_has_no_transverse_separatrix(v, LogDivisor({0, 1}), 8)
        assert rep.outcome == "confirmed"
        assert rep.ratio_witnesses


def test_corner_gate():
    v = germ(2 * X, 3 * Y)  # ratio 3/2 in Q+: not a corner
    with pytest.raises(NotACorner):
        corner_has_no_transverse_separatrix(v, LogDivisor({0, 1}), 6)


def test_lift_type_a():
    v = germ(X * X, -1 * Y)
    curve = _axis_curve(6, axis=0)
    res = separatrix_lift_check(v, LogDivisor({0}), curve, 6)
    assert res.outcome == "meets_simple_point"
    assert res.chart == 0
    assert res.status.kind == "simple_point_A"
    assert res.unique_simple


def test_lift_saddle_transverse():
    v = germ(X, -1 * Y)
    curve = _axis_curve(6, axis=1)
    res = separatrix_lift_check(v, LogDivisor({1}), curve, 6)
    assert res.outcome == "meets_simple_point"
    assert res.chart == 1


def test_lift_curve_in_divisor():
    v = germ(X, -1 * Y)
    curve = _axis_curve(6, axis=0)
    with pytest.raises(CurveInDivisor):
        separatrix_lift_check(v, LogDivisor({1}), curve, 6)


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
    assert fc.components[0].coeffs[1] == GaussRat(1)


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
