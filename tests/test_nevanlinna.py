import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliationlab.gaussrat import GaussRat
from foliationlab.mvpoly import MVPoly
from foliationlab.foliation import VectorFieldGerm
from foliationlab.exprtree import Exp, Mul, Poly, t_expr
from foliationlab.quadrature import QuadConfig, nudge_radius
from foliationlab import nevanlinna as nv, unipoly
from helpers import FALSE_DECLARATIONS, coeffs, reference_horner, reference_jensen_verify

CFG = QuadConfig(tol=1e-9)
VARS = ("x", "y")
X = MVPoly.var(VARS, "x")
Y = MVPoly.var(VARS, "y")


def _poly(*coeffs):
    return Poly([GaussRat.coerce(c) for c in coeffs])


def test_exprtree_scaled_eval_no_overflow():
    import numpy as np

    g = Exp(_poly(0, 2))  # exp(2t)
    t = np.array([300.0 + 0j, -300.0 + 0j])
    la = g.logabs2(t)
    assert la[0] == pytest.approx(1200.0)
    assert la[1] == pytest.approx(-1200.0)
    s = g.series(5)[GaussRat(0)]
    assert coeffs(s)[3] == GaussRat(Fraction(8, 6))
    # exp(t + 1) = e^1 * exp(t): one group under the exp value 1
    assert Exp(_poly(1, 1)).series(3) == {GaussRat(1): unipoly.from_coeffs([1, 1, Fraction(1, 2), Fraction(1, 6)])}


def test_circle_average_log_examples():
    # the mean of log|g|^2 over |t| = r is Jensen's average_r
    rep, = nv.jensen_verify(t_expr(), [(GaussRat(0), 1)], [math.e], CFG)
    assert rep.average_r == pytest.approx(2.0, abs=1e-9)
    rep, = nv.jensen_verify(_poly(-1, 1), [(GaussRat(1), 1)], [3.0], CFG)
    assert rep.average_r == pytest.approx(2 * math.log(3), abs=1e-7)
    rep, = nv.jensen_verify(Exp(t_expr()), [], [5.0], CFG)
    assert rep.average_r == pytest.approx(0.0, abs=1e-9)
    # a radius on a declared zero's modulus is nudged off it
    rep, = nv.jensen_verify(_poly(-2, 1), [(GaussRat(2), 1)], [2.0], CFG)
    assert rep.r == nudge_radius(2.0, [2.0]) > 2.0


def test_nudge_radius():
    r = nudge_radius(2.0, [2.0])
    assert r > 2.0 and r - 2.0 < 1e-4


def test_counting_function():
    assert nv.counting_function([(GaussRat(Fraction(1, 2)), 1)], 1.0) == pytest.approx(math.log(2))
    assert nv.counting_function([], 9.0) == 0.0
    zeros = [(GaussRat(Fraction(1, 2)), 2), (GaussRat(Fraction(1, 4)), 1)]
    assert nv.counting_function(zeros, 1.0) == pytest.approx(4 * math.log(2))
    with pytest.raises(ValueError):
        nv.counting_function([], 0.5)


def test_counting_monotone_and_additive():
    zeros_a = [(GaussRat(Fraction(1, 2)), 1), (GaussRat(3), 2)]
    zeros_b = [(GaussRat(2, 1), 1)]
    rs = [1.0, 2.0, 4.0, 8.0]
    vals = [nv.counting_function(zeros_a, r) for r in rs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for r in rs:
        assert nv.counting_function(zeros_a + zeros_b, r) == pytest.approx(
            nv.counting_function(zeros_a, r) + nv.counting_function(zeros_b, r))


def test_jensen_examples():
    rep, = nv.jensen_verify(_poly(-2, 1), [(GaussRat(2), 1)], [4.0], CFG)
    assert rep.residual <= max(rep.quadrature_bound, 1e-9)
    rep, = nv.jensen_verify(_poly(7), [], [4.0], CFG)
    assert rep.residual <= 1e-12
    p = _poly(Fraction(3, 2), Fraction(-7, 2), 1)  # (t - 1/2)(t - 3)
    rep, = nv.jensen_verify(p, [(GaussRat(Fraction(1, 2)), 1), (GaussRat(3), 1)], [5.0], CFG)
    assert rep.residual <= max(rep.quadrature_bound, 1e-8)
    # zero inside the unit disk exercises the correction term
    rep, = nv.jensen_verify(p, [(GaussRat(Fraction(1, 2)), 1), (GaussRat(3), 1)], [2.0], CFG)
    assert rep.residual <= max(rep.quadrature_bound, 1e-8)
    assert rep.unit_disk_correction == pytest.approx(math.log(2))


@st.composite
def _polynomial_with_zeros_and_grid(draw):
    """(P, its zeros, radii): P = lead * prod (t - z)^nu over Gaussian-rational
    zeros, and a grid of radii >= 1, some of them on a zero's modulus."""
    parts = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    zeros = draw(st.dictionaries(st.builds(GaussRat, parts, parts), st.integers(1, 3), max_size=4))
    p = unipoly.from_coeffs([GaussRat(draw(st.sampled_from([1, -2, 7])), draw(st.sampled_from([0, 1])))])
    for z, nu in zeros.items():
        for _ in range(nu):
            p = unipoly.poly_mul(p, unipoly.from_coeffs([-z, 1]))
    on_zero = [float(z.abs2()) ** 0.5 for z in zeros if z.abs2() >= 1]
    radius = st.floats(1.0, 40.0) | (st.sampled_from(on_zero) if on_zero else st.just(1.0))
    return Poly(p), sorted(zeros.items(), key=lambda kv: str(kv[0])), draw(st.lists(radius, max_size=6))


@given(_polynomial_with_zeros_and_grid())
@settings(max_examples=30, deadline=None)
def test_jensen_over_a_grid_matches_one_radius_at_a_time(case):
    p, zeros, radii = case
    reports = nv.jensen_verify(p, zeros, radii, CFG)
    assert [rep.__dict__ for rep in reports] == [reference_jensen_verify(p, zeros, r, CFG).__dict__ for r in radii]


def test_jensen_integrates_the_unit_circle_once(monkeypatch, capsys):
    from foliationlab import cli
    from foliationlab.quadrature import circle_mean_arrays

    calls = []

    def counted(fn, radii, cfg):
        calls.append(list(radii))
        return circle_mean_arrays(fn, radii, cfg)

    monkeypatch.setattr(nv, "circle_mean_arrays", counted)
    reports = nv.jensen_verify(_poly(-1, 1), [(GaussRat(1), 1)], [1.0, 3.0, 9.0], CFG)
    one = nudge_radius(1.0, [1.0])
    assert calls == [[one, one, 3.0, 9.0]] and [rep.r for rep in reports] == [one, 3.0, 9.0]
    calls.clear()
    assert cli.main(["nevanlinna", "f(t) = (t - 2) zeros: f1 at 2", "--check", "jensen", "--radii", "4:16:3"]) == 0
    assert [len(radii) for radii in calls] == [4]  # the README example: 4 circles, the unit circle once
    capsys.readouterr()


def test_reports_hold_only_json_types():
    from foliationlab.dsl import parse_curve

    def walk(node):
        assert type(node) in (dict, list, str, int, float, bool, type(None)), type(node)
        for child in node.values() if type(node) is dict else node if type(node) is list else ():
            walk(child)

    radii = [2.0, 4.0, 8.0]
    for text in ("f(t) = (t, t^2) zeros: f1 at 0; ideal at 0 order 1", "f(t) = (exp(t), exp(2*t))"):
        curve = parse_curve(text)
        g = curve.components[0]
        for rep in (nv.characteristic_T(curve, "fs", radii, CFG),
                    *nv.jensen_verify(g, curve.zeros_for("f1"), radii, CFG),
                    nv.fmt_verify(curve, [X, Y], curve.zeros_for("ideal"), radii, CFG),
                    nv.tautological_pairing(curve, radii, CFG),
                    nv.log_derivative_check(g, curve.zeros_for("f1"), radii, CFG)):
            walk(rep.to_jsonable())


def test_fmt_refuses_a_grid_without_two_radii(capsys):
    from foliationlab import cli

    curve = nv.ParametrizedCurve((t_expr(), _poly(0, 0, 1)))
    for radii in ([4.0], [32.0], [4.0, 4.0]):
        with pytest.raises(ValueError, match="needs two distinct radii"):
            nv.fmt_verify(curve, [X, Y], [(GaussRat(0), 1)], radii, CFG)
    for text in ("f(t) = (t, t^2) zeros: ideal at 0 order 1", "f(t) = (exp(t), exp(2*t))"):
        assert cli.main(["nevanlinna", text, "--check", "fmt", "--ideal", "x, y", "--radii", "4:4:1"]) == 1
        out, err = capsys.readouterr()
        assert "needs two distinct radii" in err and not out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["f(t) = (t, t)", "f(t) = (exp(t), exp(t))"])
def test_fmt_refuses_an_ideal_that_vanishes_along_the_curve(capsys, text):
    """x - y vanishes identically on these curves, so m(r) would be +inf:
    fmt exits 1 before integrating, with nothing from numpy on stderr.  On
    (exp(t), exp(2t)) it vanishes to order 1 at 0 and is accepted."""
    from foliationlab import cli
    from foliationlab.exprtree import order_at

    argv = ["--check", "fmt", "--ideal", "x - y", "--radii", "2:4:2"]
    assert cli.main(["nevanlinna", text, *argv]) == 1
    out, err = capsys.readouterr()
    assert err == "error: the ideal vanishes along the curve to an order past 12 at t = 0, or identically\n"
    assert not out
    g = nv.ParametrizedCurve((Exp(t_expr()), Exp(_poly(0, 2))))
    assert order_at(g.components[0] - g.components[1], GaussRat(0), nv.ZERO_ORDER_CAP) == 1


def test_characteristic_T_closed_forms():
    curve = nv.ParametrizedCurve((t_expr(),))
    prof = nv.characteristic_T(curve, "fs", [2.0, 5.0, 10.0], CFG)
    for r, T in zip(prof.r_grid, prof.T):
        assert T == pytest.approx(0.5 * math.log(1 + r * r) - 0.5 * math.log(2), abs=2e-5)
    prof = nv.characteristic_T(nv.ParametrizedCurve((_poly(5),)), "fs", [2.0, 4.0], CFG)
    assert all(abs(v) < 1e-12 for v in prof.T)


def test_characteristic_growth_dichotomy():
    # algebraic: T/log r bounded; exponential: T linear on a doubling grid
    curve = nv.ParametrizedCurve((t_expr(), _poly(0, 0, 1)))
    rs = [4.0, 8.0, 16.0, 32.0]
    prof = nv.characteristic_T(curve, "fs", rs, QuadConfig(tol=1e-8))
    ratios = [T / math.log(r) for T, r in zip(prof.T, prof.r_grid)]
    assert max(ratios) - min(ratios) < 0.4
    ec = nv.ParametrizedCurve((Exp(t_expr()),))
    prof = nv.characteristic_T(ec, "fs", [8.0, 16.0, 32.0, 64.0, 128.0], QuadConfig(tol=1e-8))
    doubling = [b / a for a, b in zip(prof.T, prof.T[1:])]
    # T(r) = r/pi + O(log r): doubling ratios decrease toward 2
    assert all(a >= b - 1e-9 for a, b in zip(doubling, doubling[1:]))
    assert doubling[-1] == pytest.approx(2.0, rel=0.08)


def test_euclidean_form():
    curve = nv.ParametrizedCurve((t_expr(),))
    prof = nv.characteristic_T(curve, "euclid", [2.0, 4.0], CFG)
    # f* (euclidean) has density 1/pi |f'|^2 = 1/pi: A(t) = t^2, T = (r^2-1)/2
    for r, T in zip(prof.r_grid, prof.T):
        assert T == pytest.approx((r * r - 1) / 2.0, rel=1e-4)


def test_direction_map_density_by_lagrange_identity():
    import numpy as np

    # [t : t^2] = [1 : t] away from 0: the Fubini-Study density of P^1
    t = np.array([0.5 + 0.2j, 2.0, 10 + 3j, 1e-3, 200 - 100j])
    fs = 1.0 / (math.pi * (1.0 + np.abs(t) ** 2) ** 2)
    assert np.allclose(nv.direction_map_density([t_expr(), _poly(0, 0, 1)])(t), fs, rtol=1e-12, atol=0)
    assert not nv.direction_map_density([Exp(t_expr())])(t).any()
    # [t - 3 : (t - 3)^2] = [1 : t - 3] away from 3, so the density extends across 3
    s = np.array([1e-2, 1e-3j, 1e-4 + 1e-4j])
    dens = nv.direction_map_density([_poly(-3, 1), _poly(9, -6, 1)])(3.0 + s)
    assert np.allclose(dens, 1.0 / (math.pi * (1.0 + np.abs(s) ** 2) ** 2), rtol=1e-6, atol=0)


def test_fmt_trivial_ideal():
    curve = nv.ParametrizedCurve((t_expr(), _poly(0, 0, 1)))
    rep = nv.fmt_verify(curve, [MVPoly.const(VARS, 1)], [], [2.0, 4.0, 8.0], CFG)
    assert rep.passed
    assert all(n == 0 for n in rep.profile.N)


def test_bookkeeping_examples():
    curve = nv.ParametrizedCurve((t_expr(), _poly(0, 0, 1)))
    v = VectorFieldGerm(VARS, (X, 2 * Y))
    bk = nv.multiplicity_bookkeeping(curve, v, GaussRat(0))
    assert (bk.mu, bk.eta, bk.nu) == (0, -1, 1)
    assert bk.identity_holds and bk.eta_plus_nu_nonnegative
    ec = nv.ParametrizedCurve((Exp(t_expr()), Exp(_poly(0, 2))))
    bk = nv.multiplicity_bookkeeping(ec, v, GaussRat(0))
    assert (bk.mu, bk.eta, bk.nu) == (0, 0, 0) and bk.identity_holds
    c2 = nv.ParametrizedCurve((_poly(0, 0, 1), _poly(0, 0, 0, 0, 1)))
    bk = nv.multiplicity_bookkeeping(c2, v, GaussRat(0))
    assert (bk.mu, bk.eta, bk.nu) == (1, -1, 2) and bk.identity_holds
    with pytest.raises(nv.NotALeaf):
        nv.multiplicity_bookkeeping(curve, VectorFieldGerm(VARS, (Y, X)), GaussRat(0))


def test_taut_cross_check_exp():
    # the -mean log|f'|^2 term vanishes identically for exp (euclidean norm)
    rep, = nv.jensen_verify(Exp(t_expr()), [], [17.0], CFG)
    assert rep.average_r == pytest.approx(0.0, abs=1e-9)
    rep = nv.tautological_pairing(nv.ParametrizedCurve((Exp(t_expr()),)), [4.0, 8.0, 16.0], CFG)
    assert rep.applicable and not rep.violation


def test_taut_carries_T_bounds_and_divergence(capsys):
    import json

    from foliationlab import cli

    cli.main(["nevanlinna", "f(t) = (exp(t))", "--check", "taut", "--radii", "4:256:7"])
    rep = json.loads(capsys.readouterr().out)["result"]
    assert len(rep["error_bounds"]) == 7 and not any(rep["diverged"])
    curve = nv.ParametrizedCurve((Exp(t_expr()),))
    rep = nv.tautological_pairing(curve, [4.0 * 2 ** k for k in range(7)], QuadConfig(budget=1))
    assert len(rep.diverged) == 7 and all(rep.diverged)
    cli.main(["nevanlinna", "f(t) = (t)", "--check", "taut", "--radii", "4:8:2"])  # algebraic: no T profile
    rep = json.loads(capsys.readouterr().out)["result"]
    assert rep["error_bounds"] == rep["diverged"] == []


def test_logderiv_fixtures():
    rep = nv.log_derivative_check(Exp(t_expr()), [], [2.0, 4.0, 8.0], CFG)
    assert rep.passed and all(abs(v) < 1e-12 for v in rep.lhs)
    rep = nv.log_derivative_check(t_expr(), [(GaussRat(0), 1)], [2.0, 4.0], CFG)
    assert rep.passed
    rep = nv.log_derivative_check(Mul([t_expr(), Exp(t_expr())]), [(GaussRat(0), 1)],
                                  [2.0, 4.0, 8.0, 16.0], CFG)
    assert rep.passed


def test_declared_zero_verification():
    with pytest.raises(ValueError):
        nv.ParametrizedCurve((t_expr(),), declared_zeros={"f1": [(GaussRat(1), 1)]})
    with pytest.raises(ValueError):
        nv.ParametrizedCurve((_poly(0, 0, 1),), declared_zeros={"f1": [(GaussRat(0), 1)]})
    c = nv.ParametrizedCurve((_poly(0, 0, 1),), declared_zeros={"f1": [(GaussRat(0), 2)]})
    assert c.zeros_for("f1")
    # omitted orders are resolved, stated ones checked, by the curve for every target
    from foliationlab.dsl import parse_curve

    c = parse_curve("f(t) = (exp(t) - 1 - t, t^3) zeros: f1 at 0; f2 at 0; fprime at 0")
    assert c.declared_zeros == {"f1": [(GaussRat(0), 2)], "f2": [(GaussRat(0), 3)], "fprime": [(GaussRat(0), 1)]}
    assert parse_curve("f(t) = (t^3, 1) zeros: fprime at 0 order 2").zeros_for("fprime") == [(GaussRat(0), 2)]
    with pytest.raises(ValueError, match="declared zero of fprime at 0j has order 2, not 1"):
        parse_curve("f(t) = (t^3, 1) zeros: fprime at 0 order 1")
    with pytest.raises(ValueError, match="zero order required for target 'ideal'"):
        parse_curve("f(t) = (t, t^2) zeros: ideal at 0")
    with pytest.raises(ValueError, match="ideal at 0j has order 0; a zero has order >= 1"):
        parse_curve("f(t) = (t, t^2) zeros: ideal at 0 order 0")
    with pytest.raises(ValueError, match="unknown zero target 'g1'"):
        nv.ParametrizedCurve((t_expr(),), declared_zeros={"g1": [(GaussRat(0), 1)]})


def test_stated_and_omitted_orders_are_read_by_one_rule():
    from foliationlab.dsl import parse_curve

    # a true zero of a component with small coefficients, stated or omitted
    for decl in ("f1 at 2", "f1 at 2 order 1"):
        for scale in ("100000000", "1000000000000"):
            curve = parse_curve("f(t) = ((t - 2)/%s) zeros: %s" % (scale, decl))
            assert curve.zeros_for("f1") == [(GaussRat(2), 1)]
    assert parse_curve("f(t) = (t^12) zeros: f1 at 0 order 12").zeros_for("f1") == [(GaussRat(0), 12)]
    with pytest.raises(ValueError, match="has order 13, past the cap of 12 on zero orders"):
        parse_curve("f(t) = (t^13) zeros: f1 at 0 order 13")
    with pytest.raises(ValueError, match="has order past 12 or vanishes identically"):
        parse_curve("f(t) = (t^13) zeros: f1 at 0")
    with pytest.raises(ValueError, match="ideal at 0j has order 13, past the cap of 12"):
        nv.fmt_verify(nv.ParametrizedCurve((t_expr(), _poly(0, 1))), [X, Y], [(GaussRat(0), 13)], [2.0], CFG)


@st.composite
def _exp_polynomial_at_a_point(draw):
    """(text, (a, b, d)): a DSL sum of terms P(t)*exp(A(t)) and the point
    z = (a + b i)/d.  Factors (t - z)^m, exp arguments that agree at z and
    negated copies of a term with another argument make orders past 0 and
    cancelling groups common."""
    a, b, d = draw(st.integers(-2, 2)), draw(st.integers(-2, 2)), draw(st.integers(1, 3))
    z = "((%d + %d*i)/%d)" % (a, b, d)
    ints = st.integers(-3, 3)
    shared = "%d*t + %d*t^2" % (draw(ints), draw(ints))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        if terms and draw(st.booleans()):
            factor = "-(%s)" % terms[-1][0]
        else:
            factor = "(%d + %d*i*t)*(t - %s)^%d" % (draw(ints), draw(ints), z, draw(st.integers(0, 2)))
        arg = "%s + (t - %s)*(%d + %d*t)" % (shared, z, draw(ints), draw(ints))
        if draw(st.booleans()):
            arg = "%d*i*t + %d*t^2" % (draw(ints), draw(ints))
        terms.append((factor, arg))
    return " + ".join("%s*exp(%s)" % term for term in terms), (a, b, d)


@given(_exp_polynomial_at_a_point())
@example(("exp(2*t) - exp(t^2)", (2, 0, 1)))  # the exp values agree at 2: a simple zero
@example(("(exp(t) - exp(t^2))^3", (1, 0, 1)))
@example(("(exp(t) - exp(t^2))*(exp(2*t) - exp(t + t^2))", (1, 0, 1)))  # the factors' orders add
@example(("(t - 2)/1000000000000", (2, 0, 1)))
@settings(max_examples=40, deadline=None)
def test_order_at_matches_the_sympy_derivatives(case):
    sympy = pytest.importorskip("sympy")
    from foliationlab.dsl import parse_curve
    from foliationlab.exprtree import order_at

    text, (a, b, d) = case
    t, max_order = sympy.Symbol("t"), 6
    e = sympy.sympify(text.replace("^", "**"), locals={"i": sympy.I, "t": t})
    z = sympy.Rational(a, d) + sympy.I * sympy.Rational(b, d)
    want = next((k for k in range(max_order + 1) if sympy.expand(sympy.diff(e, t, k).subs(t, z)) != 0), math.inf)
    comp = parse_curve("f(t) = (%s)" % text).components[0]
    assert order_at(comp, GaussRat(Fraction(a, d), Fraction(b, d)), max_order) == want


@pytest.mark.parametrize("text, argv, target", FALSE_DECLARATIONS)
def test_false_declaration_is_refused_naming_its_target(text, argv, target):
    from foliationlab.dsl import parse_curve

    with pytest.raises(ValueError, match=target):
        curve = parse_curve(text)
        assert target == "ideal"  # the curve refuses every other target itself
        nv.fmt_verify(curve, [X, Y], curve.zeros_for("ideal"), [2.0, 4.0], CFG)


def test_fmt_refuses_a_false_ideal_zero_before_integrating(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr(nv, "characteristic_on_grid", no_quadrature)
    monkeypatch.setattr(nv, "circle_mean_arrays", no_quadrature)
    curve = nv.ParametrizedCurve((t_expr(), _poly(0, 0, 1)))
    for zeros, message in (([(GaussRat(10), 1)], "order 0, not 1"), ([(GaussRat(0), 2)], "order 1, not 2"),
                           ([(GaussRat(0), 0)], "order >= 1")):
        with pytest.raises(ValueError, match=message):
            nv.fmt_verify(curve, [X, Y], zeros, [2.0, 4.0], CFG)
    with pytest.raises(AssertionError, match="integrated"):  # a true zero gets as far as the quadrature
        nv.fmt_verify(curve, [X, Y], [(GaussRat(0), 1)], [2.0, 4.0], CFG)


@pytest.mark.filterwarnings("error")
def test_radii_past_the_float_range_read_diverged_without_a_warning():
    prof = nv.characteristic_T(nv.ParametrizedCurve((t_expr(),)), "fs", [1e200, 1e300], QuadConfig())
    assert prof.diverged == [True, True]


def test_softplus_large_argument_no_overflow_warning():
    import warnings

    import numpy as np

    x = np.array([1e6, 40.0, 0.0, -40.0, -1e6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = nv._softplus(x)
    assert out[0] == 1e6 and out[1] == 40.0
    assert out[2] == pytest.approx(math.log(2.0))
    assert out[3] == math.exp(-40.0) and out[4] == math.exp(-700.0)


def test_T_error_bounds_cover_budget_cuts():
    from foliationlab.dsl import parse_curve

    curve = parse_curve("f(t) = (exp(t))")
    radii = [4.0, 8.0, 16.0, 32.0, 64.0]
    ref = nv.characteristic_T(curve, "fs", radii, QuadConfig())
    assert not any(ref.diverged)
    for budget in (1, 300):
        prof = nv.characteristic_T(curve, "fs", radii, QuadConfig(budget=budget))
        assert all(prof.diverged)
        assert not any(math.isnan(b) for b in prof.bounds + ref.bounds)
        for T, b, T0, b0 in zip(prof.T, prof.bounds, ref.T, ref.bounds):
            assert abs(T - T0) <= b + b0



@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c", [1, Fraction(1, 1000), Fraction(1, 30), 5])
def test_T_closed_form_within_bound(c, d):
    # f = c t^d: A(t) = d |c|^2 t^2d / (1 + |c|^2 t^2d), so
    # T_fs(r) = (1/2) log((1 + |c|^2 r^2d) / (1 + |c|^2))
    curve = nv.ParametrizedCurve((_poly(*[0] * d, c),))
    radii = [2.0 ** k for k in range(1, 9)]
    prof = nv.characteristic_T(curve, "fs", radii, QuadConfig())
    c2 = float(c) ** 2
    assert not any(prof.diverged)
    for r, T, b in zip(radii, prof.T, prof.bounds):
        exact = 0.5 * (math.log1p(c2 * r ** (2 * d)) - math.log1p(c2))
        assert abs(T - exact) <= b, (r, T - exact, b)


@pytest.mark.parametrize("r", [1e8, 1e12])
def test_T_past_the_first_octaves_within_bound(r):
    # one segment [1, r] would put every Kronrod node where q is below 1e-16,
    # so that K - G read 0 and T half its value; octave breakpoints prevent it
    prof = nv.characteristic_T(nv.ParametrizedCurve((t_expr(),)), "fs", [r], QuadConfig())
    exact = 0.5 * math.log((1 + r * r) / 2)
    assert not prof.diverged[0] and abs(prof.T[0] - exact) <= prof.bounds[0], (prof.T[0] - exact, prof.bounds[0])


def test_T_budget_cut_within_bounds():
    # a profile cut short by QuadConfig.budget must still bound its error
    from foliationlab.dsl import parse_curve

    curve = parse_curve("f(t) = (t^3 - 2, t)")
    radii = [2.0 * 2 ** k for k in range(6)]  # 2:64:6
    ref = nv.characteristic_T(curve, "fs", radii, QuadConfig())
    cut = nv.characteristic_T(curve, "fs", radii, QuadConfig(budget=2000))
    assert all(cut.diverged) and not any(ref.diverged)
    for T, b, T0, b0 in zip(cut.T, cut.bounds, ref.T, ref.bounds):
        assert abs(T - T0) <= b + b0


def _exp_T_reference(a: float, radii):
    """T_fs(r) of exp(a t), |a| = a, by an independent route.  The density
    a^2 / (4 pi cosh^2(a x)) depends on one coordinate x only, so the area of
    |t| < rho is A(rho) = a^2 / (2 pi) int sqrt(rho^2 - x^2) sech^2(a x) dx,
    and T(r) = int_1^r A(rho) / rho d rho; both integrals by Gauss-Legendre."""
    import numpy as np

    x_in, w_in = np.polynomial.legendre.leggauss(800)
    x_out, w_out = np.polynomial.legendre.leggauss(30)

    def area(rho):
        cut = 25.0 / a  # sech^2 < e^-98 beyond
        if rho > cut:
            x = cut * x_in
            return a * a / (2 * math.pi) * cut * np.dot(w_in, np.sqrt(rho * rho - x * x) / np.cosh(a * x) ** 2)
        phi = 0.5 * math.pi * x_in  # x = rho sin(phi) takes out the square root
        vals = np.cos(phi) ** 2 / np.cosh(a * rho * np.sin(phi)) ** 2
        return a * a / (2 * math.pi) * rho * rho * 0.5 * math.pi * np.dot(w_in, vals)

    out, acc, lo = [], 0.0, 1.0
    for r in radii:
        mid, half = 0.5 * (lo + r), 0.5 * (r - lo)
        acc += half * sum(w * area(mid + half * x) / (mid + half * x) for x, w in zip(x_out, w_out))
        out.append(acc)
        lo = r
    return out


@pytest.mark.parametrize("text, a", [("f(t) = (exp(-i*t))", 1.0), ("f(t) = (exp(-2*t))", 2.0)])
def test_T_exp_within_bound(text, a):
    from foliationlab.dsl import parse_curve

    curve = parse_curve(text)
    radii = [4.0 * 2 ** k for k in range(7)]  # 4:256:7
    prof = nv.characteristic_T(curve, "fs", radii, QuadConfig())
    tight = nv.characteristic_T(curve, "fs", radii, QuadConfig(tol=1e-11))
    assert not any(prof.diverged) and not any(tight.diverged)
    for T, b, T0, ref in zip(prof.T, prof.bounds, tight.T, _exp_T_reference(a, radii)):
        assert abs(T - T0) <= b
        assert abs(T - ref) <= b


_small_gauss = st.builds(GaussRat, st.fractions(-3, 3, max_denominator=4), st.fractions(-3, 3, max_denominator=4))


@given(st.lists(_small_gauss, min_size=2, max_size=3).filter(lambda cs: not cs[-1].is_zero()),
       st.lists(st.complex_numbers(max_magnitude=400, allow_nan=False, allow_infinity=False), min_size=1, max_size=32))
@example([GaussRat(0), GaussRat(2)], [400, -400, 360, 180, 200j, 0.5 + 1j])  # |Re A| = 800, 720, 360: cosh^2 overflows
@example([GaussRat(1), GaussRat(0), GaussRat(0, 1)], [20 + 20j, 15 - 17j, 1j])  # A' = 2it vanishes at 0
@settings(max_examples=100, deadline=None)
def test_exp_term_matches_the_log_domain(coeffs, points):
    """|A'|^2 / (4 cosh^2 Re A) equals the log-domain FS term of e^A, with no
    warning past the float range of cosh."""
    import warnings

    import numpy as np

    a = Poly(coeffs)
    g = Exp(a)
    t = np.array(points, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nv._fs_term_exp(g, a.diff(), t)
        ref = nv._fs_term_log(g, g.diff(), t)
    big = ref > 1e-290
    assert np.all(np.abs(got[big] - ref[big]) <= 1e-11 * ref[big])
    assert np.all(got[~big] <= 1e-290)


@pytest.mark.parametrize("text", ["f(t) = (exp(t))", "f(t) = (exp(-2*t))"])
def test_T_of_a_bare_exp_takes_the_closed_form(monkeypatch, text):
    from foliationlab.dsl import parse_curve

    def log_domain(*args):
        raise AssertionError("log-domain FS term on a bare exp component")

    monkeypatch.setattr(nv, "_fs_term_log", log_domain)
    prof = nv.characteristic_T(parse_curve(text), "fs", [4.0 * 2 ** k for k in range(7)], QuadConfig())
    assert not any(prof.diverged)


def test_fmt_zero_on_a_grid_circle_converges():
    # the ideal zero at -3 lies between grid radii; no radial node may put a
    # circle through it
    from foliationlab.dsl import parse_curve

    curve = parse_curve("f(t) = (t + 3, (t + 3)^2) zeros: ideal at -3 order 1")
    radii = [2.0 * 2 ** k for k in range(5)]  # 2:32:5
    rep = nv.fmt_verify(curve, [X, Y], curve.zeros_for("ideal"), radii, QuadConfig())
    assert not any(rep.profile.diverged)
    assert rep.passed


def test_checks_carry_circle_bounds(monkeypatch):
    import numpy as np
    from foliationlab.quadrature import circle_mean_arrays

    def unconverged(fn, radii, cfg):  # m's circle means, each off by up to 1
        mean, bound, counts, converged = circle_mean_arrays(fn, radii, cfg)
        if fn.__name__ == "m_integrand":
            bound, converged = np.ones_like(bound), np.zeros_like(converged)
        return mean, bound, counts, converged

    ec = nv.ParametrizedCurve((Exp(t_expr()), Exp(_poly(0, 2))))
    radii = [4.0, 8.0, 16.0]
    rep = nv.fmt_verify(ec, [X, Y], [], radii, CFG)
    assert not any(rep.profile.diverged) and all(b < 1e-3 for b in rep.profile.bounds)
    monkeypatch.setattr(nv, "circle_mean_arrays", unconverged)
    rep = nv.fmt_verify(ec, [X, Y], [], radii, CFG)
    assert all(rep.profile.diverged) and all(b >= 1.0 for b in rep.profile.bounds)
    monkeypatch.undo()
    g = _poly(0, 0, 1)
    rep = nv.log_derivative_check(g, [(GaussRat(0), 2)], radii, CFG)
    _, bounds, _, _ = circle_mean_arrays(lambda t: np.maximum(0.0, 0.5 * (g.diff().logabs2(t) - g.logabs2(t))),
                                         radii, CFG)
    assert rep.error_bounds == bounds.tolist()
    assert rep.converged == [True] * 3
    assert {"error_bounds", "converged"} <= set(rep.to_jsonable())


def _serial_circle_mean(fn, r, cfg):
    """The one-circle trapezoid doubling loop that circle_mean_arrays batches,
    as (mean, error bound, evaluations, converged)."""
    import numpy as np
    from foliationlab.quadrature import MAX_CIRCLE_POINTS, MIN_CIRCLE_POINTS

    n = evals = MIN_CIRCLE_POINTS
    theta = 2.0 * math.pi * np.arange(n) / n
    mean = float(np.mean(fn(r * np.exp(1j * theta))))
    bound = math.inf
    while n < MAX_CIRCLE_POINTS and evals + n <= cfg.budget:
        theta_new = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        vals = fn(r * np.exp(1j * theta_new))
        evals += n
        mean_new = 0.5 * (mean + float(np.mean(vals)))
        bound, mean, n = abs(mean_new - mean), mean_new, 2 * n
        if bound <= cfg.tol * max(1.0, abs(mean)):
            return mean, bound, evals, True
    return mean, bound, evals, bound <= cfg.tol * max(1.0, abs(mean))


def test_circle_means_match_serial_doubling():
    import numpy as np
    from foliationlab.quadrature import CHUNK_POINTS, MAX_CIRCLE_POINTS, circle_mean_arrays

    z0 = 2.0 * np.exp(0.1j)  # a zero on |t| = 2, off every node
    sizes = []

    def log_dist(t):
        if t.ndim == 2:  # the serial reference passes 1-D arrays
            sizes.append(t.shape)
        return 2.0 * np.log(np.abs(t - z0))

    fs = nv.fs_sum_density([Exp(t_expr()), _poly(1, 0, 1)])
    cases = [
        (fs, list(np.linspace(0.25, 12.0, 150)), CFG),  # 150 rows: several arrays per pass
        (log_dist, [1.0, 2.0, 4.0, 0.5], CFG),  # r = 2 runs to the cap, the rest stop at 128
        (fs, [0.5, 3.0, 9.0], QuadConfig(tol=1e-14, budget=300)),
        (fs, [7.5], CFG),
        (lambda t: 1e6 + log_dist(t), [2.05, 2.5, 4.0], CFG),  # |mean| > 1 scales the stopping test
    ]
    for fn, radii, cfg in cases:
        got = list(zip(*(a.tolist() for a in circle_mean_arrays(fn, radii, cfg))))
        assert len(got) == len(radii)
        for r, (mean, bound, evals, converged) in zip(radii, got):
            ref_mean, ref_bound, ref_evals, ref_converged = _serial_circle_mean(fn, r, cfg)
            assert (evals, converged) == (ref_evals, ref_converged)
            for a, b in ((mean, ref_mean), (bound, ref_bound)):
                assert a == b or math.isclose(a, b, rel_tol=1e-13)
    assert circle_mean_arrays(log_dist, [1.0, 2.0, 4.0], CFG)[2].tolist() == [128, MAX_CIRCLE_POINTS, 128]
    assert max(rows * cols for rows, cols in sizes) == MAX_CIRCLE_POINTS // 2
    assert all(rows * cols <= CHUNK_POINTS for rows, cols in sizes if rows > 1)
    _, _, evals, converged = circle_mean_arrays(fs, [0.5, 3.0, 9.0], QuadConfig(tol=1e-14, budget=300))
    assert list(zip(evals.tolist(), converged.tolist())) == [(128, True), (256, True), (256, False)]


def test_logabs2_matches_scaled_evaluation():
    import numpy as np
    from foliationlab.exprtree import Add, Pow

    t = np.array([[2.0, 0.0, -1.0 + 0j], [256.0, -256.0, 256j]])  # 2-D input
    t = np.concatenate([t, 3.0 * np.exp(2j * math.pi * np.arange(6) / 6).reshape(2, 3)])
    p = _poly(-2, 1)  # zero at t = 2
    exprs = [
        p,
        Poly([]),
        Exp(_poly(0, 2)),  # exp(2t): |value| = e^512 at t = 256
        Mul([Exp(t_expr()), Pow(p, 3)]),
        Pow(_poly(0, 0, 1), 2),
        Add([Exp(t_expr()), _poly(-1)]),  # exp(0) - 1 = 0
    ]
    with np.errstate(over="raise"):
        for e in exprs:
            got = e.logabs2(t)
            assert got.shape == t.shape
            assert np.array_equal(got, 2.0 * e.eval_scaled(t)[0])
        assert Exp(_poly(0, 2)).logabs2(t)[1, 0] == 1024.0
    for e in (p, exprs[3], exprs[4], exprs[5]):
        la = e.logabs2(t)
        assert np.isneginf(la).any() and np.isfinite(la).any()


_qi_coeff = st.builds(GaussRat, st.fractions(-50, 50, max_denominator=9), st.fractions(-50, 50, max_denominator=9))


@given(st.lists(_qi_coeff, min_size=1, max_size=9),
       st.sampled_from([(1,), (2,), (7,), (1, 1), (1, 3), (4, 1), (3, 5)]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_horner_is_bit_for_bit_the_full_array_start(coeffs, shape, data):
    """Starting Horner from lead * t gives the bits of starting from an
    array of the leading coefficient, on 1-D and 2-D arrays of two points or
    more.  On one point numpy rounds the in-place product without the fused
    multiply-add of its vector loop, so there the two agree to the Horner
    error bound."""
    import numpy as np

    points = data.draw(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                                min_size=math.prod(shape), max_size=math.prod(shape)))
    p = Poly(coeffs)
    t = np.array(points, dtype=complex).reshape(shape)
    got, ref = p.eval_plain(t), reference_horner(p, t)
    assert got.shape == ref.shape == t.shape
    if t.size > 1:
        assert np.array_equal(got.view(np.float64), ref.view(np.float64))
    else:
        scale = sum(abs(c) * np.abs(t) ** k for k, c in enumerate(reversed(p.horner)))
        assert np.all(np.abs(got - ref) <= 8 * len(p.horner) * np.finfo(float).eps * scale)


def test_folding_rules():
    from foliationlab.exprtree import Add, add, mul, power

    e, e2 = Exp(t_expr()), Exp(_poly(0, 2))
    assert mul([_poly(2), e, _poly()]).coeffs == unipoly.ZERO_POLY and mul([_poly(1), e]) is e
    assert add([_poly(), e]) is e
    assert power(e, 0).coeffs == unipoly.ONE_POLY and power(e, 1) is e
    assert power(_poly(1, 1), 2).coeffs == unipoly.from_coeffs([1, 2, 1])
    s = add([e, _poly(1), e2, _poly(-1, 1), Mul([e, e2])])  # the polys fold at the place of the first
    assert isinstance(s, Add) and [type(c) for c in s.children] == [Exp, Poly, Exp, Mul]
    assert s.children[1].coeffs == unipoly.from_coeffs([0, 1]) and s.children[3].children == (e, e2)
    assert mul([]).coeffs == unipoly.ONE_POLY and add([]).coeffs == unipoly.ZERO_POLY


def test_polynomial_composition_folds_to_poly():
    from foliationlab.exprtree import expr_from_mvpoly

    comps = (_poly(1, 1), _poly(0, 0, 1))  # (t + 1, t^2)
    p = X**2 * 3 - X * Y + Y + 5
    g = expr_from_mvpoly(p, comps)
    assert isinstance(g, Poly) and isinstance(g.diff(), Poly)
    # 3 (t + 1)^2 - (t + 1) t^2 + t^2 + 5 = 8 + 6t + 3t^2 - t^3
    assert g.coeffs == unipoly.from_coeffs([8, 6, 3, -1])
    assert isinstance(expr_from_mvpoly(X, comps), Poly) and expr_from_mvpoly(Y - Y, comps).coeffs == unipoly.ZERO_POLY
    # an exp component keeps its node, without a unit factor or a zero term
    e = expr_from_mvpoly(Y, (t_expr(), Exp(t_expr())))
    assert isinstance(e, Exp) and isinstance(e.diff(), Exp)


def test_fmt_on_a_polynomial_curve_takes_the_direct_path(monkeypatch):
    """The README FMT example: the composed generators are Polys, so the
    log-domain FS term never runs, and T, m and the bounds agree with the
    unfolded trees within the reported bounds."""
    from foliationlab import exprtree
    from foliationlab.dsl import parse_curve
    from foliationlab.exprtree import Add, Pow, const_expr

    curve = parse_curve("f(t) = (t, t^2) zeros: ideal at 0 order 1")
    radii = [2.0 * 2 ** k for k in range(5)]  # 2:32:5

    def log_domain(*args):
        raise AssertionError("log-domain FS term on a polynomial curve")

    with monkeypatch.context() as m:
        m.setattr(nv, "_fs_term_log", log_domain)
        rep = nv.fmt_verify(curve, [X, Y], curve.zeros_for("ideal"), radii, QuadConfig())
    with monkeypatch.context() as m:  # the trees as the node classes build them, nothing folded
        m.setattr(exprtree, "add", Add)
        m.setattr(exprtree, "mul", Mul)  # Pow takes k >= 2: b^1 and b^0 are the Mul of one b or of 1
        m.setattr(exprtree, "power", lambda b, k: Pow(b, k) if k >= 2 else Mul([b] * k or [const_expr(1)]))
        raw = nv.fmt_verify(curve, [X, Y], curve.zeros_for("ideal"), radii, QuadConfig())
    assert rep.passed and raw.passed and not any(rep.profile.diverged)
    fold, ref = rep.profile, raw.profile
    for i in range(len(radii)):
        tol = fold.bounds[i] + ref.bounds[i]
        assert abs(fold.T[i] - ref.T[i]) <= tol and abs(fold.m[i] - ref.m[i]) <= tol
        assert abs(fold.bounds[i] - ref.bounds[i]) <= tol
