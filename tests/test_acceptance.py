"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import math
import time
from fractions import Fraction

from foliationlab.gaussrat import GaussRat, I
from foliationlab.mvpoly import MVPoly
from foliationlab.foliation import LogDivisor, VectorFieldGerm, translate_to_point
from foliationlab.monomial import MonomialIdeal, multiplier_ideal_trivial_monomial
from foliationlab import blowup, classify
from foliationlab.resolution import (
    multiplier_ideal_trivial_by_discrepancy,
    seidenberg_reduce,
    weakly_reduced_check,
)
from foliationlab.separatrix import (
    Resonance,
    corner_has_no_transverse_separatrix,
    direction_of_eigenvalue,
    formal_separatrix,
)
from foliationlab.corpus import oneform_corpus, seidenberg_corpus
from foliationlab.exprtree import Exp, Poly, t_expr
from foliationlab.quadrature import QuadConfig
from foliationlab import nevanlinna as nv

from helpers import coeffs, jensen_corpus, jordan_fixtures

VARS = ("x", "y")
X = MVPoly.var(VARS, "x")
Y = MVPoly.var(VARS, "y")


def germ(*comps):
    return VectorFieldGerm(VARS, comps)


def _report(n, name, detail=""):
    print("ACCEPTANCE %2d (%s): PASS %s" % (n, name, detail))


def test_criterion_1_seidenberg_corpus():
    t0 = time.time()
    corpus = seidenberg_corpus()
    for v in corpus:
        tower = seidenberg_reduce(v, max_depth=8)
        assert tower.status == "complete", (v.to_text(), tower.status, tower.reason)
        assert max((e.level + 1 for e in tower.events), default=0) <= 8
        for term in tower.terminals:
            assert term.reduced, (v.to_text(), term)
    elapsed = time.time() - t0
    assert elapsed < 60.0, "corpus runtime %.1fs exceeds 60s" % elapsed
    _report(1, "seidenberg corpus", "%d germs, %.1fs, depth <= 8" % (len(corpus), elapsed))


def test_criterion_2_simple_stability():
    fixtures = jordan_fixtures()
    assert len(fixtures) == 20
    for fx in fixtures:
        v, divisor = fx["germ"], fx["divisor"]
        root = classify.classify_simple(v, divisor)
        assert root.kind == fx["root_kind"], (fx["name"], root)
        found = []
        for sat, locus in blowup.blow_up(v, divisor):
            assert locus.complete, (fx["name"], sat.chart, locus.notes)
            assert not locus.clusters
            for pt in locus.points:
                child = translate_to_point(sat.saturated_field, pt)
                from foliationlab.foliation import divisor_at_point

                st = classify.classify_simple(child, divisor_at_point(sat.divisor, pt))
                assert all(c.is_zero() for c in pt), (fx["name"], "non-origin point on E")
                found.append((sat.chart + 1, st.kind))
        assert sorted(found) == sorted(fx["expected"]), (fx["name"], found, fx["expected"])
    _report(2, "simple-singularity stability", "20 Jordan fixtures, chart lists exact")


def test_criterion_3_dicriticality():
    assert classify.is_dicritical(germ(X, Y)) is True
    assert classify.is_dicritical(germ(X, -1 * Y)) is False
    assert classify.is_dicritical(germ(X, -2 * Y)) is False
    assert classify.is_dicritical(germ(Y, -1 * X)) is False
    assert classify.is_dicritical(germ(Y, X)) is False
    _report(3, "dicriticality fixtures", "exact, zero tolerance")


def _all_monomial_ideals_deg4():
    vecs = sorted((a, b) for a in range(5) for b in range(5 - a))

    out = []

    def incomparable(p, v):
        return not all(x <= y for x, y in zip(p, v)) and not all(y <= x for x, y in zip(p, v))

    def rec(idx, cur):
        if idx == len(vecs):
            if cur:
                out.append(tuple(cur))
            return
        rec(idx + 1, cur)
        v = vecs[idx]
        if all(incomparable(p, v) for p in cur):
            cur.append(v)
            rec(idx + 1, cur)
            cur.pop()

    rec(0, [])
    return out


def test_criterion_4_multiplier_oracle_equivalence():
    ideals = _all_monomial_ideals_deg4()
    for gens in ideals:
        ideal = MonomialIdeal(2, gens)
        howald = multiplier_ideal_trivial_monomial(ideal)
        ledger = multiplier_ideal_trivial_by_discrepancy(ideal)
        assert howald == ledger, gens
    assert multiplier_ideal_trivial_monomial(MonomialIdeal(2, [(1, 0), (0, 1)])) is True
    assert multiplier_ideal_trivial_monomial(MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])) is False
    assert multiplier_ideal_trivial_monomial(MonomialIdeal(2, [(2, 0), (0, 1)])) is True
    _report(4, "multiplier-ideal oracle equivalence",
            "%d monomial ideals (deg <= 4, exhaustive)" % len(ideals))


def test_criterion_5_weakly_reduced_certificates():
    cert = weakly_reduced_check(germ(X, -1 * Y))
    assert cert.verdict == "certified", cert.witness
    cert = weakly_reduced_check(germ(X, Y))
    assert cert.verdict == "refuted" and cert.failed_clause == 1
    assert any(s.s == 1 for s in cert.saturations)
    _report(5, "weakly-reduced certificates", "saddle certified, radial refuted (clause 1, s = 1)")


def test_criterion_6_siu_divisibility():
    failures = 0
    forms = oneform_corpus(500, seed=7)
    for variables, coeffs in forms:
        for j in range(len(variables)):
            try:
                pb = blowup.pullback_one_form(coeffs, j)
                assert pb.certified
            except blowup.InternalError:
                failures += 1
    assert failures == 0
    _report(6, "Siu pullback divisibility", "500 random 1-forms, dims 2-4, zero failures")


def test_criterion_7_diophantine_effectivity():
    for n in (2, 3):
        fact = math.factorial(n)
        alpha = blowup.ceil_nth_root(fact, n) + 1
        for k in range(1, 65):
            res = blowup.effectivity_count(n, k, alpha)
            assert isinstance(res, blowup.SectionExists), (n, k, alpha)
    for k in range(1, 17):
        assert blowup.exceptional_multiplicity(Y, [0] * k) == k
    _report(7, "diophantine effectivity", "n in {2,3}, k <= 64; tower multiplicity exact for k <= 16")


def test_criterion_8_separatrix_solver():
    v = germ(X, -1 * Y + X * X)
    fc = formal_separatrix(v, direction_of_eigenvalue(v, GaussRat(1)), 8)
    assert coeffs(fc.components[1])[2] == GaussRat(Fraction(1, 3))
    assert fc.residual_order >= 8

    v = germ(X, 2 * Y + X * X)
    res = formal_separatrix(v, direction_of_eigenvalue(v, GaussRat(1)), 8)
    assert isinstance(res, Resonance) and res.order == 2

    for lam in (GaussRat(-1), GaussRat(-2), GaussRat(Fraction(-1, 2)), I):
        rep = corner_has_no_transverse_separatrix(germ(X, lam * Y), LogDivisor({0, 1}))
        assert rep.outcome == "confirmed", (str(lam), rep)

    fixtures = [
        germ(X, -1 * Y),
        germ(X, -1 * Y + X * X),
        germ(X + Y * Y, -2 * Y),
        germ(2 * X, I * Y + X * Y),
    ]
    for v in fixtures:
        fc = formal_separatrix(v, direction_of_eigenvalue(v, v.linear_part()[0][0]), 8)
        assert not isinstance(fc, Resonance)
        assert fc.residual_order >= 8, (v.to_text(), fc.residual_order)
    _report(8, "separatrix solver",
            "1/3 exact; Resonance(2); corners confirmed for {-1,-2,-1/2,i}; residual >= 8")


def test_criterion_9_jensen_fmt_numerics():
    t0 = time.time()
    cfg = QuadConfig(tol=1e-9)
    corpus = jensen_corpus()
    assert len(corpus) == 20
    for coeffs, zeros in corpus:
        for rep in nv.jensen_verify(Poly(coeffs), zeros, (2.0, 5.0, 10.0), cfg):
            assert rep.residual <= 1e-6, (rep.residual, rep.r)
    fmt_cfg = QuadConfig(tol=1e-8)
    curve = nv.ParametrizedCurve((t_expr(), Poly([GaussRat(0), GaussRat(0), GaussRat(1)])),
                                 declared_zeros={"ideal": [(GaussRat(0), 1)]})
    grid = [2.0, 4.0, 8.0, 16.0, 32.0]
    rep = nv.fmt_verify(curve, [X, Y], curve.zeros_for("ideal"), grid, fmt_cfg)
    assert abs(rep.slope_vs_log_r) <= 0.05, rep.slope_vs_log_r
    ec = nv.ParametrizedCurve((Exp(t_expr()), Exp(Poly([GaussRat(0), GaussRat(2)]))))
    rep = nv.fmt_verify(ec, [X, Y], [], [4.0, 8.0, 16.0, 32.0], fmt_cfg)
    assert abs(rep.slope_vs_log_r) <= 0.05, rep.slope_vs_log_r
    c3 = nv.ParametrizedCurve((Poly([GaussRat(0), GaussRat(0), GaussRat(1)]),
                               Poly([GaussRat(0), GaussRat(0), GaussRat(0), GaussRat(1)])),
                              declared_zeros={"ideal": [(GaussRat(0), 2)]})
    rep = nv.fmt_verify(c3, [X, Y], c3.zeros_for("ideal"), grid, fmt_cfg)
    assert abs(rep.slope_vs_log_r) <= 0.05, rep.slope_vs_log_r
    elapsed = time.time() - t0
    assert elapsed < 120.0, "runtime %.1fs exceeds 120s" % elapsed
    _report(9, "Jensen/FMT numerics",
            "60 Jensen checks <= 1e-6; FMT slopes within +-0.05; %.1fs" % elapsed)


def test_criterion_10_multiplicity_bookkeeping():
    v = VectorFieldGerm(VARS, (X, 2 * Y))
    fixtures = [
        (nv.ParametrizedCurve((t_expr(), Poly([GaussRat(0), GaussRat(0), GaussRat(1)]))), (0, -1, 1)),
        (nv.ParametrizedCurve((Poly([GaussRat(0), GaussRat(0), GaussRat(1)]),
                               Poly([GaussRat(0)] * 4 + [GaussRat(1)]))), (1, -1, 2)),
        (nv.ParametrizedCurve((Exp(t_expr()), Exp(Poly([GaussRat(0), GaussRat(2)])))), (0, 0, 0)),
    ]
    for curve, expected in fixtures:
        bk = nv.multiplicity_bookkeeping(curve, v, GaussRat(0))
        assert (bk.mu, bk.eta, bk.nu) == expected
        assert bk.identity_holds and bk.eta_plus_nu_nonnegative
    _report(10, "multiplicity bookkeeping", "mu = eta + nu exact on all leaf fixtures")


def test_criterion_11_tautological_trend():
    t0 = time.time()
    grid = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    curve = nv.ParametrizedCurve((Exp(t_expr()),))
    rep = nv.tautological_pairing(curve, grid, QuadConfig(tol=1e-8))
    assert rep.applicable
    assert rep.trend is not None and rep.trend >= -1e-3, rep.trend
    assert not rep.violation
    alg = nv.tautological_pairing(nv.ParametrizedCurve((t_expr(),)), grid)
    assert not alg.applicable
    assert "algebraic" in alg.note
    _report(11, "tautological trend",
            "exp grid to 256: trend %.4f >= -1e-3; algebraic control NotApplicable (%.1fs)"
            % (rep.trend, time.time() - t0))
