"""Cross-module invariants from the design contracts."""

import json

from foliationlab.gaussrat import GaussRat, I
from foliationlab.mvpoly import MVPoly
from foliationlab.foliation import LogDivisor, VectorFieldGerm, divisor_invariance_check
from foliationlab import blowup, classify
from foliationlab.corpus import seidenberg_corpus
from foliationlab.resolution import seidenberg_reduce, weakly_reduced_check

from helpers import reference_transform

VARS = ("x", "y")
X = MVPoly.var(VARS, "x")
Y = MVPoly.var(VARS, "y")


def germ(*comps):
    return VectorFieldGerm(VARS, comps)


CORPUS = seidenberg_corpus(max_random=60)


def test_raw_equals_u_power_times_saturated():
    """The raw pushforward, the saturated field times u^s, is the one the
    ring operations build, and the saturated field keeps no factor u."""
    for v in CORPUS[::3]:
        for j in range(2):
            st = blowup.transform_vector_field(v, j)
            assert st.raw_field == reference_transform(v, j)[1]
            # no common factor u remains
            assert min(
                c.min_exponent_in(j) for c in st.saturated_field.components
            ) == 0


def test_saturation_exponent_chart_independent():
    for v in CORPUS[::3]:
        ss = {
            blowup.transform_vector_field(v, j).saturation_exponent
            for j in range(2)
        }
        assert len(ss) == 1, (v.to_text(), ss)


def test_dicritical_implies_positive_saturation():
    for v in CORPUS[::2]:
        try:
            dic = classify.is_dicritical(v)
        except Exception:
            continue
        if dic:
            s = blowup.transform_vector_field(v, 0).saturation_exponent
            assert s >= 1, v.to_text()


def test_reduced_nonresonant_is_simple_on_invariant_axis():
    # reduced with non-positive-rational ratio and an invariant axis: the
    # simple classification never fails for ratio reasons
    for lam in (GaussRat(-1), GaussRat(-3), GaussRat(Fraction := __import__("fractions").Fraction(-2, 3)), I):
        v = germ(X, GaussRat.coerce(lam) * Y)
        assert classify.singularity_report(v).reduced
        status = classify.classify_simple(v, LogDivisor({0}))
        assert status.kind != "not_simple"


def test_strict_transform_invariance_inherited():
    for v in CORPUS[:40]:
        for axes in ({0}, {1}, {0, 1}):
            if not divisor_invariance_check(v, axes):
                continue
            divisor = LogDivisor(axes)
            for j in range(2):
                st = blowup.transform_vector_field(v, j, divisor)
                kept = [a for a in axes if a != j]
                for a in kept:
                    assert a in st.divisor.axes
                assert divisor_invariance_check(st.saturated_field, st.divisor)


def test_weakly_reduced_clause2_matches_howald_on_corpus():
    checked = 0
    for v in CORPUS:
        cert = weakly_reduced_check(v, max_depth=12)
        if cert.howald_agrees is None:
            continue
        checked += 1
        if cert.verdict == "certified":
            assert cert.howald_agrees is True
        if cert.verdict == "refuted" and cert.failed_clause == 2:
            assert cert.howald_agrees is False
    assert checked > 30


def test_tower_json_deterministic():
    v = germ(Y, X * X)
    a = json.dumps(seidenberg_reduce(v, 8).to_jsonable(), sort_keys=True)
    b = json.dumps(seidenberg_reduce(v, 8).to_jsonable(), sort_keys=True)
    assert a == b
