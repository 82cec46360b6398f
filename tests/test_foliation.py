import pytest

from foliationlab.gaussrat import GaussRat
from foliationlab.mvpoly import MVPoly
from foliationlab.foliation import (
    FoliationError,
    LogDivisor,
    VectorFieldGerm,
    coefficient_ideal,
    divisor_invariance_check,
    is_singular_at_origin,
    translate_to_point,
)
from foliationlab.monomial import MonomialIdeal
from foliationlab.dsl import parse_vector_field


VARS = ("x", "y")
X = MVPoly.var(VARS, "x")
Y = MVPoly.var(VARS, "y")


def germ(*comps):
    return VectorFieldGerm(VARS, comps)


def test_translate_examples():
    v = parse_vector_field("v = x d/dx")
    moved = translate_to_point(v, [GaussRat(1)])
    assert moved.components[0].constant_term() == GaussRat(1)
    v = germ(X - 1, Y)
    moved = translate_to_point(v, [GaussRat(1), GaussRat(0)])
    assert moved == germ(X, Y)
    v = germ(Y, X)
    assert translate_to_point(v, [GaussRat(0), GaussRat(0)]) == v


def test_singular_at_origin():
    assert is_singular_at_origin(germ(X, Y))
    assert not is_singular_at_origin(parse_vector_field("v = d/dx + 0 d/dy"))
    assert is_singular_at_origin(germ(Y, X * X))


def test_divisor_invariance():
    assert divisor_invariance_check(germ(X, Y), {0})
    assert not divisor_invariance_check(germ(Y, X), {0})
    v = germ(X * (1 + Y), -1 * Y)
    assert divisor_invariance_check(v, {0, 1})


def test_invariance_stable_under_unit_scaling():
    v = germ(X * (1 + Y), -1 * Y)
    unit = 2 + X + Y * Y  # nonzero constant term
    scaled = VectorFieldGerm(VARS, [c * unit for c in v.components])
    for axes in ({0}, {1}, {0, 1}):
        assert divisor_invariance_check(v, axes) == divisor_invariance_check(scaled, axes)
    w = germ(Y, X)
    scaled = VectorFieldGerm(VARS, [c * unit for c in w.components])
    assert divisor_invariance_check(scaled, {0}) == divisor_invariance_check(w, {0})


def test_coefficient_ideal_examples():
    pres = coefficient_ideal(germ(X, Y))
    assert list(pres.plain_generators) == [X, Y]
    pres = coefficient_ideal(germ(X, Y), LogDivisor({0}))
    assert pres.log_generators[0] == MVPoly.const(VARS, 1)
    assert pres.log_generators[1] == Y
    pres = coefficient_ideal(germ(X * X, Y))
    assert list(pres.plain_generators) == [X * X, Y]
    with pytest.raises(FoliationError, match=r"divisor axes \[0\] not invariant"):
        coefficient_ideal(germ(Y, X), LogDivisor({0}))


def test_jf_contained_in_jfd_monomial_cases():
    cases = [
        germ(X, Y),
        germ(X * X, Y),
        germ(X * Y, Y * Y),
        germ(X * (1 + 0 * Y), -2 * Y),
    ]
    for v in cases:
        for axes in ({0}, {1}, {0, 1}):
            if not divisor_invariance_check(v, axes):
                continue
            pres = coefficient_ideal(v, LogDivisor(axes))
            jf = MonomialIdeal.from_polys(list(pres.plain_generators))
            jfd = MonomialIdeal.from_polys(list(pres.log_generators))
            if jf is None or jfd is None:
                continue
            for g in jf.sorted_generators():
                assert any(all(h[i] <= g[i] for i in range(jfd.ambient_dim)) for h in jfd.generators)


def test_serialization_round_trip():
    fixtures = [
        "v = (x^2 + y) d/dx + (x*y) d/dy",
        "v = (i*x) d/dx - y d/dy",
        "v = (1/2*x - 2*y^3) d/dx + (x*y + y^2) d/dy",
    ]
    for text in fixtures:
        v = parse_vector_field(text)
        assert parse_vector_field(v.to_text()) == v
