from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliationlab.exprtree import Poly
from foliationlab.gaussrat import GaussRat
from foliationlab.series import TruncatedSeries
from foliationlab.dsl import (
    NonPolynomial,
    ParseError,
    curve_to_text,
    divisor_to_text,
    parse_curve,
    parse_divisor,
    parse_polynomial,
    parse_vector_field,
)
from foliationlab.corpus import seidenberg_corpus


def test_field_examples():
    v = parse_vector_field("v = (x^2 + y) d/dx + (x*y) d/dy")
    assert v.components[0].coeff((2, 0)) == GaussRat(1)
    assert v.components[0].coeff((0, 1)) == GaussRat(1)
    assert v.components[1].coeff((1, 1)) == GaussRat(1)

    v = parse_vector_field("v = (i*x) d/dx - y d/dy")
    assert v.components[0].coeff((1, 0)) == GaussRat(0, 1)
    assert v.components[1].coeff((0, 1)) == GaussRat(-1)

    with pytest.raises(NonPolynomial):
        parse_vector_field("v = exp(x) d/dx")


def test_field_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_vector_field("v = (x + ) d/dx")
    assert "column" in str(exc.value)
    with pytest.raises(ParseError):
        parse_vector_field("v = x d/dx + z d/dy")  # z undeclared
    with pytest.raises(ParseError):
        parse_vector_field("x + y")  # no markers


def test_rational_and_complex_coefficients():
    v = parse_vector_field("v = 1/2*x d/dx + (2 - 3*i)*y d/dy")
    assert v.components[0].coeff((1, 0)) == GaussRat(Fraction(1, 2))
    assert v.components[1].coeff((0, 1)) == GaussRat(2, -3)
    with pytest.raises(NonPolynomial):
        parse_vector_field("v = (1/x) d/dx + y d/dy")


def test_curve_examples():
    c = parse_curve("f(t) = (exp(t), exp(2*t))")
    assert c.dim() == 2 and not c.is_algebraic()
    c = parse_curve("f(t) = (t, t^2) zeros: both at 0")
    assert c.declared_zeros["f1"] == [(GaussRat(0), 1)]
    assert c.declared_zeros["f2"] == [(GaussRat(0), 2)]
    with pytest.raises(ParseError):
        parse_curve("f(t) = (1/t, t)")
    c = parse_curve("f(t) = (t - 1/2) zeros: f1 at 1/2 order 1")
    assert c.declared_zeros["f1"][0][0] == GaussRat(Fraction(1, 2))


@pytest.mark.filterwarnings("error")
def test_zeroth_power_is_one_at_a_zero_of_its_base():
    comp = parse_curve("f(t) = ((exp(t) - 1)^0)").components[0]
    t = np.array([0j, 1.0, 2j])
    a, u = comp.eval_scaled(t)
    assert a.tolist() == [0.0] * 3 and u.tolist() == [1] * 3
    assert comp.logabs2(t).tolist() == [0.0] * 3
    assert comp.eval_complex(0) == 1
    assert comp.series(4) == TruncatedSeries.const(1, 4)


def test_divisor_parsing():
    d = parse_divisor("D = {x}", ("x", "y"))
    assert d.axes == frozenset({0})
    d = parse_divisor("{1, y}", ("x", "y"))
    assert d.axes == frozenset({0, 1})
    with pytest.raises(ParseError):
        parse_divisor("D = {q}", ("x", "y"))
    assert divisor_to_text(d, ("x", "y")) == "D = {x, y}"


def test_round_trip_on_corpus_sample():
    corpus = seidenberg_corpus(max_random=40)
    for v in corpus[::7]:
        assert parse_vector_field(v.to_text()) == v


def test_curve_round_trip():
    c = parse_curve("f(t) = (t + 1, exp(2*t))")
    text = curve_to_text(c)
    c2 = parse_curve(text)
    assert curve_to_text(c2) == text


def test_polynomial_entry_point():
    p = parse_polynomial("(x + y)^2 - x^2 - 2*x*y", ("x", "y"))
    assert p.to_string() == "y^2"


# -- differential oracle: one random expression tree, rendered as DSL text and as sympy

_const = st.builds(GaussRat, st.fractions(-3, 3, max_denominator=3), st.integers(-2, 2))


def _trees(with_exp: bool):
    leaf = st.one_of(st.just(("t",)), st.tuples(st.just("c"), _const))

    def extend(sub):
        nodes = [
            st.tuples(st.sampled_from(["add", "sub", "mul"]), sub, sub),
            st.tuples(st.just("neg"), sub),
            st.tuples(st.just("pow"), sub, st.integers(0, 3)),
            st.tuples(st.just("div"), sub, _const.filter(bool)),
        ]
        if with_exp:
            nodes.append(st.tuples(st.just("exp"), _trees(False)))
        return st.one_of(nodes)

    return st.recursive(leaf, extend, max_leaves=6)


def _render(tree, const, t, exp):
    """The tree through one set of constructors: DSL text or sympy."""
    kind, *args = tree
    sub = [_render(a, const, t, exp) if isinstance(a, tuple) else a for a in args]
    if kind == "t":
        return t
    if kind == "c":
        return const(args[0])
    if kind == "add":
        return sub[0] + sub[1]
    if kind == "sub":
        return sub[0] - sub[1]
    if kind == "mul":
        return sub[0] * sub[1]
    if kind == "neg":
        return -sub[0]
    if kind == "pow":
        return sub[0] ** sub[1]
    if kind == "div":
        return sub[0] / const(args[1])
    return exp(t * sub[0])  # an exp argument without constant term keeps the series rational


class _Text(str):
    """DSL text that composes like a number."""

    def __add__(self, o):
        return _Text("(%s + %s)" % (self, o))

    def __sub__(self, o):
        return _Text("(%s - %s)" % (self, o))

    def __mul__(self, o):
        return _Text("(%s)*(%s)" % (self, o))

    def __truediv__(self, o):
        return _Text("(%s)/%s" % (self, o))

    def __neg__(self):
        return _Text("-(%s)" % self)

    def __pow__(self, k):
        return _Text("(%s)^%d" % (self, k))


def _to_dsl(tree):
    return _render(tree, lambda c: _Text("(%s)" % c), _Text("t"), lambda a: _Text("exp(%s)" % a))


def _to_sympy(tree, sympy):
    return _render(tree, lambda c: _sympy_number(c, sympy), sympy.Symbol("t"), sympy.exp)


def _sympy_number(c, sympy):
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)


def _taylor(expr, t, order, sympy):
    """Coefficients 0..order of expr at t = 0."""
    s = sympy.expand(sympy.series(expr, t, 0, order + 1).removeO())
    return [sympy.expand(s.coeff(t, k)) for k in range(order + 1)]


@given(_trees(False))
@settings(max_examples=60, deadline=None)
def test_parsed_polynomial_matches_sympy_expand(tree):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    comp = parse_curve("f(t) = (%s)" % _to_dsl(tree)).components[0]
    assert isinstance(comp, Poly)
    want = sympy.Poly(sympy.expand(_to_sympy(tree, sympy)), t).all_coeffs()[::-1]
    got = [_sympy_number(c, sympy) for c in comp.coeffs]
    assert [sympy.expand(g - w) for g, w in zip(got, want)] == [0] * len(got)
    assert len(got) == len(want) or (not got and want == [0])


@given(_trees(True), _trees(True))
@settings(max_examples=25, deadline=None)
def test_series_product_and_derivative_match_sympy(tree_a, tree_b):
    sympy = pytest.importorskip("sympy")
    t, order = sympy.Symbol("t"), 5
    a, b = parse_curve("f(t) = (%s, %s)" % (_to_dsl(tree_a), _to_dsl(tree_b))).components
    ea, eb = _to_sympy(tree_a, sympy), _to_sympy(tree_b, sympy)
    sa, sb = a.series(order), b.series(order)
    product, derivative = sa * sb, sa.derivative()
    assert (product.order, derivative.order) == (order, order - 1)
    got = [_sympy_number(c, sympy) for c in product.coeffs + derivative.coeffs]
    want = _taylor(ea * eb, t, order, sympy) + _taylor(sympy.diff(ea, t), t, order - 1, sympy)
    assert [sympy.expand(g - w) for g, w in zip(got, want)] == [0] * len(want)
