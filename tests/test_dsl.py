from fractions import Fraction

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from foliationlab.exprtree import Add, Exp, Mul, Poly, Pow, add, const_expr, mul, power, t_expr
from foliationlab.gaussrat import GaussRat
from foliationlab import unipoly
from foliationlab.dsl import (
    ParseError,
    parse_curve,
    parse_divisor,
    parse_ideal,
    parse_polynomial,
    parse_vector_field,
)
from foliationlab.corpus import seidenberg_corpus

from helpers import coeffs


def _value(e, t: complex) -> complex:
    """e at t as one complex number, from its scaled evaluation."""
    a, u = e.eval_scaled(np.asarray(t, dtype=complex))
    return complex(u) * math.exp(float(a))


def test_field_examples():
    v = parse_vector_field("v = (x^2 + y) d/dx + (x*y) d/dy")
    assert v.components[0].coeff((2, 0)) == GaussRat(1)
    assert v.components[0].coeff((0, 1)) == GaussRat(1)
    assert v.components[1].coeff((1, 1)) == GaussRat(1)

    v = parse_vector_field("v = (i*x) d/dx - y d/dy")
    assert v.components[0].coeff((1, 0)) == GaussRat(0, 1)
    assert v.components[1].coeff((0, 1)) == GaussRat(-1)

    with pytest.raises(ParseError, match="exp is not allowed in polynomial vector fields"):
        parse_vector_field("v = exp(x) d/dx")


def test_field_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_vector_field("v = (x + ) d/dx")
    assert "column" in str(exc.value)
    with pytest.raises(ParseError):
        parse_vector_field("v = x d/dx + z d/dy")  # z undeclared
    with pytest.raises(ParseError):
        parse_vector_field("x + y")  # no markers


@pytest.mark.parametrize("parse, template", [
    (parse_vector_field, "v = %sx%s d/dx"),
    (parse_curve, "f(t) = (%st%s)"),
], ids=["field", "curve"])
def test_deep_nesting_is_a_parse_error(parse, template):
    assert parse(template % ("(" * 150, ")" * 150)) is not None
    with pytest.raises(ParseError, match="^input is nested too deeply$"):
        parse(template % ("(" * 200, ")" * 200))


def test_integer_literal_past_the_digit_limit_is_a_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    assert parse_vector_field("v = %s*x d/dx" % ("7" * limit)) is not None
    with pytest.raises(ParseError, match="^line 1, column 5: integer literal too long$"):
        parse_vector_field("v = %s*x d/dx" % ("7" * (limit + 1)))


def test_rational_and_complex_coefficients():
    v = parse_vector_field("v = 1/2*x d/dx + (2 - 3*i)*y d/dy")
    assert v.components[0].coeff((1, 0)) == GaussRat(Fraction(1, 2))
    assert v.components[1].coeff((0, 1)) == GaussRat(2, -3)
    with pytest.raises(ParseError, match="division by a non-constant expression"):
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
    c = parse_curve("f(t) = (t - 2, t) zeros: f 1 at 2; f 2 at 0")  # a spaced target index
    assert c.declared_zeros == {"f1": [(GaussRat(2), 1)], "f2": [(GaussRat(0), 1)]}
    with pytest.raises(ParseError, match="unknown zero target 'f'"):
        parse_curve("f(t) = (t - 2) zeros: f at 2")


def test_fprime_order_is_the_least_component_order():
    # f' = (1, -1) never vanishes, though the sum of its components does
    with pytest.raises(ValueError, match="does not vanish"):
        parse_curve("f(t) = (t, -t) zeros: fprime at 0")
    # f' = (2t, -1) never vanishes, though its first component does at 0
    with pytest.raises(ValueError, match="does not vanish"):
        parse_curve("f(t) = (t^2, 1 - t) zeros: fprime at 1/2")
    # a component with identically zero derivative does not count
    assert parse_curve("f(t) = (t^3, 1) zeros: fprime at 0").declared_zeros["fprime"] == [(GaussRat(0), 2)]
    assert parse_curve("f(t) = (t^2, t^3) zeros: fprime at 0").declared_zeros["fprime"] == [(GaussRat(0), 1)]
    with pytest.raises(ValueError, match="identically"):
        parse_curve("f(t) = (1, 2) zeros: fprime at 0")


@pytest.mark.filterwarnings("error")
def test_zeroth_power_is_one_at_a_zero_of_its_base():
    comp = parse_curve("f(t) = ((exp(t) - 1)^0)").components[0]
    t = np.array([0j, 1.0, 2j])
    a, u = comp.eval_scaled(t)
    assert a.tolist() == [0.0] * 3 and u.tolist() == [1] * 3
    assert comp.logabs2(t).tolist() == [0.0] * 3
    assert _value(comp, 0) == 1
    assert comp.series(4) == {GaussRat(0): unipoly.ONE_POLY}


def test_divisor_parsing():
    d = parse_divisor("D = {x}", ("x", "y"))
    assert d.axes == frozenset({0})
    d = parse_divisor("{1, y}", ("x", "y"))
    assert d.axes == frozenset({0, 1})
    with pytest.raises(ParseError):
        parse_divisor("D = {q}", ("x", "y"))
    text = "D = {%s}" % ", ".join(("x", "y")[a] for a in sorted(d.axes))
    assert text == "D = {x, y}" and parse_divisor(text, ("x", "y")).axes == d.axes


def test_round_trip_on_corpus_sample():
    corpus = seidenberg_corpus(max_random=40)
    for v in corpus[::7]:
        assert parse_vector_field(v.to_text()) == v


def curve_to_text(curve) -> str:
    return "f(t) = (%s)" % ", ".join(c.to_text() for c in curve.components)


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


def _trees(with_exp: bool, exp_leaves: bool = False):
    leaf = st.one_of(st.just(("t",)), st.tuples(st.just("c"), _const))
    if exp_leaves:  # exp subtrees as operands of every operator, not only at the top
        leaf = leaf | st.tuples(st.just("exp"), _trees(False))

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
    """Coefficients 0..order of expr at t = 0.  Every exp argument of a
    tree is t*q(t), which vanishes at 0, so replacing exp(x) by its Taylor
    polynomial of degree `order` changes only the terms past t^order."""

    def exp_poly(x):
        assert x.subs(t, 0) == 0
        return sum(x**m / sympy.factorial(m) for m in range(order + 1))

    coeffs = sympy.Poly(expr.replace(sympy.exp, exp_poly), t, domain="QQ_I").all_coeffs()[::-1]
    return coeffs[: order + 1] + [0] * (order + 1 - len(coeffs))


@given(_trees(False))
@settings(max_examples=60, deadline=None)
def test_parsed_polynomial_matches_sympy_expand(tree):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    comp = parse_curve("f(t) = (%s)" % _to_dsl(tree)).components[0]
    assert isinstance(comp, Poly)
    want = sympy.Poly(sympy.expand(_to_sympy(tree, sympy)), t).all_coeffs()[::-1]
    got = [_sympy_number(c, sympy) for c in coeffs(comp.coeffs)]
    assert [sympy.expand(g - w) for g, w in zip(got, want)] == [0] * len(got)
    assert len(got) == len(want) or (not got and want == [0])


@given(_trees(True, exp_leaves=True), _trees(True, exp_leaves=True))
@settings(max_examples=25, deadline=None)
def test_series_product_and_derivative_match_sympy(tree_a, tree_b):
    sympy = pytest.importorskip("sympy")
    t, order = sympy.Symbol("t"), 5
    a, b = parse_curve("f(t) = (%s, %s)" % (_to_dsl(tree_a), _to_dsl(tree_b))).components
    ea, eb = _to_sympy(tree_a, sympy), _to_sympy(tree_b, sympy)
    sa, sb = (e.series(order).get(GaussRat(0), unipoly.ZERO_POLY) for e in (a, b))
    product, derivative = coeffs(unipoly.series_mul(sa, sb, order)), coeffs(unipoly.poly_derivative(sa))
    assert len(product) <= order + 1 and len(derivative) <= order  # trimmed: the rest is zero
    product += [GaussRat(0)] * (order + 1 - len(product))
    derivative += [GaussRat(0)] * (order - len(derivative))
    ca, cb = _taylor(ea, t, order, sympy), _taylor(eb, t, order, sympy)
    got = [_sympy_number(c, sympy) for c in product + derivative]
    want = [sum(ca[j] * cb[k - j] for j in range(k + 1)) for k in range(order + 1)]
    want += [(k + 1) * ca[k + 1] for k in range(order)]
    assert [sympy.expand(g - w) for g, w in zip(got, want)] == [0] * len(want)


def _build(tree, raw: bool):
    """The tree through the folding algebra, or through the node classes
    with nothing folded.  An exp argument is folded either way: Exp takes a
    Poly.  Pow takes k >= 2, so a raw b^1 or b^0 is the Mul of one b or of 1."""
    kind, *args = tree
    if kind == "exp":
        return Exp(mul([t_expr(), _build(args[0], False)]))
    sub = [_build(a, raw) if isinstance(a, tuple) else a for a in args]
    plus, times, pw = (Add, Mul, Pow) if raw else (add, mul, power)
    if kind == "t":
        return t_expr()
    if kind == "c":
        return const_expr(args[0])
    if kind in ("sub", "neg"):
        sub[-1] = times([const_expr(-1), sub[-1]])
    if kind in ("add", "sub"):
        return plus(sub)
    if kind == "pow":
        return pw(*sub) if sub[1] >= 2 or not raw else times([sub[0]] * sub[1] or [const_expr(1)])
    if kind == "div":
        sub[1] = const_expr(1 / args[1])
    return times(sub)  # mul, neg, div


def _mag(e, t: complex) -> float:
    """The sum of the magnitudes a float evaluation of e at t adds up, a
    scale for its round-off."""
    if isinstance(e, Poly):
        return sum(abs(c.to_complex()) * abs(t) ** k for k, c in enumerate(coeffs(e.coeffs)))
    if isinstance(e, Exp):  # inf past the float range, which the caller's assume() rejects
        log_abs = _value(e.arg, t).real
        return (math.exp(log_abs) if log_abs < 700.0 else math.inf) * (1.0 + _mag(e.arg, t))
    if isinstance(e, (Add, Mul)):
        parts = [_mag(c, t) for c in e.children]
        return sum(parts) if isinstance(e, Add) else math.prod(parts)
    return _mag(e.base, t) ** e.k


@given(_trees(True, exp_leaves=True))
@settings(max_examples=80, deadline=None)
def test_folded_tree_matches_the_unfolded_one(tree):
    folded, raw = _build(tree, False), _build(tree, True)
    polynomial = "exp" not in _kinds(tree)
    for _ in range(3):  # the trees, then two derivatives
        assert isinstance(folded, Poly) or not polynomial
        assert folded.series(6) == raw.series(6)  # every exp argument vanishes at 0
        for t in (0.4 + 0.3j, -0.6 + 0.1j, 0.2 - 0.5j):
            scale = max(_mag(folded, t), _mag(raw, t))
            assume(scale < 1e200)
            a, b = _value(folded, t), _value(raw, t)
            assert abs(a - b) <= 1e-9 * scale
            if abs(b) > 1e-6 * scale:
                la, lb = folded.logabs2(np.array([t])), raw.logabs2(np.array([t]))
                assert abs(la[0] - lb[0]) <= 1e-6
        folded, raw = folded.diff(), raw.diff()


def _build_with_operators(tree):
    """The tree through the Expr operators + - * ** and unary -."""
    kind, *args = tree
    if kind == "exp":
        return Exp(t_expr() * _build_with_operators(args[0]))
    sub = [_build_with_operators(a) if isinstance(a, tuple) else a for a in args]
    if kind == "t":
        return t_expr()
    if kind == "c":
        return const_expr(args[0])
    if kind == "add":
        return sub[0] + sub[1]
    if kind == "sub":
        return sub[0] - sub[1]
    if kind == "neg":
        return -sub[0]
    if kind == "pow":
        return sub[0] ** sub[1]
    if kind == "div":
        return sub[0] * const_expr(1 / args[1])
    return sub[0] * sub[1]


@given(_trees(True, exp_leaves=True))
@example(("pow", ("exp", ("t",)), 2))
@example(("add", ("exp", ("t",)), ("t",)))
@example(("sub", ("exp", ("t",)), ("mul", ("exp", ("t",)), ("exp", ("c", GaussRat(2))))))
@example(("neg", ("pow", ("exp", ("c", GaussRat(1))), 3)))
@settings(max_examples=80, deadline=None)
def test_operators_and_parser_build_the_folding_algebra_tree(tree):
    """a + b, a - b, -a, a * b and a ** k build add([a, b]),
    add([a, mul([-1, b])]), mul([-1, a]), mul([a, b]) and power(a, k), and
    the parser builds the same tree from the tree's DSL text."""
    want = _build(tree, False)
    t = np.array([0.4 + 0.3j, -2.5 + 0.1j, 0.0, 7.0 - 3.0j])
    for got in (_build_with_operators(tree), parse_curve("f(t) = (%s)" % _to_dsl(tree)).components[0]):
        assert type(got) is type(want)
        assert got.to_text() == want.to_text()
        with np.errstate(all="ignore"):
            assert got.logabs2(t).tobytes() == want.logabs2(t).tobytes()


def _kinds(tree):
    yield tree[0]
    for a in tree[1:]:
        if isinstance(a, tuple):
            yield from _kinds(a)


def test_ideal_parsing():
    vs = ("x", "y")
    x, y = (parse_polynomial(n, vs) for n in vs)
    for text in ("x, y", "(x, y)", " ( x ,y ) ", "(x), (y)"):
        assert parse_ideal(text, vs) == [x, y]
    assert parse_ideal("x*(y + 1), y", vs) == [x * y + x, y]
    assert parse_ideal("(x + 1)*y, x", vs) == [x * y + y, x]
    assert parse_ideal("(x + y)*(x - y)", vs) == [x * x - y * y]
    for text, message in (("", "empty ideal"), ("()", "empty ideal"), ("x, y)", "trailing input after ideal"),
                          ("(x, y", "expected ')'"), ("x,", "expected a factor"), ("x, z", "unknown variable 'z'")):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_ideal(text, vs)
