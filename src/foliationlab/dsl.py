"""Input DSL: vector fields, parametrized curves, divisors.

Grammar sketch (whitespace-insensitive):

    field   :=  "v" "=" fterm (("+"|"-") fterm)*
    fterm   :=  [coefficient-expression] "d/d" VAR
    curve   :=  "f" "(" "t" ")" "=" "(" expr ("," expr)* ")" [zerodecl]
    zerodecl:=  "zeros" ":" decl ((";"|",") decl)*
    decl    :=  target "at" point ["order" INT]
    target  :=  "f" INT | "both" | "all" | "fprime" | "f'" | "ideal"
    divisor :=  ["D" "="] "{" (VAR|INT) ("," (VAR|INT))* "}"
    ideal   :=  gens | "(" gens ")"       gens := poly ("," poly)*

Coefficients are rational literals, `i`, and parenthesized arithmetic;
`^` takes nonnegative integer exponents; division is allowed by nonzero
constants only.  `exp` is legal in curve components, never in fields.
Variables of a field are inferred from the d/d markers in declaration
order.
"""

from __future__ import annotations

import re

from .gaussrat import ZERO, GaussRat
from .mvpoly import MVPoly
from . import unipoly


class ParseError(Exception):
    def __init__(self, message: str, pos: tuple[int, int] | None = None):
        if pos:
            message = "line %d, column %d: %s" % (pos[0], pos[1], message)
        super().__init__(message)
        self.pos = pos


class NonPolynomial(ParseError):
    pass


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<dmark>d/d[a-zA-Z_][a-zA-Z_0-9]*)"
    r"|(?P<name>[a-zA-Z_][a-zA-Z_0-9]*'?)"
    r"|(?P<num>\d+)"
    r"|(?P<op>[-+*/^(),={};:])"
    r")"
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError("unexpected character %r" % text[pos], self._linecol(pos))
                break
            pos = m.end()
            for kind in ("dmark", "name", "num", "op"):
                val = m.group(kind)
                if val is not None:
                    self.toks.append((kind, val, m.start(kind)))
                    break
        self.i = 0

    def _linecol(self, offset: int) -> tuple[int, int]:
        upto = self.text[:offset]
        return upto.count("\n") + 1, offset - (upto.rfind("\n") + 1) + 1

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        if tok[0] is not None:
            self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, off = self.next()
        if val != value:
            raise ParseError("expected %r, found %r" % (value, val), self._linecol(off))

    def at_end(self) -> bool:
        return self.i >= len(self.toks)

    def error(self, msg: str):
        _, _, off = self.peek()
        raise ParseError(msg, self._linecol(off))


# ---------------------------------------------------------------------------
# expression parsing over MVPoly or Expr trees: + - * ^ are the operands'
# own operators, and an algebra supplies constants, variables, / and exp


def _parse_expr(toks: _Tokens, alg: _PolyAlgebra | _ExprAlgebra):
    node = _parse_term(toks, alg)
    while True:
        kind, val, _ = toks.peek()
        if val in ("+", "-"):
            toks.next()
            rhs = _parse_term(toks, alg)
            node = node + rhs if val == "+" else node - rhs
        else:
            return node


def _parse_term(toks: _Tokens, alg: _PolyAlgebra | _ExprAlgebra):
    node = _parse_unary(toks, alg)
    while True:
        kind, val, _ = toks.peek()
        if val == "*":
            toks.next()
            node = node * _parse_unary(toks, alg)
        elif val == "/":
            toks.next()
            node = alg.div(node, _parse_unary(toks, alg), toks)
        else:
            return node


def _parse_unary(toks: _Tokens, alg: _PolyAlgebra | _ExprAlgebra):
    kind, val, _ = toks.peek()
    if val == "+":
        toks.next()
        return _parse_unary(toks, alg)
    if val == "-":
        toks.next()
        return -_parse_unary(toks, alg)
    return _parse_power(toks, alg)


def _parse_power(toks: _Tokens, alg: _PolyAlgebra | _ExprAlgebra):
    node = _parse_atom(toks, alg)
    kind, val, _ = toks.peek()
    if val == "^":
        toks.next()
        k2, v2, _ = toks.next()
        if k2 != "num":
            toks.error("exponent must be a nonnegative integer")
        return node ** int(v2)
    return node


def _parse_atom(toks: _Tokens, alg: _PolyAlgebra | _ExprAlgebra):
    kind, val, off = toks.peek()
    if val == "(":
        toks.next()
        node = _parse_expr(toks, alg)
        toks.expect(")")
        return node
    if kind == "num":
        toks.next()
        return alg.const(GaussRat(int(val)))
    if kind == "name":
        toks.next()
        if val == "i":
            return alg.const(GaussRat(0, 1))
        if val == "exp":
            toks.expect("(")
            inner = _parse_expr(toks, alg)
            toks.expect(")")
            return alg.exp(inner, toks)
        return alg.var(val, toks)
    toks.error("expected a factor, found %r" % (val,))


class _PolyAlgebra:
    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables

    def const(self, c):
        return MVPoly.const(self.variables, c)

    def var(self, name, toks):
        if name not in self.variables:
            toks.error("unknown variable %r (declared: %s)" % (name, ", ".join(self.variables)))
        return MVPoly.var(self.variables, name)

    def div(self, a, b, toks):
        if not b.is_constant():
            raise NonPolynomial("division by a non-constant expression")
        c = b.constant_term()
        if c.is_zero():
            toks.error("division by zero")
        return a * (GaussRat(1) / c)

    def exp(self, a, toks):
        raise NonPolynomial("exp is not allowed in polynomial vector fields")


class _ExprAlgebra:
    """Curve components as `exprtree` trees; the float engine (numpy) loads
    when the first curve is parsed, never for a field."""

    def __init__(self):
        from . import exprtree

        self.tree = exprtree

    def const(self, c):
        return self.tree.const_expr(c)

    def var(self, name, toks):
        if name != "t":
            toks.error("curves are functions of t only (found %r)" % name)
        return self.tree.t_expr()

    def div(self, a, b, toks):
        if not isinstance(b, self.tree.Poly) or b.degree() > 0:
            raise ParseError("poles are not allowed in curve components (division by non-constant)")
        if not b.coeffs.num:
            toks.error("division by zero")
        return a * self.tree.const_expr(GaussRat(1) / unipoly.poly_eval(b.coeffs, ZERO))

    def exp(self, a, toks):
        if not isinstance(a, self.tree.Poly):
            raise ParseError("exp arguments must be polynomial in t")
        return self.tree.Exp(a)


# ---------------------------------------------------------------------------
# public entry points


def parse_polynomial(text: str, variables) -> MVPoly:
    toks = _Tokens(text)
    alg = _PolyAlgebra(tuple(variables))
    node = _parse_expr(toks, alg)
    if not toks.at_end():
        toks.error("trailing input after polynomial")
    return node


def parse_ideal(text: str, variables) -> list[MVPoly]:
    """Ideal generators: polynomials separated by ",", optionally inside one
    outer pair of parentheses.  Where both readings parse, they agree."""
    toks = _Tokens(text)
    alg = _PolyAlgebra(tuple(variables))

    def gens(wrapped: bool) -> list[MVPoly]:
        toks.i = 0
        if wrapped:
            toks.expect("(")
        out = [_parse_expr(toks, alg)]
        while toks.peek()[1] == ",":
            toks.next()
            out.append(_parse_expr(toks, alg))
        if wrapped:
            toks.expect(")")
        if not toks.at_end():
            toks.error("trailing input after ideal")
        return out

    if [val for _, val, _ in toks.toks] in ([], ["(", ")"]):
        raise ParseError("empty ideal")
    try:
        return gens(False)
    except ParseError:
        if toks.toks[0][1] != "(":
            raise
        return gens(True)


def parse_vector_field(text: str):
    """Parse to a VectorFieldGerm; variables come from the d/d markers in
    declaration order."""
    from .foliation import VectorFieldGerm

    variables = []
    for m in re.finditer(r"d/d([a-zA-Z_][a-zA-Z_0-9]*)", text):
        if m.group(1) not in variables:
            variables.append(m.group(1))
    if not variables:
        raise ParseError("no d/d markers found: not a vector field")
    variables = tuple(variables)
    alg = _PolyAlgebra(variables)
    toks = _Tokens(text)
    kind, val, _ = toks.peek()
    if val == "v":
        toks.next()
        toks.expect("=")
    components = {name: MVPoly.zero(variables) for name in variables}
    sign = 1
    first = True
    while not toks.at_end():
        kind, val, _ = toks.peek()
        if not first:
            if val == "+":
                sign = 1
                toks.next()
            elif val == "-":
                sign = -1
                toks.next()
            else:
                toks.error("expected '+' or '-' between field terms")
        else:
            if val == "-":
                sign = -1
                toks.next()
            elif val == "+":
                toks.next()
        first = False
        kind, val, _ = toks.peek()
        if kind == "dmark":
            coeff = MVPoly.const(variables, 1)
        else:
            coeff = _parse_expr(toks, alg)
        kind, val, _ = toks.next()
        if kind != "dmark":
            raise ParseError("expected a d/d marker after the coefficient, found %r" % (val,))
        name = val[3:]
        components[name] = components[name] + coeff * sign
        sign = 1
    return VectorFieldGerm(variables, [components[name] for name in variables])


def _parse_point(toks: _Tokens) -> GaussRat:
    alg = _PolyAlgebra(())
    node = _parse_expr(toks, alg)
    return node.constant_term()


def parse_curve(text: str):
    """Parse to a ParametrizedCurve, which resolves and checks the zero
    declarations, passed on as written (order None where omitted)."""
    from .nevanlinna import ParametrizedCurve

    toks = _Tokens(text)
    kind, val, _ = toks.peek()
    if val == "f":
        toks.next()
        toks.expect("(")
        toks.expect("t")
        toks.expect(")")
        toks.expect("=")
    toks.expect("(")
    alg = _ExprAlgebra()
    comps = [_parse_expr(toks, alg)]
    while True:
        kind, val, _ = toks.peek()
        if val == ",":
            toks.next()
            comps.append(_parse_expr(toks, alg))
        else:
            break
    toks.expect(")")
    zeros: dict[str, list] = {}
    kind, val, _ = toks.peek()
    if val == "zeros":
        toks.next()
        toks.expect(":")
        while True:
            kind, val, off = toks.next()
            if kind is None:
                toks.error("expected a zero declaration target")
            target = val
            if target == "f" :
                kind2, val2, _ = toks.peek()
                if kind2 == "num":
                    toks.next()
                    target = "f" + val2
            if target not in ("both", "all", "fprime", "f'", "ideal") and not re.fullmatch(r"f\d+", target):
                toks.error("unknown zero target %r" % target)
            if target == "f'":
                target = "fprime"
            toks.expect("at")
            point = _parse_point(toks)
            order = None
            kind, val, _ = toks.peek()
            if val == "order":
                toks.next()
                k2, v2, _ = toks.next()
                if k2 != "num":
                    toks.error("order must be an integer")
                order = int(v2)
            if target in ("both", "all"):
                targets = ["f%d" % (k + 1) for k in range(len(comps))]
            else:
                targets = [target]
            for tgt in targets:
                zeros.setdefault(tgt, []).append((point, order))
            kind, val, _ = toks.peek()
            if val in (";", ","):
                toks.next()
                continue
            break
    if not toks.at_end():
        toks.error("trailing input after curve")
    return ParametrizedCurve(tuple(comps), zeros)


def parse_divisor(text: str, variables) -> "object":
    from .foliation import LogDivisor

    variables = tuple(variables)
    toks = _Tokens(text)
    kind, val, _ = toks.peek()
    if val == "D":
        toks.next()
        toks.expect("=")
    toks.expect("{")
    axes = set()
    while True:
        kind, val, _ = toks.peek()
        if val == "}":
            toks.next()
            break
        kind, val, _ = toks.next()
        if kind == "name":
            if val not in variables:
                toks.error("unknown axis name %r" % val)
            axes.add(variables.index(val))
        elif kind == "num":
            idx = int(val) - 1
            if not 0 <= idx < len(variables):
                toks.error("axis index %s out of range" % val)
            axes.add(idx)
        else:
            toks.error("expected an axis name or index")
        kind, val, _ = toks.peek()
        if val == ",":
            toks.next()
    if not toks.at_end():
        toks.error("trailing input after divisor")
    return LogDivisor(axes)
