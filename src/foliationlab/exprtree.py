"""Expression trees for parametrized curves: polynomials, exp, sums,
products, integer powers.

Evaluation is scaled: a node returns (a, u) with value = u * e^a and
|u| = 1 (u = 0 for an exact zero), so quantities like exp(2t) at |t| = 256
never overflow; log|value|^2 = 2a is exact in the log domain.  Exponential
arguments are restricted to polynomials, which keeps the scale exact.

Series expansions at t = 0 are exact over Q(i) whenever every exp argument
vanishes at 0: `series(order)` returns the Taylor coefficients up to t^order
as a trimmed `unipoly` coefficient list.  Otherwise SeriesNotRational is
raised and callers fall back to numeric order detection.

Every tree is built through one folding algebra, `add`, `mul` and `power`
(the `Expr` operators the DSL parses with, `expr_from_mvpoly` and each
`diff()` call it; the node classes never fold): polynomial operands fold
exactly into one `Poly` at the place of the first, zero terms and unit
factors drop out, a zero factor zeroes the product, a lone child is
unwrapped, and other children keep their order and structure.  So a tree
of polynomials is a `Poly`, as is its derivative, and takes the float
engine's direct Horner path.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gaussrat import ONE, GaussRat
from .mvpoly import MVPoly
from . import unipoly


class SeriesNotRational(Exception):
    pass


def _as_array(t):
    return np.asarray(t, dtype=complex)


class Expr:
    def eval_scaled(self, t):
        raise NotImplementedError

    def diff(self) -> "Expr":
        raise NotImplementedError

    def series(self, order: int) -> unipoly.Coeffs:
        raise NotImplementedError

    def is_polynomial(self) -> bool:
        raise NotImplementedError

    def eval_complex(self, t: complex) -> complex:
        a, u = self.eval_scaled(_as_array(t))
        a, u = float(a), complex(u)
        if a == -math.inf:
            return 0j
        if a > 700.0:
            raise OverflowError("value exceeds float range; use eval_scaled")
        return u * math.exp(a)

    def logabs2(self, t):
        """log |value|^2 as a float array (-inf at exact zeros).  Nodes
        whose log-modulus needs no phase override this; the results equal
        2 * eval_scaled(t)[0] bit for bit, doubling being exact."""
        a, _ = self.eval_scaled(t)
        return 2.0 * a

    def to_text(self) -> str:
        raise NotImplementedError

    # the DSL's arithmetic, each a call into the folding algebra below
    def __add__(self, other: "Expr") -> "Expr":
        return add([self, other])

    def __sub__(self, other: "Expr") -> "Expr":
        return add([self, -other])

    def __neg__(self) -> "Expr":
        return mul([const_expr(-1), self])

    def __mul__(self, other: "Expr") -> "Expr":
        return mul([self, other])

    def __pow__(self, k: int) -> "Expr":
        return power(self, k)


def _normalize(v):
    mag = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), -np.inf)
        u = np.where(mag > 0, v / np.where(mag > 0, mag, 1.0), 0.0 + 0.0j)
    return a, u


class Poly(Expr):
    __slots__ = ("coeffs", "horner")

    def __init__(self, coeffs: Sequence[GaussRat]):
        self.coeffs = tuple(unipoly.trim([GaussRat.coerce(c) for c in coeffs]))
        # the coefficients as complex numbers, leading first, for eval_plain
        self.horner = tuple(map(GaussRat.to_complex, reversed(self.coeffs))) or (0j,)

    def eval_plain(self, t):
        """Horner's rule from the leading coefficient."""
        t = _as_array(t)
        lead, *rest = self.horner
        out = np.full_like(t, lead)
        for c in rest:
            out *= t
            out += c
        return out

    def eval_scaled(self, t):
        return _normalize(self.eval_plain(t))

    def logabs2(self, t):
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(np.abs(self.eval_plain(t)))

    def diff(self):
        return Poly(unipoly.poly_derivative(self.coeffs))

    def series(self, order):
        return unipoly.trim(list(self.coeffs[: order + 1]))

    def is_polynomial(self):
        return True

    def degree(self):
        return len(self.coeffs) - 1

    def to_text(self):
        return MVPoly(("t",), {(k,): c for k, c in enumerate(self.coeffs)}).to_string()


class Exp(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        if not isinstance(arg, Poly):
            raise ValueError("exp arguments are restricted to polynomials")
        self.arg = arg

    def eval_scaled(self, t):
        z = self.arg.eval_plain(t)
        a = np.real(z)
        u = np.exp(1j * np.imag(z))
        return a, u

    def logabs2(self, t):
        return 2.0 * np.real(self.arg.eval_plain(t))

    def diff(self):
        return mul([self.arg.diff(), self])

    def series(self, order):
        s = self.arg.series(order)
        if s and not s[0].is_zero():
            raise SeriesNotRational("exp argument has nonzero constant term")
        out = term = [ONE]
        fact = Fraction(1)
        for k in range(1, order + 1):
            term = unipoly.series_mul(term, s, order)
            fact *= k
            scale = GaussRat(Fraction(1, fact))
            out = unipoly.poly_add(out, [c * scale for c in term])
        return out

    def is_polynomial(self):
        return False

    def to_text(self):
        return "exp(%s)" % self.arg.to_text()


class Add(Expr):
    __slots__ = ("children",)

    def __init__(self, children: Sequence[Expr]):
        self.children = tuple(children)

    def eval_scaled(self, t):
        parts = [c.eval_scaled(t) for c in self.children]
        amax = parts[0][0]
        for a, _ in parts[1:]:
            amax = np.maximum(amax, a)
        safe = np.where(np.isneginf(amax), 0.0, amax)
        total = np.zeros_like(parts[0][1])
        for a, u in parts:
            total = total + u * np.exp(a - safe)  # exp(-inf) = 0 covers exact zeros
        a2, u2 = _normalize(total)
        a2 = np.where(np.isneginf(amax), -np.inf, a2 + safe)
        return a2, u2

    def diff(self):
        return add([c.diff() for c in self.children])

    def series(self, order):
        return functools.reduce(unipoly.poly_add, (c.series(order) for c in self.children))

    def is_polynomial(self):
        return all(c.is_polynomial() for c in self.children)

    def to_text(self):
        return " + ".join(c.to_text() for c in self.children)


class Mul(Expr):
    __slots__ = ("children",)

    def __init__(self, children: Sequence[Expr]):
        self.children = tuple(children)

    def eval_scaled(self, t):
        a_tot, u_tot = self.children[0].eval_scaled(t)
        for c in self.children[1:]:
            a, u = c.eval_scaled(t)
            a_tot = a_tot + a
            u_tot = u_tot * u
        return a_tot, u_tot

    def logabs2(self, t):
        out = self.children[0].logabs2(t)
        for c in self.children[1:]:
            out = out + c.logabs2(t)
        return out

    def diff(self):
        kids = self.children
        return add([mul(kids[:i] + (c.diff(),) + kids[i + 1:]) for i, c in enumerate(kids)])

    def series(self, order):
        return functools.reduce(lambda p, q: unipoly.series_mul(p, q, order),
                                (c.series(order) for c in self.children))

    def is_polynomial(self):
        return all(c.is_polynomial() for c in self.children)

    def to_text(self):
        return "*".join("(%s)" % c.to_text() for c in self.children)


class Pow(Expr):
    __slots__ = ("base", "k")

    def __init__(self, base: Expr, k: int):
        if k < 0:
            raise ValueError("negative powers are not allowed")
        self.base = base
        self.k = k

    def eval_scaled(self, t):
        a, u = self.base.eval_scaled(t)
        if self.k == 0:  # b^0 = 1 also where b = 0, and 0 * log|0| is nan
            return np.zeros_like(a), np.ones_like(u)
        return self.k * a, u**self.k

    def logabs2(self, t):
        if self.k == 0:
            return np.zeros(np.shape(t))
        return self.k * self.base.logabs2(t)

    def diff(self):
        if self.k == 0:
            return Poly([])
        return mul([const_expr(self.k), power(self.base, self.k - 1), self.base.diff()])

    def series(self, order):
        out, base, k = [ONE], self.base.series(order), self.k
        while k:  # by squaring
            if k & 1:
                out = unipoly.series_mul(out, base, order)
            base, k = unipoly.series_mul(base, base, order), k >> 1
        return out

    def is_polynomial(self):
        return self.base.is_polynomial()

    def to_text(self):
        return "(%s)^%d" % (self.base.to_text(), self.k)


def const_expr(c) -> Poly:
    return Poly([GaussRat.coerce(c)])


def t_expr() -> Poly:
    return Poly([GaussRat(0), GaussRat(1)])


def _fold(node, children: Sequence[Expr], op, unit: tuple) -> Expr:
    """node(children) with the Poly children folded by op into one Poly at
    the place of the first, dropped when it equals unit."""
    polys = [c for c in children if isinstance(c, Poly)]
    coeffs = [p.coeffs for p in polys]
    folded = polys[0] if len(polys) == 1 else Poly(functools.reduce(op, coeffs) if coeffs else unit)
    pending, kept = folded.coeffs != unit, []
    for c in children:
        if not isinstance(c, Poly):
            kept.append(c)
        elif pending:
            kept.append(folded)
            pending = False
    if len(kept) > 1:
        return node(kept)
    return kept[0] if kept else folded


def add(terms: Sequence[Expr]) -> Expr:
    """The sum of terms; polynomial terms fold into one Poly."""
    return _fold(Add, terms, unipoly.poly_add, ())


def mul(factors: Sequence[Expr]) -> Expr:
    """The product of factors; polynomial factors fold into one Poly, and a
    zero one makes the product zero."""
    if any(isinstance(c, Poly) and not c.coeffs for c in factors):
        return Poly([])
    return _fold(Mul, factors, unipoly.poly_mul, (ONE,))


def power(base: Expr, k: int) -> Expr:
    """base^k; a polynomial base is expanded, and base^0 is 1."""
    if k < 0:
        raise ValueError("negative powers are not allowed")
    if k <= 1 or isinstance(base, Poly):
        return mul([base] * k)
    return Pow(base, k)


def expr_from_mvpoly(p: MVPoly, components: Sequence[Expr]) -> Expr:
    """Compose a polynomial in n variables with curve components."""
    if len(components) != p.nvars():
        raise ValueError("component count mismatch")
    return add([mul([const_expr(c)] + [power(components[i], k) for i, k in enumerate(e)])
                for e, c in p.sorted_terms()])


def order_at(expr: Expr, t0: complex, max_order: int) -> int | float:
    """Vanishing order at t0, math.inf past max_order: exact from the
    rational series at t0 = 0; elsewhere, and where exp units block the
    series, the first derivative whose value passes 1e-9 in modulus."""
    if t0 == 0:
        try:
            return unipoly.valuation(expr.series(max_order))
        except SeriesNotRational:
            pass
    g = expr
    for m in range(max_order + 1):
        if abs(g.eval_complex(t0)) > 1e-9:
            return m
        g = g.diff()
    return math.inf
