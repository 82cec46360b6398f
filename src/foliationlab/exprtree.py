"""Expression trees for parametrized curves: polynomials, exp, sums,
products, integer powers.

Evaluation is scaled: a node returns (a, u) with value = u * e^a and
|u| = 1 (u = 0 for an exact zero), so quantities like exp(2t) at |t| = 256
never overflow; log|value|^2 = 2a is exact in the log domain.  Exponential
arguments are restricted to polynomials, which keeps the scale exact.

Series are exact at every z in Q(i): with t = z + s a tree is a finite sum
of e^c * S_c(s) over exp values c = A(z) in Q(i), and `series(order, z)`
returns c -> S_c as `unipoly` polynomials up to s^order.  By the
Lindemann-Weierstrass theorem an s^m coefficient vanishes iff it vanishes
in every group; `order_at` reads every vanishing order so.

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

from .gaussrat import ZERO, GaussRat
from .mvpoly import MVPoly, _poly
from . import unipoly

Groups = dict[GaussRat, unipoly.UPoly]  # exp value c -> the nonzero series S_c
GROUP_PRODUCT_LIMIT = 4096  # most pairs of exp groups that one series product multiplies


def _merge(parts) -> Groups:
    """The sum of the groups in parts, zero series dropped."""
    out: Groups = {}
    for groups in parts:
        for c, s in groups.items():
            out[c] = unipoly.poly_add(out.get(c, unipoly.ZERO_POLY), s)
    return {c: s for c, s in out.items() if s.num}


def _times(p: Groups, q: Groups, order: int) -> Groups:
    """The product of two group sums; exp values add."""
    if len(p) * len(q) > GROUP_PRODUCT_LIMIT:
        raise ValueError("an exact series product of %d by %d exp groups is past the limit of %d group products"
                         % (len(p), len(q), GROUP_PRODUCT_LIMIT))
    return _merge({c + d: unipoly.series_mul(s, r, order)} for c, s in p.items() for d, r in q.items())


class Expr:
    def eval_scaled(self, t):
        raise NotImplementedError

    def diff(self) -> "Expr":
        raise NotImplementedError

    def series(self, order: int, z: GaussRat = ZERO) -> Groups:
        raise NotImplementedError

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

    def __init__(self, coeffs: unipoly.UPoly | Sequence[GaussRat]):
        self.coeffs = c = coeffs if isinstance(coeffs, unipoly.UPoly) else unipoly.from_coeffs(coeffs)
        # leading first, for eval_plain; int true division rounds correctly, so each is its GaussRat's to_complex
        self.horner = tuple(complex(x / c.den, y / c.den) for x, y in c.num[::-1]) or (0j,)

    def eval_plain(self, t):
        """Horner's rule from the leading coefficient."""
        t = np.asarray(t, dtype=complex)
        lead, *rest = self.horner
        if not rest:
            return np.full_like(t, lead)
        out = lead * t  # the first step, with no array of the leading coefficient
        out += rest[0]
        for c in rest[1:]:
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

    def series(self, order, z=ZERO):
        s = unipoly.from_mvpoly(self._mvpoly().translate([z]), order=order)  # the Taylor shift t = z + s
        return {ZERO: s} if s.num else {}

    def degree(self):
        return unipoly.degree(self.coeffs)

    def _mvpoly(self) -> MVPoly:
        num, den = self.coeffs
        return _poly(("t",), {(k,): c for k, c in enumerate(num) if c[0] or c[1]}, den)

    def to_text(self):
        return self._mvpoly().to_string()


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

    def series(self, order, z=ZERO):
        a = self.arg.series(order, z).get(ZERO, unipoly.ZERO_POLY)  # e^A(z + s) = e^A(z) * e^(A(z + s) - A(z))
        c = unipoly.poly_eval(a, ZERO)
        s = unipoly.poly_add(a, unipoly.from_coeffs([c]), -1)
        out = term = unipoly.ONE_POLY
        for k in range(1, order + 1):  # term = s^k / k!
            term = unipoly.poly_mul(unipoly.series_mul(term, s, order), unipoly.from_coeffs([Fraction(1, k)]))
            out = unipoly.poly_add(out, term)
        return {c: out}

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

    def series(self, order, z=ZERO):
        return _merge(c.series(order, z) for c in self.children)

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

    def series(self, order, z=ZERO):
        return functools.reduce(lambda p, q: _times(p, q, order), (c.series(order, z) for c in self.children))

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
            return Poly(unipoly.ZERO_POLY)
        return mul([const_expr(self.k), power(self.base, self.k - 1), self.base.diff()])

    def series(self, order, z=ZERO):
        out, base, k = {ZERO: unipoly.ONE_POLY}, self.base.series(order, z), self.k
        while k:  # by squaring, with no square past the top bit
            if k & 1:
                out = _times(out, base, order)
            k >>= 1
            base = _times(base, base, order) if k else base
        return out

    def to_text(self):
        return "(%s)^%d" % (self.base.to_text(), self.k)


def const_expr(c) -> Poly:
    return Poly([c])


def t_expr() -> Poly:
    return Poly([0, 1])


def _fold(node, children: Sequence[Expr], op, unit: unipoly.UPoly) -> Expr:
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
    return _fold(Add, terms, unipoly.poly_add, unipoly.ZERO_POLY)


def mul(factors: Sequence[Expr]) -> Expr:
    """The product of factors; polynomial factors fold into one Poly, and a
    zero one makes the product zero."""
    if any(isinstance(c, Poly) and not c.coeffs.num for c in factors):
        return Poly(unipoly.ZERO_POLY)
    return _fold(Mul, factors, unipoly.poly_mul, unipoly.ONE_POLY)


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


def order_at(expr: Expr, z: GaussRat, max_order: int) -> int | float:
    """Vanishing order at z, math.inf past max_order: the least valuation
    over the exact groups of `series`.  An exp does not vanish, and the
    orders of a product's factors add, so no product is expanded for them."""
    if isinstance(expr, Exp):
        return 0
    if isinstance(expr, Mul):
        m = sum(order_at(c, z, max_order) for c in expr.children)
    elif isinstance(expr, Pow):
        m = expr.k * order_at(expr.base, z, max_order) if expr.k else 0
    else:
        m = min(map(unipoly.valuation, expr.series(max_order, z).values()), default=math.inf)
    return m if m <= max_order else math.inf
