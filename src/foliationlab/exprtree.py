"""Expression trees for parametrized curves: polynomials, exp, sums,
products, integer powers.

Evaluation is scaled: a node returns (a, u) with value = u * e^a and
|u| = 1 (u = 0 for an exact zero), so quantities like exp(2t) at |t| = 256
never overflow; log|value|^2 = 2a is exact in the log domain.  Exponential
arguments are restricted to polynomials, which keeps the scale exact.

Series expansions at t = 0 are exact over Q(i) whenever every exp argument
vanishes at 0; otherwise SeriesNotRational is raised and callers fall back
to numeric order detection.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gaussrat import GaussRat
from .mvpoly import MVPoly
from .series import TruncatedSeries
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

    def series(self, order: int) -> TruncatedSeries:
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


def _normalize(v):
    mag = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), -np.inf)
        u = np.where(mag > 0, v / np.where(mag > 0, mag, 1.0), 0.0 + 0.0j)
    return a, u


class Poly(Expr):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[GaussRat]):
        self.coeffs = tuple(unipoly.trim([GaussRat.coerce(c) for c in coeffs]))

    def eval_plain(self, t):
        """Horner's rule from the leading coefficient."""
        t = _as_array(t)
        lead, *rest = [c.to_complex() for c in reversed(self.coeffs)] or [0j]
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
        return TruncatedSeries(list(self.coeffs[: order + 1]), order)

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
        return Mul([self.arg.diff(), self])

    def series(self, order):
        s = self.arg.series(order)
        if not s.coeffs[0].is_zero():
            raise SeriesNotRational("exp argument has nonzero constant term")
        out = TruncatedSeries.const(1, order)
        term = TruncatedSeries.const(1, order)
        fact = Fraction(1)
        for k in range(1, order + 1):
            term = term * s
            fact *= k
            out = out + term * GaussRat(Fraction(1, fact))
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
        return Add([c.diff() for c in self.children])

    def series(self, order):
        out = self.children[0].series(order)
        for c in self.children[1:]:
            out = out + c.series(order)
        return out

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
        terms = []
        for i in range(len(self.children)):
            factors = list(self.children)
            factors[i] = factors[i].diff()
            terms.append(Mul(factors))
        return Add(terms)

    def series(self, order):
        out = self.children[0].series(order)
        for c in self.children[1:]:
            out = out * c.series(order)
        return out

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
            return Poly([GaussRat(0)])
        return Mul([Poly([GaussRat(self.k)]), Pow(self.base, self.k - 1), self.base.diff()])

    def series(self, order):
        return self.base.series(order) ** self.k

    def is_polynomial(self):
        return self.base.is_polynomial()

    def to_text(self):
        return "(%s)^%d" % (self.base.to_text(), self.k)


def const_expr(c) -> Poly:
    return Poly([GaussRat.coerce(c)])


def t_expr() -> Poly:
    return Poly([GaussRat(0), GaussRat(1)])


def expr_from_mvpoly(p: MVPoly, components: Sequence[Expr]) -> Expr:
    """Compose a polynomial in n variables with curve components."""
    if len(components) != p.nvars():
        raise ValueError("component count mismatch")
    terms: list[Expr] = []
    for e, c in p.sorted_terms():
        factors: list[Expr] = [const_expr(c)]
        for i, k in enumerate(e):
            if k == 1:
                factors.append(components[i])
            elif k > 1:
                factors.append(Pow(components[i], k))
        terms.append(Mul(factors) if len(factors) > 1 else factors[0])
    if not terms:
        return Poly([])
    return Add(terms) if len(terms) > 1 else terms[0]


def order_at(expr: Expr, t0: complex, max_order: int) -> int | float:
    """Vanishing order at t0: exact from the rational series at t0 = 0,
    numeric derivative probing elsewhere and where exp units block the
    series."""
    if t0 == 0:
        try:
            return expr.series(max_order).valuation()
        except SeriesNotRational:
            pass
    return order_at_point(expr, t0, max_order)


def order_at_point(expr: Expr, t0: complex, max_order: int, tol: float = 1e-9) -> int | float:
    """Numeric vanishing order at an arbitrary point."""
    g = expr
    for m in range(max_order + 1):
        val = g.eval_complex(t0)
        if abs(val) > tol:
            return m
        g = g.diff()
    return math.inf
