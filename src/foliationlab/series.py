"""Truncated power series in one parameter with exact coefficients.

A series carries coefficients c_0..c_N and the truncation order N; every
arithmetic result is truncated to the minimum order of its operands, so a
coefficient that is present is always exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .gaussrat import GaussRat
from .mvpoly import MVPoly
from . import unipoly


class TruncatedSeries:
    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[GaussRat], order: int):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [GaussRat.coerce(c) for c in coeffs[: order + 1]]
        cs += [GaussRat(0)] * (order + 1 - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([], order)

    @classmethod
    def const(cls, c, order: int) -> "TruncatedSeries":
        return cls([GaussRat.coerce(c)], order)

    @classmethod
    def t(cls, order: int) -> "TruncatedSeries":
        return cls([GaussRat(0), GaussRat(1)], order)

    def __getitem__(self, k: int) -> GaussRat:
        if k < 0:
            raise IndexError(k)
        if k > self.order:
            raise IndexError("coefficient %d beyond truncation order %d" % (k, self.order))
        return self.coeffs[k]

    def valuation(self) -> int | float:
        """Index of the first nonzero known coefficient; +inf if all known
        coefficients vanish (true valuation then exceeds the order)."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return math.inf

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction, GaussRat)):
            return TruncatedSeries.const(other, self.order)
        raise TypeError(type(other).__name__)

    def __add__(self, other):
        o = self._coerce(other)
        n = min(self.order, o.order)
        return TruncatedSeries([self.coeffs[k] + o.coeffs[k] for k in range(n + 1)], n)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            c = GaussRat.coerce(other)
            return TruncatedSeries([x * c for x in self.coeffs], self.order)
        o = self._coerce(other)
        n = min(self.order, o.order)
        return TruncatedSeries(unipoly.poly_mul(self.coeffs[: n + 1], o.coeffs[: n + 1]), n)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = TruncatedSeries.const(1, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base, k = base * base, k >> 1
        return out

    def divide(self, den: "TruncatedSeries") -> "TruncatedSeries":
        """Exact series division.  Requires val(den) <= val(self); the
        quotient is certified to order min(orders) - val(den)."""
        v = den.valuation()
        if v is math.inf:
            raise ZeroDivisionError("division by a series that vanishes to working order")
        sv = self.valuation()
        if sv is not math.inf and sv < v:
            raise ValueError("quotient would have a pole")
        n = min(self.order, den.order) - v
        if n < 0:
            raise ValueError("not enough known coefficients to divide")
        if sv is math.inf:
            return TruncatedSeries.zero(n)
        num = self.coeffs[v: v + n + 1]
        dc = den.coeffs[v: v + n + 1]
        lead = dc[0]
        out = [GaussRat(0)] * (n + 1)
        for k in range(n + 1):
            acc = num[k]
            for j in range(k):
                acc = acc - out[j] * dc[k - j]
            out[k] = acc / lead
        return TruncatedSeries(out, n)

    def derivative(self) -> "TruncatedSeries":
        return TruncatedSeries(unipoly.poly_derivative(self.coeffs), max(self.order - 1, 0))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                parts.append("(%s)*t^%d" % (c, k))
        body = " + ".join(parts) if parts else "0"
        return "%s + O(t^%d)" % (body, self.order + 1)


def poly_eval_series(p: MVPoly, point: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """Evaluate a polynomial at a vector of series, exactly to the common
    truncation order."""
    if len(point) != p.nvars():
        raise ValueError("point dimension mismatch")
    order = min(s.order for s in point) if point else 0
    out = TruncatedSeries.zero(order)
    powers: list[dict[int, TruncatedSeries]] = [{0: TruncatedSeries.const(1, order)} for _ in point]

    def power(i: int, k: int) -> TruncatedSeries:
        cache = powers[i]
        if k not in cache:
            half = power(i, k // 2)
            s = half * half
            if k & 1:
                s = s * point[i]
            cache[k] = s
        return cache[k]

    for exp, c in p.terms.items():
        term = TruncatedSeries.const(c, order)
        for i, e in enumerate(exp):
            if e:
                term = term * power(i, e)
        out = out + term
    return out
