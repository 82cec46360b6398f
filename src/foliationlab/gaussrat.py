"""Exact Gaussian rational arithmetic.

Numbers a + b*i with a, b rational, kept exact through every field
operation.  This is the coefficient field for all symbolic work in the
package; floats only appear as numeric shadows via ``to_complex``.

A GaussRat stores three ints ``(a, b, d)`` meaning (a + b*i)/d, with the
invariant d > 0 and gcd(a, b, d) = 1, so every number has exactly one
representation.  Each operation works on these integers over a common
denominator and normalises its result with a single ``math.gcd`` (the
representation of FLINT's ``fmpq``/``fmpzi``).  ``re`` and ``im`` present
the parts as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError("expected int or Fraction, got %s" % type(x).__name__)


def _qstr(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = gcd(n, d)
    return str(n // g) if d == g else "%d/%d" % (n // g, d // g)


def _gstr(a: int, b: int, d: int) -> str:
    """str(GaussRat) of (a + b*i)/d for d > 0, reduced or not."""
    if not b:
        return _qstr(a, d)
    mag = _qstr(abs(b), d)
    istr = ("" if b > 0 else "-") + ("i" if mag == "1" else mag + "*i")
    if not a:
        return istr
    return _qstr(a, d) + ("+" if b > 0 else "") + istr


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class GaussRat:
    """Immutable Gaussian rational (a + b*i)/d."""

    __slots__ = ("_abd",)

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if type(re) is int and type(im) is int:
            _set_abd(self, (re, im, 1))
            return
        p, q = _ratio(re)
        r, s = _ratio(im)
        _set_abd(self, _gauss(p * s, r * q, q * s)._abd)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @staticmethod
    def coerce(x: int | Fraction | GaussRat) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        if type(x) is int:
            return _gauss(x, 0, 1)
        return GaussRat(x)

    @property
    def re(self) -> Fraction:
        return Fraction(self._abd[0], self._abd[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._abd[1], self._abd[2])

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._abd[0] or self._abd[1])

    def is_positive_rational(self) -> bool:
        """Strictly positive and real (the Q+ membership test)."""
        a, b, _ = self._abd
        return not b and a > 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _abd_of(other)
        if o is None:
            return NotImplemented
        a1, b1, d1 = self._abd
        a2, b2, d2 = o
        if d1 == d2:
            return _gauss(a1 + a2, b1 + b2, d1)
        return _gauss(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._abd
        return _gauss(-a, -b, d)

    def __sub__(self, other):
        o = _abd_of(other)
        if o is None:
            return NotImplemented
        a1, b1, d1 = self._abd
        a2, b2, d2 = o
        if d1 == d2:
            return _gauss(a1 - a2, b1 - b2, d1)
        return _gauss(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __rsub__(self, other):
        return NotImplemented if _abd_of(other) is None else -self + other

    def __mul__(self, other):
        o = _abd_of(other)
        if o is None:
            return NotImplemented
        a1, b1, d1 = self._abd
        a2, b2, d2 = o
        return _gauss(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a2, b2, d2 = GaussRat.coerce(other)._abd
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        a1, b1, d1 = self._abd
        return _gauss((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n)

    def __rtruediv__(self, other):
        return GaussRat.coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base, k = base * base, k >> 1
        return out

    def conj(self) -> "GaussRat":
        a, b, d = self._abd
        return _gauss(a, -b, d)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        a, b, d = self._abd
        return Fraction(a * a + b * b, d * d)

    def sqrt(self) -> "GaussRat | None":
        """Exact square root inside Q(i), or None when it does not exist.

        sqrt((a + b*i)/d) = sqrt(w)/d for the Gaussian integer w = (a + b*i)*d,
        and a square root of w in Q(i) lies in Z[i]: x + y*i with
        x^2 = (Re w + |w|)/2, y^2 = (|w| - Re w)/2, x >= 0, and y >= 0 when x = 0."""
        a, b, d = self._abd
        re, im = a * d, b * d
        n2 = re * re + im * im
        n = isqrt(n2)
        if n * n != n2 or (re + n) & 1:
            return None
        x2 = (re + n) // 2
        x = isqrt(x2)
        if x * x != x2:
            return None
        if x:
            return _gauss(x, im // (2 * x), d)
        y = isqrt(-re)
        return _gauss(0, y, d) if y * y == -re else None

    # -- conversions and protocol ------------------------------------------

    def to_complex(self) -> complex:
        a, b, d = self._abd
        return complex(a / d, b / d)

    def __eq__(self, other):
        o = _abd_of(other)
        return NotImplemented if o is None else self._abd == o

    def __hash__(self):
        """Equal values hash equal: a real value hashes as the int or
        Fraction it equals, any other as its canonical triple."""
        a, b, d = self._abd
        if b:
            return hash(self._abd)
        return hash(a) if d == 1 else hash(Fraction(a, d))

    def __bool__(self):
        return bool(self._abd[0] or self._abd[1])

    def __repr__(self):
        a, b, d = self._abd
        return "GaussRat(%s, %s)" % (_qstr(a, d), _qstr(b, d))

    def __str__(self):
        return _gstr(*self._abd)


_new = object.__new__
_set_abd = GaussRat._abd.__set__


def _gauss(a: int, b: int, d: int) -> GaussRat:
    """The GaussRat (a + b*i)/d for d > 0, normalised to gcd(a, b, d) = 1."""
    g = gcd(a, b, d)
    z = _new(GaussRat)
    _set_abd(z, (a, b, d) if g == 1 else (a // g, b // g, d // g))
    return z


def _zi_quotient(a: int, b: int, c: int, d: int) -> GaussRat:
    """The GaussRat (a + b*i)/(c + d*i) of two Gaussian integers, c + d*i != 0."""
    return _gauss(a * c + b * d, b * c - a * d, c * c + d * d)


def _zi_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """A gcd in Z[i] of the pairs a, b: Euclid with the nearest quotient."""
    while b[0] or b[1]:
        n = b[0] * b[0] + b[1] * b[1]
        q0, q1 = (2 * (a[0] * b[0] + a[1] * b[1]) + n) // (2 * n), (2 * (a[1] * b[0] - a[0] * b[1]) + n) // (2 * n)
        a, b = b, (a[0] - q0 * b[0] + q1 * b[1], a[1] - q0 * b[1] - q1 * b[0])
    return a


def _zi_primitive(zs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The pairs zs over their Gaussian content c, times conj(c) over |c|^2; zs for a unit c."""
    c = (0, 0)
    for z in zs:
        if (c := _zi_gcd(z, c))[0] ** 2 + c[1] ** 2 == 1:
            return zs
    n = c[0] * c[0] + c[1] * c[1]
    return [((x * c[0] + y * c[1]) // n, (y * c[0] - x * c[1]) // n) for x, y in zs]


def _clear_denominators(cs) -> tuple[list[tuple[int, int]], int]:
    """(l*c as (re, im) pairs, l) for GaussRats c = (a + b*i)/d, l = lcm(every d): content 1."""
    abd = [c._abd for c in cs]
    l = lcm(*(d for _, _, d in abd))
    return [(a * (l // d), b * (l // d)) for a, b, d in abd], l


def _abd_of(x) -> tuple[int, int, int] | None:
    """The canonical (a, b, d) of a GaussRat, int or Fraction; None for
    any other operand."""
    if isinstance(x, GaussRat):
        return x._abd
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)
