import struct
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliationlab.gaussrat import GaussRat, I, rational_sqrt

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
gauss = st.builds(GaussRat, rationals, rationals)


def test_basic_arithmetic():
    assert GaussRat(1, 2) * GaussRat(1, -2) == GaussRat(5)
    assert I * I == GaussRat(-1)
    assert GaussRat(2) / I == GaussRat(0, -2)
    assert (GaussRat(3, 4) - GaussRat(1, 1)) == GaussRat(2, 3)


def test_division_exact():
    q = GaussRat(Fraction(3, 7), Fraction(-2, 5))
    assert q / q == GaussRat(1)
    with pytest.raises(ZeroDivisionError):
        q / GaussRat(0)


def test_sqrt_cases():
    assert GaussRat(Fraction(9, 4)).sqrt() == GaussRat(Fraction(3, 2))
    assert GaussRat(-4).sqrt() == GaussRat(0, 2)
    assert GaussRat(0, 2).sqrt() == GaussRat(1, 1)
    assert GaussRat(2).sqrt() is None
    assert GaussRat(0).sqrt() == GaussRat(0)
    assert rational_sqrt(Fraction(49, 81)) == Fraction(7, 9)
    assert rational_sqrt(Fraction(2)) is None


@given(gauss, gauss, gauss)
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@given(gauss)
@settings(max_examples=40, deadline=None)
def test_sqrt_squares_back(a):
    s = (a * a).sqrt()
    assert s is not None
    assert s * s == a * a


def test_q_plus_membership():
    assert GaussRat(Fraction(3, 2)).is_positive_rational()
    assert not GaussRat(-1).is_positive_rational()
    assert not GaussRat(1, 1).is_positive_rational()
    assert not GaussRat(0).is_positive_rational()


# -- reference oracle -------------------------------------------------------
#
# A Gaussian rational as a pair of Fractions, with the arithmetic, square
# root and text forms written out directly.  GaussRat must agree with it on
# every value, string and hash.

def _ref(x):
    return (Fraction(x), Fraction(0))


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    if n == 0:
        raise ZeroDivisionError
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def _ref_qsqrt(q):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    return Fraction(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


def ref_sqrt(x):
    re, im = x
    if not re and not im:
        return (Fraction(0), Fraction(0))
    n = _ref_qsqrt(re * re + im * im)
    if n is None:
        return None
    if not im:
        r = _ref_qsqrt(abs(re))
        return None if r is None else ((r, Fraction(0)) if re > 0 else (Fraction(0), r))
    s = _ref_qsqrt((re + n) / 2)
    return None if not s else (s, im / (2 * s))


def ref_str(x):
    re, im = x
    if not im:
        return str(re)
    mag = abs(im)
    istr = "i" if mag == 1 else "%s*i" % mag
    if not re:
        return istr if im > 0 else "-" + istr
    return "%s%s%s" % (re, "+" if im > 0 else "-", istr)


big = st.integers(-(2 ** 80), 2 ** 80)
ints = st.one_of(st.integers(-50, 50), big)
fracs = st.builds(Fraction, ints, st.one_of(st.integers(1, 12), st.integers(1, 2 ** 70)))
parts = st.one_of(ints, fracs)
pairs = st.tuples(parts, parts)
scalars = st.one_of(st.booleans(), ints, fracs)


def assert_matches(z, ref):
    assert isinstance(z, GaussRat)
    assert (z.re, z.im) == ref
    assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
    assert str(z) == ref_str(ref)
    assert repr(z) == "GaussRat(%s, %s)" % ref
    assert hash(z) == (hash(z._abd) if ref[1] else hash(ref[0]))  # a real value hashes as its Fraction
    want = complex(ref[0]) + 1j * complex(ref[1])
    assert struct.pack("dd", z.to_complex().real, z.to_complex().imag) == struct.pack("dd", want.real, want.imag)
    a, b, d = z._abd
    assert d > 0 and gcd(a, b, d) == 1
    assert (z == ref[0]) == (not ref[1])
    assert bool(z) == bool(ref[0] or ref[1]) == (not z.is_zero())


@given(pairs, pairs)
@settings(max_examples=150, deadline=None)
def test_matches_reference_binary(p, q):
    x, y = GaussRat(*p), GaussRat(*q)
    rx, ry = tuple(map(Fraction, p)), tuple(map(Fraction, q))
    assert_matches(x, rx)
    assert_matches(x + y, ref_add(rx, ry))
    assert_matches(x - y, ref_sub(rx, ry))
    assert_matches(x * y, ref_mul(rx, ry))
    assert_matches(-x, (-rx[0], -rx[1]))
    assert_matches(x.conj(), (rx[0], -rx[1]))
    assert x.abs2() == rx[0] ** 2 + rx[1] ** 2 and isinstance(x.abs2(), Fraction)
    if y:
        assert_matches(x / y, ref_div(rx, ry))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert (x == y) == (rx == ry)


@given(pairs, scalars)
@settings(max_examples=150, deadline=None)
def test_matches_reference_mixed_operands(p, k):
    x, rx, rk = GaussRat(*p), tuple(map(Fraction, p)), _ref(k)
    assert_matches(GaussRat.coerce(k), rk)
    assert_matches(GaussRat(k), rk)
    assert_matches(x + k, ref_add(rx, rk))
    assert_matches(k + x, ref_add(rk, rx))
    assert_matches(x - k, ref_sub(rx, rk))
    assert_matches(k - x, ref_sub(rk, rx))
    assert_matches(x * k, ref_mul(rx, rk))
    assert_matches(k * x, ref_mul(rk, rx))
    for num, den, rnum, rden in ((x, k, rx, rk), (k, x, rk, rx)):
        if rden == (0, 0):
            with pytest.raises(ZeroDivisionError):
                num / den
        else:
            assert_matches(num / den, ref_div(rnum, rden))
    assert (x == k) == (rx == rk)


@given(pairs, st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_matches_reference_sqrt_and_pow(p, k):
    x, rx = GaussRat(*p), tuple(map(Fraction, p))
    want = (Fraction(1), Fraction(0))
    for _ in range(k):
        want = ref_mul(want, rx)
    assert_matches(x ** k, want)
    for z, rz in ((x, rx), (x * x, ref_mul(rx, rx))):
        s, rs = z.sqrt(), ref_sqrt(rz)
        if rs is None:
            assert s is None
        else:
            assert_matches(s, rs)


def test_text_forms():
    cases = {(0, 0): "0", (0, 1): "i", (0, -1): "-i", (0, Fraction(-2, 3)): "-2/3*i",
             (Fraction(4, 65), Fraction(7, 65)): "4/65+7/65*i", (3, -1): "3-i", (-1, 5): "-1+5*i"}
    for p, text in cases.items():
        assert str(GaussRat(*p)) == text == ref_str(tuple(map(Fraction, p)))
    assert repr(GaussRat(Fraction(-1, 5), 2)) == "GaussRat(-1/5, 2)"
    assert str(GaussRat(True, False)) == "1"


def test_immutable_and_typed():
    z = GaussRat(1, 2)
    for name in ("re", "im", "_abd", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    assert z == GaussRat(1, 2)
    for bad in ((1.5,), (1, 0.5), (GaussRat(1),), ("1",), (None,)):
        with pytest.raises(TypeError):
            GaussRat(*bad)
    with pytest.raises(TypeError):
        GaussRat.coerce(1.5)
    with pytest.raises(TypeError):
        z + 1.5
    with pytest.raises(TypeError):
        z / 1.5
    assert z != 1.5 and z != "1+2*i"
