"""The one dense univariate polynomial over the Gaussian rationals.

A `UPoly` (num, den) is stored as an `MVPoly` is: ascending Gaussian-integer
numerators (re, im) over one denominator den > 0, with no trailing (0, 0)
and gcd(den, every re and im) = 1, the zero polynomial ([], 1), so equal
polynomials are equal values.  This module does their arithmetic, gcd and
root extraction on the integers; GaussRat appears only at the boundary:
`from_coeffs` clears coefficients coming in, `to_strings` prints,
`poly_eval` returns a value, and roots are GaussRat (real ones Fractions).
Division is pseudo-division over Z[i], and the monic gcd comes from the
primitive pseudo-remainder sequence (Collins, J. ACM 14 (1967); Brown and
Traub, J. ACM 18 (1971)).  Gaussian rational roots come from the rational
root theorem transported to Z[i] (`_gauss_int_divisors`, `_first_root`)
and the exact quadratic formula; anything that does not split so, or whose
outer numerators have norm past ``DIVISOR_NORM_CAP``, is an unfactored
residual, which callers treat conservatively."""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, inf, isqrt, lcm
from typing import NamedTuple, Sequence

from .gaussrat import ZERO, GaussRat, _clear_denominators, _gauss, _zi_primitive, _zi_quotient

DIVISOR_NORM_CAP = 200_000


class UPoly(NamedTuple):
    num: list[tuple[int, int]]
    den: int


ZERO_POLY = UPoly([], 1)
ONE_POLY = UPoly([(1, 0)], 1)


def normal(num: list[tuple[int, int]], den: int) -> UPoly:
    """num/den (den > 0) in canonical form."""
    while num and num[-1] == (0, 0):
        num = num[:-1]
    g = den
    for re, im in num:
        if (g := gcd(g, re, im)) == 1:
            return UPoly(num, den)
    return UPoly([(re // g, im // g) for re, im in num], den // g)


def from_coeffs(cs: Sequence) -> UPoly:
    """The polynomial of ascending ints, Fractions or GaussRats."""
    return normal(*_clear_denominators([GaussRat.coerce(c) for c in cs]))


def to_strings(p: UPoly, length: int = 0) -> list[str]:
    """The coefficients of p as GaussRat strings, padded with "0" to length."""
    out = [str(_gauss(re, im, p.den)) for re, im in p.num]
    return out + ["0"] * (length - len(out))


def from_mvpoly(p, var: int = 0, at: int = 0, order: int = -1) -> UPoly:
    """The MVPoly p as a polynomial in variable `var`, every other variable
    set to the integer `at`, without its terms past var^order (if >= 0)."""
    num = [(0, 0)] * (p.degree_in(var) + 1 if order < 0 else order + 1)
    for e, (a, b) in p.num.items():
        if e[var] < len(num):
            s, (re, im) = at ** (sum(e) - e[var]), num[e[var]]
            num[e[var]] = (re + a * s, im + b * s)
    return normal(num, p.den)


def degree(p: UPoly) -> int:
    return len(p.num) - 1


def poly_eval(p: UPoly, x: GaussRat) -> GaussRat:
    """p(x) by homogeneous Horner on the integers, x = (a + b*i)/d."""
    a, b, d = GaussRat.coerce(x)._abd
    sr, si, dk = 0, 0, 1
    for k, (cr, ci) in enumerate(reversed(p.num)):
        dk *= d if k else 1
        sr, si = sr * a - si * b + cr * dk, sr * b + si * a + ci * dk
    return _gauss(sr, si, p.den * dk)


def poly_add(p: UPoly, q: UPoly, sign: int = 1) -> UPoly:
    """p + sign*q over the lcm of the denominators."""
    den = lcm(p.den, q.den)
    s, t = den // p.den, sign * den // q.den
    return normal([(a * s + c * t, b * s + d * t) for (a, b), (c, d) in zip_longest(p.num, q.num, fillvalue=(0, 0))],
                  den)


def poly_mul(p: UPoly, q: UPoly) -> UPoly:
    re, im = [0] * (len(p.num) + len(q.num)), [0] * (len(p.num) + len(q.num))
    for i, (a, b) in enumerate(p.num):
        for j, (c, d) in enumerate(q.num):
            re[i + j] += a * c - b * d
            im[i + j] += a * d + b * c
    return normal(list(zip(re, im)), p.den * q.den)


def _pseudo_divmod(a: list[tuple[int, int]],
                   b: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], list[tuple[int, int]], tuple[int, int]]:
    """(q, r, s) with s*a = q*b + r, deg r < deg b, on Z[i] numerators: a
    quotient term c/lc(b) outside Z[i] first multiplies r, q and s by lc(b)."""
    (lr, li), db = b[-1], len(b) - 1
    n, (sr, si) = lr * lr + li * li, (1, 0)
    r, q = list(a), [(0, 0)] * max(0, len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        cr, ci = r.pop()  # the coefficient of t^(k + db)
        xr, xi = cr * lr + ci * li, ci * lr - cr * li  # c * conj(lc(b))
        if xr % n or xi % n:
            r, q = ([(x * lr - y * li, x * li + y * lr) for x, y in v] for v in (r, q))
            (sr, si), (xr, xi) = (sr * lr - si * li, sr * li + si * lr), (cr, ci)
        else:
            xr, xi = xr // n, xi // n
        q[k] = (xr, xi)
        for j, (br, bi) in enumerate(b[:db]):
            r[k + j] = (r[k + j][0] - xr * br + xi * bi, r[k + j][1] - xr * bi - xi * br)
    return q, r, (sr, si)


def poly_divmod(p: UPoly, q: UPoly) -> tuple[UPoly, UPoly]:
    """(quotient, remainder) over Q(i): with s*P = Q*B + R on the numerators,
    p = (Q*dq/(s*dp)) q + R/(s*dp), and 1/s = conj(s)/|s|^2."""
    if not q.num:
        raise ZeroDivisionError("polynomial division by zero")
    quot, rem, (sr, si) = _pseudo_divmod(p.num, q.num)
    quot, rem = ([(x * sr + y * si, y * sr - x * si) for x, y in v] for v in (quot, rem))
    m = sr * sr + si * si
    return normal([(x * q.den, y * q.den) for x, y in quot], m * p.den), normal(rem, m * p.den)


def poly_monic(p: UPoly) -> UPoly:
    """p over its leading coefficient l: the numerators times conj(l) over |l|^2."""
    lr, li = p.num[-1] if p.num else (1, 0)
    return normal([(x * lr + y * li, y * lr - x * li) for x, y in p.num], lr * lr + li * li)


def poly_gcd(p: UPoly, q: UPoly) -> UPoly:
    """Monic gcd over Q(i), by the primitive pseudo-remainder sequence."""
    a, b = (p.num, q.num) if len(p.num) >= len(q.num) else (q.num, p.num)
    while len(b) > 1:  # a constant b leaves gcd 1
        b = _zi_primitive(b)
        a, b = b, normal(_pseudo_divmod(a, b)[1], 1).num
    return poly_monic(UPoly(b or a, 1))


def poly_derivative(p: UPoly) -> UPoly:
    return normal([(k * a, k * b) for k, (a, b) in enumerate(p.num) if k], p.den)


def poly_dilate(p: UPoly, c: GaussRat) -> UPoly:
    """p(c*t), c = (a + b*i)/d: the t^k numerator times (a + b*i)^k d^(n-k), over d^n."""
    (a, b, d), n, (pr, pi), out = GaussRat.coerce(c)._abd, len(p.num) - 1, (1, 0), []
    for k, (x, y) in enumerate(p.num):
        out.append(((x * pr - y * pi) * d ** (n - k), (x * pi + y * pr) * d ** (n - k)))
        pr, pi = pr * a - pi * b, pr * b + pi * a
    return normal(out, p.den * d ** max(n, 0))


def deflate(p: UPoly, root: GaussRat) -> UPoly:
    """p / (t - r/d) for an exact root, by synthetic division on the numerators:
    Q_(n-1) = C_n and Q_(k-1) = C_k d^(n-k) + r Q_k, the quotient Q_k d^k over d^(n-1)."""
    if degree(p) < 1:
        raise ValueError("cannot deflate a constant")
    (a, b, d), (qr, qi), qs, dk = GaussRat.coerce(root)._abd, p.num[-1], [], 1
    for cr, ci in reversed(p.num[:-1]):
        qs.append((qr, qi))
        dk *= d
        qr, qi = cr * dk + qr * a - qi * b, ci * dk + qr * b + qi * a
    if qr or qi:
        raise ValueError("deflation at a non-root")
    return normal([(x * d ** k, y * d ** k) for k, (x, y) in enumerate(reversed(qs))], p.den * dk // d)


# -- truncated power series: the known Taylor coefficients at t = 0 -----------


def valuation(p: UPoly) -> int | float:
    """Index of the first nonzero coefficient; inf for the zero series."""
    for k, (re, im) in enumerate(p.num):
        if re or im:
            return k
    return inf


def series_mul(p: UPoly, q: UPoly, order: int) -> UPoly:
    """p*q without the terms past t^order."""
    pq = poly_mul(UPoly(p.num[: order + 1], p.den), UPoly(q.num[: order + 1], q.den))
    return normal(pq.num[: order + 1], pq.den)


def series_divide(num: UPoly, den: UPoly, order: int) -> UPoly:
    """num/den to t^(m-1), m = order + 1 - valuation(den): the terms that num
    and den, known to t^order, determine (num must vanish to den's order).
    With N, D the m known terms from t^v on, it is the reversed quotient of
    t^(2m-2) N(1/t) by t^(m-1) D(1/t), whose remainder reverses past t^(m-1)."""
    v = valuation(den)
    n, d = ((x.num[v: order + 1] + [(0, 0)] * (order + 1))[: order + 1 - v] for x in (num, den))
    q = poly_divmod(UPoly([(0, 0)] * (len(n) - 1) + n[::-1], num.den), UPoly(d[::-1], den.den))[0]
    return normal((q.num + [(0, 0)] * len(n))[len(n) - 1:: -1], q.den)


# -- Gaussian integer helpers -------------------------------------------------


def _two_squares(p: int) -> tuple[int, int]:
    """(x, y) with x^2 + y^2 = p for a prime p = 1 (mod 4): the Euclidean
    algorithm on p and a square root of -1 mod p stops at x (Hermite-Serret)."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    a, b = p, pow(c, (p - 1) // 4, p)
    while b * b > p:
        a, b = b, a % b
    return b, isqrt(p - b * b)


def _gauss_int_divisors(z: tuple[int, int], cap: int = DIVISOR_NORM_CAP) -> list[tuple[int, int]] | None:
    """All divisors of the Gaussian integer z in (re, im) order, or None past
    the search cap.

    The Gaussian primes of z lie over the rational primes of its norm N:
    1+i over 2, p itself for p = 3 (mod 4) (exponent half that in N), and
    x +- iy with x^2 + y^2 = p for p = 1 (mod 4), where exact division of z
    by x + iy splits the exponent of p between the two conjugates.
    """
    a, b = z
    n = a * a + b * b
    if n == 0 or n > cap:
        return None
    primes: list[tuple[tuple[int, int], int]] = []  # (Gaussian prime, exponent in z)
    m, p = n, 2
    while m > 1:
        if p * p > m:
            p = m
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e and p == 2:
            primes.append(((1, 1), e))
        elif e and p % 4 == 3:
            primes.append(((p, 0), e // 2))
        elif e:
            x, y = _two_squares(p)
            k, (u, v) = 0, z
            while k < e and (u * x + v * y) % p == 0 and (v * x - u * y) % p == 0:
                u, v = (u * x + v * y) // p, (v * x - u * y) // p
                k += 1
            primes += [((x, y), k), ((x, -y), e - k)]
        p += 1 if p == 2 else 2
    divs = [(1, 0)]
    for (x, y), k in primes:
        powers = divs
        for _ in range(k):
            powers = [(u * x - v * y, u * y + v * x) for u, v in powers]
            divs = divs + powers
    return sorted(d for u, v in divs for d in ((u, v), (-v, u), (-u, -v), (v, -u)))


def _first_root(ints: list[tuple[int, int]], d0: list[tuple[int, int]],
                dn: list[tuple[int, int]]) -> GaussRat | None:
    """The first root num/den, num in d0 (outer) and den in dn (inner), of the
    Z[i] polynomial `ints`, or None.

    Each pair is tested in integers by homogeneous Horner,
    sum_k C_k num^k den^(n-k) = 0, over the terms C_k den^(n-k) computed once
    per den; a quotient seen before has already failed, so the walk needs no
    deduplication to return the same first root.
    """
    scaled = []  # per den: C_k den^(n-k) for k = n, ..., 0
    for c, d in dn:
        terms, pr, pi = [], 1, 0
        for cr, ci in reversed(ints):
            terms.append((cr * pr - ci * pi, cr * pi + ci * pr))
            pr, pi = pr * c - pi * d, pr * d + pi * c
        scaled.append(terms)
    for a, b in d0:
        for (c, d), terms in zip(dn, scaled):
            sr = si = 0
            for tr, ti in terms:
                sr, si = sr * a - si * b + tr, sr * b + si * a + ti
            if not (sr or si):
                return _zi_quotient(a, b, c, d)
    return None


class RootResult(NamedTuple):
    """Roots found over Q(i) plus any unfactored residual."""

    roots: list[GaussRat]
    residual: UPoly | None  # None when the polynomial split completely
    exhaustive: bool

    def split_completely(self) -> bool:
        return self.residual is None


def gaussian_rational_roots(p: UPoly) -> RootResult:
    """Extract Q(i)-roots with multiplicity.

    Splits completely whenever the polynomial factors into linears over
    Q(i) through rational-root candidates and the quadratic formula.  The
    residual, when present, has no Q(i) root that the bounded candidate
    search could certify; `exhaustive` is False only when an outer
    numerator's norm passed ``DIVISOR_NORM_CAP`` and the search stopped.
    """
    if not p.num:
        raise ValueError("zero polynomial has every root")
    roots: list[GaussRat] = [ZERO] * valuation(p)
    p = UPoly(p.num[len(roots):], p.den)
    while True:
        ints, d = p.num, len(p.num) - 1
        if d <= 0:
            return RootResult(roots, None, True)
        if d == 1:
            roots.append(_zi_quotient(-ints[0][0], -ints[0][1], *ints[1]))
            return RootResult(roots, None, True)
        if d == 2:
            c, b, a = (_gauss(re, im, 1) for re, im in ints)
            s = (b * b - 4 * a * c).sqrt()
            if s is None:
                return RootResult(roots, p, True)
            roots += [(-b + s) / (2 * a), (-b - s) / (2 * a)]
            return RootResult(roots, None, True)
        d0, dn = _gauss_int_divisors(ints[0]), _gauss_int_divisors(ints[-1])
        if d0 is None or dn is None:
            return RootResult(roots, p, False)
        found = _first_root(ints, d0, dn)
        if found is None:
            return RootResult(roots, p, True)
        roots.append(found)
        p = deflate(p, found)


# -- real-rational root certificates -------------------------------------------


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def real_rational_roots(p: UPoly) -> list[Fraction]:
    """Rational (real) roots of a Q(i)-coefficient polynomial, sorted,
    without multiplicity.

    With the numerators R + i*I for integer polynomials R and I, a
    rational q is a root iff it is a root of their monic gcd, whose
    numerators g are a primitive integer polynomial; the rational root
    theorem bounds the candidates num/den, each tested in integers by
    homogeneous Horner, sum g_k num^k den^(n-k) = 0.
    """
    if not p.num:
        raise ValueError("zero polynomial")
    if len(p.num) == 2:  # the root -p0/p1 = -p0 conj(p1)/|p1|^2 is real iff Im(p0 conj(p1)) = 0
        (a, b), (c, d) = p.num
        return [Fraction(-(a * c + b * d), c * c + d * d)] if b * c == a * d else []
    g = [a for a, _ in poly_gcd(*(normal([(z[k], 0) for z in p.num], 1) for k in (0, 1))).num]
    roots = set()
    while len(g) > 1 and not g[0]:
        roots.add(Fraction(0))
        g = g[1:]
    if len(g) == 2:
        roots.add(Fraction(-g[0], g[1]))
    elif len(g) > 2:
        for num in _int_divisors(g[0]):
            for den in _int_divisors(g[-1]):
                for cand in (num, -num):
                    s, dk = 0, 1
                    for c in reversed(g):
                        s = s * cand + c * dk
                        dk *= den
                    if not s:
                        roots.add(Fraction(cand, den))
    return sorted(roots)
