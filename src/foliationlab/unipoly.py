"""The one dense univariate polynomial over the Gaussian rationals.

Polynomials are ascending coefficient lists.  This module holds their
arithmetic, gcd and root extraction; other modules call it rather than do
arithmetic on the lists.  The root path works in Z[i]: the
coefficients are cleared to Gaussian integers over their common
denominator, and only a root found becomes a GaussRat (a rational root a
Fraction).  Gaussian rational roots come from the rational root theorem
transported to Z[i] (a UFD, so candidates are ratios of Gaussian-integer
divisors of the outer coefficients), plus the exact quadratic formula.
The divisors of a Gaussian integer come from its factored norm: each
rational prime splits into Gaussian primes, exact division of z fixes
their exponents, and the products times the four units are every divisor.
Each candidate num/den is tested by homogeneous Horner, sum C_k num^k
den^(n-k) = 0.  Anything that does not split this way, or whose outer
coefficients have norm past ``DIVISOR_NORM_CAP``, is returned as an
unfactored residual; callers treat residuals conservatively."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, isqrt, lcm
from typing import Sequence

from .gaussrat import ZERO, GaussRat, _gauss, _zi_quotient

Coeffs = list[GaussRat]

DIVISOR_NORM_CAP = 200_000


def trim(p: Coeffs) -> Coeffs:
    while p and p[-1].is_zero():
        p = p[:-1]
    return p


def bivariate_rows(p, x: int, y: int) -> list[Coeffs]:
    """The MVPoly p in two variables as coefficients in variable y, each an
    ascending coefficient list in variable x; at least one row."""
    out: list[Coeffs] = [[] for _ in range(max(p.degree_in(y), 0) + 1)]
    den = p.den
    for e, (a, b) in p.num.items():
        row = out[e[y]]
        row.extend([ZERO] * (e[x] + 1 - len(row)))
        row[e[x]] = _gauss(a, b, den)
    return out


def degree(p: Coeffs) -> int:
    p = trim(list(p))
    return len(p) - 1


def poly_eval(p: Sequence[GaussRat], x: GaussRat) -> GaussRat:
    out = GaussRat(0)
    for c in reversed(list(p)):
        out = out * x + c
    return out


def poly_add(p: Coeffs, q: Coeffs) -> Coeffs:
    if len(p) < len(q):
        p, q = q, p
    return trim([a + b for a, b in zip(p, q)] + list(p[len(q):]))


def poly_sub(p: Coeffs, q: Coeffs) -> Coeffs:
    return poly_add(p, [-c for c in q])


def poly_mul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return []
    out = [GaussRat(0)] * (len(p) + len(q) - 1)
    q_terms = [(j, b) for j, b in enumerate(q) if not b.is_zero()]
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in q_terms:
            out[i + j] = out[i + j] + a * b
    return trim(out)


def poly_divmod(p: Coeffs, q: Coeffs) -> tuple[Coeffs, Coeffs]:
    p, q = trim(list(p)), trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [GaussRat(0)] * max(0, len(p) - len(q) + 1)
    rem = list(p)
    dq, lead = len(q) - 1, q[-1]
    while len(rem) - 1 >= dq and rem:
        k = len(rem) - 1 - dq
        c = rem[-1] / lead
        quot[k] = c
        for j, b in enumerate(q):
            rem[k + j] = rem[k + j] - c * b
        rem = trim(rem)
    return trim(quot), rem


def poly_monic(p: Coeffs) -> Coeffs:
    p = trim(list(p))
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def poly_gcd(p: Coeffs, q: Coeffs) -> Coeffs:
    """Monic gcd over Q(i)."""
    a, b = trim(list(p)), trim(list(q))
    if len(a) < len(b):  # the first remainder step would only swap them
        a, b = b, a
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def poly_derivative(p: Coeffs) -> Coeffs:
    return trim([p[k] * k for k in range(1, len(p))])


# -- truncated power series: the known Taylor coefficients at t = 0 -----------


def valuation(p: Sequence[GaussRat]) -> int | float:
    """Index of the first nonzero coefficient; inf when every one is zero."""
    return next((k for k, c in enumerate(p) if not c.is_zero()), inf)


def series_mul(p: Coeffs, q: Coeffs, order: int) -> Coeffs:
    """p*q with the terms past t^order dropped."""
    return trim(poly_mul(p[: order + 1], q[: order + 1])[: order + 1])


def series_divide(num: Sequence[GaussRat], den: Sequence[GaussRat]) -> Coeffs:
    """The coefficients of num/den that the known ones determine,
    min(len(num), len(den)) - valuation(den) of them, untrimmed.  den must
    have a nonzero coefficient, and num must vanish to at least its order."""
    v = valuation(den)
    out: Coeffs = []
    for k in range(min(len(num), len(den)) - v):
        acc = num[v + k]
        for j in range(k):
            acc = acc - out[j] * den[v + k - j]
        out.append(acc / den[v])
    return out


def deflate(p: Coeffs, root: GaussRat) -> Coeffs:
    """Divide by (x - root) via synthetic division; the root must be exact."""
    p = trim(list(p))
    n = len(p) - 1
    if n < 1:
        raise ValueError("cannot deflate a constant")
    q = [GaussRat(0)] * n
    q[n - 1] = p[n]
    for k in range(n - 1, 0, -1):
        q[k - 1] = p[k] + root * q[k]
    if not (p[0] + root * q[0]).is_zero():
        raise ValueError("deflation at a non-root")
    return trim(q)


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


def _clear_denominators(cs: Sequence[GaussRat]) -> tuple[list[tuple[int, int]], int]:
    """The Gaussian integers l*c, as (re, im) pairs, and l, the lcm of the
    denominators d of the (a + b*i)/d.  Since gcd(a, b, d) = 1, d is the lcm
    of the denominators of the real and imaginary parts."""
    abd = [c._abd for c in cs]
    l = lcm(*(d for _, _, d in abd))
    return [(a * (l // d), b * (l // d)) for a, b, d in abd], l


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


class RootResult:
    """Roots found over Q(i) plus any unfactored residual."""

    __slots__ = ("roots", "residual", "exhaustive")

    def __init__(self, roots: list[GaussRat], residual: Coeffs | None, exhaustive: bool):
        self.roots = roots
        self.residual = residual  # None when the polynomial split completely
        self.exhaustive = exhaustive

    def split_completely(self) -> bool:
        return self.residual is None


def gaussian_rational_roots(p: Coeffs) -> RootResult:
    """Extract Q(i)-roots with multiplicity.

    Splits completely whenever the polynomial factors into linears over
    Q(i) through rational-root candidates and the quadratic formula.  The
    residual, when present, has no Q(i) root that the bounded candidate
    search could certify; `exhaustive` is False only when an outer
    coefficient's norm passed ``DIVISOR_NORM_CAP`` and the search stopped.
    """
    p = trim(list(p))
    if not p:
        raise ValueError("zero polynomial has every root")
    roots: list[GaussRat] = []
    while p[0].is_zero():
        roots.append(GaussRat(0))
        p = p[1:]
    while True:
        d = len(p) - 1
        if d <= 0:
            return RootResult(roots, None, True)
        if d == 1:
            roots.append(-p[0] / p[1])
            return RootResult(roots, None, True)
        if d == 2:
            a, b, c = p[2], p[1], p[0]
            disc = b * b - 4 * a * c
            s = disc.sqrt()
            if s is None:
                return RootResult(roots, p, True)
            roots.append((-b + s) / (2 * a))
            roots.append((-b - s) / (2 * a))
            return RootResult(roots, None, True)
        ints = _clear_denominators(p)[0]
        d0 = _gauss_int_divisors(ints[0])
        dn = _gauss_int_divisors(ints[-1])
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


def _int_gcd(*polys: list[int]) -> list[int]:
    """Primitive gcd over Z[t], leading coefficient positive, of integer
    polynomials, by the primitive pseudo-remainder sequence; [] for zeros."""
    f: list[int] = []
    for g in polys:
        while any(g):
            while not g[-1]:
                g = g[:-1]
            content = gcd(*g) if g[-1] > 0 else -gcd(*g)
            g, r = [c // content for c in g], list(f)
            while len(r) >= len(g):  # pseudo-division by g, one lc(g) per step
                k, c = len(r) - len(g), r[-1]
                r = [x * g[-1] for x in r]
                for j, b in enumerate(g):
                    r[k + j] -= c * b
                r.pop()
            f, g = g, r
    return f


def real_rational_roots(p: Coeffs) -> list[Fraction]:
    """Rational (real) roots of a Q(i)-coefficient polynomial, sorted,
    without multiplicity.

    With l*p = R + i*I for integer polynomials R and I (l clears the
    denominators), a rational q is a root iff it is a common root of R and
    I, i.e. a rational root of their gcd over Z; the rational root theorem
    bounds the candidates num/den, each tested in integers by homogeneous
    Horner, sum g_k num^k den^(n-k) = 0.
    """
    p = trim(list(p))
    if not p:
        raise ValueError("zero polynomial")
    ints = _clear_denominators(p)[0]
    g = _int_gcd([a for a, _ in ints], [b for _, b in ints])
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
