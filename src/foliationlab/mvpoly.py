"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial is stored fraction-free, the way FLINT's ``fmpq_poly`` stores
a rational polynomial: ``num`` maps exponent tuples to Gaussian-integer
numerators ``(re, im)``, and one denominator ``den > 0`` is shared by every
term, so the term of exponent e has coefficient (re + im*i)/den.  The form
is canonical: no stored pair is (0, 0) and gcd(den, every re and im) = 1,
with the zero polynomial ({}, 1).  Equal polynomials therefore have equal
``(variables, den, num)``.  Each operation works on the integers and
divides out its result's content once, skipping that gcd pass when
den = 1.  GaussRat appears only at the boundary: ``coeff``,
``constant_term``, ``terms``, ``sorted_terms``, ``evaluate``, ``to_string``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, inf, lcm
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .gaussrat import ZERO, GaussRat, _abd_of, _gauss

Exponent = tuple[int, ...]
Numerators = dict[Exponent, tuple[int, int]]


def _scalar(c) -> tuple[int, int, int]:
    """(re, im, den) of an int, Fraction or GaussRat coefficient."""
    abd = _abd_of(c)
    if abd is None:
        raise TypeError("bad coefficient type %s" % type(c).__name__)
    return abd


def _poly(variables: tuple[str, ...], num: Numerators, den: int) -> "MVPoly":
    """Wrap numerators and a denominator that are canonical by construction."""
    p = _new(MVPoly)
    _set_variables(p, variables)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _normal(variables: tuple[str, ...], num: Numerators, den: int) -> "MVPoly":
    """Wrap nonzero numerators over den, dividing out their common content."""
    if den != 1:
        g = den
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            num = {e: (re // g, im // g) for e, (re, im) in num.items()}
            den //= g
    return _poly(variables, num, den)


def _accumulate(out: Numerators, e: Exponent, re: int, im: int):
    old = out.get(e)
    out[e] = (re, im) if old is None else (old[0] + re, old[1] + im)


def _nonzero(num: Numerators) -> Numerators:
    return {e: c for e, c in num.items() if c[0] or c[1]}


class MVPoly:
    """Polynomial in an ordered tuple of named variables."""

    __slots__ = ("variables", "num", "den")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, GaussRat] | None = None):
        variables = tuple(variables)
        n = len(variables)
        parts = []
        den = 1
        for exp, c in (terms or {}).items():
            a, b, d = _scalar(c)
            if not (a or b):
                continue
            exp = tuple(exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError("bad exponent vector %r" % (exp,))
            parts.append((exp, a, b, d))
            if d != den:
                den = lcm(den, d)
        # a prime p | den divides some term's d as often as den; that term's
        # a, b are then not both divisible by p, so the content is already 1
        num = {exp: (a * (den // d), b * (den // d)) for exp, a, b, d in parts}
        _set_variables(self, variables)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("MVPoly is immutable")

    @property
    def terms(self) -> Mapping[Exponent, GaussRat]:
        """Read-only view exponent -> GaussRat coefficient, built per access."""
        den = self.den
        return MappingProxyType({e: _gauss(a, b, den) for e, (a, b) in self.num.items()})

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MVPoly":
        return _poly(tuple(variables), {}, 1)

    @classmethod
    def const(cls, variables: Sequence[str], c) -> "MVPoly":
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MVPoly":
        variables = tuple(variables)
        i = variables.index(name)
        return _poly(variables, {tuple(int(j == i) for j in range(len(variables))): (1, 0)}, 1)

    @classmethod
    def monomial(cls, variables: Sequence[str], exp: Exponent, c=1) -> "MVPoly":
        return cls(variables, {tuple(exp): c})

    # -- basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.num)

    def is_monomial(self) -> bool:
        return len(self.num) == 1

    def nvars(self) -> int:
        return len(self.variables)

    def constant_term(self) -> GaussRat:
        return self.coeff((0,) * len(self.variables))

    def coeff(self, exp: Exponent) -> GaussRat:
        c = self.num.get(tuple(exp))
        return ZERO if c is None else _gauss(c[0], c[1], self.den)

    def homogeneous_part(self, degree: int) -> "MVPoly":
        """The terms of total degree `degree`."""
        return _normal(self.variables, {e: c for e, c in self.num.items() if sum(e) == degree}, self.den)

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.num), default=-1)

    def vanishing_order(self) -> int | float:
        """Minimal total degree among terms; +inf for the zero polynomial."""
        return min((sum(e) for e in self.num), default=inf)

    def degree_in(self, i: int) -> int:
        return max((e[i] for e in self.num), default=-1)

    def min_exponent_in(self, i: int) -> int | float:
        """u-adic valuation with respect to variable i; +inf for zero."""
        return min((e[i] for e in self.num), default=inf)

    def sorted_terms(self) -> list[tuple[Exponent, GaussRat]]:
        """Canonical term order: by total degree, then lexicographic."""
        den = self.den
        return [(e, _gauss(a, b, den)) for e, (a, b) in sorted(self.num.items(), key=lambda kv: (sum(kv[0]), kv[0]))]

    # -- ring operations -------------------------------------------------------

    def _check_same_ring(self, other: "MVPoly"):
        if self.variables != other.variables:
            raise ValueError("polynomials live in different rings")

    def _add(self, other, sign: int) -> "MVPoly":
        """self + sign*other over the lcm of the denominators."""
        if not isinstance(other, MVPoly):
            other = MVPoly.const(self.variables, other)
        self._check_same_ring(other)
        d1, d2 = self.den, other.den
        den = d1 if d1 == d2 else lcm(d1, d2)
        s1, s2 = den // d1, sign * (den // d2)
        out = dict(self.num) if s1 == 1 else {e: (a * s1, b * s1) for e, (a, b) in self.num.items()}
        for e, (a, b) in other.num.items():
            old = out.get(e)
            if old is None:
                out[e] = (a * s2, b * s2)
                continue
            re, im = old[0] + a * s2, old[1] + b * s2
            if re or im:
                out[e] = (re, im)
            else:
                del out[e]
        return _normal(self.variables, out, den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.variables, {e: (-a, -b) for e, (a, b) in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MVPoly):
            x, y, d = _scalar(other)
            if not (x or y):
                return MVPoly.zero(self.variables)
            num = {e: (a * x - b * y, a * y + b * x) for e, (a, b) in self.num.items()}
            return _normal(self.variables, num, self.den * d)
        self._check_same_ring(other)
        out: Numerators = {}
        get = out.get
        n2 = other.num.items()
        for e1, (a1, b1) in self.num.items():
            for e2, (a2, b2) in n2:
                e = tuple(map(add, e1, e2))
                re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                old = get(e)
                out[e] = (re, im) if old is None else (old[0] + re, old[1] + im)
        return _normal(self.variables, _nonzero(out), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = MVPoly.const(self.variables, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base, k = base * base, k >> 1
        return out

    def __eq__(self, other):
        if isinstance(other, MVPoly):
            return self.variables == other.variables and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction, GaussRat)):
            return self == MVPoly.const(self.variables, other)
        return NotImplemented

    def __hash__(self):
        if self.is_constant():  # equal to its scalar, so hashed like it
            return hash(self.constant_term())
        return hash((self.variables, self.den, frozenset(self.num.items())))

    # -- substitution ----------------------------------------------------------

    def subs(self, images: Sequence["MVPoly"]) -> "MVPoly":
        """Ring homomorphism sending variable i to images[i].

        All images must share one target ring.  Monomial powers are cached
        per variable; the terms are summed into one dict over the lcm of
        their denominators."""
        if len(images) != len(self.variables):
            raise ValueError("need one image per variable")
        target = images[0].variables
        for im in images:
            if im.variables != target:
                raise ValueError("images live in different rings")
        one = MVPoly.const(target, 1)
        powers: list[dict[int, MVPoly]] = [{0: one} for _ in images]

        def power(i: int, k: int) -> MVPoly:
            cache = powers[i]
            if k not in cache:
                half = power(i, k // 2)
                p = half * half
                if k & 1:
                    p = p * images[i]
                cache[k] = p
            return cache[k]

        products = []
        den = 1
        for exp, c in self.num.items():
            term = one
            for i, e in enumerate(exp):
                if e:
                    term = power(i, e) if term is one else term * power(i, e)
            products.append((c, term))
            den = lcm(den, term.den)
        out: Numerators = {}
        for (a, b), term in products:
            s = den // term.den
            a, b = a * s, b * s
            for e, (x, y) in term.num.items():
                _accumulate(out, e, a * x - b * y, a * y + b * x)
        return _normal(target, _nonzero(out), self.den * den)

    def translate(self, point: Sequence[GaussRat]) -> "MVPoly":
        """Compose with z -> z + point: one exact Taylor shift per variable.
        With p = P/q and M the degree in z, z^k maps to
        sum_f C(k, f) z^f P^(k-f) q^(M-k+f) over q^M."""
        if len(point) != len(self.variables):
            raise ValueError("point dimension mismatch")
        num, den = self.num, self.den
        for i, p in enumerate(point):
            pa, pb, q = _scalar(p)
            if not (pa or pb) or not num:
                continue
            m = max(e[i] for e in num)
            ppow = [(1, 0)]
            for _ in range(m):
                x, y = ppow[-1]
                ppow.append((x * pa - y * pb, x * pb + y * pa))
            qpow = [q**k for k in range(m + 1)]
            out: Numerators = {}
            for e, (a, b) in num.items():
                k = e[i]
                for f in range(k + 1):
                    x, y = ppow[k - f]
                    s = comb(k, f) * qpow[m - k + f]
                    _accumulate(out, e[:i] + (f,) + e[i + 1:], (a * x - b * y) * s, (a * y + b * x) * s)
            num, den = _nonzero(out), den * qpow[m]
        return self if num is self.num else _normal(self.variables, num, den)

    def set_vars_to_zero(self, indices: Iterable[int]) -> "MVPoly":
        """Drop every term with positive exponent in any index from `indices`."""
        idx = set(indices)
        return _normal(self.variables, {e: c for e, c in self.num.items() if all(e[i] == 0 for i in idx)}, self.den)

    # -- divisibility ------------------------------------------------------------

    def divisible_by_var(self, i: int, k: int = 1) -> bool:
        return all(e[i] >= k for e in self.num)

    def divide_by_var_power(self, i: int, k: int) -> "MVPoly":
        if k == 0:
            return self
        if not self.divisible_by_var(i, k):
            raise ValueError("not divisible by %s^%d" % (self.variables[i], k))
        return _shift_down(self, i, k)

    def derivative(self, i: int) -> "MVPoly":
        num = {e[:i] + (e[i] - 1,) + e[i + 1:]: (a * e[i], b * e[i]) for e, (a, b) in self.num.items() if e[i]}
        return _normal(self.variables, num, self.den)

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, point: Sequence[GaussRat]) -> GaussRat:
        point = [GaussRat.coerce(p) for p in point]
        out = ZERO
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * point[i] ** k
            out = out + v
        return out

    def __repr__(self):
        return "MVPoly(%s)" % self.to_string()

    def to_string(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]) or ("i" in cs and cs not in ("i", "-i")):
                cs = "(%s)" % cs
            factors = "*".join(name if e == 1 else "%s^%d" % (name, e) for name, e in zip(self.variables, exp) if e)
            parts.append({"1": "", "-1": "-"}.get(cs, cs + "*") + factors if factors else cs)
        return " + ".join(parts).replace("+ -", "- ")


_new = object.__new__
_set_variables = MVPoly.variables.__set__
_set_num = MVPoly.num.__set__
_set_den = MVPoly.den.__set__


def chart_exponent(e: Exponent, j: int) -> Exponent:
    """Chart j of the point blow-up (z_j = u, z_i = u*w_i) sends the
    monomial z^e to u^|e| * prod_{i != j} w_i^e_i: e with e_j replaced by
    |e|.  The map is injective."""
    return e[:j] + (sum(e),) + e[j + 1:]


def chart_pullback(p: MVPoly, j: int) -> MVPoly:
    """p o sigma for chart j: p's numerators under `chart_exponent`, which
    merges no terms, so the result is canonical as it stands."""
    if not 0 <= j < len(p.variables):
        raise ValueError("chart dimension mismatch")
    return _poly(p.variables, {chart_exponent(e, j): c for e, c in p.num.items()}, p.den)


def chart_transform(components: Sequence[MVPoly], j: int) -> tuple[int | float, list[MVPoly]]:
    """Pullback of the vector field sum a_i d/dz_i to chart j of the point
    blow-up (z_j = u, z_i = u*w_i), as (s, saturated).

    By `chart_exponent`, a_j o sigma is a_j's numerators under new
    exponents.  The pole-cleared components P_j = u*(a_j o sigma) and
    P_i = a_i o sigma - w_i*(a_j o sigma) are built in one pass, P_i over
    lcm(den_i, den_j).  With c their least exponent in u, the saturated
    field is P/u^c and s = c - min(1, c), the power of u left over from
    the pushforward P/u^min(1, c); the zero field has s = inf and zero
    components."""
    variables = components[0].variables
    aj = components[j]
    dj = aj.den
    sigma_j = [(chart_exponent(e, j), re, im) for e, (re, im) in aj.num.items()]
    cleared: list[MVPoly] = []
    for i, ai in enumerate(components):
        if i == j:
            cleared.append(_poly(variables, {e[:j] + (e[j] + 1,) + e[j + 1:]: (re, im) for e, re, im in sigma_j}, dj))
            continue
        di = ai.den
        den = di if di == dj else lcm(di, dj)
        si, sj = den // di, -(den // dj)
        out = {chart_exponent(e, j): (re * si, im * si) for e, (re, im) in ai.num.items()}
        for e, re, im in sigma_j:
            e = e[:i] + (e[i] + 1,) + e[i + 1:]
            old = out.get(e)
            if old is None:
                out[e] = (re * sj, im * sj)
                continue
            re, im = old[0] + re * sj, old[1] + im * sj
            if re or im:
                out[e] = (re, im)
            else:
                del out[e]
        cleared.append(_normal(variables, out, den))
    c = min((e[j] for p in cleared for e in p.num), default=inf)
    if c == inf:
        return inf, cleared
    return c - min(1, c), [_shift_down(p, j, c) for p in cleared]


def _shift_down(p: MVPoly, i: int, k: int) -> MVPoly:
    """p / z_i^k for p divisible by z_i^k."""
    if k == 0:
        return p
    return _poly(p.variables, {e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in p.num.items()}, p.den)


def linear_part_matrix(components: Sequence[MVPoly]) -> tuple[tuple[GaussRat, ...], ...]:
    """Matrix L with L[i][j] = coefficient of z_j in component i."""
    rows = []
    for comp in components:
        nv = comp.nvars()
        rows.append(tuple(comp.coeff(tuple(int(k == j) for k in range(nv))) for j in range(nv)))
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("component count must match variable count (got %d)" % len(rows))
    return tuple(rows)
