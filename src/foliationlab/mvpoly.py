"""Sparse multivariate polynomials over the Gaussian rationals.

Terms live in a dict mapping exponent tuples to nonzero GaussRat
coefficients.  The zero polynomial has an empty term dict; no zero
coefficient is ever stored, so equality of dicts is equality of
polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .gaussrat import ZERO, GaussRat

Exponent = tuple[int, ...]


def _coerce_coeff(c) -> GaussRat:
    if isinstance(c, GaussRat):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussRat(c)
    raise TypeError("bad coefficient type %s" % type(c).__name__)


class MVPoly:
    """Polynomial in an ordered tuple of named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, GaussRat] | None = None):
        variables = tuple(variables)
        clean: dict[Exponent, GaussRat] = {}
        if terms:
            n = len(variables)
            for exp, c in terms.items():
                c = _coerce_coeff(c)
                if c.is_zero():
                    continue
                exp = tuple(exp)
                if len(exp) != n or any(e < 0 for e in exp):
                    raise ValueError("bad exponent vector %r" % (exp,))
                clean[exp] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MVPoly is immutable")

    @classmethod
    def _canonical(cls, variables: tuple[str, ...], terms: dict[Exponent, GaussRat]) -> "MVPoly":
        """Wrap a term dict that is canonical by construction (tuple exponents
        of length len(variables), nonzero GaussRat coefficients) without
        validating it again; outside input goes through ``MVPoly(...)``."""
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MVPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], c) -> "MVPoly":
        return cls(variables, {(0,) * len(variables): _coerce_coeff(c)})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MVPoly":
        i = tuple(variables).index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exp: GaussRat(1)})

    @classmethod
    def monomial(cls, variables: Sequence[str], exp: Exponent, c=1) -> "MVPoly":
        return cls(variables, {tuple(exp): _coerce_coeff(c)})

    # -- basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def nvars(self) -> int:
        return len(self.variables)

    def constant_term(self) -> GaussRat:
        return self.terms.get((0,) * len(self.variables), ZERO)

    def coeff(self, exp: Exponent) -> GaussRat:
        return self.terms.get(tuple(exp), ZERO)

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def vanishing_order(self) -> int | float:
        """Minimal total degree among terms; +inf for the zero polynomial."""
        return min((sum(e) for e in self.terms), default=math.inf)

    def degree_in(self, i: int) -> int:
        return max((e[i] for e in self.terms), default=-1)

    def min_exponent_in(self, i: int) -> int | float:
        """u-adic valuation with respect to variable i; +inf for zero."""
        return min((e[i] for e in self.terms), default=math.inf)

    def sorted_terms(self) -> list[tuple[Exponent, GaussRat]]:
        """Canonical term order: by total degree, then lexicographic."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # -- ring operations -------------------------------------------------------

    def _check_same_ring(self, other: "MVPoly"):
        if self.variables != other.variables:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = MVPoly.const(self.variables, other)
        self._check_same_ring(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms[exp] + c if exp in terms else c
            if s:
                terms[exp] = s
            else:
                del terms[exp]
        return MVPoly._canonical(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MVPoly._canonical(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = MVPoly.const(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            c = _coerce_coeff(other)
            if c.is_zero():
                return MVPoly.zero(self.variables)
            return MVPoly._canonical(self.variables, {e: cc * c for e, cc in self.terms.items()})
        self._check_same_ring(other)
        out: dict[Exponent, GaussRat] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out[e] + c1 * c2 if e in out else c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MVPoly._canonical(self.variables, out)

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
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int, Fraction, GaussRat)):
            return self == MVPoly.const(self.variables, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- substitution ----------------------------------------------------------

    def subs(self, images: Sequence["MVPoly"]) -> "MVPoly":
        """Ring homomorphism sending variable i to images[i].

        All images must share one target ring.  Monomial powers are cached
        per variable so translations and chart maps stay cheap.
        """
        if len(images) != len(self.variables):
            raise ValueError("need one image per variable")
        target = images[0].variables
        for im in images:
            if im.variables != target:
                raise ValueError("images live in different rings")
        powers: list[dict[int, MVPoly]] = [{0: MVPoly.const(target, 1)} for _ in images]

        def power(i: int, k: int) -> MVPoly:
            cache = powers[i]
            if k not in cache:
                half = power(i, k // 2)
                p = half * half
                if k & 1:
                    p = p * images[i]
                cache[k] = p
            return cache[k]

        out = MVPoly.zero(target)
        for exp, c in self.terms.items():
            term = MVPoly.const(target, c)
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out

    def subs_exponents(self, exp_images: Sequence[Exponent]) -> "MVPoly":
        """Monomial substitution: variable i maps to the monomial with
        exponent vector exp_images[i] (unit coefficient).  Used for blow-up
        charts, where it is exact and fast."""
        m = len(self.variables)
        out: dict[Exponent, GaussRat] = {}
        for exp, c in self.terms.items():
            new = [0] * m
            for i, e in enumerate(exp):
                if e:
                    img = exp_images[i]
                    for j in range(m):
                        new[j] += e * img[j]
            key = tuple(new)
            s = out[key] + c if key in out else c
            if s:
                out[key] = s
            else:
                del out[key]
        return MVPoly._canonical(self.variables, out)

    def translate(self, point: Sequence[GaussRat]) -> "MVPoly":
        """Compose with z -> z + point."""
        if len(point) != len(self.variables):
            raise ValueError("point dimension mismatch")
        images = []
        for i, name in enumerate(self.variables):
            v = MVPoly.var(self.variables, name)
            p = GaussRat.coerce(point[i])
            if not p.is_zero():
                v = v + MVPoly.const(self.variables, p)
            images.append(v)
        return self.subs(images)

    def set_vars_to_zero(self, indices: Iterable[int]) -> "MVPoly":
        """Drop every term with positive exponent in any index from `indices`."""
        idx = set(indices)
        terms = {e: c for e, c in self.terms.items() if all(e[i] == 0 for i in idx)}
        return MVPoly(self.variables, terms)

    # -- divisibility ------------------------------------------------------------

    def divisible_by_var(self, i: int, k: int = 1) -> bool:
        return all(e[i] >= k for e in self.terms)

    def divide_by_var_power(self, i: int, k: int) -> "MVPoly":
        if k == 0:
            return self
        if not self.divisible_by_var(i, k):
            raise ValueError("not divisible by %s^%d" % (self.variables[i], k))
        terms = {}
        for e, c in self.terms.items():
            e = list(e)
            e[i] -= k
            terms[tuple(e)] = c
        return MVPoly(self.variables, terms)

    def derivative(self, i: int) -> "MVPoly":
        terms: dict[Exponent, GaussRat] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
        return MVPoly(self.variables, terms)

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
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]) or ("i" in cs and cs not in ("i", "-i")):
                cs = "(%s)" % cs
            for name, e in zip(self.variables, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            elif cs == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append(cs + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


def linear_part_matrix(components: Sequence[MVPoly]) -> tuple[tuple[GaussRat, ...], ...]:
    """Matrix L with L[i][j] = coefficient of z_j in component i."""
    n = len(components)
    rows = []
    for comp in components:
        nv = comp.nvars()
        row = []
        for j in range(nv):
            e = tuple(1 if k == j else 0 for k in range(nv))
            row.append(comp.coeff(e))
        rows.append(tuple(row))
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("component count must match variable count (got %d)" % n)
    return tuple(rows)
