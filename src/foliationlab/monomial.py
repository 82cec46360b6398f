"""Monomial ideals and Newton-polyhedron certificates.

The multiplier-ideal triviality test for a monomial ideal is the interior
test: the all-ones vector must lie strictly inside Newt(a) + R^n_{>=0}.
Membership margins are computed by an exact rational simplex, so the
certificate involves no floating point.  This criterion is an external
standard fact used as a fast oracle; the resolution driver's discrepancy
ledger provides the independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .mvpoly import MVPoly

Exponent = tuple[int, ...]


class LPError(Exception):
    pass


def _simplex_iterate(T: list[list[Fraction]], basis: list[int], obj: list[Fraction], ncols: int):
    """Bland-rule simplex on a tableau in place.  obj is the reduced-cost
    row; obj[-1] holds minus the current objective value."""
    m = len(T)
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise LPError("unbounded linear program")
        r = best[1]
        pv = T[r][enter]
        T[r] = [x / pv for x in T[r]]
        for i in range(m):
            if i != r and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[r])]
        if obj[enter] != 0:
            f = obj[enter]
            obj[:] = [x - f * y for x, y in zip(obj, T[r])]
        basis[r] = enter


def simplex_min(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction], c: Sequence[Fraction]):
    """Solve min c.x subject to A x = b, x >= 0 over exact rationals.

    Returns (value, x) or None when infeasible.  Raises LPError on an
    unbounded program."""
    m, n = len(A), len(A[0])
    A = [[Fraction(x) for x in row] for row in A]
    b = [Fraction(x) for x in b]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    ncols = n + m
    T = [A[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(n):
        obj[j] = -sum(T[i][j] for i in range(m))
    obj[-1] = -sum(b)
    _simplex_iterate(T, basis, obj, ncols)
    if -obj[-1] != 0:
        return None
    # drive leftover artificials out of the basis, dropping redundant rows
    keep = []
    for i in range(len(T)):
        if basis[i] >= n:
            piv = next((j for j in range(n) if T[i][j] != 0), None)
            if piv is None:
                continue
            pv = T[i][piv]
            T[i] = [x / pv for x in T[i]]
            for k in range(len(T)):
                if k != i and T[k][piv] != 0:
                    f = T[k][piv]
                    T[k] = [x - f * y for x, y in zip(T[k], T[i])]
            basis[i] = piv
        keep.append(i)
    T = [T[i][:n] + [T[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    m = len(T)
    obj = [Fraction(c[j]) for j in range(n)] + [Fraction(0)]
    for i in range(m):
        cb = Fraction(c[basis[i]])
        if cb:
            obj = [x - cb * y for x, y in zip(obj, T[i])]
    _simplex_iterate(T, basis, obj, n)
    x = [Fraction(0)] * n
    for i in range(m):
        x[basis[i]] = T[i][-1]
    value = sum(Fraction(c[j]) * x[j] for j in range(n))
    return value, x


def newton_interior_margin(gens: Sequence[Exponent], point: Sequence[Fraction]) -> Fraction:
    """Largest delta with point - delta*(1,..,1) in conv(gens) + R^n_{>=0}.

    Positive margin certifies interior membership; zero means boundary,
    negative means outside."""
    gens = [tuple(g) for g in gens]
    if not gens:
        raise ValueError("empty generator set")
    n = len(gens[0])
    g_count = len(gens)
    # variables: t_1..t_G, dp, dm, s_1..s_n
    nvars = g_count + 2 + n
    A: list[list[Fraction]] = []
    b: list[Fraction] = []
    row = [Fraction(1)] * g_count + [Fraction(0)] * (2 + n)
    A.append(row)
    b.append(Fraction(1))
    for i in range(n):
        row = [Fraction(g[i]) for g in gens] + [Fraction(1), Fraction(-1)]
        row += [Fraction(1 if j == i else 0) for j in range(n)]
        A.append(row)
        b.append(Fraction(point[i]))
    c = [Fraction(0)] * g_count + [Fraction(-1), Fraction(1)] + [Fraction(0)] * n
    res = simplex_min(A, b, c)
    if res is None:
        raise LPError("interior LP infeasible, which cannot happen")
    value, _ = res
    return -value


def minimalize(gens: Iterable[Exponent]) -> frozenset[Exponent]:
    gens = {tuple(g) for g in gens}
    out = set()
    for g in gens:
        if any(h != g and all(hi <= gi for hi, gi in zip(h, g)) for h in gens):
            continue
        out.add(g)
    return frozenset(out)


class MonomialIdeal:
    """A monomial ideal given by its minimal generating exponents."""

    __slots__ = ("ambient_dim", "generators")

    def __init__(self, ambient_dim: int, generators: Iterable[Exponent]):
        gens = minimalize(generators)
        for g in gens:
            if len(g) != ambient_dim or any(e < 0 for e in g):
                raise ValueError("bad exponent vector %r" % (g,))
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "generators", gens)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    @classmethod
    def from_polys(cls, polys: Sequence[MVPoly]) -> "MonomialIdeal | None":
        """Build from polynomial generators when every nonzero generator is
        a single term; None otherwise."""
        gens = []
        dim = polys[0].nvars() if polys else 0
        for p in polys:
            if p.is_zero():
                continue
            if not p.is_monomial():
                return None
            gens.append(next(iter(p.num)))
        if not gens:
            raise ValueError("zero ideal")
        return cls(dim, gens)

    def is_zero(self) -> bool:
        return not self.generators

    def is_trivial(self) -> bool:
        return (0,) * self.ambient_dim in self.generators

    def common_factor(self) -> Exponent:
        return tuple(min(g[i] for g in self.generators) for i in range(self.ambient_dim))

    def quotient_by(self, exp: Exponent) -> "MonomialIdeal":
        return MonomialIdeal(
            self.ambient_dim,
            [tuple(g[i] - exp[i] for i in range(self.ambient_dim)) for g in self.generators],
        )

    def cosupport_is_origin(self) -> bool:
        """True iff the ideal contains a pure power of every variable."""
        for i in range(self.ambient_dim):
            if not any(all(g[j] == 0 for j in range(self.ambient_dim) if j != i) for g in self.generators):
                return False
        return True

    def sorted_generators(self) -> list[Exponent]:
        return sorted(self.generators)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.generators == other.generators

    def __hash__(self):
        return hash((self.ambient_dim, self.generators))

    def __repr__(self):
        return "MonomialIdeal(%d, %s)" % (self.ambient_dim, self.sorted_generators())


def multiplier_ideal_trivial_monomial(a: MonomialIdeal) -> bool:
    """Multiplier-ideal triviality for a monomial ideal: (1,..,1) interior
    to the Newton polyhedron."""
    if a.is_zero():
        raise ValueError("zero ideal rejected")
    point = [Fraction(1)] * a.ambient_dim
    return newton_interior_margin(a.sorted_generators(), point) > 0
