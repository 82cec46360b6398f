"""Monomial ideals and Newton-polyhedron certificates.

The multiplier-ideal triviality test for a monomial ideal is Howald's
interior test: the all-ones vector must lie strictly inside
Newt(a) + R^n_{>=0}.  It is a yes/no answer from one canonical-form linear
program, solved by one phase of an exact rational simplex, so no margin is
computed and the certificate involves no floating point.  This
criterion is an external standard fact used as a fast oracle; the
resolution driver's discrepancy ledger provides the independent
cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .foliation import FoliationError
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
            raise FoliationError("zero ideal")
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
    to the Newton polyhedron.

    Interior means some convex combination of the generators has every
    coordinate below 1.  For a nontrivial ideal that is max sum(x) > 1
    subject to sum_g x_g g_i <= 1 for every i and x >= 0, a canonical-form
    program whose slack basis is feasible, so one simplex phase solves it."""
    if a.is_zero():
        raise ValueError("zero ideal rejected")
    if a.is_trivial():
        return True
    gens, n = a.sorted_generators(), a.ambient_dim
    one, zero = Fraction(1), Fraction(0)
    T = [[Fraction(g[i]) for g in gens] + [one if j == i else zero for j in range(n)] + [one] for i in range(n)]
    obj = [-one] * len(gens) + [zero] * (n + 1)
    _simplex_iterate(T, [len(gens) + i for i in range(n)], obj, len(gens) + n)
    return obj[-1] > 1
