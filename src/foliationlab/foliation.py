"""Local generators of foliations by curves and log-divisor bookkeeping.

A germ is a polynomial vector field centered at the origin; singular
points elsewhere are handled by translating first.  A log divisor is a
set of invariant coordinate hyperplanes {z_j = 0}, tagged with their
provenance (original axis or exceptional divisor of some blow-up level).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .gaussrat import GaussRat, _zi_primitive
from .mvpoly import MVPoly, linear_part_matrix
from . import linalg

ORIGINAL = "original"


def exceptional_tag(level: int) -> str:
    return "exceptional:%d" % level


class FoliationError(Exception):
    pass


class DivisorNotInvariant(FoliationError):
    pass


class VectorFieldGerm:
    """v = sum_i a_i d/dz_i with polynomial components over Q(i)."""

    __slots__ = ("variables", "components")

    def __init__(self, variables: Sequence[str], components: Sequence[MVPoly]):
        variables = tuple(variables)
        components = tuple(components)
        if len(components) != len(variables):
            raise ValueError("need one component per variable")
        for c in components:
            if c.variables != variables:
                raise ValueError("component in the wrong ring")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("VectorFieldGerm is immutable")

    def dim(self) -> int:
        return len(self.variables)

    def linear_part(self) -> linalg.Matrix:
        return linear_part_matrix(self.components)

    def evaluate(self, point: Sequence[GaussRat]) -> tuple[GaussRat, ...]:
        return tuple(c.evaluate(point) for c in self.components)

    def to_text(self) -> str:
        """Canonical DSL form, parse(to_text(v)) == v."""
        parts = []
        for comp, name in zip(self.components, self.variables):
            parts.append("(%s) d/d%s" % (comp.to_string(), name))
        return "v = " + " + ".join(parts)

    def __eq__(self, other):
        if not isinstance(other, VectorFieldGerm):
            return NotImplemented
        return self.variables == other.variables and self.components == other.components

    def __repr__(self):
        return "VectorFieldGerm(%s)" % self.to_text()


class LogDivisor:
    """Invariant coordinate hyperplanes {z_j = 0} for j in `axes` (0-based),
    with per-axis provenance tags."""

    __slots__ = ("axes", "history")

    def __init__(self, axes, history: Mapping[int, str] | None = None):
        axes = frozenset(int(a) for a in axes)
        hist = dict(history) if history else {}
        for a in axes:
            hist.setdefault(a, ORIGINAL)
        hist = {a: hist[a] for a in axes}
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "history", hist)

    def __setattr__(self, name, value):
        raise AttributeError("LogDivisor is immutable")

    @classmethod
    def empty(cls) -> "LogDivisor":
        return cls(frozenset())

    def axis_count(self) -> int:
        return len(self.axes)

    def __contains__(self, axis: int) -> bool:
        return axis in self.axes

    def __eq__(self, other):
        if not isinstance(other, LogDivisor):
            return NotImplemented
        return self.axes == other.axes and self.history == other.history

    def __repr__(self):
        items = ", ".join("%d:%s" % (a, self.history[a]) for a in sorted(self.axes))
        return "LogDivisor({%s})" % items

    def to_jsonable(self):
        return {"axes": sorted(self.axes), "history": {str(a): self.history[a] for a in sorted(self.axes)}}


class CoeffIdealPresentation:
    """Generator lists for J_F and, when a divisor is given, J_{F,D}.

    plain_generators are the raw components a_i.  log_generators factor the
    divisor coordinate out of each invariant-axis component, so the j-th
    log generator for j in D is components[j] / z_j."""

    __slots__ = ("plain_generators", "log_generators", "divisor")

    def __init__(self, plain, log, divisor):
        object.__setattr__(self, "plain_generators", tuple(plain))
        object.__setattr__(self, "log_generators", tuple(log) if log is not None else None)
        object.__setattr__(self, "divisor", divisor)

    def __setattr__(self, name, value):
        raise AttributeError("CoeffIdealPresentation is immutable")


def divisor_at_point(divisor: LogDivisor, point: Sequence[GaussRat]) -> LogDivisor:
    """Axes of the divisor passing through a point of the same chart."""
    axes = {a: divisor.history[a] for a in divisor.axes
            if GaussRat.coerce(point[a]).is_zero()}
    return LogDivisor(axes.keys(), axes)


def translate_to_point(v: VectorFieldGerm, point: Sequence[GaussRat]) -> VectorFieldGerm:
    """Recenter so that `point` becomes the origin (components composed with
    z -> z + point)."""
    pt = [GaussRat.coerce(p) for p in point]
    if all(p.is_zero() for p in pt):
        return v
    comps = [c.translate(pt) for c in v.components]
    return VectorFieldGerm(v.variables, comps)


def is_singular_at_origin(v: VectorFieldGerm) -> bool:
    return all((0,) * len(v.variables) not in c.num for c in v.components)


def _x_axis(f: dict) -> tuple[int, int, tuple[int, int]] | None:
    """(order, degree, leading coefficient) of f(x, 0), None when it is 0."""
    xs = [e[0] for e in f if e[1] == 0]
    if not xs:
        return None
    deg = max(xs)
    return min(xs), deg, f[(deg, 0)]


def milnor_number(v: VectorFieldGerm) -> int | float:
    """Dim 2: the Milnor number mu_0(v) = I_0(a, b) = dim O_0/(a, b) of the
    components a, b, or math.inf when they share a branch through 0, i.e.
    when the singularity is not isolated; 0 off the singular locus.  It is
    1 iff a_x b_y - a_y b_x != 0 at 0, read from the linear numerators
    before Fulton's loop runs.

    Fulton's algorithm (Algebraic Curves, section 3.3) on the Z[i]
    numerators, where constant factors leave I_0 unchanged.  Reduce: with
    r = deg F(x, 0) <= s = deg G(x, 0), replace G by lc(F) G - lc(G)
    x^(s-r) F, which lowers s.  Split: when G(x, 0) = 0, G = y H and
    I(F, G) = ord_x F(x, 0) + I(F, H).  Both vanish at 0 throughout, until
    a split leaves H(0) != 0 and I(F, H) = 0.  Each split adds at least 1,
    and a finite I_0 is at most deg a deg b (Bezout, after dividing out any
    common factor, which is a unit at 0), so a count past that bound means
    a shared branch through 0; without the bound the algorithm would not
    stop on one.  Terms of degree >= bound + 1 - count are dropped: a
    finite I_0(F, G) = k puts m^k in (F, G) O_0, so by Nakayama terms in
    m^c keep min(I_0(F, G), c).  With the Z[i] content of each reduced G
    divided out, this stops the growth of degrees and coefficients that
    a shared branch otherwise causes before the count passes the bound."""
    if v.dim() != 2:
        raise ValueError("the Milnor number by intersection needs dimension 2")
    a, b = v.components
    if not is_singular_at_origin(v):
        return 0
    (p, q), (r, s) = a.num.get((1, 0), (0, 0)), b.num.get((0, 1), (0, 0))  # a_x, b_y
    (t, u), (w, z) = a.num.get((0, 1), (0, 0)), b.num.get((1, 0), (0, 0))  # a_y, b_x
    if p * r - q * s != t * w - u * z or p * s + q * r != t * z + u * w:
        return 1  # a_x b_y != a_y b_x at 0: the Jacobian is invertible
    if a.is_zero() or b.is_zero():
        return math.inf
    bound = a.total_degree() * b.total_degree()
    f, g = dict(a.num), dict(b.num)
    count = 0
    while True:
        rf, rg = _x_axis(f), _x_axis(g)
        if rf is None and rg is None:
            return math.inf  # y divides both
        if rg is None or (rf is not None and rf[1] > rg[1]):
            f, g, rf, rg = g, f, rg, rf
        if rf is None:  # split y off f
            count += rg[0]
            if count > bound:
                return math.inf
            f = {(i, j - 1): c for (i, j), c in f.items() if i + j < bound + 2 - count}
            if (0, 0) in f:
                return count
            continue
        (p, q), (s, t), shift = rf[2], rg[2], rg[1] - rf[1]
        cap = bound + 1 - count
        out = {e: (p * re - q * im, p * im + q * re) for e, (re, im) in g.items() if e[0] + e[1] < cap}
        for (i, j), (re, im) in f.items():
            if i + j + shift >= cap:
                continue
            e = (i + shift, j)
            o = out.get(e, (0, 0))
            out[e] = (o[0] - s * re + t * im, o[1] - s * im - t * re)
        out = {e: c for e, c in out.items() if c[0] or c[1]}
        if not out:
            return math.inf  # g was a multiple of f
        g = dict(zip(out, _zi_primitive(list(out.values()))))


def divisor_invariance_check(v: VectorFieldGerm, axes) -> bool:
    """Each hyperplane {z_j = 0}, j in axes, is invariant iff z_j divides
    the j-th component."""
    if isinstance(axes, LogDivisor):
        axes = axes.axes
    return all(v.components[j].divisible_by_var(j) for j in axes)


def coefficient_ideal(v: VectorFieldGerm, divisor: LogDivisor | None = None) -> CoeffIdealPresentation:
    """Generators of J_F (and of J_{F,D} when a divisor is supplied)."""
    plain = list(v.components)
    if divisor is None or not divisor.axes:
        return CoeffIdealPresentation(plain, None if divisor is None else plain, divisor)
    if not divisor_invariance_check(v, divisor):
        raise DivisorNotInvariant("divisor axes %s not invariant" % sorted(divisor.axes))
    log = []
    for j, comp in enumerate(v.components):
        log.append(comp.divide_by_var_power(j, 1) if j in divisor.axes else comp)
    return CoeffIdealPresentation(plain, log, divisor)
