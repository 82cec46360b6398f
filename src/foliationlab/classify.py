"""Singularity taxonomy at a germ.

Covers algebraic multiplicity, the reduced test, the Seidenberg surface
dichotomy (nondegenerate / degenerate of type k), simple points and
corners relative to a log divisor, and dicriticality, read from the
tangent cone (the leading homogeneous part is radial) without blowing up.
Nothing here blows up: in dim 2 an isolated singularity is absolutely
isolated (Seidenberg 1968; Brunella, Birational Geometry of Foliations,
ch. 1), and the dim >= 3 probe is a run of `resolution`'s tower driver.

The report and the terminal tests of the blow-up towers (which return a
terminal germ's report, or the reason the germ is not terminal) read every
verdict from one gate, the multiplicity of a singular nonzero germ, and one
linear part and characteristic polynomial per germ, computed once.

Eigenvalue-ratio exclusions are decided exactly even when eigenvalues do
not live in Q(i): one deflation of the characteristic polynomial by the
known eigenvalue lam leaves the other eigenvalues, lam is repeated iff it
is still a root, and another eigenvalue lies in lam*Q+ iff the deflated
polynomial rescaled by lam has a positive rational root, which the
rational root theorem certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .gaussrat import GaussRat
from .mvpoly import MVPoly
from .foliation import (
    DivisorNotInvariant,
    FoliationError,
    LogDivisor,
    VectorFieldGerm,
    divisor_invariance_check,
    is_singular_at_origin,
    milnor_number,
)
from . import linalg, unipoly


class NonSingularPoint(FoliationError):
    pass


class DimensionMismatch(FoliationError):
    pass


class NoDivisorThroughPoint(FoliationError):
    pass


_NO_BLOWUP = "blow-up needs ambient dimension >= 2"
_NOT_ISOLATED = "singular locus is not isolated at the origin"


@dataclass(frozen=True)
class SurfaceType:
    kind: str  # "non_degenerate" | "degenerate" | "not_applicable" | "unclassified"
    k: int | None = None
    note: str = ""

    def to_jsonable(self):
        out = {"kind": self.kind}
        if self.k is not None:
            out["k"] = self.k
        if self.note:
            out["note"] = self.note
        return out


NON_DEGENERATE = SurfaceType("non_degenerate")
SURFACE_NOT_APPLICABLE = SurfaceType("not_applicable")


def unclassified(note: str = "") -> SurfaceType:
    return SurfaceType("unclassified", note=note)


@dataclass(frozen=True)
class SimpleStatus:
    kind: str  # "simple_point_A" | "simple_point_B" | "simple_corner" | "not_simple" | "indeterminate"
    detail: str = ""

    def is_simple(self) -> bool:
        return self.kind in ("simple_point_A", "simple_point_B", "simple_corner")

    def to_jsonable(self):
        out = {"kind": self.kind}
        if self.detail:
            out["detail"] = self.detail
        return out


SIMPLE_A = SimpleStatus("simple_point_A")
SIMPLE_B = SimpleStatus("simple_point_B")


def simple_corner(detail: str = "") -> SimpleStatus:
    return SimpleStatus("simple_corner", detail)


def not_simple(detail: str = "") -> SimpleStatus:
    return SimpleStatus("not_simple", detail)


@dataclass
class SingularityReport:
    multiplicity: int | float
    linear_part: linalg.Matrix
    eigenvalues: list[GaussRat] | linalg.Indeterminate
    reduced: bool
    surface_type: SurfaceType
    simple_status: SimpleStatus | None
    dicritical: bool | None
    notes: list[str] = field(default_factory=list)

    def to_jsonable(self):
        if isinstance(self.eigenvalues, linalg.Indeterminate):
            ev = {
                "indeterminate": True,
                "char_poly": unipoly.to_strings(self.eigenvalues.char_poly),
                "approx": [[z.real, z.imag] for z in self.eigenvalues.approx],
            }
        else:
            ev = {"indeterminate": False, "values": [str(e) for e in self.eigenvalues]}
        return {
            "multiplicity": None if self.multiplicity is math.inf else int(self.multiplicity),
            "linear_part": [[str(c) for c in row] for row in self.linear_part],
            "eigenvalues": ev,
            "reduced": self.reduced,
            "surface_type": self.surface_type.to_jsonable(),
            "simple_status": None if self.simple_status is None else self.simple_status.to_jsonable(),
            "dicritical": self.dicritical,
            "notes": list(self.notes),
        }


def _multiplicity(v: VectorFieldGerm) -> int:
    """The gate of every verdict on a germ: its algebraic multiplicity, the
    least vanishing order of a component at the origin, for a singular
    nonzero germ."""
    if not is_singular_at_origin(v):
        raise NonSingularPoint("germ is not singular at the origin")
    m = min(c.vanishing_order() for c in v.components)
    if m is math.inf:
        raise FoliationError("zero vector field has no multiplicity")
    return int(m)


def _facts(v: VectorFieldGerm) -> tuple[int, linalg.Matrix, unipoly.UPoly, str]:
    """Multiplicity, linear part, characteristic polynomial, and the reason the
    germ is not reduced: "" for multiplicity 1 and a linear part that is not
    nilpotent, i.e. a characteristic polynomial other than t^n."""
    mult = _multiplicity(v)
    lp = v.linear_part()
    cp = linalg.char_poly(lp)
    if mult != 1:
        return mult, lp, cp, "multiplicity %d > 1" % mult
    if unipoly.valuation(cp) == unipoly.degree(cp):
        return mult, lp, cp, "nilpotent linear part (characteristic polynomial t^n)"
    return mult, lp, cp, ""


def _surface_type(v: VectorFieldGerm, lp: linalg.Matrix, cp: unipoly.UPoly) -> SurfaceType:
    """Dimension-2 dichotomy of a singular germ with characteristic
    polynomial cp = t^2 - tr t + det: nondegenerate (invertible linear part)
    or degenerate of type k, tested through the exact monomial surrogate of
    the metric comparison after diagonalizing the nonzero eigendirection.

    In the coordinates z = P w, P = (v_lam | v_ker), the field is
    P^-1 a(P w), and the test reads it only on the kernel axis w_1 = 0,
    where it is P^-1 a(w_2 v_ker).  The adjugate of P stands in for P^-1:
    the two differ by the factor det P, which changes no exponent.  Since
    L v_ker = 0, a(w_2 v_ker) = O(w_2^2), so the type k is at least 2.

    With det = 0 and tr != 0, L = [[a, b], [c, d]] has rank one: v_ker =
    (b, -a), or (d, -c) if the first row is 0; v_lam = (a, c), or (b, d) if
    the first column is 0.  Their scale multiplies each w_2^j term by a
    nonzero factor, so it changes neither k nor the escapes."""
    if unipoly.valuation(cp) == 0:  # det != 0
        return NON_DEGENERATE
    if unipoly.valuation(cp) == 2:  # det = tr = 0
        return unclassified("linear part nilpotent or zero: not in the reduced list")
    (a, b), (c, d) = lp
    v_ker = (d, -c) if a.is_zero() and b.is_zero() else (b, -a)
    v_lam = (b, d) if a.is_zero() and c.is_zero() else (a, c)
    w2 = MVPoly.var(v.variables, v.variables[1])
    a0, a1 = (comp.subs([w2 * v_ker[0], w2 * v_ker[1]]) for comp in v.components)
    w = [a0 * v_ker[1] - a1 * v_ker[0], a1 * v_lam[0] - a0 * v_lam[1]]
    k = w[1].min_exponent_in(1)
    if k is math.inf:
        return unclassified("second component vanishes on the kernel axis: type k unbounded")
    for comp in w:
        for e in comp.num:
            if e[1] < k:
                return unclassified("monomial z1^0 z2^%d escapes (z1, z2^%d): surrogate criterion fails" % (e[1], k))
    return SurfaceType("degenerate", k=k, note="surrogate criterion (exact ideal comparison)")


def log_coefficients(v: VectorFieldGerm, divisor: LogDivisor) -> dict[int, GaussRat]:
    """Constants a_j(0) of the factored components z_j a_j along divisor axes."""
    return {j: v.components[j].divide_by_var_power(j, 1).constant_term() for j in sorted(divisor.axes)}


def classify_simple(v: VectorFieldGerm, divisor: LogDivisor) -> SimpleStatus:
    """Simple point / simple corner test relative to the log divisor."""
    if not is_singular_at_origin(v):
        raise NonSingularPoint("germ is not singular at the origin")
    if divisor.axis_count() == 0:
        raise NoDivisorThroughPoint("no divisor axis through the origin")
    status = _simple_status(v, divisor, linalg.char_poly(v.linear_part()))
    if isinstance(status, str):
        raise DivisorNotInvariant(status)
    return status


def corner_witnesses(lam0: dict[int, GaussRat]) -> list[tuple[int, int]]:
    """The axis pairs (p, q), in axis order, whose log coefficients make a
    corner: lam0[p] != 0 and lam0[q] / lam0[p] is not a positive rational."""
    axes = sorted(lam0)
    return [(p, q) for p in axes for q in axes
            if q != p and not lam0[p].is_zero() and not (lam0[q] / lam0[p]).is_positive_rational()]


def _simple_status(v: VectorFieldGerm, divisor: LogDivisor, cp: unipoly.UPoly) -> SimpleStatus | str:
    """`classify_simple` of a singular germ with characteristic polynomial
    cp, or the reason the divisor admits no simple status there."""
    e = divisor.axis_count()
    if e == 0:
        return "no divisor axis through the point"
    if not divisor_invariance_check(v, divisor):
        return "divisor axes %s not invariant" % sorted(divisor.axes)
    n = v.dim()
    lam0 = log_coefficients(v, divisor)
    if e >= 2:
        pairs = corner_witnesses(lam0)
        if not pairs:
            return not_simple("every axis pair has a positive rational eigenvalue ratio (or zero pivot)")
        p, q = pairs[0]
        return simple_corner("axes (%d, %d): ratio %s not in Q+" % (p + 1, q + 1, lam0[q] / lam0[p]))
    (j0,) = divisor.axes
    lam = lam0[j0]
    if lam.is_zero():
        others = [i for i in range(n) if i != j0]
        axis_invariant = all(v.components[i].set_vars_to_zero(others).is_zero() for i in others)
        rows = []
        for i in others:
            restricted = v.components[i].set_vars_to_zero([j0])
            rows.append(tuple(restricted.coeff(tuple(1 if t == o else 0 for t in range(n))) for o in others))
        rank_full = linalg.rank(tuple(rows)) == n - 1
        if axis_invariant and rank_full:
            return SIMPLE_A
        if rank_full and not axis_invariant:
            return not_simple("transverse axis not invariant in the given coordinates "
                              "(a formal change of coordinates is not attempted)")
        return not_simple("restricted linear part has rank < n-1")
    # row j0 of the linear part is lam*e_j0, so lam is a root of cp
    others = unipoly.deflate(cp, lam)
    if unipoly.poly_eval(others, lam).is_zero():
        return not_simple("eigenvalue %s has multiplicity > 1" % lam)
    # roots mu = s*lam of others <-> positive rational roots s of others(lam*s)
    if any(s > 0 for s in unipoly.real_rational_roots(unipoly.poly_dilate(others, lam))):
        return not_simple("another eigenvalue is a positive rational multiple of %s" % lam)
    return SIMPLE_B


def is_dicritical(v: VectorFieldGerm) -> bool:
    """Dicritical iff the exceptional divisor E of one blow-up is not
    invariant, read from the tangent cone without blowing up: iff the
    leading form a^(m) is radial, i.e. z_j a_i^(m) - z_i a_j^(m) = 0 for
    all i < j, where m is the multiplicity.

    Proof.  In chart j the pole-cleared components are P_j = O(u^(m+1))
    and P_i = u^m (z_j a_i^(m) - z_i a_j^(m))|_{z_j=1} + O(u^(m+1)).  If
    one of these homogeneous brackets is nonzero, then s = m - 1 and u
    divides the saturated j-th component P_j / u^m: E is invariant.  If
    all vanish, then a^(m) = h z with h != 0, so P_j = u^(m+1) h(w) +
    O(u^(m+2)), every P_i is O(u^(m+1)), s = m, and the saturated j-th
    component starts with h(w) != 0: E is not invariant.  A radial a^(m)
    makes every bracket vanish, so the same case holds in every chart."""
    if v.dim() == 2 and milnor_number(v) == math.inf:
        raise FoliationError(_NOT_ISOLATED)
    m = _multiplicity(v)
    if v.dim() < 2:
        raise ValueError(_NO_BLOWUP)
    return _radial(v, m)


def _radial(v: VectorFieldGerm, m: int) -> bool:
    """Is the leading form a^(m) of a germ of multiplicity m radial?"""
    n = v.dim()
    z = [MVPoly.var(v.variables, name) for name in v.variables]
    a = [comp.homogeneous_part(m) for comp in v.components]
    return all((z[j] * a[i] - z[i] * a[j]).is_zero() for i in range(n) for j in range(i + 1, n))


def _report(v: VectorFieldGerm, mult: int, lp: linalg.Matrix, cp: unipoly.UPoly, why: str,
            simple: SimpleStatus | str | None, dicritical: bool | None) -> SingularityReport:
    """The report of a singular germ from its `_facts`.  `simple` is the simple
    status, the note that stands in for it, or None without a divisor."""
    notes = [why] if why else []
    if v.dim() == 2:
        st = _surface_type(v, lp, cp)
        if st.note:
            notes.append(st.note)
    else:
        st = SURFACE_NOT_APPLICABLE
    if isinstance(simple, str):
        notes.append(simple)
        simple = None
    return SingularityReport(mult, lp, linalg.eigenvalues_of_char_poly(cp), not why, st, simple, dicritical, notes)


def singularity_report(v: VectorFieldGerm, divisor: LogDivisor | None = None) -> SingularityReport:
    mult, lp, cp, why = _facts(v)
    rep = _report(v, mult, lp, cp, why, None if divisor is None else _simple_status(v, divisor, cp), None)
    if v.dim() < 2:
        rep.notes.append("dicriticality unavailable: " + _NO_BLOWUP)
    elif v.dim() == 2 and milnor_number(v) == math.inf:
        rep.notes.append("dicriticality unavailable: " + _NOT_ISOLATED)
    else:
        rep.dicritical = _radial(v, mult)
    return rep


def seidenberg_terminal(v: VectorFieldGerm) -> SingularityReport | str:
    """Terminal test of a Seidenberg tower, reduced and not dicritical: the
    report of a terminal germ, or the reason it is not terminal (a
    non-terminal germ gets no spectrum and no surface type).

    A reduced germ is dicritical iff its linear part is scalar.  Its
    multiplicity is 1, so its leading form is a^(1) = lp z, and by
    `is_dicritical` it is dicritical iff lp z = h z for a homogeneous h of
    degree 0, a constant c: iff lp = cI.  A dim-1 germ has no blow-up."""
    mult, lp, cp, why = _facts(v)
    if why:
        return why
    if v.dim() < 2:
        raise ValueError(_NO_BLOWUP)
    if linalg.is_scalar(lp):
        return "reduced but dicritical"
    return _report(v, mult, lp, cp, why, None, False)


def simple_terminal(v: VectorFieldGerm, divisor: LogDivisor) -> SingularityReport | str:
    """Terminal test of a simple-resolution tower, a simple point or corner
    of the log divisor, as `seidenberg_terminal`.

    A simple germ in dim >= 2 is never dicritical: a radial leading form
    cI with c != 0 makes c an n-fold eigenvalue and every corner ratio 1,
    and c = 0 or multiplicity >= 2 leaves every log coefficient 0 and the
    restricted linear part of rank < n-1.  A dim-1 germ has no blow-up, so
    the tower cannot certify it."""
    mult, lp, cp, why = _facts(v)
    status = _simple_status(v, divisor, cp)
    if isinstance(status, str):
        return status
    if not status.is_simple():
        return status.detail or status.kind
    if v.dim() < 2:
        raise ValueError(_NO_BLOWUP)
    return _report(v, mult, lp, cp, why, status, False)
