"""Formal separatrices at simple singularities.

The solver works in the original coordinates.  With e the eigenvector of
the chosen eigenvalue lambda and p its last nonzero entry, the curve is
sought as a graph over z_p,

    f_p(t) = e_p t,   f_i(t) = e_i t + g_i(t),   g_i = O(t^2)  (i != p),

and the tangency equations f_i' * a_p(f) / e_p = a_i(f) are solved order
by order.  The order-k coefficients of the g_i satisfy a linear system
with matrix k*I - S, where S_ij = (L_ij - e_i L_pj / e_p) / lambda for
i, j != p is the linear part L seen along the shear y_i = z_i - e_i z_p / e_p,
divided by lambda.  So resonances k*lambda = mu show up exactly as singular
systems; an inconsistent one stops the solver with the obstruction.

The corner report cites the eigenvalue ratios that forbid a transverse
separatrix at a simple corner; it solves for no curve (see its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .gaussrat import GaussRat
from .mvpoly import MVPoly
from .foliation import (
    FoliationError,
    LogDivisor,
    VectorFieldGerm,
    divisor_at_point,
    translate_to_point,
)
from . import blowup, classify, linalg, unipoly


class ZeroEigenvalueDirection(FoliationError):
    pass


class IndeterminateEigenvalues(FoliationError):
    pass


class NotACorner(FoliationError):
    pass


class CurveInDivisor(FoliationError):
    pass


_T = ("t",)


def _tangency_residual(v: VectorFieldGerm, f: Sequence[MVPoly], p: int, lam: GaussRat) -> list[MVPoly]:
    """(f_i' * a_p(f) / e_p - a_i(f)) / lam for i != p, at the curve f with
    f_p = e_p t."""
    ap = v.components[p].subs(f) * (GaussRat(1) / (f[p].coeff((1,)) * lam))
    inv_lam = GaussRat(1) / lam
    return [f[i].derivative(0) * ap - v.components[i].subs(f) * inv_lam for i in range(len(f)) if i != p]


@dataclass(frozen=True)
class FormalCurve:
    variables: tuple[str, ...]
    components: tuple[unipoly.UPoly, ...]  # each known to t^truncation_order
    tangent_direction: int
    eigenvalue: GaussRat
    truncation_order: int
    residual_order: int | float  # math.inf when the residual vanishes exactly

    def to_jsonable(self):
        return {
            "variables": list(self.variables),
            "components": [unipoly.to_strings(comp, self.truncation_order + 1) for comp in self.components],
            "tangent_direction": self.tangent_direction,
            "eigenvalue": str(self.eigenvalue),
            "truncation_order": self.truncation_order,
            "residual_order": None if self.residual_order is math.inf else int(self.residual_order),
        }


@dataclass(frozen=True)
class Resonance:
    order: int
    obstruction: tuple[str, ...]

    def to_jsonable(self):
        return {"resonance_order": self.order, "obstruction": list(self.obstruction)}


def direction_of_eigenvalue(v: VectorFieldGerm, lam: GaussRat) -> int:
    """Index, in the canonically sorted exact spectrum, of an eigenvalue."""
    ev = linalg.eigenvalues_exact(v.linear_part())
    if isinstance(ev, linalg.Indeterminate):
        raise IndeterminateEigenvalues("linear part has eigenvalues outside Q(i)")
    lam = GaussRat.coerce(lam)
    for i, e in enumerate(ev):
        if e == lam:
            return i
    raise ValueError("%s is not an eigenvalue" % lam)


def formal_separatrix(v: VectorFieldGerm, direction: int, order: int, lam: GaussRat | None = None):
    """Solve for an invariant curve tangent to the given eigendirection.

    `direction` indexes the canonically sorted exact eigenvalue list; the
    eigenvalue there must be nonzero.  A caller that holds the spectrum
    already passes that eigenvalue as `lam`, and the spectrum is not
    computed again.  The curve is solved in the original coordinates, as
    a graph over the last coordinate the eigenvector does not vanish on
    (see the module docstring).  Returns a FormalCurve (components
    certified to `order`) or a Resonance value."""
    if order < 2:
        raise ValueError("truncation order must be >= 2")
    n = v.dim()
    lp = v.linear_part()
    if lam is None:
        ev = linalg.eigenvalues_exact(lp)
        if isinstance(ev, linalg.Indeterminate):
            raise IndeterminateEigenvalues("linear part has eigenvalues outside Q(i)")
        if not 0 <= direction < len(ev):
            raise ValueError("direction index out of range")
        lam = ev[direction]
    if lam.is_zero():
        raise ZeroEigenvalueDirection("chosen eigendirection has eigenvalue 0")
    e = linalg.eigenvector(lp, lam)
    if e is None:
        raise FoliationError("no eigenvector found (cannot happen for an exact eigenvalue)")
    p = max(i for i in range(n) if not e[i].is_zero())
    rest = [i for i in range(n) if i != p]
    t = MVPoly.var(_T, "t")
    f = [t * c for c in e]
    s = [[(lp[i][j] - e[i] * lp[p][j] / e[p]) / lam for j in rest] for i in rest]
    for k in range(2, order + 1):
        known = [r.coeff((k,)) for r in _tangency_residual(v, f, p, lam)]
        rows = tuple(
            tuple((GaussRat(k) if i == j else GaussRat(0)) - x for j, x in enumerate(row)) for i, row in enumerate(s)
        )
        sol = linalg.solve(rows, tuple(-g for g in known))
        if sol is None:
            return Resonance(order=k, obstruction=tuple(str(g) for g in known))
        for i, x in zip(rest, sol):
            f[i] = f[i] + MVPoly.monomial(_T, (k,), x)
    res_order = min((r.vanishing_order() for r in _tangency_residual(v, f, p, lam)), default=math.inf)
    return FormalCurve(
        variables=v.variables,
        components=tuple(unipoly.from_mvpoly(c) for c in f),
        tangent_direction=direction,
        eigenvalue=lam,
        truncation_order=order,
        residual_order=res_order,
    )


@dataclass
class CornerSeparatrixReport:
    outcome: str  # always "confirmed"
    ratio_witnesses: list[str]
    attempts: list[dict]  # always empty
    notes: list[str] = field(default_factory=list)

    def to_jsonable(self):
        return {
            "outcome": self.outcome,
            "ratio_witnesses": self.ratio_witnesses,
            "attempts": self.attempts,
            "notes": self.notes,
        }


def corner_has_no_transverse_separatrix(v: VectorFieldGerm, divisor: LogDivisor) -> CornerSeparatrixReport:
    """Confirm, by exact arithmetic, that a simple corner admits no
    separatrix transverse to the divisor.

    A transverse separatrix would force positive integer vanishing orders
    with nu_p / nu_q equal to the eigenvalue ratio of two divisor axes,
    impossible when that ratio is not a positive rational (Camacho-Sad,
    Ann. of Math. 115 (1982)).  No eigendirection is tried.  On a divisor
    axis j, z_j divides a_j, so row j of the linear part is lambda_j e_j
    and an eigenvector nonzero at j has eigenvalue lambda_j.  One nonzero
    on every axis makes all lambda_j equal; then no pair is a witness and
    the germ is no corner.  So `outcome` is "confirmed", `attempts` empty."""
    status = classify.classify_simple(v, divisor)
    if status.kind != "simple_corner":
        raise NotACorner("classify_simple returned %s" % status.kind)
    lam0 = classify.log_coefficients(v, divisor)
    witnesses = ["axes (%d, %d): nu_%d/nu_%d would equal %s, not a positive rational"
                 % (p + 1, q + 1, q + 1, p + 1, lam0[q] / lam0[p]) for p, q in classify.corner_witnesses(lam0)]
    exact = not isinstance(linalg.eigenvalues_exact(v.linear_part()), linalg.Indeterminate)
    notes = [] if exact else ["eigenvalues outside Q(i): eigendirection attempts skipped"]
    return CornerSeparatrixReport("confirmed", witnesses, [], notes)


@dataclass
class LiftCheckResult:
    outcome: str  # "meets_simple_point" | "mismatch"
    chart: int | None
    point: tuple[str, ...] | None
    status: classify.SimpleStatus | None
    unique_simple: bool
    lifted_components: list[list[str]] | None
    notes: list[str] = field(default_factory=list)

    def to_jsonable(self):
        return {
            "outcome": self.outcome,
            "chart": None if self.chart is None else self.chart + 1,
            "point": list(self.point) if self.point else None,
            "simple_status": self.status.to_jsonable() if self.status else None,
            "unique_simple": self.unique_simple,
            "lifted_components": self.lifted_components,
            "notes": self.notes,
        }


def separatrix_lift_check(v: VectorFieldGerm, divisor: LogDivisor, curve: FormalCurve) -> LiftCheckResult:
    """Lift a separatrix through one blow-up and verify it lands on the
    unique simple point of the transformed foliation on E."""
    status = classify.classify_simple(v, divisor)
    if status.kind not in ("simple_point_A", "simple_point_B"):
        raise FoliationError("lift check expects a simple point, got %s" % status.kind)
    vals = [unipoly.valuation(comp) for comp in curve.components]
    for j in sorted(divisor.axes):
        if vals[j] is math.inf:
            raise CurveInDivisor("curve component %d vanishes to working order: curve lies in D" % (j + 1))
    # a simple point has one divisor axis, and its component is finite
    c = min((val, i) for i, val in enumerate(vals) if val is not math.inf)[1]
    # so the quotients are series: val(comp) >= val(denom), which is finite
    denom, order = curve.components[c], curve.truncation_order
    lifted = [comp if i == c else unipoly.series_divide(comp, denom, order) for i, comp in enumerate(curve.components)]
    point = [GaussRat(0) if i == c else unipoly.poly_eval(q, GaussRat(0)) for i, q in enumerate(lifted)]
    printed = [unipoly.to_strings(q, order + 1 - (0 if i == c else vals[c])) for i, q in enumerate(lifted)]
    entries = blowup.blow_up(v, divisor)
    sat = entries[c][0]
    germ_at = translate_to_point(sat.saturated_field, point)
    div_at = divisor_at_point(sat.divisor, point)
    try:
        st = classify.classify_simple(germ_at, div_at)
    except FoliationError as exc:
        return LiftCheckResult("mismatch", c, tuple(str(p) for p in point), None, False, printed,
                               ["classification failed at the lift point: %s" % exc])
    notes = []
    simple_count = 0
    point_is_simple_point = st.kind in ("simple_point_A", "simple_point_B")
    for sat_ch, locus in entries:
        if not locus.complete:
            notes.append("enumeration incomplete in chart %d" % (sat_ch.chart + 1))
        for pt in locus.points:
            g = translate_to_point(sat_ch.saturated_field, pt)
            d = divisor_at_point(sat_ch.divisor, pt)
            try:
                s2 = classify.classify_simple(g, d)
            except FoliationError:
                continue
            if s2.kind in ("simple_point_A", "simple_point_B"):
                simple_count += 1
    unique = simple_count == 1
    ok = point_is_simple_point and unique and st.kind == status.kind
    if point_is_simple_point and st.kind != status.kind:
        notes.append("lift point is simple but of type %s (root was %s)" % (st.kind, status.kind))
    return LiftCheckResult(
        "meets_simple_point" if ok else "mismatch",
        c, tuple(str(p) for p in point), st, unique, printed, notes)
