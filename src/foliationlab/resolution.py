"""Blow-up towers: Seidenberg reduction, simple-singularity resolution,
and the weakly-reduced certificate.

Towers are deterministic: singular points are processed breadth-first in
lexicographic chart-path order, blow-up events are numbered in processing
order, and chart nodes are addressed as "b<event>.c<chart>" path segments.

Singular points at locations outside Q(i) (a conjugate cluster over an
irreducible residual polynomial, at most one per locus on E) are decided
without coordinates, like a point: a cluster point is reduced iff trace or
determinant of the Jacobian is nonzero there, which is a gcd computation
against the cluster polynomial.  Reduced non-dicritical clusters are
terminal in Seidenberg reduction; any other cluster blocks the tower,
honestly, since its points cannot serve as exact blow-up centers.

A tower's root must be an isolated singularity.  In dim 2 it then stays
isolated under every point blow-up, since the saturated strict transform
is again saturated (Seidenberg, Amer. J. Math. 90 (1968); Brunella,
Birational Geometry of Foliations, ch. 1).  Absolute isolation is a
question only for n >= 3 (Camacho, Cano and Sad, Invent. Math. 97 (1989)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .gaussrat import GaussRat
from .foliation import (
    FoliationError,
    LogDivisor,
    VectorFieldGerm,
    divisor_at_point,
    divisor_invariance_check,
    is_singular_at_origin,
    milnor_number,
    translate_to_point,
)
from .monomial import MonomialIdeal, multiplier_ideal_trivial_monomial
from .mvpoly import chart_exponent
from . import blowup, classify, unipoly


DEFAULT_DEPTH = 16
TOWER_NODE_BUDGET = 4000
DISCREPANCY_CHECK_DEPTH = 64  # depth cap of the discrepancy cross-check's log resolution


# ---------------------------------------------------------------------------
# tower data


@dataclass
class TerminalSingularity:
    node_path: str
    location: tuple[str, ...] | None
    cluster_poly: tuple[str, ...] | None
    cluster_size: int
    reduced: bool
    surface_type: classify.SurfaceType | None
    simple_status: classify.SimpleStatus | None
    dicritical: bool | None
    report: classify.SingularityReport | None

    def to_jsonable(self):
        return {
            "node": self.node_path,
            "location": list(self.location) if self.location else None,
            "cluster_poly": list(self.cluster_poly) if self.cluster_poly else None,
            "cluster_size": self.cluster_size,
            "reduced": self.reduced,
            "surface_type": self.surface_type.to_jsonable() if self.surface_type else None,
            "simple_status": self.simple_status.to_jsonable() if self.simple_status else None,
            "dicritical": self.dicritical,
            "report": self.report.to_jsonable() if self.report else None,
        }


@dataclass
class TowerEvent:
    index: int
    parent_path: str
    center: tuple[str, ...]
    level: int
    s_by_chart: dict[int, int]

    def to_jsonable(self):
        return {
            "index": self.index,
            "parent": self.parent_path,
            "center": list(self.center),
            "level": self.level,
            "saturation_exponents": {str(c + 1): s for c, s in sorted(self.s_by_chart.items())},
        }


@dataclass
class TowerNode:
    level: int
    transform: blowup.SaturatedTransform

    def to_jsonable(self):
        out = self.transform.to_jsonable()
        out["level"] = self.level
        return out


@dataclass
class DiscrepancyEntry:
    divisor_id: int  # also the blow-up event that created the divisor
    discrepancy: int
    ideal_order: int

    def to_jsonable(self):
        return {
            "divisor": self.divisor_id,
            "discrepancy": self.discrepancy,
            "ideal_order": self.ideal_order,
            "event": self.divisor_id,
        }


@dataclass
class ResolutionTower:
    root: VectorFieldGerm
    root_divisor: LogDivisor | None
    goal: str
    status: str  # "complete" | "depth_exceeded" | "blocked"
    reason: str
    nodes: dict[str, TowerNode]
    events: list[TowerEvent]
    terminals: list[TerminalSingularity]
    pending: list[dict]
    notes: list[str] = field(default_factory=list)

    def to_jsonable(self):
        return {
            "goal": self.goal,
            "status": self.status,
            "reason": self.reason,
            "root": self.root.to_text(),
            "root_divisor": self.root_divisor.to_jsonable() if self.root_divisor else None,
            "blowups": len(self.events),
            "events": [e.to_jsonable() for e in self.events],
            "nodes": {p: n.to_jsonable() for p, n in sorted(self.nodes.items())},
            "terminal_singularities": [t.to_jsonable() for t in self.terminals],
            "pending": self.pending,
            "discrepancies": [],
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# helpers


def _fmt(point: Sequence[GaussRat]) -> tuple[str, ...]:
    return tuple(str(c) for c in point)


def _cluster_outcome(sat: blowup.SaturatedTransform, h: unipoly.UPoly, goal: str,
                     path: str) -> list[TerminalSingularity] | str:
    """The terminal records of the conjugate singular points on E at the
    roots of the monic residual h, or the reason they block the tower.

    At a singular point (u=0, w=w0) of the saturated field the Jacobian
    trace and determinant are polynomials in w0; a point is reduced iff one
    of them is nonzero, so the non-reduced points are the common roots with
    h, decided by gcds."""
    j = sat.chart
    w = 1 - j
    a, b = sat.saturated_field.components[j], sat.saturated_field.components[w]
    # the partial derivatives on E = {u = 0}, as polynomials in w
    au, aw, bu, bw = (unipoly.from_mvpoly(c.derivative(i), w) for c in (a, b) for i in (j, w))
    # trace = au + bw, det = au*bw - aw*bu (as polynomials in the direction coordinate)
    tr = unipoly.poly_add(au, bw)
    det = unipoly.poly_add(unipoly.poly_mul(au, bw), unipoly.poly_mul(aw, bu), -1)
    # h and every gcd are monic, so a gcd of degree 0 is 1
    h_sf = unipoly.poly_divmod(h, unipoly.poly_gcd(h, unipoly.poly_derivative(h)))[0]
    where = "singular points at non-Q(i) locations on " + path
    size = " (minimal polynomial degree %d)" % unipoly.degree(h_sf)
    if unipoly.degree(unipoly.poly_gcd(unipoly.poly_gcd(h_sf, tr), det)) > 0:
        return "non-reduced " + where + size
    sn = unipoly.poly_gcd(h_sf, det)
    nd = unipoly.poly_divmod(h_sf, sn)[0]
    # dicritical cluster points have scalar Jacobian: aw = bu = 0 and au = bw
    # (the m = 1 case of the radial tangent cone in classify.is_dicritical)
    diff = unipoly.poly_add(au, bw, -1)
    dic = nd
    for q in (aw, bu, diff):
        if unipoly.degree(dic) <= 0:
            break
        dic = unipoly.poly_gcd(dic, q)
    if unipoly.degree(dic) > 0:
        return "reduced but dicritical " + where
    if goal == "simple":
        return "simple " + where + size
    saddle_node = classify.unclassified("saddle-node cluster at non-Q(i) points: type-k normalization unavailable")
    return [TerminalSingularity(node_path=path, location=None, cluster_poly=tuple(unipoly.to_strings(part)),
                                cluster_size=unipoly.degree(part), reduced=True, surface_type=surface_type,
                                simple_status=None, dicritical=None, report=None)
            for part, surface_type in ((nd, classify.NON_DEGENERATE), (sn, saddle_node))
            if unipoly.degree(part) > 0]


# ---------------------------------------------------------------------------
# generic tower driver


@dataclass
class _WorkItem:
    path: str
    germ: VectorFieldGerm
    divisor: LogDivisor
    level: int
    location: tuple[str, ...]


def _run_tower(
    v: VectorFieldGerm,
    divisor: LogDivisor | None,
    max_depth: int,
    goal: str,
    terminal,
) -> ResolutionTower:
    """Shared driver: blow up every non-terminal singular point, breadth
    first, until terminal everywhere or the depth cap is hit.

    `terminal(item)` returns the report of a terminal item, or the reason
    the item is not terminal; `_cluster_outcome` decides a conjugate
    cluster on E the same way, except that its reason blocks the tower."""
    n = v.dim()
    div0 = divisor if divisor is not None else LogDivisor.empty()
    tower = ResolutionTower(
        root=v, root_divisor=divisor, goal=goal, status="complete", reason="",
        nodes={}, events=[], terminals=[], pending=[],
    )
    if not is_singular_at_origin(v):
        tower.notes.append("root germ is not singular at the origin; nothing to resolve")
        return tower
    queue: list[_WorkItem] = [_WorkItem("", v, div0, 0, _fmt([GaussRat(0)] * n))]
    depth_exceeded = False
    blocked_reason = ""
    explored = 0
    while queue:
        item = queue.pop(0)
        explored += 1
        if explored > TOWER_NODE_BUDGET:
            tower.status = "blocked"
            tower.reason = "node budget exhausted (%d)" % TOWER_NODE_BUDGET
            tower.pending.extend({"node": it.path, "location": list(it.location)} for it in queue)
            return tower
        outcome = terminal(item)
        if isinstance(outcome, classify.SingularityReport):
            tower.terminals.append(TerminalSingularity(
                node_path=item.path, location=item.location, cluster_poly=None, cluster_size=1,
                reduced=outcome.reduced, surface_type=outcome.surface_type if n == 2 else None,
                simple_status=outcome.simple_status, dicritical=False, report=outcome))
            continue
        if item.level >= max_depth:
            depth_exceeded = True
            tower.pending.append({"node": item.path, "location": list(item.location),
                                  "why_not_terminal": outcome})
            continue
        ev_index = len(tower.events) + 1
        level = item.level
        s_by_chart: dict[int, int] = {}
        tower.events.append(TowerEvent(ev_index, item.path, item.location, level, s_by_chart))
        for sat, locus in blowup.blow_up(item.germ, item.divisor, level=ev_index):
            s_by_chart[sat.chart] = sat.saturation_exponent
            child_path = (item.path + "/" if item.path else "") + "b%d.c%d" % (ev_index, sat.chart + 1)
            tower.nodes[child_path] = TowerNode(level + 1, sat)
            if locus.non_isolated:
                tower.status = "blocked"
                tower.reason = "non-isolated singular locus on E at %s" % child_path
                return tower
            if not locus.complete:
                blocked_reason = blocked_reason or (
                    "singular-point enumeration incomplete at %s: %s"
                    % (child_path, "; ".join(locus.notes) or "unknown")
                )
            for label, pt in sorted(((_fmt(pt), pt) for pt in locus.points), key=lambda lp: lp[0]):
                child = translate_to_point(sat.saturated_field, pt)
                queue.append(_WorkItem(child_path, child, divisor_at_point(sat.divisor, pt),
                                       level + 1, label))
            if locus.cluster is not None:
                outcome = _cluster_outcome(sat, locus.cluster, goal, child_path)
                if isinstance(outcome, str):
                    tower.status = "blocked"
                    tower.reason = outcome
                    return tower
                tower.terminals.extend(outcome)
    if blocked_reason:
        tower.status = "blocked"
        tower.reason = blocked_reason
        return tower
    if depth_exceeded:
        tower.status = "depth_exceeded"
        tower.reason = "depth cap %d reached before resolution finished" % max_depth
    return tower


# ---------------------------------------------------------------------------
# Seidenberg reduction (dimension 2)


def seidenberg_reduce(v: VectorFieldGerm, max_depth: int = DEFAULT_DEPTH) -> ResolutionTower:
    """Blow up until every terminal singularity is reduced and
    non-dicritical (surface case).

    Dicritical points are blown up even when reduced in the weak sense
    (e.g. the radial germ): the post-reduction state must satisfy
    pullback-tangent-bundle invariance for any further blow-up, which a
    dicritical point violates."""
    if v.dim() != 2:
        raise FoliationError("Seidenberg reduction is the dim-2 driver")
    _require_isolated_root(v)
    return _run_tower(v, None, max_depth, "seidenberg", lambda item: classify.seidenberg_terminal(item.germ))


# ---------------------------------------------------------------------------
# simple-singularity resolution (any dimension)


def resolve_simple(v: VectorFieldGerm, divisor: LogDivisor, max_depth: int = DEFAULT_DEPTH) -> ResolutionTower:
    """Blow up until every singularity is a simple point or corner and
    non-dicritical, per the log-triple conventions.  Outside dim 2 the
    tower first runs `_ais_probe`."""
    if divisor.axes and not divisor_invariance_check(v, divisor):
        raise FoliationError("root divisor is not invariant")
    _require_isolated_root(v)
    notes = [] if v.dim() == 2 else _ais_probe(v, min(max_depth, 3))
    tower = _run_tower(v, divisor, max_depth, "simple", lambda item: classify.simple_terminal(item.germ, item.divisor))
    tower.notes.extend(notes)
    return tower


def _require_isolated_root(v: VectorFieldGerm) -> None:
    """Raise unless the root is nonsingular or an isolated singularity:
    mu_0 < inf in dim 2; in any other dimension, no component vanishes
    identically."""
    if (milnor_number(v) == math.inf if v.dim() == 2 else
            is_singular_at_origin(v) and any(c.is_zero() for c in v.components)):
        raise FoliationError("root singular locus is a curve")


def _ais_probe(v: VectorFieldGerm, depth: int) -> list[str]:
    """Bounded absolutely-isolated probe: every singular point is blown up
    to `depth`, none of them terminal.  A non-isolated locus on E raises;
    an incomplete enumeration or an exhausted node budget returns the note
    that says so.  The last level needs only its loci on E, which
    `blowup.exceptional_loci` reads from the spectrum when the center's
    linear part is not scalar (then s = 0 in every chart), so `_run_tower`
    stops a level short; each item it pops is blown up or left pending."""
    found = "bounded A.I.S. probe found a non-isolated locus at level %d"
    last: list[blowup.ELocus] = []

    def last_level(item: _WorkItem) -> str:
        loci = blowup.exceptional_loci(item.germ) if item.level == depth - 1 else []
        if any(locus.non_isolated for locus in loci):
            raise FoliationError(found % depth)
        last.extend(loci)
        return "A.I.S. probe"

    walk = _run_tower(v, None, depth - 1, "simple", last_level)
    if walk.reason.startswith("non-isolated"):
        raise FoliationError(found % (walk.events[-1].level + 1))
    nodes = len(walk.events) + len(walk.pending) + sum(len(locus.points) for locus in last)
    if walk.reason.startswith("node budget") or nodes > TOWER_NODE_BUDGET:
        return ["A.I.S. probe: depth_exceeded"]
    if walk.reason.startswith("singular-point enumeration incomplete") or not all(locus.complete for locus in last):
        return ["A.I.S. probe: unknown"]
    return []


# ---------------------------------------------------------------------------
# weakly-reduced certificate


@dataclass
class SaturationRecord:
    event: int
    chart: int
    s: int

    def to_jsonable(self):
        return {"event": self.event, "chart": self.chart + 1, "s": self.s}


@dataclass
class WeaklyReducedCertificate:
    verdict: str  # "certified" | "refuted" | "unknown"
    failed_clause: int | None
    witness: str
    discrepancies: list[DiscrepancyEntry]
    saturations: list[SaturationRecord]
    howald_agrees: bool | None
    notes: list[str] = field(default_factory=list)

    def to_jsonable(self):
        return {
            "verdict": self.verdict,
            "failed_clause": self.failed_clause,
            "witness": self.witness,
            "discrepancies": [d.to_jsonable() for d in self.discrepancies],
            "saturation_exponents": [s.to_jsonable() for s in self.saturations],
            "howald_agrees": self.howald_agrees,
            "notes": list(self.notes),
        }


@dataclass
class _IdealNode:
    path: str
    gens: list[tuple[int, ...]]
    provenance: list[tuple[str, int]]  # per position: ("orig", axis) or ("exc", divisor id)
    germ: VectorFieldGerm | None
    level: int


def discrepancy_log_resolution(ideal: MonomialIdeal, germ: VectorFieldGerm | None,
                               max_depth: int = DEFAULT_DEPTH):
    """Principalize a monomial ideal by point blow-ups at chart origins,
    recording per-divisor discrepancies a_i and ideal orders d_i, plus the
    saturation exponent of the dragged-along field at every event/chart.

    Returns (discrepancies, saturations, leaf_original_axis_orders, status,
    witness) where status is "ok" | "unknown" | "nonsingular_center"."""
    n = ideal.ambient_dim
    disc: dict[int, DiscrepancyEntry] = {}
    sats: list[SaturationRecord] = []
    original_axis_orders: list[tuple[str, int, int]] = []
    queue = [_IdealNode("", sorted(ideal.generators), [("orig", i) for i in range(n)],
                        germ, 0)]
    events = 0
    status, witness = "ok", ""
    while queue:
        node = queue.pop(0)
        cur = MonomialIdeal(n, node.gens)
        content = cur.common_factor()
        quotient = cur.quotient_by(content)
        for pos in range(n):
            kind, ref = node.provenance[pos]
            if content[pos] > 0 and kind == "orig":
                original_axis_orders.append((node.path, ref, content[pos]))
        if quotient.is_trivial():
            continue
        if not quotient.cosupport_is_origin():
            return list(disc.values()), sats, original_axis_orders, "unknown", (
                "quotient ideal at %s is not cosupported at the chart origin; "
                "point blow-ups cannot principalize it" % (node.path or "root"))
        if node.level >= max_depth:
            return list(disc.values()), sats, original_axis_orders, "unknown", (
                "depth cap %d reached during principalization" % max_depth)
        events += 1
        ev = events
        d_new = min(sum(g) for g in node.gens)
        a_new = (n - 1) + sum(disc[ref].discrepancy for kind, ref in node.provenance if kind == "exc")
        disc[ev] = DiscrepancyEntry(ev, a_new, d_new)
        germ_here = node.germ
        if germ_here is not None and not is_singular_at_origin(germ_here):
            status, witness = "nonsingular_center", (
                "log resolution blows up a point where the transformed field is nonsingular "
                "(node %s): the tangent bundle cannot match the pullback there" % (node.path or "root"))
            germ_singular = False
        else:
            germ_singular = germ_here is not None
        for j in range(n):
            new_gens = [chart_exponent(g, j) for g in node.gens]
            child_prov = list(node.provenance)
            child_prov[j] = ("exc", ev)
            child_path = (node.path + "/" if node.path else "") + "b%d.c%d" % (ev, j + 1)
            child_germ = None
            if germ_singular:
                sat = blowup.transform_vector_field(germ_here, j, level=ev)
                sats.append(SaturationRecord(ev, j, sat.saturation_exponent))
                child_germ = sat.saturated_field
            queue.append(_IdealNode(child_path, new_gens, child_prov, child_germ, node.level + 1))
    return list(disc.values()), sats, original_axis_orders, status, witness


def weakly_reduced_check(v: VectorFieldGerm, max_depth: int = DEFAULT_DEPTH) -> WeaklyReducedCertificate:
    """Certify or refute the weakly-reduced condition for a germ with
    monomial coefficient ideal.

    Clause 1 requires saturation exponent 0 at every blow-up of the log
    resolution of J_F; clause 2 requires discrepancy >= ideal order for
    every exceptional divisor (and no original-axis component in the
    principalized pullback).  The Newton-polyhedron oracle must agree with
    clause 2 and is reported alongside."""
    ideal = MonomialIdeal.from_polys(list(v.components))
    if ideal is None:
        return WeaklyReducedCertificate(
            "unknown", None, "coefficient ideal is not monomial; log resolution not attempted",
            [], [], None)
    howald = multiplier_ideal_trivial_monomial(ideal)
    if ideal.is_trivial():
        return WeaklyReducedCertificate(
            "certified", None, "coefficient ideal is trivial; identity log resolution",
            [], [], howald, ["germ has a unit component; J_F = (1)"])
    disc, sats, axis_orders, status, witness = discrepancy_log_resolution(ideal, v, max_depth)
    if status == "unknown":
        return WeaklyReducedCertificate("unknown", None, witness, disc, sats, howald)
    if status == "nonsingular_center":
        return WeaklyReducedCertificate("refuted", 1, witness, disc, sats, howald)
    bad_s = [s for s in sats if s.s != 0]
    if bad_s:
        w = bad_s[0]
        return WeaklyReducedCertificate(
            "refuted", 1,
            "saturation exponent s = %d at event %d chart %d: T_F-hat differs from the pullback by %d E"
            % (w.s, w.event, w.chart + 1, w.s),
            disc, sats, howald)
    if axis_orders:
        path, axis, order = axis_orders[0]
        return WeaklyReducedCertificate(
            "refuted", 2,
            "principalized pullback contains the strict transform of original axis %d "
            "with multiplicity %d at %s (discrepancy 0 < %d)" % (axis + 1, order, path or "root", order),
            disc, sats, howald)
    for entry in disc:
        if entry.discrepancy < entry.ideal_order:
            return WeaklyReducedCertificate(
                "refuted", 2,
                "exceptional divisor %d has discrepancy %d < ideal order %d"
                % (entry.divisor_id, entry.discrepancy, entry.ideal_order),
                disc, sats, howald)
    return WeaklyReducedCertificate("certified", None, "", disc, sats, howald)


def multiplier_ideal_trivial_by_discrepancy(ideal: MonomialIdeal) -> bool:
    """Independent route to multiplier-ideal triviality: principalize and
    test K - D effectivity on the ledger.  Used as the cross-check against
    the Newton-polyhedron oracle."""
    if ideal.is_trivial():
        return True
    disc, _sats, axis_orders, status, witness = discrepancy_log_resolution(ideal, None, DISCREPANCY_CHECK_DEPTH)
    if status != "ok":
        raise FoliationError("log resolution failed: %s" % witness)
    if axis_orders:
        return False
    return all(e.discrepancy >= e.ideal_order for e in disc)
