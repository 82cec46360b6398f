import itertools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliationlab.gaussrat import GaussRat
from foliationlab.mvpoly import MVPoly
from foliationlab.foliation import (
    FoliationError,
    LogDivisor,
    VectorFieldGerm,
    divisor_invariance_check,
    milnor_number,
    translate_to_point,
)
from foliationlab.monomial import MonomialIdeal, multiplier_ideal_trivial_monomial
from foliationlab.resolution import (
    TOWER_NODE_BUDGET,
    _ais_probe,
    _cluster_outcome,
    discrepancy_log_resolution,
    multiplier_ideal_trivial_by_discrepancy,
    resolve_simple,
    seidenberg_reduce,
    weakly_reduced_check,
)
from foliationlab.corpus import seidenberg_corpus
from foliationlab.dsl import parse_vector_field
from foliationlab import blowup, classify, linalg, resolution, unipoly

from helpers import (
    coeffs,
    points_on_E,
    reference_ais_probe,
    reference_cluster_verdict,
    reference_resolve_simple,
    seeded_towers,
)

VARS = ("x", "y")
X = MVPoly.var(VARS, "x")
Y = MVPoly.var(VARS, "y")


def germ(*comps):
    return VectorFieldGerm(VARS, comps)


def test_seidenberg_sadle_trivial():
    t = seidenberg_reduce(germ(X, -1 * Y))
    assert t.status == "complete" and len(t.events) == 0
    assert len(t.terminals) == 1
    assert t.terminals[0].surface_type.kind == "non_degenerate"


def test_seidenberg_radial_one_blowup():
    t = seidenberg_reduce(germ(X, Y))
    assert t.status == "complete"
    assert len(t.events) == 1
    assert len(t.terminals) == 0  # dicritical blow-up leaves no singularities


def test_seidenberg_nilpotent_tower():
    t = seidenberg_reduce(germ(Y, X * X), max_depth=8)
    assert t.status == "complete"
    assert len(t.events) >= 2
    assert t.terminals and all(term.reduced for term in t.terminals)
    for term in t.terminals:
        assert term.surface_type.kind in ("non_degenerate", "degenerate")


def test_seidenberg_rejects_non_isolated():
    with pytest.raises(FoliationError, match="root singular locus is a curve"):
        seidenberg_reduce(germ(Y, MVPoly.zero(VARS)))


def test_seidenberg_golden_cluster():
    # singular directions on E at the double roots of (w^2 - w - 1)^2:
    # reduced saddle-node clusters, terminal without exact coordinates
    v = parse_vector_field("v = -y^3 d/dx + (x^3 + 2*x^2*y - x*y^2 - 2*y^3) d/dy")
    t = seidenberg_reduce(v, max_depth=8)
    assert t.status == "complete"
    clusters = [term for term in t.terminals if term.cluster_poly]
    assert clusters
    assert all(term.reduced for term in t.terminals)


# on E the locus is -(w^2 - 2)(w^2 - 3) and det J vanishes only where
# w^2 = 3: one cluster with a non-degenerate part and a saddle-node part
TWO_PART_CLUSTER = "v = (y^3 - 3*x^2*y + x^4) d/dx + (2*x*y^2 - 6*x^3 + y^4) d/dy"

# no pinned output reaches a cluster that blocks the tower: a non-reduced
# one (checked first, for either goal), a reduced dicritical one, and a
# reduced one under the simple goal, of one part or of two
BLOCKING_CLUSTERS = [
    ("v = ((y^2 - 2*x^2)*x^2 + y^5) d/dx + ((y^2 - 2*x^2)*(x*y + y^2 - 2*x^2) + x^5) d/dy", "seidenberg",
     "non-reduced singular points at non-Q(i) locations on b1.c1 (minimal polynomial degree 2)"),
    ("v = (-x*y^2 - 2*x^3) d/dx + (-2*y^3 - 2*x*y^2) d/dy", "seidenberg",
     "reduced but dicritical singular points at non-Q(i) locations on b1.c1"),
    ("v = (-2*y^2) d/dx + (2*x^2) d/dy", "simple",
     "simple singular points at non-Q(i) locations on b1.c1 (minimal polynomial degree 2)"),
    (TWO_PART_CLUSTER, "simple",
     "simple singular points at non-Q(i) locations on b1.c1 (minimal polynomial degree 4)"),
]


def _tower(text, goal):
    v = parse_vector_field(text)
    return seidenberg_reduce(v) if goal == "seidenberg" else resolve_simple(v, LogDivisor.empty())


@pytest.mark.parametrize("text, goal, reason", BLOCKING_CLUSTERS)
def test_blocking_cluster_reason(text, goal, reason):
    t = _tower(text, goal)
    assert (t.status, t.reason, t.terminals, t.pending) == ("blocked", reason, [], [])
    assert [e.center for e in t.events] == [("0", "0")]


def _implied_outcome(verdict, goal, path):
    """The reason or the terminals (path, cluster polynomial, size, surface
    type) that the reference verdict implies."""
    if not verdict.all_reduced:
        return ("non-reduced singular points at non-Q(i) locations on %s (minimal polynomial degree %d)"
                % (path, verdict.size))
    if verdict.dicritical_part.num:
        return "reduced but dicritical singular points at non-Q(i) locations on %s" % path
    if goal == "simple":
        return ("simple singular points at non-Q(i) locations on %s (minimal polynomial degree %d)"
                % (path, verdict.size))
    return [(path, [str(c) for c in coeffs(part)], unipoly.degree(part), kind)
            for part, kind in ((verdict.nondegenerate_part, "non_degenerate"),
                               (verdict.saddle_node_part, "unclassified"))
            if unipoly.degree(part) > 0]


def _outcome_text(outcome):
    if isinstance(outcome, str):
        return outcome
    for t in outcome:
        assert (t.location, t.reduced, t.simple_status, t.dicritical, t.report) == (None, True, None, None, None)
    return [(t.node_path, list(t.cluster_poly), t.cluster_size, t.surface_type.kind) for t in outcome]


def test_cluster_verdict_matches_reference():
    """On every cluster of the seed 0-3 Seidenberg towers, of the
    golden-ratio germ and of the blocking germs, under either goal, the
    outcome is the one the reference verdict implies.  The Seidenberg
    tower of the two-part cluster lists its non-degenerate record first."""
    golden = parse_vector_field("v = -y^3 d/dx + (x^3 + 2*x^2*y - x*y^2 - 2*y^3) d/dy")
    two_part = seidenberg_reduce(parse_vector_field(TWO_PART_CLUSTER))
    assert [(t.node_path, t.cluster_poly, t.surface_type.kind) for t in two_part.terminals] == [
        ("b1.c1", ("-2", "0", "1"), "non_degenerate"), ("b1.c1", ("-3", "0", "1"), "unclassified")]
    blocking = [_tower(text, goal) for text, goal, _reason in BLOCKING_CLUSTERS]
    seen = set()
    for tower in seeded_towers() + [seidenberg_reduce(golden, 8)] + blocking:
        for path, node in tower.nodes.items():
            h = points_on_E(node.transform).cluster
            if h is None:
                continue
            verdict = reference_cluster_verdict(node.transform, h)
            for goal in ("seidenberg", "simple"):
                got = _outcome_text(_cluster_outcome(node.transform, h, goal, path))
                assert got == _implied_outcome(verdict, goal, path)
                seen.add(got.split(" singular")[0] if isinstance(got, str) else tuple(t[3] for t in got))
    assert seen == {"non-reduced", "reduced but dicritical", "simple", ("non_degenerate",), ("unclassified",),
                    ("non_degenerate", "unclassified")}


def test_depth_exceeded_is_a_result():
    t = seidenberg_reduce(germ(Y, X * X), max_depth=1)
    assert t.status == "depth_exceeded"
    assert t.pending


def test_nondegenerate_blowup_dichotomy():
    # blow-up of a nondegenerate diagonalizable point: two nondegenerate points
    from foliationlab import blowup, classify
    from foliationlab.foliation import translate_to_point

    for lam2 in (GaussRat(-1), GaussRat(-2), GaussRat(2), GaussRat(0, 1)):
        v = germ(X, lam2 * Y)
        found = []
        for sat, locus in blowup.blow_up(v):
            for pt in locus.points:
                child = translate_to_point(sat.saturated_field, pt)
                found.append(classify.singularity_report(child).surface_type.kind)
        assert found == ["non_degenerate", "non_degenerate"]


def test_degenerate_type_blowup_dichotomy():
    # model z1 d1 + z2^k d2: one nondegenerate and one type-k point
    from foliationlab import blowup, classify
    from foliationlab.foliation import translate_to_point

    for k in (2, 3, 4):
        v = germ(X, Y**k)
        kinds = []
        for sat, locus in blowup.blow_up(v):
            for pt in locus.points:
                child = translate_to_point(sat.saturated_field, pt)
                st = classify.singularity_report(child).surface_type
                kinds.append((st.kind, st.k))
        assert ("non_degenerate", None) in kinds
        assert ("degenerate", k) in kinds


def test_weakly_reduced_fixtures():
    cert = weakly_reduced_check(germ(X, -1 * Y))
    assert cert.verdict == "certified"
    assert [(d.discrepancy, d.ideal_order) for d in cert.discrepancies] == [(1, 1)]
    assert all(s.s == 0 for s in cert.saturations)
    assert cert.howald_agrees is True

    cert = weakly_reduced_check(germ(X, Y))
    assert cert.verdict == "refuted" and cert.failed_clause == 1
    assert any(s.s == 1 for s in cert.saturations)

    cert = weakly_reduced_check(germ(X * X, Y))
    assert cert.verdict == "certified"
    assert sorted((d.discrepancy, d.ideal_order) for d in cert.discrepancies) == [(1, 1), (2, 2)]

    cert = weakly_reduced_check(germ(Y + X * X, X))  # non-monomial coefficient ideal
    assert cert.verdict == "unknown"


def test_weakly_reduced_axis_component():
    # J_F = (x*y) is already principal with original-axis components, so
    # clause 2 refutes with no blow-up at all
    cert = weakly_reduced_check(germ(X * Y, X * Y))
    assert cert.verdict == "refuted" and cert.failed_clause == 2
    assert cert.howald_agrees is False
    assert not cert.saturations


def test_discrepancy_single_blowup_dim_n():
    for n in (2, 3, 4):
        names = ("x", "y", "z", "w")[:n]
        gens = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        disc, sats, axis_orders, status, witness = discrepancy_log_resolution(
            MonomialIdeal(n, gens), None)
        assert status == "ok"
        assert disc[0].discrepancy == n - 1
        assert disc[0].ideal_order == 1


def test_oracle_agreement_sample():
    cases = [
        [(1, 0), (0, 1)],
        [(2, 0), (1, 1), (0, 2)],
        [(2, 0), (0, 1)],
        [(1, 1)],
        [(3, 0), (0, 2)],
        [(4, 0), (2, 1), (0, 3)],
        [(2, 1), (1, 2)],
    ]
    for gens in cases:
        ideal = MonomialIdeal(2, gens)
        assert multiplier_ideal_trivial_by_discrepancy(ideal) == multiplier_ideal_trivial_monomial(ideal)


def test_resolve_simple_fixtures():
    t = resolve_simple(germ(X * X, -1 * Y), LogDivisor({0}))
    assert t.status == "complete" and len(t.events) == 0
    assert t.terminals[0].simple_status.kind == "simple_point_A"
    assert t.terminals[0].dicritical is False

    # 1:2 resonance resolves: the radial child blows down to nothing and a
    # simple corner remains
    t = resolve_simple(germ(X, 2 * Y), LogDivisor({0, 1}), max_depth=8)
    assert t.status == "complete"
    kinds = sorted(term.simple_status.kind for term in t.terminals)
    assert kinds == ["simple_corner"]
    assert all(term.dicritical is False for term in t.terminals)


def test_resolve_simple_jordan_dim3():
    vs3 = ("x", "y", "z")
    x3, y3, z3 = (MVPoly.var(vs3, n) for n in vs3)
    v = VectorFieldGerm(vs3, (x3, -1 * y3 + z3, -1 * z3))
    t = resolve_simple(v, LogDivisor({0}), max_depth=4)
    assert t.status == "complete"
    assert all(term.simple_status.is_simple() for term in t.terminals)
    assert all(term.dicritical is False for term in t.terminals)


def test_tower_serialization():
    t = seidenberg_reduce(germ(Y, X * X), max_depth=8)
    doc = t.to_jsonable()
    assert doc["status"] == "complete"
    assert doc["blowups"] == len(doc["events"])
    assert all(path.startswith("b") for path in doc["nodes"])


def test_non_terminal_reasons():
    # (goal, germ, divisor axes, depth) -> [(node, why_not_terminal)] of the pending points
    cases = [
        ("seidenberg", "v = x^2 d/dx + y^2 d/dy", None, 0, [("", "multiplicity 2 > 1")]),
        ("seidenberg", "v = y d/dx + x^2 d/dy", None, 0,
         [("", "nilpotent linear part (characteristic polynomial t^n)")]),
        ("seidenberg", "v = x d/dx + y d/dy", None, 0, [("", "reduced but dicritical")]),
        ("seidenberg", "v = y d/dx + x^2 d/dy", None, 1,
         [("b1.c1", "nilpotent linear part (characteristic polynomial t^n)")]),
        ("simple", "v = x d/dx - y d/dy", [], 0, [("", "no divisor axis through the point")]),
        ("simple", "v = x d/dx + y d/dy", [0], 0, [("", "eigenvalue 1 has multiplicity > 1")]),
        ("simple", "v = x^2 d/dx + y^2 d/dy", [0], 0, [("", "restricted linear part has rank < n-1")]),
        ("simple", "v = x d/dx + 2*y d/dy", [0], 0,
         [("", "another eigenvalue is a positive rational multiple of 1")]),
        ("simple", "v = x d/dx + 2*y d/dy", [0, 1], 0,
         [("", "every axis pair has a positive rational eigenvalue ratio (or zero pivot)")]),
        ("simple", "v = x^2 d/dx + (y + x) d/dy", [0], 0,
         [("", "transverse axis not invariant in the given coordinates "
               "(a formal change of coordinates is not attempted)")]),
        ("simple", "v = y d/dx + x^2 d/dy", [], 1, [("b1.c1", "restricted linear part has rank < n-1")]),
        ("simple", "v = x^2 d/dx + y^2 d/dy", [0], 1, [("b1.c1", "eigenvalue 1 has multiplicity > 1")]),
    ]
    for goal, text, axes, depth, want in cases:
        v = parse_vector_field(text)
        t = seidenberg_reduce(v, depth) if goal == "seidenberg" else resolve_simple(v, LogDivisor(set(axes)), depth)
        assert [(p["node"], p["why_not_terminal"]) for p in t.pending] == want, (goal, text)
    # a tower keeps every divisor it carries invariant, so this reason shows only on a direct call
    assert classify.simple_terminal(germ(Y, X), LogDivisor({0})) == "divisor axes [0] not invariant"


def test_terminal_germ_has_one_char_poly(monkeypatch):
    calls = {"char_poly": 0, "gaussian_rational_roots": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(linalg, "char_poly")
    counted(unipoly, "gaussian_rational_roots")
    for build in (lambda: seidenberg_reduce(germ(X, -1 * Y)),
                  lambda: resolve_simple(germ(X, -1 * Y), LogDivisor({0}), 0)):
        calls["char_poly"] = 0
        tower = build()
        assert len(tower.terminals) == 1 and tower.terminals[0].report is not None
        assert calls["char_poly"] == 1
    # non-terminal germs get no spectrum
    calls["gaussian_rational_roots"] = 0
    for tower in (seidenberg_reduce(germ(X, Y), 0), seidenberg_reduce(germ(X * X, Y * Y), 0),
                  resolve_simple(germ(X, Y), LogDivisor({0}), 0)):
        assert tower.pending and not tower.terminals
    assert calls["gaussian_rational_roots"] == 0


def _verdicts(v):
    """What `classify` and `resolve` decide about a dim-2 germ."""
    try:
        rep = classify.singularity_report(v)
        tower = seidenberg_reduce(v, max_depth=4)
    except FoliationError as exc:
        return "non-isolated", str(exc)
    term = [(t.reduced, t.dicritical, t.surface_type and t.surface_type.kind) for t in tower.terminals]
    return (rep.multiplicity, rep.reduced, rep.dicritical, rep.surface_type.kind,
            tower.status, len(tower.events), sorted(term, key=str))


def _poly_strategy(top, low=0):
    exps = [(i, j) for i in range(top + 1) for j in range(top + 1 - i) if i + j >= low]
    coeff = st.builds(GaussRat, st.integers(-2, 2), st.integers(-1, 1))
    return st.dictionaries(st.sampled_from(exps), coeff, max_size=3).map(lambda d: MVPoly(VARS, d))


# corpus germs are isolated; random singular ones are often not
_singular_germs = st.one_of(
    st.sampled_from(seidenberg_corpus()),
    st.builds(germ, _poly_strategy(3, low=1), _poly_strategy(3, low=1)).filter(
        lambda v: not all(c.is_zero() for c in v.components)),
)


@settings(max_examples=60, deadline=None)
@given(_singular_germs, st.sampled_from([1, -1, 2, GaussRat(0, 1), GaussRat(1, 1)]), _poly_strategy(2, low=1))
def test_unit_factor_keeps_verdicts(v, c, rest):
    # u(0) = c != 0: u v and v define the same foliation germ at 0
    u = rest + MVPoly.const(VARS, c)
    assert _verdicts(germ(*(comp * u for comp in v.components))) == _verdicts(v)


# -- absolute isolation ----------------------------------------------------------


def test_isolated_surface_singularities_stay_isolated():
    """Seidenberg: the saturated strict transform of a saturated foliation
    is saturated, so in dim 2 an isolated singularity stays isolated under
    point blow-ups.  Checked by mu < inf at every singular point on E of
    every blow-up to depth 3 over the criterion-1 corpus."""
    level, blowups = seidenberg_corpus(), 0
    for _ in range(3):
        children = []
        for v in level:
            for sat, locus in blowup.blow_up(v):
                blowups += 1
                children += [translate_to_point(sat.saturated_field, pt) for pt in locus.points]
        assert all(milnor_number(c) < math.inf for c in children)
        level = children
    assert blowups > 2000


def test_isolated_cluster_germ_gets_no_probe_note():
    # two of its singular directions on E (w^3 = -1) are conjugate over Q(i), so
    # the tower is blocked there; an isolated dim-2 root needs no probe
    t = resolve_simple(parse_vector_field("v = (-2*y^2) d/dx + (2*x^2) d/dy"), LogDivisor.empty())
    assert t.status == "blocked"
    assert not [note for note in t.notes if "A.I.S. probe" in note]


def _resolved(resolve, v, divisor, depth):
    """A tower's JSON, or the type and message of what the resolution raised."""
    try:
        return resolve(v, divisor, depth).to_jsonable()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _assert_probe_matches_walk(v, divisor, depth):
    """`resolve_simple` equals the reference with the probe's own walk; in
    dim 2 up to the reference's probe note, which the tower drops."""
    got, want = (_resolved(f, v, divisor, depth) for f in (resolve_simple, reference_resolve_simple))
    if v.dim() == 2 and isinstance(want, dict):
        want["notes"] = [note for note in want["notes"] if not note.startswith("A.I.S. probe")]
    if isinstance(want, dict):
        got, want = json.dumps(got), json.dumps(want)
    assert got == want


VARS4 = ("x", "y", "z", "w")


@st.composite
def _probe_cases(draw):
    """Germs of dims 2-4: an integer tridiagonal linear part (repeated
    eigenvalues, Jordan blocks and eigenvalues outside Q(i) are common), or
    none, plus one or two quadratic terms per component, now and then a
    zero component; with up to two invariant axes as divisor and a depth cap of
    1-3.  Dim 1 and depth 0 are explicit examples."""
    n = draw(st.integers(2, 4))
    variables = VARS4[:n]
    quadratic = [e for e in itertools.product(range(3), repeat=n) if sum(e) == 2]
    linear = draw(st.integers(0, 3)) > 0
    comps = []
    for i in range(n):
        terms = draw(st.dictionaries(st.sampled_from(quadratic), st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=2))
        for k, c in ((i, st.integers(-2, 2)), (i + 1, st.sampled_from([0, 0, 1])), (i - 1, st.sampled_from([0, 0, 2]))):
            if linear and 0 <= k < n:
                terms[tuple(int(t == k) for t in range(n))] = draw(c)
        comps.append(MVPoly(variables, {} if draw(st.integers(0, 19)) == 7 else terms))
    v = VectorFieldGerm(variables, comps)
    axes = {j for j in draw(st.sets(st.integers(0, n - 1), max_size=2)) if divisor_invariance_check(v, [j])}
    return v, LogDivisor(axes), draw(st.integers(1, 3))


UNKNOWN_PROBE_GERM = parse_vector_field("v = ((12)*x + (1)*x*y) d/dx + ((0 - 13*i)*y + (-1)*y*z) d/dy "
                                        "+ ((1 - 1*i)*z + (2)*z*x) d/dz")  # a seed-0 simple_towers germ
# the cases where the probe blows up nothing: no blow-up exists in dim 1,
# and a depth cap of 0 stops before the first
DIM1_PROBE_CASE = (parse_vector_field("v = x^2 d/dx"), LogDivisor.empty(), 2)
DEPTH0_PROBE_CASE = (UNKNOWN_PROBE_GERM, LogDivisor({0}), 0)


@settings(max_examples=80, deadline=None)
@given(_probe_cases())
@example(DIM1_PROBE_CASE)
@example(DEPTH0_PROBE_CASE)
def test_resolve_simple_matches_probe_walk(case):
    _assert_probe_matches_walk(*case)


def test_resolve_simple_probe_cases():
    cases = [
        (parse_vector_field("v = x d/dx + y d/dy + 2*z d/dz"), LogDivisor.empty()),
        (UNKNOWN_PROBE_GERM, LogDivisor({0})),
        (germ(Y, MVPoly.zero(VARS)), LogDivisor.empty()),
        (parse_vector_field("v = x^2 d/dx"), LogDivisor.empty()),
    ]
    for v, divisor in cases:
        _assert_probe_matches_walk(v, divisor, 16)
    with pytest.raises(FoliationError, match="non-isolated locus at level 1$"):
        resolve_simple(*cases[0])
    assert "A.I.S. probe: unknown" in resolve_simple(*cases[1]).notes
    with pytest.raises(FoliationError, match="root singular locus is a curve"):
        resolve_simple(*cases[2])


def _probe_outcome(probe, v, depth):
    """A probe's notes, or the type and message of what it raised."""
    try:
        return probe(v, depth)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _assert_probe_matches_reference(v, depth, budgets):
    """`_ais_probe` raises and notes as the walk that blows up the last
    level too, under each node budget."""
    for budget in budgets:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolution, "TOWER_NODE_BUDGET", budget)
            assert _probe_outcome(_ais_probe, v, depth) == _probe_outcome(reference_ais_probe, v, depth), budget


@settings(max_examples=100, deadline=None)
@given(_probe_cases())
@example(DIM1_PROBE_CASE)
@example(DEPTH0_PROBE_CASE)
def test_ais_probe_matches_reference(case):
    # the probe runs outside dim 2 only, where no locus on E has a cluster
    v, _divisor, depth = case
    if v.dim() != 2:
        _assert_probe_matches_reference(v, depth, (1, 4, 16, 64, TOWER_NODE_BUDGET))


@pytest.mark.parametrize("v", [
    parse_vector_field("v = x d/dx + 3*y d/dy + 7*z d/dz"),
    parse_vector_field("v = x d/dx + 2*y d/dy + 5*z d/dz + 11*w d/dw"),
    UNKNOWN_PROBE_GERM,
])
def test_ais_probe_matches_reference_on_pinned_germs(v):
    _assert_probe_matches_reference(v, 3, (*range(1, 16), TOWER_NODE_BUDGET))


def test_ais_probe_reads_the_last_level_from_the_spectrum(monkeypatch):
    """x + 3y + 7z is isolated two blow-ups down, but the center
    diag(1, 1, 5) at b1.c1/b2.c1 has a plane of eigendirections, so level 3
    is non-isolated.  Its spectrum decides that without chart transforms:
    only the four centers above level 2 are transformed."""
    v = parse_vector_field("v = x d/dx + 3*y d/dy + 7*z d/dz")
    calls = []
    transform = blowup.transform_vector_field
    monkeypatch.setattr(blowup, "transform_vector_field", lambda *args: calls.append(args) or transform(*args))
    with pytest.raises(FoliationError, match="non-isolated locus at level 3$"):
        _ais_probe(v, 3)
    assert len(calls) == 4 * 3
