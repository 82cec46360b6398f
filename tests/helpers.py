"""Fixtures shared by the test modules: the Jordan-form stability fixtures,
the Jensen corpus and the Jensen check of one radius, which integrated the
unit circle again for every radius and which `jensen_verify` is checked
against, the towers of the seeded corpora and their germs,
matrix helpers, the blow-up chart by ring homomorphism (its images, the
chart transform and the pullback of a 1-form) that the chart kernels are
checked against, a polynomial relabelled by the chart map on exponents,
which is checked against the images, the
chart-by-chart singular points on E that `blow_up` is checked against,
the bounded absolutely-isolated probe as a blow-up walk of its own, which
`resolve_simple` is checked against, and as the `_run_tower` walk that
blows up its last level too, which `_ais_probe` is checked against, the
linear change of coordinates with the separatrix solver and Seidenberg-type
test that used it, which `formal_separatrix` and `_surface_type` are checked against, and the
corner report, `linalg.solve` and the cluster verdict with the runtime
checks that their theorems make redundant, which the current versions
are checked against, and Gauss-Jordan elimination on GaussRat rows (the
RREF, kernel basis and eigenspace), the Fraction clearing of
denominators and the Fraction-candidate `real_rational_roots`, which the
Z[i] elimination and the integer root path are checked against, and the
type-B verdict from the two deflations (a root multiplicity and a
positive-ratio test) that `classify._simple_status` is checked against,
the false zero declarations that the curve and the CLI must refuse, and
Horner's rule from an array of the leading coefficient, which
`Poly.eval_plain` is checked against bit for bit, the term-by-term GaussRat
value of a polynomial, which `MVPoly.evaluate` is checked against, and the
inf/nan sanitizer in front of `json.dumps`, which the CLI's JSON encoder is
checked against."""

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from foliationlab import classify, linalg, unipoly
from foliationlab.blowup import (
    ELocus,
    InternalError,
    SaturatedTransform,
    _eigendirection_loci,
    _locus_on_E,
    blow_up,
    transform_vector_field,
)
from foliationlab.corpus import seidenberg_corpus
from foliationlab.dsl import parse_polynomial
from foliationlab.foliation import (
    FoliationError,
    LogDivisor,
    VectorFieldGerm,
    divisor_invariance_check,
    exceptional_tag,
    is_singular_at_origin,
    milnor_number,
    translate_to_point,
)
from foliationlab.gaussrat import ZERO, GaussRat
from foliationlab.mvpoly import MVPoly, chart_exponent
from foliationlab.resolution import (
    DEFAULT_DEPTH,
    _run_tower,
    seidenberg_reduce,
)
from foliationlab.separatrix import (
    CornerSeparatrixReport,
    FormalCurve,
    Resonance,
    formal_separatrix,
)


def coeffs(p) -> list[GaussRat]:
    """The coefficients of a `unipoly` value as GaussRats."""
    return [GaussRat(Fraction(re, p.den), Fraction(im, p.den)) for re, im in p.num]


def mat(rows):
    """Matrix literal: a tuple of GaussRat rows from ints, Fractions or GaussRats."""
    return tuple(tuple(GaussRat.coerce(x) for x in row) for row in rows)


def scalar_matrix(n, c):
    """c times the n x n identity matrix."""
    c = GaussRat.coerce(c)
    return tuple(tuple(c if i == j else ZERO for j in range(n)) for i in range(n))


def mat_mul(a, b):
    """Matrix product over Q(i)."""
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(m)), ZERO) for j in range(p))
        for i in range(n)
    )


def det(a) -> GaussRat:
    """Determinant by Gaussian elimination over Q(i)."""
    n = len(a)
    rows = [list(r) for r in a]
    out = GaussRat(1)
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            return GaussRat(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            out = -out
        out = out * rows[c][c]
        inv = GaussRat(1) / rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] * inv
            if not f.is_zero():
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


@functools.cache
def seeded_towers() -> list:
    """Depth-8 Seidenberg towers of every germ of the seed 0-3 corpora."""
    return [seidenberg_reduce(v, 8) for seed in range(4) for v in seidenberg_corpus(seed=seed)]


def points_on_E(sat: SaturatedTransform) -> ELocus:
    """Singular points on E of a dim-2 chart, which need no parent germ."""
    return _locus_on_E(sat, None)


@functools.cache
def seeded_tower_germs() -> list:
    """The roots of the seeded towers and the germs at every singular point
    on E of their nodes."""
    germs = []
    for tower in seeded_towers():
        germs.append(tower.root)
        for node in tower.nodes.values():
            sat = node.transform
            germs += [translate_to_point(sat.saturated_field, pt) for pt in points_on_E(sat).points]
    return germs


def chart_by_chart(v: VectorFieldGerm, divisor: LogDivisor | None, level: int) -> list[tuple[SaturatedTransform, ELocus]]:
    """`blow_up` one chart at a time: each chart with s = 0 computes the
    center's eigendirection loci afresh."""
    out = []
    for j in range(v.dim()):
        sat = transform_vector_field(v, j, divisor, level)
        out.append((sat, _locus_on_E(sat, _eigendirection_loci(v) if sat.saturation_exponent == 0 else None)))
    return out


# ---------------------------------------------------------------------------
# Jordan-form stability fixtures


def jordan_fixtures() -> list[dict]:
    """Twenty fixtures for one-blow-up stability of simple singularities.

    Each entry: germ, divisor, the root classification kind, and the
    expected singular points on E as (1-based chart, status kind).  The
    chart list follows the blown-up Jordan structure: the eigendirection
    chart of each eigenvalue carries the singular point; the root's own
    type survives at chart 1, every other point is a corner."""
    fixtures: list[dict] = []

    def fx(name, variables, comp_strs, axes, root_kind, expected):
        comps = [parse_polynomial(s, variables) for s in comp_strs]
        fixtures.append({
            "name": name,
            "germ": VectorFieldGerm(tuple(variables), comps),
            "divisor": LogDivisor(axes),
            "root_kind": root_kind,
            "expected": expected,
        })

    v2 = ("x", "y")
    v3 = ("x", "y", "z")
    v4 = ("x", "y", "z", "w")

    # dim 2, type (B) simple points
    fx("B de(1,-1)", v2, ["x", "-y"], {0}, "simple_point_B",
       [(1, "simple_point_B"), (2, "simple_corner")])
    fx("B de(1,-2)", v2, ["x", "-2*y"], {0}, "simple_point_B",
       [(1, "simple_point_B"), (2, "simple_corner")])
    fx("B de(2,-1)", v2, ["2*x", "-y"], {0}, "simple_point_B",
       [(1, "simple_point_B"), (2, "simple_corner")])
    fx("B de(1,i)", v2, ["x", "i*y"], {0}, "simple_point_B",
       [(1, "simple_point_B"), (2, "simple_corner")])
    fx("B de(1,-1/2)", v2, ["2*x", "-1*y"], {0}, "simple_point_B",
       [(1, "simple_point_B"), (2, "simple_corner")])
    fx("B unit-scaled", v2, ["x + x*y", "-y"], {0}, "simple_point_B",
       [(1, "simple_point_B"), (2, "simple_corner")])
    # dim 2, type (A) simple points (saddle-node along the divisor)
    fx("A x^2", v2, ["x^2", "-y"], {0}, "simple_point_A",
       [(1, "simple_point_A"), (2, "simple_corner")])
    fx("A x^3", v2, ["x^3", "-y"], {0}, "simple_point_A",
       [(1, "simple_point_A"), (2, "simple_corner")])
    fx("A x^2 alt", v2, ["x^2", "y + y^2"], {0}, "simple_point_A",
       [(1, "simple_point_A"), (2, "simple_corner")])
    # dim 2 corners
    fx("corner (1,-1)", v2, ["x", "-y"], {0, 1}, "simple_corner",
       [(1, "simple_corner"), (2, "simple_corner")])
    fx("corner (1,i)", v2, ["x", "i*y"], {0, 1}, "simple_corner",
       [(1, "simple_corner"), (2, "simple_corner")])
    fx("corner (2,-1)", v2, ["2*x", "-y"], {0, 1}, "simple_corner",
       [(1, "simple_corner"), (2, "simple_corner")])
    fx("corner (1,-2) perturbed", v2, ["x + x*y", "-2*y"], {0, 1}, "simple_corner",
       [(1, "simple_corner"), (2, "simple_corner")])
    # dim 3, distinct eigenvalues
    fx("B de(1,-1,i)", v3, ["x", "-y", "i*z"], {0}, "simple_point_B",
       [(1, "simple_point_B"), (2, "simple_corner"), (3, "simple_corner")])
    fx("B de(1,-2,2i)", v3, ["x", "-2*y", "2*i*z"], {0}, "simple_point_B",
       [(1, "simple_point_B"), (2, "simple_corner"), (3, "simple_corner")])
    fx("corner3 (1,-1,i)", v3, ["x", "-y", "i*z"], {0, 1}, "simple_corner",
       [(1, "simple_corner"), (2, "simple_corner"), (3, "simple_corner")])
    # dim 3, one Jordan block: eigenvalues 1 and -1 (block size 2)
    fx("block3 (1 | -1 r2)", v3, ["x", "-y + z", "-z"], {0}, "simple_point_B",
       [(1, "simple_point_B"), (2, "simple_corner")])
    fx("block3 (1 | i r2)", v3, ["x", "i*y + z", "i*z"], {0}, "simple_point_B",
       [(1, "simple_point_B"), (2, "simple_corner")])
    # dim 4
    fx("B de(1,-1,i,-i)", v4, ["x", "-y", "i*z", "-i*w"], {0}, "simple_point_B",
       [(1, "simple_point_B"), (2, "simple_corner"), (3, "simple_corner"), (4, "simple_corner")])
    fx("block4 (1,-1 | 2i r2)", v4, ["x", "-y", "2*i*z + w", "2*i*w"], {0}, "simple_point_B",
       [(1, "simple_point_B"), (2, "simple_corner"), (3, "simple_corner")])
    assert len(fixtures) == 20
    return fixtures


# ---------------------------------------------------------------------------
# Jensen corpus


def jensen_corpus() -> list[tuple[unipoly.UPoly, list[tuple[GaussRat, int]]]]:
    """Twenty polynomials with Gaussian-rational zeros kept away from the
    test circles r in {2, 5, 10}; returned as (coefficients, zeros)."""
    half = Fraction(1, 2)
    pool = [
        GaussRat(half), GaussRat(Fraction(3, 2)), GaussRat(3), GaussRat(4),
        GaussRat(7), GaussRat(-3), GaussRat(Fraction(-5, 4)), GaussRat(12),
        GaussRat(1, 1), GaussRat(3, 2), GaussRat(-4, 1), GaussRat(0, 3),
        GaussRat(6, -1), GaussRat(Fraction(5, 2), Fraction(5, 2)), GaussRat(-8),
        GaussRat(0, Fraction(-7, 2)), GaussRat(1, -3), GaussRat(Fraction(13, 4)),
    ]
    for z in pool:
        dist = min(abs(float(z.abs2()) ** 0.5 - r) for r in (2.0, 5.0, 10.0))
        assert dist > 0.25, "zero %s too close to a test circle" % z
    rng = random.Random(1729)
    corpus = []
    for k in range(20):
        deg = 1 + (k % 5)
        zeros = [pool[rng.randrange(len(pool))] for _ in range(deg)]
        p = unipoly.ONE_POLY
        for z in zeros:
            p = unipoly.poly_mul(p, unipoly.from_coeffs([-z, 1]))
        counted: dict = {}
        for z in zeros:
            counted[z] = counted.get(z, 0) + 1
        corpus.append((p, sorted(counted.items(), key=lambda kv: str(kv[0]))))
    return corpus


def reference_jensen_verify(p, zeros, r: float, cfg):
    """The Jensen report of one radius r, from the circle means of the
    nudged r and the nudged unit circle."""
    from foliationlab import nevanlinna as nv
    from foliationlab.quadrature import circle_mean_arrays, nudge_radius

    moduli = [nv._zero_abs(z) for z, _ in zeros]
    r_use = nudge_radius(r, moduli)
    one_use = nudge_radius(1.0, moduli)
    mean, bound, _, _ = circle_mean_arrays(p.logabs2, [r_use, one_use], cfg)
    (avg_r, avg_1), (bound_r, bound_1) = mean.tolist(), bound.tolist()
    mass = 2.0 * nv._annulus_counting(zeros, r_use)
    counting = nv.counting_function(zeros, r_use)
    correction = counting - nv._annulus_counting(zeros, r_use)
    return nv.JensenReport(
        r=r_use, residual=abs(mass - avg_r + avg_1), quadrature_bound=bound_r + bound_1,
        counting_term=counting, average_r=avg_r, average_1=avg_1, unit_disk_correction=correction,
    )


def reference_horner(p, t):
    """Horner's rule on Poly p from an array filled with the leading
    coefficient, multiplied in place by t before each coefficient is added."""
    import numpy as np

    t = np.asarray(t, dtype=complex)
    lead, *rest = p.horner
    out = np.full_like(t, lead)
    for c in rest:
        out *= t
        out += c
    return out


# ---------------------------------------------------------------------------
# Blow-up chart transform by ring operations


def chart_images(variables, j):
    """Images of the ambient variables under chart j of the point blow-up,
    z_j -> z_j and z_i -> z_j*z_i, as polynomials for `MVPoly.subs`."""
    u = MVPoly.var(variables, variables[j])
    return [u if i == j else u * MVPoly.var(variables, name) for i, name in enumerate(variables)]


def chart_relabel(p: MVPoly, j: int) -> MVPoly:
    """p with every exponent sent through `mvpoly.chart_exponent` for chart
    j, coefficients unchanged: p o sigma if the chart map is right."""
    return MVPoly(p.variables, {chart_exponent(e, j): c for e, c in p.sorted_terms()})


def reference_pullback_one_form(b, j) -> tuple[MVPoly, dict[int, MVPoly]]:
    """`pullback_one_form` on chart j by `MVPoly.subs` of `chart_images` and
    MVPoly products, sharing no code with the chart map or the exponent
    shifts: since dz_j = u dlog u and dz_i = u (dw_i + w_i dlog u), the
    coefficients over u are (b_j o sigma) + sum_{i != j} (b_i o sigma)*w_i
    for dlog u and b_i o sigma for dw_i, returned as (dlog, {i: dw_i})."""
    variables = b[0].variables
    pulled = [p.subs(chart_images(variables, j)) for p in b]
    q_log = pulled[j]
    for i, p in enumerate(pulled):
        if i != j:
            q_log = q_log + p * MVPoly.var(variables, variables[i])
    return q_log, {i: p for i, p in enumerate(pulled) if i != j}


def reference_transform(v: VectorFieldGerm, j: int, divisor: LogDivisor | None = None,
                        level: int = 1) -> tuple[SaturatedTransform, VectorFieldGerm]:
    """`transform_vector_field` on chart j, and the raw pushforward, by the
    ring homomorphism `MVPoly.subs` of `chart_images` and MVPoly ring
    operations, sharing no code with the chart map: the pole-cleared
    components P_j = u*(a_j o sigma) and P_i = a_i o sigma - w_i*(a_j o sigma)
    are divided by u^min(1, c) (raw) and by u^c (saturated), c their least
    exponent in u."""
    n = v.dim()
    images = chart_images(v.variables, j)
    aj = v.components[j].subs(images)
    cleared = []
    for i in range(n):
        if i == j:
            p = aj * images[j]
        else:
            p = v.components[i].subs(images) - MVPoly.var(v.variables, v.variables[i]) * aj
        cleared.append(p)
    c = min(p.min_exponent_in(j) for p in cleared)
    if c == math.inf:
        raise FoliationError("cannot blow up the zero field")
    drop = min(1, c)
    raw = VectorFieldGerm(v.variables, [p.divide_by_var_power(j, drop) for p in cleared])
    saturated = VectorFieldGerm(v.variables, [p.divide_by_var_power(j, c - drop) for p in raw.components])
    e_invariant = divisor_invariance_check(saturated, [j])
    axes = {a: divisor.history[a] for a in divisor.axes if a != j} if divisor is not None else {}
    if e_invariant:
        axes[j] = exceptional_tag(level)
    return SaturatedTransform(j, c - drop, saturated, LogDivisor(axes.keys(), axes)), raw


# ---------------------------------------------------------------------------
# The bounded absolutely-isolated probe as its own blow-up walk, and as a
# `_run_tower` walk that blows up the last level


PROBE_NODE_BUDGET = 2000


def probe_walk(v: VectorFieldGerm, depth: int) -> tuple[str, int | None]:
    """Blow up every singular point of v to `depth`, breadth first, and
    check that each singular locus on E is finite.  Returns the status,
    "all_levels_finite", "non_isolated_found", "unknown" (an enumeration
    was incomplete) or "depth_exceeded" (the node budget ran out, or a
    conjugate cluster above the last level could not be blown up), and the
    level of a non-isolated locus."""
    if not is_singular_at_origin(v):
        return "all_levels_finite", 0
    if v.dim() == 2:
        if milnor_number(v) == math.inf:
            return "non_isolated_found", 0
    elif any(c.is_zero() for c in v.components):
        return "non_isolated_found", 0
    queue = [(v, 0)]
    explored = 0
    unknown = blocked = False
    while queue:
        germ, level = queue.pop(0)
        explored += 1
        if explored > PROBE_NODE_BUDGET:
            return "depth_exceeded", level
        if level >= depth:
            continue
        for sat, locus in blow_up(germ):
            if locus.non_isolated:
                return "non_isolated_found", level + 1
            unknown = unknown or not locus.complete
            blocked = blocked or locus.cluster is not None and level + 1 < depth
            for pt in locus.points:
                child = translate_to_point(sat.saturated_field, pt)
                if is_singular_at_origin(child):
                    queue.append((child, level + 1))
    if unknown:
        return "unknown", None
    return "depth_exceeded" if blocked else "all_levels_finite", None


def reference_ais_probe(v: VectorFieldGerm, depth: int) -> list[str]:
    """The bounded absolutely-isolated probe as a depth-`depth` run of
    `_run_tower` with no point terminal, which blows up every singular
    point of the last level too."""
    walk = _run_tower(v, None, depth, "simple", lambda item: "A.I.S. probe")
    if walk.reason.startswith("non-isolated"):
        raise FoliationError("bounded A.I.S. probe found a non-isolated locus at level %d"
                             % (walk.events[-1].level + 1))
    for prefix, status in (("singular-point enumeration incomplete", "unknown"), ("node budget", "depth_exceeded")):
        if walk.reason.startswith(prefix):
            return ["A.I.S. probe: %s" % status]
    return []


def reference_resolve_simple(v: VectorFieldGerm, divisor: LogDivisor, max_depth: int = DEFAULT_DEPTH):
    """`resolve_simple` with `probe_walk` to depth min(max_depth, 3) as its
    probe, in every dimension."""
    if divisor.axes and not divisor_invariance_check(v, divisor):
        raise FoliationError("root divisor is not invariant")
    status, level = probe_walk(v, min(max_depth, 3))
    if status == "non_isolated_found":
        raise FoliationError("root singular locus is a curve" if level == 0 else
                             "bounded A.I.S. probe found a non-isolated locus at level %s" % level)
    tower = _run_tower(v, divisor, max_depth, "simple", lambda item: classify.simple_terminal(item.germ, item.divisor))
    if status != "all_levels_finite":
        tower.notes.append("A.I.S. probe: %s" % status)
    return tower


# ---------------------------------------------------------------------------
# Linear changes of coordinates, and the solvers that used them


def inverse(a):
    """Inverse of a square matrix over Q(i) by row reduction, None when singular."""
    n = len(a)
    aug = [list(row) + [GaussRat(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    rows, pivots = reference_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(rows[i][n:]) for i in range(n))


def conjugate_by(v: VectorFieldGerm, m) -> VectorFieldGerm:
    """Exact linear change of coordinates z = M w: the transformed field
    has components M^{-1} (a o M)."""
    minv = inverse(m)
    if minv is None:
        raise ValueError("change of coordinates must be invertible")
    n = v.dim()
    images = []
    for i in range(n):
        img = MVPoly.zero(v.variables)
        for j, name in enumerate(v.variables):
            if not m[i][j].is_zero():
                img = img + MVPoly.var(v.variables, name) * m[i][j]
        images.append(img)
    composed = [c.subs(images) for c in v.components]
    new_comps = []
    for i in range(n):
        acc = MVPoly.zero(v.variables)
        for j in range(n):
            if not minv[i][j].is_zero():
                acc = acc + composed[j] * minv[i][j]
        new_comps.append(acc)
    return VectorFieldGerm(v.variables, new_comps)


def completion_basis(e, n: int):
    """Invertible matrix whose first column is e, completed greedily by
    standard basis vectors."""
    cols = [tuple(e)]
    for i in range(n):
        cand = tuple(GaussRat(1 if k == i else 0) for k in range(n))
        trial = cols + [cand]
        m = tuple(zip(*trial))
        if linalg.rank(tuple(tuple(r) for r in m)) == len(trial):
            cols.append(cand)
        if len(cols) == n:
            break
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def reference_formal_separatrix(v: VectorFieldGerm, direction: int, order: int, lam=None):
    """`formal_separatrix` in the graph gauge: conjugate by
    `completion_basis` so that the eigendirection is the first axis, divide
    the field by lambda, solve f = (t, f_2, ..., f_n) order by order with
    the matrix k*I - L' off the first axis, and map the curve back by M."""
    n = v.dim()
    lp = v.linear_part()
    if lam is None:
        ev = linalg.eigenvalues_exact(lp)
        if isinstance(ev, linalg.Indeterminate):
            raise FoliationError("linear part has eigenvalues outside Q(i)")
        if not 0 <= direction < len(ev):
            raise FoliationError("direction index out of range")
        lam = ev[direction]
    if lam.is_zero():
        raise FoliationError("chosen eigendirection has eigenvalue 0")
    e = linalg.eigenvector(lp, lam)
    if e is None:
        raise InternalError("no eigenvector found (cannot happen for an exact eigenvalue)")
    m = completion_basis(e, n)
    conj = conjugate_by(v, m)
    w = VectorFieldGerm(v.variables, [c * (GaussRat(1) / lam) for c in conj.components])
    t_ring = ("t",)

    def residual(comps):
        w1 = w.components[0].subs(comps)
        return [comps[i].derivative(0) * w1 - w.components[i].subs(comps) for i in range(1, n)]

    comps = [MVPoly.var(t_ring, "t")] + [MVPoly.zero(t_ring) for _ in range(n - 1)]
    lres = w.linear_part()
    for k in range(2, order + 1):
        known = [r.coeff((k,)) for r in residual(comps)]
        rows = tuple(
            tuple((GaussRat(k) if i == j else GaussRat(0)) - lres[i + 1][j + 1] for j in range(n - 1))
            for i in range(n - 1)
        )
        sol = linalg.solve(rows, tuple(-g for g in known))
        if sol is None:
            return Resonance(order=k, obstruction=tuple(str(g) for g in known))
        for i in range(1, n):
            comps[i] = comps[i] + MVPoly.monomial(t_ring, (k,), sol[i - 1])
    res_order = min((r.vanishing_order() for r in residual(comps)), default=math.inf)
    orig = [sum((comps[j] * m[i][j] for j in range(n)), MVPoly.zero(t_ring)) for i in range(n)]
    series = tuple(unipoly.from_coeffs([c.coeff((k,)) for k in range(order + 1)]) for c in orig)
    return FormalCurve(v.variables, series, direction, lam, order, res_order)


def reference_surface_type(v: VectorFieldGerm) -> classify.SurfaceType:
    """The surface type of a singular dim-2 germ, as `singularity_report`
    gives it, from the whole field conjugated by P = (v_lam | v_ker)."""
    lp = v.linear_part()
    cp = coeffs(linalg.char_poly(lp))
    if not cp[0].is_zero():
        return classify.NON_DEGENERATE
    tr = -cp[1]
    if tr.is_zero():
        return classify.unclassified("linear part nilpotent or zero: not in the reduced list")
    v_lam = linalg.eigenvector(lp, tr)
    v_ker = linalg.eigenvector(lp, GaussRat(0))
    if v_lam is None or v_ker is None:
        return classify.unclassified("eigenvector computation failed")
    w = conjugate_by(v, ((v_lam[0], v_ker[0]), (v_lam[1], v_ker[1])))
    k = w.components[1].set_vars_to_zero([0]).min_exponent_in(1)
    if k is math.inf:
        return classify.unclassified("second component vanishes on the kernel axis: type k unbounded")
    if k < 2:
        return classify.unclassified("kernel-axis order %d < 2 after normalization" % k)
    for comp in w.components:
        for e in comp.num:
            if e[0] >= 1 or e[1] >= k:
                continue
            return classify.unclassified(
                "monomial z1^%d z2^%d escapes (z1, z2^%d): surrogate criterion fails" % (e[0], e[1], k))
    return classify.SurfaceType("degenerate", k=int(k), note="surrogate criterion (exact ideal comparison)")


# ---------------------------------------------------------------------------
# Runtime checks that a theorem or the construction makes redundant, as they
# ran before their deletion


def reference_corner_report(v: VectorFieldGerm, divisor: LogDivisor, order: int) -> CornerSeparatrixReport:
    """`corner_has_no_transverse_separatrix` with its eigendirection
    attempts: every eigendirection nonzero on all divisor axes goes to the
    separatrix solver, and a transverse survivor makes the outcome
    "counterexample_candidate"."""
    status = classify.classify_simple(v, divisor)
    if status.kind != "simple_corner":
        raise FoliationError("classify_simple returned %s" % status.kind)
    axes = sorted(divisor.axes)
    lam0 = classify.log_coefficients(v, divisor)
    witnesses = []
    for p in axes:
        if lam0[p].is_zero():
            continue
        for q in axes:
            if q != p and not (lam0[q] / lam0[p]).is_positive_rational():
                witnesses.append(
                    "axes (%d, %d): nu_%d/nu_%d would equal %s, not a positive rational"
                    % (p + 1, q + 1, q + 1, p + 1, str(lam0[q] / lam0[p])))
    attempts = []
    notes = []
    lp = v.linear_part()
    ev = linalg.eigenvalues_exact(lp)
    outcome = "confirmed"
    if isinstance(ev, linalg.Indeterminate):
        notes.append("eigenvalues outside Q(i): eigendirection attempts skipped")
        ev = []
    seen = set()
    for idx, lam in enumerate(ev):
        key = (lam.re, lam.im)
        if key in seen:
            continue
        seen.add(key)
        vec = linalg.eigenvector(lp, lam)
        if vec is None:
            continue
        if any(vec[j].is_zero() for j in axes):
            continue
        if lam.is_zero():
            notes.append("transverse eigendirection has eigenvalue 0: solver inapplicable")
            continue
        result = formal_separatrix(v, idx, order, lam)
        if isinstance(result, Resonance):
            attempts.append({"direction": idx, "result": "resonance", "order": result.order})
            continue
        vals = [unipoly.valuation(comp) for comp in result.components]
        if all(vals[j] is not math.inf for j in axes):
            attempts.append({"direction": idx, "result": "transverse curve survived to order %d" % order})
            outcome = "counterexample_candidate"
        else:
            attempts.append({"direction": idx, "result": "curve fell into the divisor"})
    return CornerSeparatrixReport(outcome, witnesses, attempts, notes)


def reference_solve(a, b):
    """`linalg.solve` with its branch for a pivot in the augmented column."""
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [GaussRat.coerce(b[i])] for i, row in enumerate(a)]
    rows, pivots = reference_rref(aug)
    for row in rows:
        if all(x.is_zero() for x in row[:-1]) and not row[-1].is_zero():
            return None
    x = [GaussRat(0)] * ncols
    for r, c in enumerate(pivots):
        if c < ncols:
            x[c] = rows[r][-1]
        elif not rows[r][-1].is_zero():
            return None
    return tuple(x)


@dataclass
class ClusterVerdict:
    """The reference's account of the conjugate cluster at the roots of h:
    the squarefree part's degree, whether every point is reduced, and the
    non-degenerate, saddle-node and dicritical parts of the squarefree
    part."""

    size: int
    all_reduced: bool
    nondegenerate_part: unipoly.UPoly
    saddle_node_part: unipoly.UPoly
    dicritical_part: unipoly.UPoly


def reference_cluster_verdict(sat: SaturatedTransform, h: unipoly.UPoly) -> ClusterVerdict:
    """The reducedness of every point of the conjugate cluster at the roots
    of the monic h, as `resolution._cluster_outcome` decides it, with the
    trace as a second derivative sum restricted to E, and an if/else on the
    degree of each gcd it divides by."""
    j = sat.chart
    w = 1 - j
    a, b = sat.saturated_field.components[j], sat.saturated_field.components[w]
    au = unipoly.from_mvpoly(a.derivative(j), w)
    aw = unipoly.from_mvpoly(a.derivative(w), w)
    bu = unipoly.from_mvpoly(b.derivative(j), w)
    bw = unipoly.from_mvpoly(b.derivative(w), w)
    tr = unipoly.from_mvpoly(a.derivative(j) + b.derivative(w), w)
    det = unipoly.poly_add(unipoly.poly_mul(au, bw), unipoly.poly_mul(aw, bu), -1)
    dh = unipoly.poly_derivative(h)
    sq = unipoly.poly_gcd(h, dh)
    if unipoly.degree(sq) > 0:
        h_sf, rem = unipoly.poly_divmod(h, sq)
        assert not rem.num
    else:
        h_sf = unipoly.poly_monic(h)
    g1 = unipoly.poly_gcd(h_sf, tr)
    nonred = unipoly.poly_gcd(g1, det)
    if unipoly.degree(nonred) > 0:
        return ClusterVerdict(unipoly.degree(h_sf), False, unipoly.ZERO_POLY, unipoly.ZERO_POLY, unipoly.ZERO_POLY)
    sn = unipoly.poly_gcd(h_sf, det)
    if unipoly.degree(sn) > 0:
        nd, rem = unipoly.poly_divmod(h_sf, sn)
        assert not rem.num
    else:
        nd, sn = h_sf, unipoly.ZERO_POLY
    diff = unipoly.poly_add(au, bw, -1)
    dic = nd
    for q in (aw, bu, diff):
        if unipoly.degree(dic) <= 0:
            break
        dic = unipoly.poly_gcd(dic, q)
    if unipoly.degree(dic) <= 0:
        dic = unipoly.ZERO_POLY
    return ClusterVerdict(unipoly.degree(h_sf), True, nd, sn, dic)


# ---------------------------------------------------------------------------
# Elimination and rational roots over Q(i) with GaussRat and Fraction
# arithmetic throughout, which the Z[i] versions are checked against


def reference_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination on GaussRat
    rows; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = GaussRat(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def reference_kernel_basis(a):
    """Kernel basis read off `reference_rref`: v[f] = 1 at a free column f."""
    ncols = len(a[0]) if a else 0
    rows, pivots = reference_rref(a)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [GaussRat(0)] * ncols
        v[f] = GaussRat(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def reference_eigenspace(a, lam):
    """Kernel basis of A - lam*I, subtracted in GaussRat arithmetic."""
    return reference_kernel_basis([[x - lam if i == k else x for k, x in enumerate(row)] for i, row in enumerate(a)])


def reference_clear_denominators(p):
    """`gaussrat._clear_denominators` on Fractions, for a list p of
    GaussRats: l*p as (re, im) pairs and l, the lcm of the denominators of
    every real and imaginary part."""
    l = math.lcm(1, *(q.denominator for c in p for q in (c.re, c.im)))
    return [(int(c.re * l), int(c.im * l)) for c in p], l


def reference_real_rational_roots(p):
    """Rational roots of a Q(i) polynomial, sorted, without multiplicity:
    the rational roots of the monic gcd over Q of its real and imaginary
    parts, by the rational root theorem with Fraction candidates."""
    p = coeffs(p)
    g = coeffs(unipoly.poly_gcd(unipoly.from_coeffs([c.re for c in p]), unipoly.from_coeffs([c.im for c in p])))
    roots = set()
    while len(g) > 1 and g[0].is_zero():
        roots.add(Fraction(0))
        g = g[1:]
    if len(g) == 2:
        roots.add((-g[0] / g[1]).re)
    elif len(g) > 2:
        den = math.lcm(*(c.re.denominator for c in g))
        ints = [int(c.re * den) for c in g]
        for num in unipoly._int_divisors(ints[0]):
            for d in unipoly._int_divisors(ints[-1]):
                for cand in (Fraction(num, d), Fraction(-num, d)):
                    if unipoly.poly_eval(unipoly.from_coeffs(g), GaussRat(cand)).is_zero():
                        roots.add(cand)
    return sorted(roots)


def reference_root_multiplicity(p, root) -> int:
    m = 0
    while p.num and unipoly.poly_eval(p, root).is_zero():
        p = unipoly.deflate(p, root)
        m += 1
    return m


def reference_has_other_eigenvalue_with_positive_ratio(cp, lam) -> bool:
    """True iff cp, with one copy of lam removed, has a root q*lam with q a
    positive rational."""
    deflated = unipoly.deflate(cp, lam)
    # roots mu = q*lam of deflated <-> positive rational roots s of deflated(lam*s)
    rescaled = unipoly.from_coeffs([c * lam**k for k, c in enumerate(coeffs(deflated))])
    return any(r > 0 for r in unipoly.real_rational_roots(rescaled))


def reference_simple_b_status(cp, lam) -> classify.SimpleStatus:
    """The verdict of `_simple_status` at one invariant divisor axis with
    eigenvalue lam != 0, from the two helpers above."""
    if reference_root_multiplicity(cp, lam) != 1:
        return classify.not_simple("eigenvalue %s has multiplicity > 1" % lam)
    if reference_has_other_eigenvalue_with_positive_ratio(cp, lam):
        return classify.not_simple("another eigenvalue is a positive rational multiple of %s" % lam)
    return classify.SIMPLE_B


# (curve, the rest of a `nevanlinna` argv, the target the refusal names):
# a target that is not a component, a zero of order 0, and stated orders
# that the component, the ideal's generators or f' do not have
FALSE_DECLARATIONS = [
    ("f(t) = (t) zeros: f5 at 0", ["--check", "T", "--radii", "4:4:1"], "f5"),
    ("f(t) = (t) zeros: f5 at 0 order 1", ["--check", "T", "--radii", "4:4:1"], "f5"),
    ("f(t) = (t - 2, t) zeros: f0 at 0", ["--check", "T", "--radii", "4:4:1"], "f0"),
    ("f(t) = (t - 2) zeros: f1 at 3 order 0", ["--check", "T", "--radii", "4:4:1"], "f1"),
    ("f(t) = (t, t^2) zeros: ideal at 10 order 1", ["--check", "fmt", "--ideal", "x, y", "--radii", "2:32:5"],
     "ideal"),
    ("f(t) = (exp(t)) zeros: fprime at 3 order 2", ["--check", "taut", "--radii", "4:256:7"], "fprime"),
]


# ---------------------------------------------------------------------------
# Polynomial values and JSON documents


def reference_evaluate(p: MVPoly, point) -> GaussRat:
    """p(point) term by term in GaussRat arithmetic, powers included."""
    out = ZERO
    for e, c in p.sorted_terms():
        for x, k in zip(point, e):
            c = c * GaussRat.coerce(x) ** k
        out = out + c
    return out


def reference_sanitize(obj):
    """The tree with every inf and nan float replaced by str(x), lists for
    tuples, for `json.dumps(..., allow_nan=False)`; JSON has no such numbers."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: reference_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_sanitize(v) for v in obj]
    return obj
