"""Fixtures shared by the test modules: the Jordan-form stability fixtures,
the Jensen corpus, the towers of the seeded corpora, matrix helpers, the
blow-up chart by ring homomorphism (its images and the chart transform)
that the chart kernels are checked against, and the bounded
absolutely-isolated probe as a blow-up walk of its own, which
`resolve_simple` is checked against."""

import functools
import math
import random
from fractions import Fraction

from foliationlab import classify, unipoly
from foliationlab.blowup import BlowupChart, SaturatedTransform, blow_up
from foliationlab.corpus import seidenberg_corpus
from foliationlab.dsl import parse_polynomial
from foliationlab.foliation import (
    DivisorNotInvariant,
    LogDivisor,
    VectorFieldGerm,
    divisor_invariance_check,
    exceptional_tag,
    is_singular_at_origin,
    milnor_number,
    translate_to_point,
)
from foliationlab.gaussrat import ZERO, GaussRat
from foliationlab.mvpoly import MVPoly
from foliationlab.resolution import DEFAULT_DEPTH, NonIsolatedSingularLocus, _run_tower, seidenberg_reduce


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


def jensen_corpus() -> list[tuple[list[GaussRat], list[tuple[GaussRat, int]]]]:
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
        coeffs = [GaussRat(1)]
        for z in zeros:
            coeffs = unipoly.poly_mul(coeffs, [-z, GaussRat(1)])
        counted: dict = {}
        for z in zeros:
            counted[z] = counted.get(z, 0) + 1
        corpus.append((coeffs, sorted(counted.items(), key=lambda kv: str(kv[0]))))
    return corpus


# ---------------------------------------------------------------------------
# Blow-up chart transform by ring operations


def chart_images(variables, j):
    """Images of the ambient variables under chart j of the point blow-up,
    z_j -> z_j and z_i -> z_j*z_i, as polynomials for `MVPoly.subs`."""
    u = MVPoly.var(variables, variables[j])
    return [u if i == j else u * MVPoly.var(variables, name) for i, name in enumerate(variables)]


def reference_transform(v: VectorFieldGerm, chart: BlowupChart, divisor: LogDivisor | None = None,
                        level: int = 1) -> SaturatedTransform:
    """`transform_vector_field` by the ring homomorphism `MVPoly.subs` of
    `chart_images` and MVPoly ring operations, sharing no code with the
    chart map: the pole-cleared components P_j = u*(a_j o sigma) and
    P_i = a_i o sigma - w_i*(a_j o sigma) are divided by u^min(1, c) (raw)
    and by u^c (saturated), c their least exponent in u."""
    j, n = chart.index, chart.n
    if v.dim() != n:
        raise ValueError("chart dimension mismatch")
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
        raise ValueError("cannot blow up the zero field")
    drop = min(1, c)
    raw = VectorFieldGerm(v.variables, [p.divide_by_var_power(j, drop) for p in cleared])
    saturated = VectorFieldGerm(v.variables, [p.divide_by_var_power(j, c - drop) for p in raw.components])
    e_invariant = divisor_invariance_check(saturated, [j])
    axes = {a: divisor.history[a] for a in divisor.axes if a != j} if divisor is not None else {}
    if e_invariant:
        axes[j] = exceptional_tag(level)
    return SaturatedTransform(chart, raw, c - drop, saturated, LogDivisor(axes.keys(), axes), e_invariant)


# ---------------------------------------------------------------------------
# The bounded absolutely-isolated probe as its own blow-up walk


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
            blocked = blocked or bool(locus.clusters) and level + 1 < depth
            for pt in locus.points:
                child = translate_to_point(sat.saturated_field, pt)
                if is_singular_at_origin(child):
                    queue.append((child, level + 1))
    if unknown:
        return "unknown", None
    return "depth_exceeded" if blocked else "all_levels_finite", None


def reference_resolve_simple(v: VectorFieldGerm, divisor: LogDivisor, max_depth: int = DEFAULT_DEPTH):
    """`resolve_simple` with `probe_walk` to depth min(max_depth, 3) as its
    probe, in every dimension."""
    if divisor.axes and not divisor_invariance_check(v, divisor):
        raise DivisorNotInvariant("root divisor is not invariant")
    status, level = probe_walk(v, min(max_depth, 3))
    if status == "non_isolated_found":
        raise NonIsolatedSingularLocus("root singular locus is a curve" if level == 0 else
                                       "bounded A.I.S. probe found a non-isolated locus at level %s" % level)
    tower = _run_tower(v, divisor, max_depth, "simple", lambda item: classify.simple_terminal(item.germ, item.divisor))
    if status != "all_levels_finite":
        tower.notes.append("A.I.S. probe: %s" % status)
    return tower
