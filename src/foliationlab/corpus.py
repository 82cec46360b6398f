"""Deterministic fixture corpora.

The Seidenberg corpus is the package's standing surface-germ test bed:
dimension 2, component degree <= 3, coefficients in {0, +-1, +-2},
singular and isolated at the origin.  The full cartesian space of such
germs is astronomically large, so the corpus takes every monomial pair
plus curated hard cases plus a seeded random sample; the construction is
reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .gaussrat import GaussRat
from .mvpoly import MVPoly
from .foliation import LogDivisor, VectorFieldGerm, is_singular_at_origin
from . import polygcd, unipoly

VARS2 = ("x", "y")


def _p(text: str) -> MVPoly:
    from .dsl import parse_polynomial

    return parse_polynomial(text, VARS2)


def _germ(px: str, py: str) -> VectorFieldGerm:
    return VectorFieldGerm(VARS2, (_p(px), _p(py)))


def _monomials_up_to(deg: int):
    out = []
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            if a + b >= 1:
                out.append((a, b))
    return out


def seidenberg_corpus(max_random: int = 300, seed: int = 20260810) -> list[VectorFieldGerm]:
    germs: list[VectorFieldGerm] = []
    seen = set()

    def push(v: VectorFieldGerm):
        key = tuple(sorted((e, str(c)) for e, c in comp.terms.items()) for comp in (v.components))
        key = str(key)
        if key in seen:
            return
        if not is_singular_at_origin(v):
            return
        if not polygcd.isolated_at_origin_dim2(v.components):
            return
        seen.add(key)
        germs.append(v)

    # every monomial pair with a small coefficient on the second component
    monos = _monomials_up_to(3)
    for (a, b), (c, d) in product(monos, monos):
        for coeff in (1, -1, 2, -2):
            comp1 = MVPoly.monomial(VARS2, (a, b), 1)
            comp2 = MVPoly.monomial(VARS2, (c, d), coeff)
            push(VectorFieldGerm(VARS2, (comp1, comp2)))

    # curated hard cases
    curated = [
        ("x", "-y"), ("x", "y"), ("x", "2*y"), ("x", "-2*y"),
        ("y", "-x"), ("y", "x^2"), ("y", "x^3"), ("y", "x^2 + x*y"),
        ("y + x^2", "x^2"), ("x^2", "y"), ("x^2", "-y"), ("x^3", "y"),
        ("x^2 - y^2", "2*x*y"), ("x^2 + y^2", "x*y"),
        ("x + y^3", "y + x^3"), ("x*y", "x^2 - y^3"),
        ("2*x + y^2", "-y + x^2"), ("x^2 + x*y", "y^2 - x*y"),
        ("y^2", "x^2"), ("y^3", "x^2"), ("y^2 + x^3", "x*y"),
        ("x^2 - 2*y^2", "x*y"),
        # double cluster on E at the golden-ratio directions
        ("-y^3", "x^3 + 2*x^2*y - x*y^2 - 2*y^3"),
    ]
    for px, py in curated:
        push(_germ(px, py))

    rng = random.Random(seed)
    coeffs = [1, -1, 2, -2]
    attempts = 0
    added = 0
    while added < max_random and attempts < max_random * 40:
        attempts += 1
        comps = []
        for _ in range(2):
            nterms = rng.choice([1, 1, 2, 2, 3])
            terms = {}
            for _ in range(nterms):
                e = rng.choice(monos)
                terms[e] = GaussRat(rng.choice(coeffs))
            comps.append(MVPoly(VARS2, terms))
        v = VectorFieldGerm(VARS2, comps)
        before = len(germs)
        push(v)
        added += len(germs) - before
    return germs


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
        from .dsl import parse_polynomial

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
# random one-forms for the Siu divisibility battery


def oneform_corpus(count: int, seed: int = 7) -> list[tuple[tuple[str, ...], list[MVPoly]]]:
    rng = random.Random(seed)
    names = ("z1", "z2", "z3", "z4")
    out = []
    for _ in range(count):
        n = rng.choice([2, 3, 4])
        variables = names[:n]
        coeffs = []
        for _i in range(n):
            terms = {}
            for _t in range(rng.randrange(1, 5)):
                e = tuple(rng.randrange(0, 3) for _ in range(n))
                if sum(e) > 4:
                    continue
                c = GaussRat(rng.randrange(-3, 4), rng.randrange(-2, 3))
                if not c.is_zero():
                    terms[e] = c
            coeffs.append(MVPoly(variables, terms))
        out.append((variables, coeffs))
    return out
