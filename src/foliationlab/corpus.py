"""Deterministic fixture corpora.

The Seidenberg corpus is the package's standing surface-germ test bed:
dimension 2, component degree <= 3, coefficients in {0, +-1, +-2}, no
constant term (so singular at the origin) and an isolated singularity
there.  The full cartesian space of such germs is astronomically large,
so the corpus takes every monomial pair plus curated hard cases plus a
seeded random sample; the construction is reproducible byte for byte.
"""

from __future__ import annotations

import random
from itertools import product

from .gaussrat import GaussRat
from .mvpoly import MVPoly, _poly
from .foliation import VectorFieldGerm
from . import unipoly

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


def _coprime(a: MVPoly, b: MVPoly) -> bool:
    """Exact: a and b in Q(i)[x, y] share no nonconstant factor, decided by
    specialising x.

    The x-content, gcd of the p_k(x) in p = sum p_k y^k, is that of p(x, 0..deg_y p) (Vandermonde).
    In (Q(i)[x])[y], gcd(a, b) is the gcd of the x-contents times the gcd of
    the primitive parts a', b', and a primitive part of y-degree 0 is a
    unit.  Otherwise a', b' share a factor iff Res_y(a', b') = 0, and that
    resultant has degree at most D = deg_x a deg_y b + deg_x b deg_y a in x.
    At an x0 where neither leading coefficient in y vanishes,
    Res_y(a', b')(x0) != 0 iff gcd(a(x0, y), b(x0, y)) = 1.  So the pair is
    coprime iff one of D + 1 such points gives gcd 1."""
    if a.is_zero() or b.is_zero():
        other = a + b
        return other.is_constant() and not other.is_zero()
    da, db = a.degree_in(1), b.degree_in(1)
    content = unipoly.ZERO_POLY
    for value in (unipoly.from_mvpoly(p, 0, y0) for p, d in ((a, da), (b, db)) for y0 in range(d + 1)):
        content = unipoly.poly_gcd(content, value)
        if unipoly.degree(content) == 0:
            break
    if unipoly.degree(content) > 0:
        return False
    if da == 0 or db == 0:
        return True
    bound = a.degree_in(0) * db + b.degree_in(0) * da
    x0 = tried = 0
    while tried <= bound:
        x0 += 1
        at_a, at_b = unipoly.from_mvpoly(a, 1, x0), unipoly.from_mvpoly(b, 1, x0)
        if unipoly.degree(at_a) < da or unipoly.degree(at_b) < db:
            continue  # a leading coefficient vanishes at x0
        tried += 1
        if unipoly.degree(unipoly.poly_gcd(at_a, at_b)) == 0:
            return True
    return False


def seidenberg_corpus(max_random: int = 300, seed: int = 20260810) -> list[VectorFieldGerm]:
    germs: list[VectorFieldGerm] = []
    seen = set()

    def push(v: VectorFieldGerm):
        key = v.components  # canonical numerators and denominator: equal germs, equal keys
        if key in seen:
            return
        if not _coprime(*v.components):
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
                c = (rng.randrange(-3, 4), rng.randrange(-2, 3))
                if c != (0, 0):
                    terms[e] = c
            coeffs.append(_poly(variables, terms, 1))  # integer numerators: canonical over 1
        out.append((variables, coeffs))
    return out
