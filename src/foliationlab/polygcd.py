"""Bivariate polynomial gcd over Q(i) by a primitive remainder sequence.

Used for exact isolated-singularity checks in dimension 2 and for the
finiteness certificate of singular loci restricted to an exceptional
divisor.  Polynomials are viewed in (Q(i)[x])[y]; contents are univariate
gcds, pseudo-division keeps everything polynomial.
"""

from __future__ import annotations

from .gaussrat import GaussRat
from .mvpoly import MVPoly
from . import unipoly

def _from_rows(rows: list[unipoly.Coeffs], variables: tuple[str, ...]) -> MVPoly:
    return MVPoly(variables, {(dx, dy): c for dy, row in enumerate(rows) for dx, c in enumerate(row)})


def _ytrim(rows: list[unipoly.Coeffs]) -> list[unipoly.Coeffs]:
    while rows and not rows[-1]:
        rows = rows[:-1]
    return rows


def _content(rows: list[unipoly.Coeffs]) -> unipoly.Coeffs:
    g: unipoly.Coeffs = []
    for row in rows:
        if row:
            g = unipoly.poly_gcd(g, row)
        if unipoly.degree(g) == 0 and g:
            return g
    return g


def _divide_rows(rows: list[unipoly.Coeffs], d: unipoly.Coeffs) -> list[unipoly.Coeffs]:
    out = []
    for row in rows:
        if not row:
            out.append([])
            continue
        q, r = unipoly.poly_divmod(row, d)
        if r:
            raise ArithmeticError("content division left a remainder")
        out.append(q)
    return out


def _row_mul(rows: list[unipoly.Coeffs], f: unipoly.Coeffs) -> list[unipoly.Coeffs]:
    return [unipoly.poly_mul(row, f) if row else [] for row in rows]


def _rows_sub(a: list[unipoly.Coeffs], b: list[unipoly.Coeffs]) -> list[unipoly.Coeffs]:
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        ra = a[k] if k < len(a) else []
        rb = b[k] if k < len(b) else []
        out.append(unipoly.poly_sub(ra, rb))
    return _ytrim(out)


def _pseudo_rem(f: list[unipoly.Coeffs], g: list[unipoly.Coeffs]) -> list[unipoly.Coeffs]:
    f = _ytrim([list(r) for r in f])
    g = _ytrim([list(r) for r in g])
    df, dg = len(f) - 1, len(g) - 1
    lc = g[-1]
    r = f
    while r and len(r) - 1 >= dg:
        dr = len(r) - 1
        lead = r[-1]
        # r <- lc * r - lead * y^(dr-dg) * g
        shifted = [[] for _ in range(dr - dg)] + [unipoly.poly_mul(lead, row) if row else [] for row in g]
        r = _rows_sub(_row_mul(r, lc), shifted)
    return r


def bivariate_gcd(p: MVPoly, q: MVPoly) -> MVPoly:
    """gcd in Q(i)[x, y], normalized with monic leading structure."""
    if p.variables != q.variables:
        raise ValueError("polynomials live in different rings")
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    fp, fq = unipoly.bivariate_rows(p, 0, 1), unipoly.bivariate_rows(q, 0, 1)
    if len(fp) == 1 and len(fq) == 1:
        return _from_rows([unipoly.poly_gcd(fp[0], fq[0])], p.variables)
    cp, cq = _content(fp), _content(fq)
    cont = unipoly.poly_gcd(cp, cq)
    a, b = _divide_rows(fp, cp), _divide_rows(fq, cq)
    if len(a) - 1 < len(b) - 1:
        a, b = b, a
    while True:
        b = _ytrim(b)
        if not b:
            break
        r = _pseudo_rem(a, b)
        r = _ytrim(r)
        if r:
            rc = _content(r)
            r = _divide_rows(r, rc)
        a, b = b, r
    ca = _content(a)
    a = _divide_rows(a, ca)
    rows = [unipoly.poly_mul(row, cont) if row else [] for row in a]
    g = _from_rows(rows, p.variables)
    # normalize so the canonical leading coefficient is 1
    lead = g.sorted_terms()[-1][1]
    return g * (GaussRat(1) / lead)


def isolated_at_origin_dim2(components) -> bool:
    """Exact: the common zero locus of two bivariate polynomials is finite
    iff they share no factor (and neither generates everything trivially)."""
    a, b = components
    if a.is_zero() and b.is_zero():
        return False
    if a.is_zero() or b.is_zero():
        nz = a if not a.is_zero() else b
        return nz.total_degree() < 1
    return bivariate_gcd(a, b).total_degree() < 1
