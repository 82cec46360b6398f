"""Small exact linear algebra over the Gaussian rationals.

Matrices are tuples of row tuples of GaussRat.  Eigenvalues are exact
whenever the characteristic polynomial splits over Q(i); otherwise an
Indeterminate value carries the characteristic polynomial together with
float approximations of the spectrum.
"""

from __future__ import annotations

from typing import Sequence

from .gaussrat import ZERO, GaussRat
from . import unipoly

Matrix = tuple[tuple[GaussRat, ...], ...]
Vector = tuple[GaussRat, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(GaussRat(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c: GaussRat) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(m)), ZERO) for j in range(p))
        for i in range(n)
    )


def _rref(rows: list[list[GaussRat]]) -> tuple[list[list[GaussRat]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
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


def rank(a: Matrix) -> int:
    if not a:
        return 0
    _, pivots = _rref([list(r) for r in a])
    return len(pivots)


def det(a: Matrix) -> GaussRat:
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


def solve(a: Matrix, b: Sequence[GaussRat]) -> Vector | None:
    """One solution of a x = b, or None when inconsistent.  Free variables
    are set to zero, so underdetermined systems still return a witness."""
    n = len(a)
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [GaussRat.coerce(b[i])] for i, row in enumerate(a)]
    rows, pivots = _rref(aug)
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


def kernel_basis(a: Matrix) -> list[Vector]:
    n = len(a)
    ncols = len(a[0]) if a else 0
    rows, pivots = _rref([list(r) for r in a])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [GaussRat(0)] * ncols
        v[f] = GaussRat(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def inverse(a: Matrix) -> Matrix | None:
    n = len(a)
    aug = [list(row) + [GaussRat(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    rows, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(rows[i][n:]) for i in range(n))


def char_poly(a: Matrix) -> list[GaussRat]:
    """Characteristic polynomial det(tI - A), ascending coefficients: the
    closed form t^2 - tr t + det for n <= 2, the Faddeev-LeVerrier
    recursion (exact; divisions by integers only) beyond."""
    n = len(a)
    if n == 1:
        return [-a[0][0], GaussRat(1)]
    if n == 2:
        return [a[0][0] * a[1][1] - a[0][1] * a[1][0], -(a[0][0] + a[1][1]), GaussRat(1)]
    descending = [GaussRat(1)]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        tr = sum((am[i][i] for i in range(n)), ZERO)
        ck = -(tr / k)
        descending.append(ck)
        m = tuple(
            tuple(am[i][j] + ck if i == j else am[i][j] for j in range(n))
            for i in range(n)
        )
    return descending[::-1]


class Indeterminate:
    """Eigenvalue multiset that could not be represented in Q(i).

    Carries the exact characteristic polynomial and float shadows of the
    spectrum so callers can still report diagnostics."""

    __slots__ = ("char_poly", "approx")

    def __init__(self, cp: list[GaussRat], approx: list[complex]):
        self.char_poly = cp
        self.approx = approx

    def __repr__(self):
        return "Indeterminate(approx=%s)" % (self.approx,)


def _approx_roots(cp: list[GaussRat]) -> list[complex]:
    import numpy as np

    cs = [c.to_complex() for c in cp]
    arr = np.array(cs[::-1], dtype=complex)  # numpy wants descending order
    if len(arr) <= 1:
        return []
    return [complex(z) for z in np.roots(arr)]


def eigenvalues_exact(a: Matrix) -> list[GaussRat] | Indeterminate:
    """Exact eigenvalue multiset when the characteristic polynomial splits
    over Q(i); Indeterminate (a value, not an error) otherwise."""
    return eigenvalues_of_char_poly(char_poly(a))


def eigenvalues_of_char_poly(cp: list[GaussRat]) -> list[GaussRat] | Indeterminate:
    """`eigenvalues_exact` for a caller that already holds the
    characteristic polynomial."""
    res = unipoly.gaussian_rational_roots(cp)
    if res.split_completely():
        return sorted(res.roots, key=lambda z: (z.re, z.im))
    return Indeterminate(cp, _approx_roots(cp))


def eigenvector(a: Matrix, lam: GaussRat) -> Vector | None:
    n = len(a)
    shifted = mat_sub(a, mat_scale(identity(n), lam))
    basis = kernel_basis(shifted)
    return basis[0] if basis else None
