"""Small exact linear algebra over the Gaussian rationals.

Matrices are tuples of row tuples of GaussRat.  Eigenvalues are exact
whenever the characteristic polynomial splits over Q(i); otherwise an
Indeterminate value carries the characteristic polynomial together with
float approximations of the spectrum.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .gaussrat import GaussRat, _abd_of, _gauss
from . import unipoly

Matrix = tuple[tuple[GaussRat, ...], ...]
Vector = tuple[GaussRat, ...]


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


def solve(a: Matrix, b: Sequence[GaussRat]) -> Vector | None:
    """One solution of a x = b, or None when inconsistent.  Free variables
    are set to zero, so underdetermined systems still return a witness.
    A pivot in the augmented column is a row caught by the first loop."""
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [GaussRat.coerce(b[i])] for i, row in enumerate(a)]
    rows, pivots = _rref(aug)
    for row in rows:
        if all(x.is_zero() for x in row[:-1]) and not row[-1].is_zero():
            return None
    x = [GaussRat(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return tuple(x)


def kernel_basis(a: Matrix) -> list[Vector]:
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


def char_poly(a: Matrix) -> list[GaussRat]:
    """Characteristic polynomial det(tI - A), ascending coefficients: the
    closed form t^2 - tr t + det for n <= 2, the Faddeev-LeVerrier
    recursion beyond.  That recursion runs on the Gaussian-integer matrix
    B = D*A, D the lcm of the entry denominators: every matrix it forms
    and every coefficient c_k(B) lies in Z[i], so its division by k is
    exact, and c_k(A) = c_k(B) / D^k."""
    n = len(a)
    if n == 1:
        return [-a[0][0], GaussRat(1)]
    if n == 2:
        return [a[0][0] * a[1][1] - a[0][1] * a[1][0], -(a[0][0] + a[1][1]), GaussRat(1)]
    abd = [[_abd_of(x) for x in row] for row in a]
    d = 1
    for row in abd:
        for _, _, q in row:
            if q != d:
                d = lcm(d, q)
    b = [[(x * (d // q), y * (d // q)) for x, y, q in row] for row in abd]
    descending = [GaussRat(1)]
    scale = 1
    m = None  # M_k of the recursion; M_1 = I, so B M_1 = B
    for k in range(1, n + 1):
        if k < n:
            bm = b if m is None else _zi_mat_mul(b, m)
            tr_re, tr_im = sum(bm[i][i][0] for i in range(n)), sum(bm[i][i][1] for i in range(n))
        else:  # the last step needs only the trace of B M_n
            tr_re = tr_im = 0
            for i in range(n):
                for (x, y), (u, w) in zip(b[i], (row[i] for row in m)):
                    tr_re += x * u - y * w
                    tr_im += x * w + y * u
        cr, ci = -tr_re // k, -tr_im // k
        scale *= d
        descending.append(_gauss(cr, ci, scale))
        if k < n:
            m = [[(x + cr, y + ci) if i == j else (x, y) for j, (x, y) in enumerate(row)] for i, row in enumerate(bm)]
    return descending[::-1]


def _zi_mat_mul(a: list[list[tuple[int, int]]], b: list[list[tuple[int, int]]]) -> list[list[tuple[int, int]]]:
    """Product of square matrices of Gaussian-integer pairs (re, im)."""
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            re = im = 0
            for (x, y), (u, w) in zip(row, col):
                re += x * u - y * w
                im += x * w + y * u
            out_row.append((re, im))
        out.append(out_row)
    return out


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


def eigenspace(a: Matrix, lam: GaussRat) -> list[Vector]:
    """Kernel basis of A - lam*I, with lam subtracted on the diagonal only."""
    return kernel_basis(tuple(tuple(x - lam if i == k else x for k, x in enumerate(row)) for i, row in enumerate(a)))


def eigenvector(a: Matrix, lam: GaussRat) -> Vector | None:
    basis = eigenspace(a, lam)
    return basis[0] if basis else None
