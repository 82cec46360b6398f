"""Small exact linear algebra over the Gaussian rationals.

Matrices are tuples of row tuples of GaussRat.  Elimination runs on Z[i]
pairs (re, im): each row becomes Gaussian integers once, scaled by the lcm
of its denominators (which changes neither the RREF nor the kernel), and
GaussRat values are built only from the results.  Eigenvalues are exact
whenever the characteristic polynomial splits over Q(i); otherwise an
Indeterminate value carries it with float shadows of the spectrum
(numpy's `roots`)."""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from .gaussrat import ONE, ZERO, GaussRat, _gauss, _zi_quotient
from .unipoly import _clear_denominators as _clear
from . import unipoly

Matrix = tuple[tuple[GaussRat, ...], ...]
Vector = tuple[GaussRat, ...]
ZiRow = list[tuple[int, int]]


def _rref(rows: list[ZiRow]) -> tuple[list[ZiRow], list[int], tuple[int, int]]:
    """Fraction-free Gauss-Jordan elimination over Z[i] (Bareiss, Math. Comp.
    22 (1968)); returns (rows, pivot column indices, last pivot).

    A new pivot p in row r and column c turns every other row into
    (p*row - f*rows[r]) / p_prev, f its entry in column c, p_prev the
    previous pivot (1 at first), exactly by Sylvester's identity.  Each row
    stays a nonzero multiple of its row over Q(i), so the pivot columns are
    the same, and each pivot row ends with the last pivot p at its pivot:
    rows / p is the reduced row echelon form, which is unique."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    qr, qi = 1, 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != (0, 0)), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pr, pi = prow[c]
        qn = qr * qr + qi * qi
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            fr, fi = row[c]
            if fr or fi:
                row = [(pr * x - pi * y - fr * u + fi * w, pr * y + pi * x - fr * w - fi * u)
                       for (x, y), (u, w) in zip(row, prow)]
            elif (pr, pi) != (qr, qi):
                row = [(pr * x - pi * y, pr * y + pi * x) for x, y in row]
            else:  # f = 0 and p = p_prev leave the row as it is
                continue
            if qi or qr != 1:  # divide by p_prev: times its conjugate, over its norm
                row = [((x * qr + y * qi) // qn, (y * qr - x * qi) // qn) for x, y in row]
            rows[i] = row
        qr, qi = pr, pi
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots, (qr, qi)


def _kernel(rows: list[ZiRow]) -> list[Vector]:
    """Kernel basis of a Z[i] matrix, one vector per free column f:
    v[f] = 1 and v[c] = -rows[r][f] / p at the pivot column c of row r."""
    ncols = len(rows[0]) if rows else 0
    rows, pivots, p = _rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for r, c in enumerate(pivots):
            x, y = rows[r][f]
            v[c] = _zi_quotient(-x, -y, *p)
        basis.append(tuple(v))
    return basis


def rank(a: Matrix) -> int:
    return len(_rref([_clear(row)[0] for row in a])[1])


def solve(a: Matrix, b: Sequence[GaussRat]) -> Vector | None:
    """One solution of a x = b, or None when inconsistent, i.e. when the
    augmented column holds a pivot.  Free variables are set to zero, so
    underdetermined systems still return a witness."""
    ncols = len(a[0]) if a else 0
    rows, pivots, p = _rref([_clear([*row, GaussRat.coerce(b[i])])[0] for i, row in enumerate(a)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [ZERO] * ncols
    for r, c in enumerate(pivots):
        x[c] = _zi_quotient(*rows[r][-1], *p)
    return tuple(x)


def kernel_basis(a: Matrix) -> list[Vector]:
    return _kernel([_clear(row)[0] for row in a])


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
    flat, d = _clear([x for row in a for x in row])
    b = [flat[i * n:(i + 1) * n] for i in range(n)]
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

    Carries the exact characteristic polynomial; the float shadows of the
    spectrum, for diagnostics, are computed (with numpy) on first read."""

    __slots__ = ("char_poly", "_approx")

    def __init__(self, cp: list[GaussRat]):
        self.char_poly = cp
        self._approx = None

    @property
    def approx(self) -> list[complex]:
        if self._approx is None:
            self._approx = _approx_roots(self.char_poly)
        return self._approx

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
        # (re, im) order, read on the integers over one common denominator
        keys = _clear(res.roots)[0]
        return [z for _, z in sorted(zip(keys, res.roots), key=itemgetter(0))]
    return Indeterminate(cp)


def eigenspace(a: Matrix, lam: GaussRat) -> list[Vector]:
    """Kernel basis of A - lam*I, each row built in Z[i] as L*(row - lam e_i),
    L the lcm of the row's and lam's denominators."""
    lam = GaussRat.coerce(lam)
    rows = [_clear([*row, lam])[0] for row in a]
    for i, ints in enumerate(rows):
        (lr, li), (x, y) = ints.pop(), ints[i]
        ints[i] = (x - lr, y - li)
    return _kernel(rows)


def eigenvector(a: Matrix, lam: GaussRat) -> Vector | None:
    basis = eigenspace(a, lam)
    return basis[0] if basis else None


def is_scalar(a: Matrix) -> bool:
    return all(x == a[0][0] if i == k else x.is_zero() for i, row in enumerate(a) for k, x in enumerate(row))
