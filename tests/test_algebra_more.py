"""Truncated series, exact linear algebra, univariate roots, monomial ideals."""

import collections
import math
import random
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from foliationlab.gaussrat import GaussRat, _zi_quotient
from foliationlab.mvpoly import MVPoly
from foliationlab import foliation, linalg, unipoly
from foliationlab.corpus import _coprime, seidenberg_corpus
from foliationlab.dsl import parse_vector_field
from foliationlab.foliation import VectorFieldGerm, milnor_number
from foliationlab.monomial import (
    MonomialIdeal,
    multiplier_ideal_trivial_monomial,
    newton_interior_margin,
    simplex_min,
)

from helpers import (
    coeffs,
    det,
    inverse,
    mat,
    mat_mul,
    reference_clear_denominators,
    reference_eigenspace,
    reference_kernel_basis,
    reference_real_rational_roots,
    reference_rref,
    reference_solve,
    scalar_matrix,
)


def _g(*cs):
    return unipoly.from_coeffs(cs)


def test_series_arithmetic_and_truncation():
    s = unipoly.series_mul(_g(1, 1), _g(1, -1), 5)
    assert s == _g(1, 0, -1)
    assert unipoly.series_mul(s, _g(1, 1), 2) == _g(1, 1, -1)  # (1 - t^2)(1 + t) to order 2
    assert unipoly.series_mul(_g(0, 1), _g(0, 0, 1), 2) == unipoly.ZERO_POLY  # t^3 lies past order 2
    assert unipoly.valuation(s) == 0 and unipoly.valuation(_g(0, 0, 3)) == 2
    assert unipoly.valuation(unipoly.ZERO_POLY) == math.inf and unipoly.valuation(_g(0, 0)) == math.inf


def test_series_division():
    den = _g(0, 1)  # t, known to order 3
    q = unipoly.series_divide(_g(0, 0, 1, 1), den, 3)  # t^2 (1 + t) / t, known to order 2
    assert q == _g(0, 1, 1) and unipoly.valuation(q) == 1
    assert unipoly.series_divide(unipoly.ZERO_POLY, den, 3) == unipoly.ZERO_POLY
    assert unipoly.series_divide(_g(0, 0, 1, 1), den, 2) == _g(0, 1)  # known to order 2: t^2 / t to order 1


@st.composite
def _divisions(draw):
    """(num, den) with val(den) = v <= val(num) and a quotient of order n."""
    gauss = st.builds(GaussRat, st.fractions(-3, 3, max_denominator=3), st.integers(-2, 2))
    v, n = draw(st.integers(0, 2)), draw(st.integers(0, 4))
    den_order, num_order = v + n + draw(st.integers(0, 1)), v + n + draw(st.integers(0, 1))
    lead = draw(gauss.filter(lambda c: not c.is_zero()))
    den_rest = draw(st.lists(gauss, min_size=den_order - v, max_size=den_order - v))
    num_coeffs = [0] * draw(st.integers(v, v + 2)) + draw(st.lists(gauss, min_size=num_order + 1, max_size=num_order + 1))
    return ([GaussRat.coerce(c) for c in num_coeffs[: num_order + 1]],
            [GaussRat.coerce(c) for c in (*[0] * v, lead, *den_rest)])


@given(_divisions())
@example(([GaussRat.coerce(c) for c in (0, 1, GaussRat(0, 1), -2, 1, 3)],
          [GaussRat.coerce(c) for c in (0, 2, 1, -1, GaussRat(1, 1), 1)]))
@settings(max_examples=12, deadline=None)
def test_series_division_matches_sympy(case):
    sympy = pytest.importorskip("sympy")

    def to_sympy(z):
        return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator)

    def to_poly(s):
        return sympy.Poly([to_sympy(c) for c in reversed(s)], t, domain="QQ_I")

    num, den = case
    t = sympy.Symbol("t")
    order = min(len(num), len(den)) - 1
    q = unipoly.series_divide(_g(*num), _g(*den), order)
    v = unipoly.valuation(_g(*den))
    assert unipoly.degree(q) <= order - v
    # a truncated quotient is unique: num = q*den up to the known order
    rest = (to_poly(num) - to_poly(coeffs(q)) * to_poly(den)).all_coeffs()[::-1]
    assert all(c == 0 for c in rest[: order + 1])


def test_solve_and_kernel():
    m = mat([[1, 2], [2, 4]])
    assert linalg.solve(m, [GaussRat(1), GaussRat(2)]) is not None
    assert linalg.solve(m, [GaussRat(1), GaussRat(3)]) is None
    assert len(linalg.kernel_basis(m)) == 1
    assert linalg.rank(m) == 1
    assert det(m).is_zero()
    inv = inverse(mat([[1, 1], [0, 1]]))
    assert inv == mat([[1, -1], [0, 1]])


def _matrix_strategy():
    coeff = st.builds(GaussRat, st.integers(-3, 3), st.integers(-1, 1))
    return st.lists(st.lists(coeff, min_size=3, max_size=3), min_size=3, max_size=3).map(
        lambda rows: tuple(tuple(r) for r in rows)
    )


@given(_matrix_strategy())
@settings(max_examples=30, deadline=None)
def test_eigenvalues_reproduce_char_poly(m):
    cp = linalg.char_poly(m)
    ev = linalg.eigenvalues_exact(m)
    if isinstance(ev, linalg.Indeterminate):
        return
    prod = unipoly.ONE_POLY
    for lam in ev:
        prod = unipoly.poly_mul(prod, _g(-lam, 1))
    assert prod == cp


_SOLVE_ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), GaussRat(0, 1), GaussRat(1, -3)]).map(
    GaussRat.coerce)


@st.composite
def _linear_systems(draw):
    """(A, b) with 1-4 rows and 0-4 columns, sparse, of rank anywhere up to
    full; half of them get a multiple of one row appended with its
    right-hand side shifted, which makes them inconsistent."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    rows = [[draw(_SOLVE_ENTRY) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [draw(_SOLVE_ENTRY) for _ in range(nrows)]
    if draw(st.booleans()):
        i, c = draw(st.integers(0, nrows - 1)), draw(_SOLVE_ENTRY)
        rows.append([c * x for x in rows[i]])
        rhs.append(c * rhs[i] + draw(_SOLVE_ENTRY.filter(bool)))
    return tuple(map(tuple, rows)), tuple(rhs)


@given(_linear_systems())
@settings(max_examples=150, deadline=None)
def test_solve_matches_reference(system):
    """`solve` without a branch for a pivot in the augmented column returns
    what the reference with that branch returns, None included."""
    a, b = system
    got = linalg.solve(a, b)
    assert got == reference_solve(a, b)
    if got is not None:
        assert all(sum((x * y for x, y in zip(row, got)), GaussRat(0)) == c for row, c in zip(a, b))


_BIG_PARTS = (2**64 + 13, -(3**41), 2**65 - 1)  # past 2^64


@st.composite
def _square_matrices(draw):
    """Square matrices of size 2-6 over Q(i) with denominators from
    {1, 2, 3, 5, 7} and up to two entries past 2^64, so that the
    Faddeev-LeVerrier path scales by D^k and divides by k on large
    integers."""
    n = draw(st.integers(2, 6))
    part, den = st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7])
    entry = st.builds(lambda a, b, d, e: GaussRat(Fraction(a, d), Fraction(b, e)), part, part, den, den)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        big = draw(st.sampled_from(_BIG_PARTS))
        rows[i][j] = rows[i][j] + (GaussRat(0, big) if draw(st.booleans()) else GaussRat(big))
    return tuple(tuple(r) for r in rows)


def _wide_matrix():
    """Six by six, every denominator of `_square_matrices`, one real and one
    imaginary part past 2^64."""
    dens = (1, 2, 3, 5, 7)
    rows = [[GaussRat(Fraction(i - j, dens[(i + 2 * j) % 5]), Fraction(i * j % 3 - 1, dens[(i + j) % 5]))
             for j in range(6)] for i in range(6)]
    rows[1][4] += 2**64 + 13
    rows[5][0] += GaussRat(0, -(3**41))
    return tuple(map(tuple, rows))


@given(_square_matrices())
@example(_wide_matrix())
@settings(max_examples=40, deadline=None)
def test_char_poly_cayley_hamilton(m):
    n = len(m)
    cp = coeffs(linalg.char_poly(m))
    assert len(cp) == n + 1 and cp[n] == 1
    total, power = scalar_matrix(n, cp[0]), scalar_matrix(n, 1)
    for c in cp[1:]:
        power = mat_mul(power, m)
        total = tuple(tuple(x + c * y for x, y in zip(rt, rp)) for rt, rp in zip(total, power))
    assert all(x.is_zero() for row in total for x in row)


@given(_square_matrices())
@example(_wide_matrix())
@settings(max_examples=25, deadline=None)
def test_char_poly_matches_sympy(m):
    sympy = pytest.importorskip("sympy")

    def to_sympy(z):
        return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator)

    t = sympy.Symbol("t")
    want = sympy.Matrix([[to_sympy(x) for x in row] for row in m]).charpoly(t).all_coeffs()[::-1]
    got = coeffs(linalg.char_poly(m))
    assert len(want) == len(got)
    for g, c in zip(got, want):
        assert sympy.expand(to_sympy(g) - c) == 0


def test_eigenvalue_examples():
    assert sorted(str(e) for e in linalg.eigenvalues_exact(mat([[1, 0], [0, -1]]))) == ["-1", "1"]
    assert [str(e) for e in linalg.eigenvalues_exact(mat([[0, 1], [0, 0]]))] == ["0", "0"]
    ev = linalg.eigenvalues_exact(mat([[0, -1], [1, 0]]))
    assert {str(e) for e in ev} == {"i", "-i"}
    with mock.patch.object(linalg, "_approx_roots", wraps=linalg._approx_roots) as approx_roots:
        ind = linalg.eigenvalues_exact(mat([[0, 2], [1, 0]]))  # +-sqrt(2)
        assert isinstance(ind, linalg.Indeterminate)
        assert approx_roots.call_count == 0  # the float shadows wait for their first read
        assert sorted(z.real for z in ind.approx) == pytest.approx([-math.sqrt(2), math.sqrt(2)])
        assert ind.approx is ind.approx and approx_roots.call_count == 1


def test_root_multiplicity_and_real_roots():
    # (t-1)^2 (t+2)
    p = unipoly.poly_mul(_g(-1, 1), _g(-1, 1))
    p = unipoly.poly_mul(p, _g(2, 1))
    once = unipoly.deflate(p, GaussRat(1))
    assert unipoly.poly_eval(once, GaussRat(1)).is_zero()
    assert not unipoly.poly_eval(unipoly.deflate(once, GaussRat(1)), GaussRat(1)).is_zero()
    res = unipoly.gaussian_rational_roots(p)
    assert res.split_completely()
    assert sorted(str(r) for r in res.roots) == ["-2", "1", "1"]
    assert unipoly.real_rational_roots(p) == [Fraction(-2), Fraction(1)]
    assert any(r > 0 for r in unipoly.real_rational_roots(p))


def _from_roots(lead, roots, extra=(GaussRat(1),)):
    p = _g(lead)
    for r in roots:
        p = unipoly.poly_mul(p, _g(-GaussRat.coerce(r), 1))
    return unipoly.poly_mul(p, _g(*extra))


@pytest.mark.parametrize("p, expected", [
    # zero root of multiplicity 2
    (_from_roots(1, [0, 0, Fraction(3, 2)]), [Fraction(0), Fraction(3, 2)]),
    # purely imaginary coefficients
    (_from_roots(GaussRat(0, 1), [2, Fraction(-1, 3)]), [Fraction(-1, 3), Fraction(2)]),
    # real and imaginary parts share (t^2 - 2)(t - 1/2)
    (_from_roots(1, [Fraction(1, 2), GaussRat(0, -1)], [GaussRat(-2), GaussRat(0), GaussRat(1)]), [Fraction(1, 2)]),
    # no rational root
    (_from_roots(1, [GaussRat(1, 1)], [GaussRat(-2), GaussRat(0), GaussRat(1)]), []),
    # non-integer leading coefficient
    (_from_roots(Fraction(2, 3), [Fraction(3, 4), -5, Fraction(-5, 7)]), [Fraction(-5), Fraction(-5, 7), Fraction(3, 4)]),
], ids=["zero_root", "imaginary", "gcd_degree_3", "none", "fractional_lead"])
def test_real_rational_roots_cases(p, expected):
    assert unipoly.real_rational_roots(p) == expected


def test_gaussian_integer_root():
    # roots 1+i and 2
    p = unipoly.poly_mul(_g(GaussRat(-1, -1), 1), _g(-2, 1))
    p = unipoly.poly_mul(p, _g(-3, 0, 0, 1))  # t^3-3 residual
    res = unipoly.gaussian_rational_roots(p)
    assert not res.split_completely()
    assert {str(r) for r in res.roots} == {"1+i", "2"}
    assert unipoly.degree(res.residual) == 3


def _lattice_divisors(z):
    """Reference: walk every lattice point of norm <= N(z) and keep the divisors."""
    a, b = z
    n = a * a + b * b
    if n == 0 or n > unipoly.DIVISOR_NORM_CAP:
        return None
    divs = []
    r = isqrt(n)
    for x in range(-r, r + 1):
        ymax = isqrt(n - x * x)
        for y in range(-ymax, ymax + 1):
            m = x * x + y * y
            # (x+iy) | (a+ib)  iff  (a+ib)(x-iy) has both parts divisible by m
            if m and n % m == 0 and (a * x + b * y) % m == 0 and (b * x - a * y) % m == 0:
                divs.append((x, y))
    return divs


def test_gauss_int_divisors_match_lattice_walk():
    # associates share their divisors, so the walk runs on one associate of
    # each z with |a|, |b| <= 40 and the other three are compared to it
    for a in range(0, 41):
        for b in range(0, 41):
            want = _lattice_divisors((a, b))
            for z in ((a, b), (-b, a), (-a, -b), (b, -a)):
                assert unipoly._gauss_int_divisors(z) == want, z
    rng = random.Random(7)
    for _ in range(6):
        while True:
            z = (rng.randint(-447, 447), rng.randint(-447, 447))
            if 0 < z[0] ** 2 + z[1] ** 2 <= unipoly.DIVISOR_NORM_CAP:
                break
        assert unipoly._gauss_int_divisors(z) == _lattice_divisors(z), z
    # the cap is inclusive: norm 200,000 has a list, the next norm above it none
    assert unipoly._gauss_int_divisors((400, 200)) == _lattice_divisors((400, 200))
    assert unipoly._gauss_int_divisors((447, 15)) is None  # norm 200,034
    assert unipoly._gauss_int_divisors((400, 200), cap=199_999) is None


def _candidate_loop_first_root(ints, d0, dn):
    """The candidate loop before the integer Horner test: deduplicated
    GaussRat quotients in d0 x dn order, each tested by `poly_eval`."""
    p = _g(*(GaussRat(a, b) for a, b in ints))
    seen = set()
    for (a, b) in d0:
        for (c, d) in dn:
            q = GaussRat(a, b) / GaussRat(c, d)
            if (q.re, q.im) not in seen:
                seen.add((q.re, q.im))
                if unipoly.poly_eval(p, q).is_zero():
                    return q
    return None


_IRREDUCIBLE_CUBICS = [
    None,
    [GaussRat(-2), GaussRat(0), GaussRat(0), GaussRat(1)],  # t^3 - 2
    [GaussRat(1), GaussRat(1), GaussRat(0), GaussRat(1)],  # t^3 + t + 1
    [GaussRat(-1, -2), GaussRat(0), GaussRat(0), GaussRat(3)],  # 3t^3 - (1+2i)
]

_small_q = st.fractions(-4, 4, max_denominator=3)
_root_strategy = st.builds(GaussRat, _small_q, _small_q)


@given(st.lists(_root_strategy, min_size=1, max_size=5), st.sampled_from(_IRREDUCIBLE_CUBICS),
       st.builds(GaussRat, st.integers(1, 6), st.integers(-3, 3)))
@example([GaussRat(-1, -2), GaussRat(0, -1), GaussRat(-1, -1)], None, GaussRat(1))  # order-sensitive
@example([GaussRat(0, Fraction(-7, 2))] * 2 + [GaussRat(0, Fraction(-5, 3))], _IRREDUCIBLE_CUBICS[1],
         GaussRat(1))  # stopped by the divisor cap
@settings(max_examples=40, deadline=None)
def test_gaussian_rational_roots_match_candidate_loop(roots, cubic, lead):
    p = _from_roots(lead, roots, cubic or (GaussRat(1),))
    res = unipoly.gaussian_rational_roots(p)
    with mock.patch.object(unipoly, "_first_root", _candidate_loop_first_root):
        want = unipoly.gaussian_rational_roots(p)
    assert res.roots == want.roots
    assert res.residual == want.residual
    assert res.exhaustive == want.exhaustive


@given(st.lists(_root_strategy, min_size=1, max_size=3), st.sampled_from(_IRREDUCIBLE_CUBICS))
@settings(max_examples=12, deadline=None)
def test_gaussian_rational_roots_match_sympy(roots, cubic):
    sympy = pytest.importorskip("sympy")

    def to_sympy(z):
        return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator)

    p = _from_roots(1, roots, cubic or (GaussRat(1),))
    t = sympy.Symbol("t")
    want = sympy.roots(sum(to_sympy(c) * t ** k for k, c in enumerate(coeffs(p))), t)
    res = unipoly.gaussian_rational_roots(p)
    got = collections.Counter(to_sympy(r) for r in res.roots)
    assert sum(want.values()) == unipoly.degree(p)
    if not res.exhaustive:  # an outer coefficient's norm passed the cap: a partial split
        assert all(want.get(r, 0) >= mult for r, mult in got.items())
        return
    assert all(want.get(r) == mult for r, mult in got.items())
    assert sum(got.values()) == len(roots)
    assert (res.residual is None) == (cubic is None)


def test_simplex_basic():
    # max delta s.t. delta <= 1 - t, t = 1  => delta = 0 style sanity
    val, x = simplex_min(
        [[Fraction(1), Fraction(1)]], [Fraction(1)], [Fraction(-1), Fraction(0)]
    )
    assert val == Fraction(-1)


def test_newton_margin_values():
    assert newton_interior_margin([(1, 0), (0, 1)], [Fraction(1), Fraction(1)]) == Fraction(1, 2)
    assert newton_interior_margin([(2, 0), (1, 1), (0, 2)], [Fraction(1), Fraction(1)]) == Fraction(0)
    assert newton_interior_margin([(2, 0), (0, 1)], [Fraction(1), Fraction(1)]) > 0


def test_multiplier_ideal_examples():
    assert multiplier_ideal_trivial_monomial(MonomialIdeal(2, [(1, 0), (0, 1)])) is True
    assert multiplier_ideal_trivial_monomial(MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])) is False
    assert multiplier_ideal_trivial_monomial(MonomialIdeal(2, [(2, 0), (0, 1)])) is True
    with pytest.raises(ValueError):
        MonomialIdeal(2, [])
        multiplier_ideal_trivial_monomial(MonomialIdeal(2, []))


def test_minimalization_and_ops():
    ideal = MonomialIdeal(2, [(1, 0), (2, 0), (1, 1)])
    assert ideal.generators == frozenset({(1, 0)})
    ideal = MonomialIdeal(2, [(2, 1), (1, 2)])
    assert ideal.common_factor() == (1, 1)
    q = ideal.quotient_by((1, 1))
    assert q.generators == frozenset({(1, 0), (0, 1)})
    assert q.cosupport_is_origin()
    assert not MonomialIdeal(3, [(1, 0, 0), (0, 1, 0)]).cosupport_is_origin()


_biv = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.builds(GaussRat, st.integers(-3, 3), st.integers(-2, 2)),
    max_size=4,
).map(lambda d: MVPoly(("x", "y"), d))


def _to_sympy(p):
    """p over sympy's Gaussian rationals QQ_I, i.e. Q(i)."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    return sympy.Poly({e: sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for e, c in p.terms.items()},
                      x, y, domain="QQ_I")


@given(_biv, _biv, _biv)
@settings(max_examples=80, deadline=None)
def test_corpus_coprimality_matches_sympy_gcd(a, b, g):
    p, q = a * g, b * g
    if p.is_zero() and q.is_zero():
        return
    assert _coprime(p, q) is (_to_sympy(p).gcd(_to_sympy(q)).total_degree() == 0)


def _colength(a, b, n):
    """dim Q(i)[x, y]/(a, b, x^n, y^n) from a sympy Groebner basis: the
    standard monomials under the leading monomials of the basis."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    basis = sympy.groebner([_to_sympy(a).as_expr(), _to_sympy(b).as_expr(), x**n, y**n], x, y,
                           order="grevlex", domain="QQ_I")
    leads = [sympy.Poly(g, x, y).monoms(order="grevlex")[0] for g in basis.exprs]
    return sum(1 for i in range(n) for j in range(n) if not any(i >= e[0] and j >= e[1] for e in leads))


def _check_milnor_against_groebner(a, b):
    """The quotient by (x^n, y^n) is local at 0.  For a finite mu, m^mu lies in
    (a, b) locally, so n > mu gives colength mu; for mu = inf the colength
    exceeds every n - 1, so n past the Bezout bound gives a colength past it."""
    mu = milnor_number(VectorFieldGerm(("x", "y"), (a, b)))
    bound = a.total_degree() * b.total_degree()
    got = _colength(a, b, (bound if mu == math.inf else mu) + 1)
    assert got > bound if mu == math.inf else got == mu


def _low_degree(top):
    """Polynomials of total degree <= top, up to three terms."""
    exps = [(i, j) for i in range(top + 1) for j in range(top + 1 - i)]
    coeff = st.builds(GaussRat, st.integers(-2, 2), st.integers(-1, 1))
    return st.dictionaries(st.sampled_from(exps), coeff, max_size=3).map(lambda d: MVPoly(("x", "y"), d))


_vanishing = _low_degree(2).map(lambda p: p - MVPoly.const(("x", "y"), p.constant_term()))


@given(_vanishing, _vanishing, _low_degree(1).filter(lambda p: not p.is_zero()))
@settings(max_examples=40, deadline=None)
@example(MVPoly(("x", "y"), {(2, 0): 1, (1, 1): -2}), MVPoly(("x", "y"), {(1, 1): -2, (1, 2): -1}),
         MVPoly.const(("x", "y"), 1))  # a shared branch x = 0 that loops without the Bezout bound
@example(MVPoly(("x", "y"), {(1, 0): 1, (0, 2): 1}), MVPoly(("x", "y"), {(0, 1): 1, (1, 1): 1}),
         MVPoly(("x", "y"), {(0, 0): 1, (1, 0): 1}))  # invertible Jacobian times a non-constant unit: mu = 1
def test_milnor_number_matches_sympy_groebner(a, b, g):
    # g(0) != 0 multiplies by a unit of the local ring, g(0) = 0 adds a shared branch
    assume(not a.is_zero() and not b.is_zero())
    _check_milnor_against_groebner(a * g, b * g)


def test_milnor_number_one_is_read_from_the_jacobian():
    """An invertible Jacobian gives mu = 1 without Fulton's loop; a singular
    one at multiplicity 1 still runs it."""
    xy = ("x", "y")
    x, y = MVPoly.var(xy, "x"), MVPoly.var(xy, "y")
    unit = 1 + x
    with mock.patch.object(foliation, "_x_axis", side_effect=AssertionError("Fulton's loop ran")):
        assert milnor_number(VectorFieldGerm(xy, ((x + y * y) * unit, (y + x * y) * unit))) == 1
        assert milnor_number(VectorFieldGerm(xy, (x + y * y, y * GaussRat(0, 1) + x * x))) == 1  # det J = i
    assert milnor_number(VectorFieldGerm(xy, (x + y * y, y * y))) == 2


def test_milnor_number_matches_sympy_groebner_on_corpus_sample():
    for v in random.Random(0).sample(seidenberg_corpus(), 25):
        _check_milnor_against_groebner(*v.components)


def test_milnor_number_of_a_shared_branch_is_inf():
    """A factor h through 0 shared by both components makes mu infinite.
    Without the truncation each such h ran for seconds or longer on some of
    these seeded cofactors, the first germ below past 20 s."""
    xy = ("x", "y")
    x, y = MVPoly.var(xy, "x"), MVPoly.var(xy, "y")
    rng = random.Random(0)

    def cofactor():
        exps = [(i, j) for i in range(5) for j in range(5 - i) if i + j]
        return MVPoly(xy, {rng.choice(exps): GaussRat(rng.randint(-2, 2), rng.randint(-2, 2))
                           for _ in range(rng.randint(1, 6))})

    for h in (x, x + y, x - y * y, y - x * x, x + y + x * y):
        for _ in range(10):
            a, b = cofactor(), cofactor()
            if not (a.is_zero() or b.is_zero()):
                assert milnor_number(VectorFieldGerm(xy, (h * a, h * b))) == math.inf
    for src in ("v = ((-2+i)*x*y^2 + (-1+i)*x^2*y + (1-i)*x^3 - i*x*y^3 + i*x^2*y^2 + (2+i)*x^4"
                " + 2*x*y^4 + i*x^2*y^3) d/dx + ((-2-i)*x*y^2 + x^2*y + i*x^3 + i*x^4 + (1+i)*x*y^4"
                " - 2*x^2*y^3 + (2-i)*x^4*y) d/dy",
                "v = ((-2+i)*x^3*y^2) d/dx + ((-2-2*i)*x^2 + (2-i)*x*y^3 + (-1+2*i)*x^2*y^2"
                " - i*x^3*y^2) d/dy"):
        assert milnor_number(parse_vector_field(src)) == math.inf


# -- Z[i] elimination and integer root paths against their GaussRat references

_ELIM_ENTRY = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2]),
    st.builds(lambda a, b, d, e: GaussRat(Fraction(a, d), Fraction(b, e)),
              st.integers(-5, 5), st.integers(-3, 3), st.sampled_from([1, 2, 3, 7]), st.sampled_from([1, 2, 5])),
    st.builds(lambda big, d, imag: GaussRat(0, Fraction(big, d)) if imag else GaussRat(Fraction(big, d)),
              st.sampled_from(_BIG_PARTS), st.sampled_from([1, 3]), st.booleans()),
).map(GaussRat.coerce)


@st.composite
def _elimination_systems(draw):
    """(A, b): A with 1-5 rows and 1-6 columns over Q(i), entries with
    denominators, Gaussian parts and parts past 2^64; rows replaced by
    combinations of others or columns by multiples of others make it
    rank-deficient, and a shifted right-hand side on a combination row
    makes the system inconsistent."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = [[draw(_ELIM_ENTRY) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [draw(_ELIM_ENTRY) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        c1, c2 = draw(_ELIM_ENTRY), draw(_ELIM_ENTRY)
        rows[k] = [c1 * x + c2 * y for x, y in zip(rows[i], rows[j])]
        rhs[k] = c1 * rhs[i] + c2 * rhs[j] + (draw(_ELIM_ENTRY) if draw(st.booleans()) else 0)
    if ncols > 1 and draw(st.booleans()):
        i, j, c = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1)), draw(_ELIM_ENTRY)
        for row in rows:
            row[j] = c * row[i]
    return tuple(map(tuple, rows)), tuple(rhs)


def _seeded_systems(count):
    """`_elimination_systems`-like inputs from a seeded generator."""
    rng = random.Random(0)
    values = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7), GaussRat(0, 1), GaussRat(Fraction(2, 3), -1),
              GaussRat(2**64 + 13, Fraction(1, 5)), GaussRat(0, -(3**41))]
    out = []
    for _ in range(count):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[GaussRat.coerce(rng.choice(values)) for _ in range(ncols)] for _ in range(nrows)]
        rhs = [GaussRat.coerce(rng.choice(values)) for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:
            i, j, k = rng.randrange(nrows), rng.randrange(nrows), rng.randrange(nrows)
            rows[k] = [x + 2 * y for x, y in zip(rows[i], rows[j])]
            rhs[k] = rhs[i] + 2 * rhs[j] + rng.choice([0, 1])
        out.append((tuple(map(tuple, rows)), tuple(rhs)))
    return out


def _check_elimination(a, b):
    want_rows, want_pivots = reference_rref(a)
    rows, pivots, p = linalg._rref([linalg._clear(row)[0] for row in a])
    assert pivots == want_pivots
    assert [[_zi_quotient(*x, *p) for x in row] for row in rows] == want_rows
    assert linalg.rank(a) == len(want_pivots)
    assert linalg.kernel_basis(a) == reference_kernel_basis(a)
    assert linalg.solve(a, b) == reference_solve(a, b)


@given(_elimination_systems())
@example((mat([[2**64 + 13, GaussRat(0, Fraction(1, 3))], [2 * (2**64 + 13), GaussRat(0, Fraction(2, 3))]]),
          (GaussRat(1), GaussRat(3))))  # rank 1, inconsistent
@settings(max_examples=150, deadline=None)
def test_elimination_matches_gaussrat_reference(system):
    """Bareiss elimination on Z[i] gives the pivots and, divided by the last
    pivot, the RREF of Gauss-Jordan elimination on GaussRat; rank, kernel
    basis and solve equal their references, None included."""
    _check_elimination(*system)


def test_elimination_matches_gaussrat_reference_on_seeded_systems():
    for a, b in _seeded_systems(300):
        _check_elimination(a, b)


_MIXED_Q = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 5, 7]))
_MIXED_ROOT = st.builds(GaussRat, _MIXED_Q, st.sampled_from([0, 0, 1, -1]) | _MIXED_Q)


@st.composite
def _spectral_matrices(draw):
    """(M, spectrum): M = U T U^-1 in dims 2-4, T upper triangular with the
    spectrum on its diagonal (values repeat, mixed denominators) and
    entries above it that are often zero, U unit lower triangular."""
    n = draw(st.integers(2, 4))
    spectrum = [draw(_MIXED_ROOT) for _ in range(n)]
    if draw(st.booleans()):
        spectrum[-1] = spectrum[0]
    above = st.sampled_from([0, 0, 1, GaussRat(0, 1), Fraction(-1, 2)]).map(GaussRat.coerce)
    t = [[spectrum[i] if i == j else draw(above) if j > i else GaussRat(0) for j in range(n)] for i in range(n)]
    u = [[1 if i == j else draw(st.integers(-2, 2)) if j < i else 0 for j in range(n)] for i in range(n)]
    return mat_mul(mat_mul(mat(u), mat(t)), inverse(mat(u))), spectrum


@given(_spectral_matrices())
@example((mat([[Fraction(1, 2), 0, 0], [0, GaussRat(Fraction(1, 3), 1), 0], [0, 0, GaussRat(Fraction(1, 2), -1)]]),
          [GaussRat(Fraction(1, 2)), GaussRat(Fraction(1, 3), 1), GaussRat(Fraction(1, 2), -1)]))
@settings(max_examples=80, deadline=None)
def test_spectrum_order_and_eigenspaces_match_reference(case):
    """The exact spectrum comes in the (re, im) Fraction order, and every
    eigenspace equals the one computed on A - lam*I in GaussRat."""
    m, spectrum = case
    ev = linalg.eigenvalues_exact(m)
    if not isinstance(ev, linalg.Indeterminate):  # the divisor cap can stop the root search
        assert ev == sorted(spectrum, key=lambda z: (z.re, z.im))
    for lam in dict.fromkeys(spectrum + [GaussRat(0)]):
        assert linalg.eigenspace(m, lam) == reference_eigenspace(m, lam)


@given(st.lists(_MIXED_ROOT, min_size=1, max_size=5))
@example([GaussRat(Fraction(-1, 2), 1), GaussRat(Fraction(-1, 3), 1), GaussRat(Fraction(-1, 2)), GaussRat(0, -1)])
@settings(max_examples=80, deadline=None)
def test_eigenvalue_order_matches_fraction_key(spectrum):
    """Integer keys over one common denominator sort a mixed-denominator
    spectrum as the (re, im) Fraction key does."""
    ev = linalg.eigenvalues_of_char_poly(_from_roots(1, spectrum))
    if isinstance(ev, linalg.Indeterminate):
        return
    assert ev == sorted(spectrum, key=lambda z: (z.re, z.im))


_HUGE_LEADS = [GaussRat(1), GaussRat(Fraction(2, 3)), GaussRat(0, 1), GaussRat(2**64 + 13),
               GaussRat(2**64 + 13, -(3**41)), GaussRat(Fraction(1, 2**65 - 1), 3)]
_EXTRA_FACTORS = [(GaussRat(1),), (GaussRat(-2), GaussRat(0), GaussRat(1)),  # t^2 - 2
                  (GaussRat(1), GaussRat(0), GaussRat(1)),  # t^2 + 1
                  (GaussRat(0, -2), GaussRat(0), GaussRat(1))]  # t^2 - 2i


@given(st.lists(_MIXED_ROOT, max_size=4), st.sampled_from(_EXTRA_FACTORS), st.sampled_from(_HUGE_LEADS),
       st.booleans())
@example([GaussRat(0, Fraction(-7, 2))] * 2 + [GaussRat(0, Fraction(-5, 3))],
         (GaussRat(-2), GaussRat(0), GaussRat(0), GaussRat(1)), GaussRat(1), False)  # cleared constant 490i
@settings(max_examples=120, deadline=None)
def test_real_rational_roots_match_reference(roots, extra, lead, huge_root):
    """The integer gcd and Horner test give the Fraction reference's roots;
    the numerators and denominator of the product, and of its coefficients
    cleared again, are the Fraction reference's clearing.  One optional root
    with an imaginary part past 2^64 puts such parts in every coefficient."""
    if huge_root:
        roots = roots + [GaussRat(1, 2**64 + 13)]
    p = _from_roots(lead, roots, extra)
    assert p == _g(*coeffs(p)) == reference_clear_denominators(coeffs(p))
    assert unipoly.real_rational_roots(p) == reference_real_rational_roots(p)


def test_divisor_cap_still_stops_the_490i_polynomial():
    """(t + 7i/2)^2 (t + 5i/3)(t^3 - 2): the cleared constant term 490i has
    norm 240,100, past `DIVISOR_NORM_CAP`, so no root comes back."""
    p = _from_roots(1, [GaussRat(0, Fraction(-7, 2))] * 2 + [GaussRat(0, Fraction(-5, 3))],
                    [GaussRat(-2), GaussRat(0), GaussRat(0), GaussRat(1)])
    ints, l = p
    assert (ints[0], l) == ((0, 490), 12)
    res = unipoly.gaussian_rational_roots(p)
    assert res.roots == [] and res.residual == p and not res.exhaustive
    assert unipoly.real_rational_roots(p) == []


# parts past 2^64 over denominators past 2^32, and small ones
_HUGE_PART = st.sampled_from([0, 1, -2, 7, 2**64 + 13, -(3**41), 2**65 - 1])
_HUGE_DEN = st.sampled_from([1, 3, 2**32 + 15, 2**33 + 3])
_HUGE_COEFF = st.builds(lambda a, b, d: GaussRat(Fraction(a, d), Fraction(b, d)), _HUGE_PART, _HUGE_PART, _HUGE_DEN)
_NONZERO_HUGE = _HUGE_COEFF.filter(lambda c: not c.is_zero())
_HUGE_POLY = st.lists(_HUGE_COEFF, max_size=3).map(unipoly.from_coeffs)


@given(_HUGE_POLY.filter(lambda p: p.num), _HUGE_POLY, _HUGE_POLY, _NONZERO_HUGE, st.integers(0, 2),
       st.sampled_from([(1,), (-2, 0, 1), (1, 0, 1), (-2, 0, 0, 1)]))
@example(_g(1), _g(2**64 + 13, 1), _g(GaussRat(Fraction(1, 2**33 + 3), 1)), GaussRat(Fraction(2**64 + 13, 3)), 2,
         (-2, 0, 0, 1))
@settings(max_examples=12, deadline=None)
def test_unipoly_matches_sympy_over_gaussian_rationals(g, a, b, root, v, extra):
    """gcd, division, deflation, series division and the Q(i) roots of
    Z[i]-numerator values equal sympy's results over QQ<I>."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(re, p.den) + sympy.I * sympy.Rational(im, p.den) for re, im in p.num[::-1]]
                          or [0], t, domain="QQ_I")

    def number(z):
        return sympy.Rational(z.re) + sympy.I * sympy.Rational(z.im)

    ga, gb = unipoly.poly_mul(g, a), unipoly.poly_mul(g, b)
    assert to_sympy(unipoly.poly_gcd(ga, gb)) == to_sympy(ga).gcd(to_sympy(gb))
    if gb.num:
        quot, rem = unipoly.poly_divmod(ga, gb)
        assert (to_sympy(quot), to_sympy(rem)) == to_sympy(ga).div(to_sympy(gb))
    lin = _g(-root, 1)
    assert unipoly.deflate(unipoly.poly_mul(g, lin), root) == g
    # t^v g / (t^v (1 + t b)), both known to t^4
    shift, order = _g(*[0] * v, 1), 4
    num = unipoly.series_mul(shift, g, order)
    den = unipoly.series_mul(shift, unipoly.poly_add(_g(1), unipoly.poly_mul(_g(0, 1), b)), order)
    q = unipoly.series_divide(num, den, order)
    assert unipoly.degree(q) <= order - v
    rest = (to_sympy(num) - to_sympy(q) * to_sympy(den)).all_coeffs()[::-1]
    assert all(c == 0 for c in rest[: order + 1])
    # roots: g's leading coefficient times (t - root)^2 (t - 1/2) and an extra factor
    p = unipoly.poly_mul(unipoly.poly_mul(unipoly.poly_mul(lin, lin), _g(Fraction(-1, 2), 1)),
                         unipoly.poly_mul(_g(*extra), _g(coeffs(g)[-1])))
    res = unipoly.gaussian_rational_roots(p)
    found = sympy.Poly(1, t, domain="QQ_I")
    for r in res.roots:
        found *= sympy.Poly(t - number(r), t, domain="QQ_I")
    assert to_sympy(p) == found * (to_sympy(res.residual) if res.residual else to_sympy(_g(coeffs(p)[-1])))
    if res.exhaustive and res.residual is not None:
        assert all(f.degree() > 1 for f, _ in to_sympy(res.residual).factor_list()[1])


@given(st.lists(_HUGE_COEFF | _MIXED_ROOT, min_size=1, max_size=6).filter(lambda cs: not cs[-1].is_zero()))
@example([GaussRat(Fraction(1, 3)), GaussRat(Fraction(1, 2), Fraction(5, 6)), GaussRat(Fraction(2**65 - 1, 2**33 + 3))])
@settings(max_examples=60, deadline=None)
def test_float_shadows_are_the_gaussrat_floats_bit_for_bit(cs):
    """Each Horner coefficient of `Poly`, re/den and im/den of the shared
    denominator, is `GaussRat.to_complex` of its coefficient bit for bit:
    int true division rounds correctly, and both are the same rational.
    So `Indeterminate.approx` is numpy's roots of the same array."""
    import numpy as np

    from foliationlab.exprtree import Poly

    def bits(zs):
        return [(z.real.hex(), z.imag.hex()) for z in zs]

    want = [c.to_complex() for c in reversed(cs)]
    assert bits(Poly(cs).horner) == bits(want)
    got = linalg.Indeterminate(_g(*cs)).approx
    assert bits(got) == bits(complex(z) for z in np.roots(np.array(want, dtype=complex)))
