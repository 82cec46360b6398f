"""Series, exact linear algebra, univariate roots, monomial ideals."""

import collections
import random
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliationlab.gaussrat import GaussRat
from foliationlab.mvpoly import MVPoly
from foliationlab.series import TruncatedSeries, poly_eval_series
from foliationlab import linalg, polygcd, unipoly
from foliationlab.monomial import (
    MonomialIdeal,
    multiplier_ideal_trivial_monomial,
    newton_interior_margin,
    simplex_min,
)


def test_series_arithmetic_and_truncation():
    t = TruncatedSeries.t(5)
    s = (1 + t) * (1 - t)
    assert s[0] == GaussRat(1) and s[2] == GaussRat(-1)
    short = TruncatedSeries([1, 1], 2)
    assert (s * short).order == 2


def test_series_division():
    t = TruncatedSeries.t(6)
    num = t * t * (1 + t)
    den = t
    q = num.divide(den)
    assert q.valuation() == 1 and q[1] == GaussRat(1) and q[2] == GaussRat(1)
    with pytest.raises(ValueError):
        den.divide(num)


@st.composite
def _divisions(draw):
    """(num, den) with val(den) = v <= val(num) and a quotient of order n."""
    gauss = st.builds(GaussRat, st.fractions(-3, 3, max_denominator=3), st.integers(-2, 2))
    v, n = draw(st.integers(0, 2)), draw(st.integers(0, 4))
    den_order, num_order = v + n + draw(st.integers(0, 1)), v + n + draw(st.integers(0, 1))
    lead = draw(gauss.filter(lambda c: not c.is_zero()))
    den_rest = draw(st.lists(gauss, min_size=den_order - v, max_size=den_order - v))
    num_coeffs = [0] * draw(st.integers(v, v + 2)) + draw(st.lists(gauss, min_size=num_order + 1, max_size=num_order + 1))
    num, den = TruncatedSeries(num_coeffs, num_order), TruncatedSeries([0] * v + [lead] + den_rest, den_order)
    return num, den


@given(_divisions())
@example((TruncatedSeries([0, 1, GaussRat(0, 1), -2, 1, 3], 5), TruncatedSeries([0, 2, 1, -1, GaussRat(1, 1), 1], 5)))
@settings(max_examples=12, deadline=None)
def test_series_division_matches_sympy(case):
    sympy = pytest.importorskip("sympy")

    def to_sympy(z):
        return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator)

    num, den = case
    t = sympy.Symbol("t")
    q = num.divide(den)
    assert q.order == min(num.order, den.order) - den.valuation()
    ratio = sum(to_sympy(c) * t ** k for k, c in enumerate(num.coeffs)) / sum(
        to_sympy(c) * t ** k for k, c in enumerate(den.coeffs))
    want = sympy.expand(sympy.series(ratio, t, 0, q.order + 1).removeO())
    assert [sympy.expand(to_sympy(c) - want.coeff(t, k)) for k, c in enumerate(q.coeffs)] == [0] * (q.order + 1)


def test_poly_eval_series():
    vs = ("x", "y")
    p = MVPoly.var(vs, "x") * MVPoly.var(vs, "y") + MVPoly.const(vs, 3)
    t = TruncatedSeries.t(4)
    out = poly_eval_series(p, [t, t * t])
    assert out[0] == GaussRat(3) and out[3] == GaussRat(1)


def test_solve_and_kernel():
    m = linalg.mat([[1, 2], [2, 4]])
    assert linalg.solve(m, [GaussRat(1), GaussRat(2)]) is not None
    assert linalg.solve(m, [GaussRat(1), GaussRat(3)]) is None
    assert len(linalg.kernel_basis(m)) == 1
    assert linalg.rank(m) == 1
    assert linalg.det(m).is_zero()
    inv = linalg.inverse(linalg.mat([[1, 1], [0, 1]]))
    assert inv == linalg.mat([[1, -1], [0, 1]])


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
    prod = [GaussRat(1)]
    for lam in ev:
        prod = unipoly.poly_mul(prod, [-lam, GaussRat(1)])
    assert prod == unipoly.trim(cp)


def _square_matrices():
    coeff = st.builds(GaussRat, st.fractions(-9, 9, max_denominator=6), st.integers(-4, 4))
    return st.integers(2, 4).flatmap(
        lambda n: st.lists(st.lists(coeff, min_size=n, max_size=n), min_size=n, max_size=n)
    ).map(lambda rows: tuple(tuple(r) for r in rows))


@given(_square_matrices())
@settings(max_examples=40, deadline=None)
def test_char_poly_cayley_hamilton(m):
    n = len(m)
    cp = linalg.char_poly(m)
    assert len(cp) == n + 1 and cp[n] == 1
    total, power = linalg.mat_scale(linalg.identity(n), cp[0]), linalg.identity(n)
    for c in cp[1:]:
        power = linalg.mat_mul(power, m)
        total = tuple(tuple(x + c * y for x, y in zip(rt, rp)) for rt, rp in zip(total, power))
    assert all(x.is_zero() for row in total for x in row)


@given(_square_matrices())
@settings(max_examples=25, deadline=None)
def test_char_poly_matches_sympy(m):
    sympy = pytest.importorskip("sympy")

    def to_sympy(z):
        return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator)

    t = sympy.Symbol("t")
    want = sympy.Matrix([[to_sympy(x) for x in row] for row in m]).charpoly(t).all_coeffs()[::-1]
    assert len(want) == len(linalg.char_poly(m))
    for got, c in zip(linalg.char_poly(m), want):
        assert sympy.expand(to_sympy(got) - c) == 0


def test_eigenvalue_examples():
    assert sorted(str(e) for e in linalg.eigenvalues_exact(linalg.mat([[1, 0], [0, -1]]))) == ["-1", "1"]
    assert [str(e) for e in linalg.eigenvalues_exact(linalg.mat([[0, 1], [0, 0]]))] == ["0", "0"]
    ev = linalg.eigenvalues_exact(linalg.mat([[0, -1], [1, 0]]))
    assert {str(e) for e in ev} == {"i", "-i"}
    ind = linalg.eigenvalues_exact(linalg.mat([[0, 2], [1, 0]]))  # +-sqrt(2)
    assert isinstance(ind, linalg.Indeterminate)
    assert len(ind.approx) == 2


def test_root_multiplicity_and_real_roots():
    # (t-1)^2 (t+2)
    p = unipoly.poly_mul([GaussRat(-1), GaussRat(1)], [GaussRat(-1), GaussRat(1)])
    p = unipoly.poly_mul(p, [GaussRat(2), GaussRat(1)])
    assert unipoly.root_multiplicity(p, GaussRat(1)) == 2
    res = unipoly.gaussian_rational_roots(p)
    assert res.split_completely()
    assert sorted(str(r) for r in res.roots) == ["-2", "1", "1"]
    assert unipoly.real_rational_roots(p) == [Fraction(-2), Fraction(1)]
    assert unipoly.has_positive_rational_root(p)


def _from_roots(lead, roots, extra=(GaussRat(1),)):
    p = [GaussRat.coerce(lead)]
    for r in roots:
        p = unipoly.poly_mul(p, [-GaussRat.coerce(r), GaussRat(1)])
    return unipoly.poly_mul(p, list(extra))


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
    assert unipoly.has_positive_rational_root(p) == any(r > 0 for r in expected)


def test_gaussian_integer_root():
    # roots 1+i and 2
    p = unipoly.poly_mul([GaussRat(-1, -1), GaussRat(1)], [GaussRat(-2), GaussRat(1)])
    p = unipoly.poly_mul(p, [GaussRat(-3), GaussRat(0), GaussRat(0), GaussRat(1)])  # t^3-3 residual
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
    p = [GaussRat(a, b) for a, b in ints]
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
    want = sympy.roots(sum(to_sympy(c) * t ** k for k, c in enumerate(p)), t)
    res = unipoly.gaussian_rational_roots(p)
    got = collections.Counter(to_sympy(r) for r in res.roots)
    assert sum(want.values()) == len(p) - 1
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


@given(_biv, _biv, _biv)
@settings(max_examples=80, deadline=None)
def test_bivariate_gcd_matches_sympy(a, b, g):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def to_sympy(p):  # over sympy's Gaussian rationals QQ_I, i.e. Q(i)
        return sympy.Poly({e: sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for e, c in p.terms.items()},
                          x, y, domain="QQ_I")

    p, q = a * g, b * g
    if p.is_zero() and q.is_zero():
        return
    got = to_sympy(polygcd.bivariate_gcd(p, q))
    want = to_sympy(p).gcd(to_sympy(q))
    assert not got.is_zero
    assert got * want.LC() == want * got.LC()  # equal up to a constant factor
