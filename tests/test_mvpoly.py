import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliationlab.gaussrat import ONE, ZERO, GaussRat
from foliationlab.mvpoly import MVPoly, linear_part_matrix

from helpers import chart_images, chart_relabel, reference_evaluate

VARS = ("x", "y")


def small_polys(nvars=2, max_deg=3):
    exps = st.tuples(*(st.integers(0, max_deg) for _ in range(nvars))).filter(
        lambda e: sum(e) <= max_deg
    )
    coeff = st.builds(GaussRat, st.integers(-4, 4), st.integers(-2, 2))
    names = ("x", "y", "z", "w")[:nvars]
    return st.dictionaries(exps, coeff, max_size=4).map(lambda d: MVPoly(names, d))


def test_vanishing_order_examples():
    x, y = MVPoly.var(VARS, "x"), MVPoly.var(VARS, "y")
    assert (x**2 + y**3).vanishing_order() == 2
    assert MVPoly.zero(VARS).vanishing_order() == math.inf
    assert (x * y + x**4).vanishing_order() == 2


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_vanishing_order_multiplicative(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).vanishing_order() == math.inf
    else:
        assert (p * q).vanishing_order() == p.vanishing_order() + q.vanishing_order()


@given(small_polys(), small_polys())
@settings(max_examples=40, deadline=None)
def test_substitution_is_ring_homomorphism(p, q):
    x, y = MVPoly.var(VARS, "x"), MVPoly.var(VARS, "y")
    images = [x + y, x * y + MVPoly.const(VARS, 1)]
    assert (p + q).subs(images) == p.subs(images) + q.subs(images)
    assert (p * q).subs(images) == p.subs(images) * q.subs(images)


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_translate_round_trip(p):
    pt = [GaussRat(1, 1), GaussRat(-2)]
    back = p.translate(pt).translate([-c for c in pt])
    assert back == p


def test_monomial_substitution_matches_general():
    x, y = MVPoly.var(VARS, "x"), MVPoly.var(VARS, "y")
    p = x**2 + 2 * x * y - y**3
    # blow-up chart substitution x -> x, y -> x*y
    assert chart_relabel(p, 0) == p.subs([x, x * y]) == p.subs(chart_images(VARS, 0))


def test_divide_by_var_power():
    x, y = MVPoly.var(VARS, "x"), MVPoly.var(VARS, "y")
    p = x * (x + y) * (x + y)
    assert p.divisible_by_var(0)
    assert p.divide_by_var_power(0, 1) * x == p


def test_linear_part():
    x, y = MVPoly.var(VARS, "x"), MVPoly.var(VARS, "y")
    m = linear_part_matrix([y + x**2, 2 * x - y])
    assert m == ((GaussRat(0), GaussRat(1)), (GaussRat(2), GaussRat(-1)))


# -- oracle: a plain dict exponent -> nonzero GaussRat ---------------------------

BIG = 2**70
INTS = st.one_of(st.integers(-6, 6), st.integers(-BIG, BIG))
DENS = st.one_of(st.integers(1, 12), st.sampled_from([2**64 + 13, 3**41]))
COEFFS = st.builds(lambda a, b, d, e: GaussRat(Fraction(a, d), Fraction(b, e)), INTS, INTS, DENS, DENS)
EXPS = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) <= 3)
REFS = st.dictionaries(EXPS, COEFFS, max_size=4).map(lambda d: {e: c for e, c in d.items() if c})


def ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, ZERO) + c * sign
    return {e: c for e, c in out.items() if c}


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_subs(p, images):
    out = {}
    for e, c in p.items():
        term = {(0, 0): c}
        for image, k in zip(images, e):
            for _ in range(k):
                term = ref_mul(term, image)
        out = ref_add(out, term)
    return out


def ref_to_string(p, variables=VARS):
    """MVPoly's text format, computed from the GaussRat terms."""
    if not p:
        return "0"
    parts = []
    for exp, c in sorted(p.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        cs = str(c)
        if ("+" in cs[1:]) or ("-" in cs[1:]) or ("i" in cs and cs not in ("i", "-i")):
            cs = "(%s)" % cs
        factors = [name if e == 1 else "%s^%d" % (name, e) for name, e in zip(variables, exp) if e]
        if not factors:
            parts.append(cs)
        elif cs == "1":
            parts.append("*".join(factors))
        elif cs == "-1":
            parts.append("-" + "*".join(factors))
        else:
            parts.append(cs + "*" + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


def check(p: MVPoly, ref: dict):
    """p is canonical and has the terms of ref."""
    assert p.den > 0 and all(re or im for re, im in p.num.values())
    assert math.gcd(p.den, *(x for pair in p.num.values() for x in pair)) == 1
    assert dict(p.sorted_terms()) == ref
    assert p.to_string() == ref_to_string(ref)


@given(REFS, REFS, COEFFS, st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_ring_operations_match_oracle(rp, rq, c, k):
    p, q = MVPoly(VARS, rp), MVPoly(VARS, rq)
    check(p, rp)
    check(p + q, ref_add(rp, rq))
    check(p - q, ref_add(rp, rq, -1))
    check(-p, ref_add({}, rp, -1))
    check(p * q, ref_mul(rp, rq))
    check(p * c, {e: x * c for e, x in rp.items() if x * c})
    check(p + c, ref_add(rp, {(0, 0): c} if c else {}))
    power = {(0, 0): ONE}
    for _ in range(k):
        power = ref_mul(power, rp)
    check(p**k, power)
    for e in list(rp) + [(3, 0)]:
        assert p.coeff(e) == rp.get(e, ZERO)
    assert p.constant_term() == rp.get((0, 0), ZERO)


# images of at most one term, zero included
SINGLES = st.one_of(st.just({}), st.builds(lambda e, c: {e: c} if c else {}, EXPS, COEFFS))
HALF_THIRD = GaussRat(Fraction(1, 2), Fraction(-1, 3))


@given(REFS, REFS, REFS, COEFFS, COEFFS, SINGLES, SINGLES, st.booleans())
@settings(max_examples=60, deadline=None)
@example({(1, 0): ONE, (0, 1): -ONE, (2, 0): HALF_THIRD}, {}, {}, ONE, ONE,
         {(1, 1): HALF_THIRD}, {(1, 1): HALF_THIRD}, False)  # x - y merges into 0
@example({(2, 1): HALF_THIRD, (0, 3): ONE}, {}, {}, ONE, ONE,
         {(0, 2): GaussRat(Fraction(2, 7), Fraction(1, 5))}, {(1, 0): GaussRat(0, Fraction(5, 9))}, False)
def test_substitutions_match_oracle(rp, ra, rb, u, w, sa, sb, same_monomial):
    p = MVPoly(VARS, rp)
    check(p.subs([MVPoly(VARS, ra), MVPoly(VARS, rb)]), ref_subs(rp, [ra, rb]))
    if same_monomial and sa and sb:  # both variables to one monomial: terms merge
        sb = {e: c for e in sa for c in sb.values()}
    check(p.subs([MVPoly(VARS, sa), MVPoly(VARS, sb)]), ref_subs(rp, [sa, sb]))
    check(p.subs([MVPoly(VARS, sa), MVPoly(VARS, rb)]), ref_subs(rp, [sa, rb]))
    check(p.translate([u, w]), ref_subs(rp, [{(1, 0): ONE, (0, 0): u}, {(0, 1): ONE, (0, 0): w}]))
    # chart 0 of the blow-up: x -> x, y -> x*y
    check(chart_relabel(p, 0), ref_subs(rp, [{(1, 0): ONE}, {(1, 1): ONE}]))
    for i in (0, 1):
        unit = tuple(int(j == i) for j in range(2))
        check(p.derivative(i), {tuple(a - b for a, b in zip(e, unit)): c * e[i] for e, c in rp.items() if e[i]})
        check(p.set_vars_to_zero([i]), {e: c for e, c in rp.items() if not e[i]})
        shifted = MVPoly(VARS, {tuple(a + 2 * b for a, b in zip(e, unit)): c for e, c in rp.items()})
        check(shifted.divide_by_var_power(i, 2), rp)


@given(REFS, REFS, COEFFS)
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_unique(rp, rq, c):
    p, q = MVPoly(VARS, rp), MVPoly(VARS, rq)
    routes = [(p + q) - q, p * 1, MVPoly(VARS, dict(p.sorted_terms())), p.translate([c, ONE]).translate([-c, -ONE])]
    if c:
        routes.append(p * c * (ONE / c))
    routes.append((p * q + p).subs([MVPoly.var(VARS, "x"), MVPoly.var(VARS, "y")]) - p * q)
    for r in routes:
        assert r == p and r.den == p.den and r.num == p.num and hash(r) == hash(p)


@given(REFS, REFS, COEFFS)
@settings(max_examples=40, deadline=None)
def test_operations_leave_operands_unchanged(rp, rq, c):
    p, q = MVPoly(VARS, rp), MVPoly(VARS, rq)
    before = [(dict(x.num), x.den) for x in (p, q)]
    for _ in (p + q, p - q, p * q, p * c, p**2, p.subs([q, p]), p.translate([c, c]), p.derivative(0),
              p.set_vars_to_zero([1]), -p):
        pass
    assert [(dict(x.num), x.den) for x in (p, q)] == before
    for name in ("variables", "num", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)


def test_equal_scalars_hash_equal():
    half = Fraction(1, 2)
    assert GaussRat(3) in {3} and 3 in {GaussRat(3)}
    assert GaussRat(half) in {half} and GaussRat(Fraction(-7, 3)) in {Fraction(-7, 3)}
    assert GaussRat(half, 1) not in {half}
    const = MVPoly.const(VARS, 3)
    assert hash(const) == hash(3) == hash(GaussRat(3)) and const in {3} and GaussRat(3) in {const}
    assert MVPoly.zero(VARS) in {0} and MVPoly.const(VARS, GaussRat(half, -1)) in {GaussRat(half, -1)}


@given(st.one_of(st.integers(-BIG, BIG).map(Fraction), st.builds(Fraction, INTS, DENS),
                 COEFFS.map(lambda c: GaussRat(c.re)), COEFFS))
@settings(max_examples=150, deadline=None)
def test_equal_values_hash_equal(q):
    """x == y implies hash(x) == hash(y) over ints, Fractions, GaussRats and
    constant MVPolys (in two variable sets) of one value."""
    z = GaussRat.coerce(q)
    forms = [z, MVPoly.const(VARS, z), MVPoly.const(("z",), z)]
    if not z.im:
        forms.append(z.re)
        if z.re.denominator == 1:
            forms.append(int(z.re))
    assert all(f == z and z == f for f in forms)
    for a in forms:
        for b in forms:
            if a == b:
                assert hash(a) == hash(b)


POINTS = st.lists(st.one_of(st.just(0), st.just(ZERO), COEFFS), min_size=2, max_size=2)


@given(REFS, POINTS)
@example({}, [ZERO, GaussRat(Fraction(1, 3))])
@example({(0, 0): GaussRat(Fraction(2, 3), 1), (2, 1): GaussRat(-1)}, [ZERO, GaussRat(Fraction(1, 2), Fraction(1, 5))])
def test_evaluate_on_the_numerators(ref, point):
    """p(point) over the cleared point denominators equals the constant
    term of p translated to the point and the term-by-term GaussRat sum;
    zero coordinates and the zero polynomial included."""
    p = MVPoly(VARS, ref)
    value = p.evaluate(point)
    assert value == p.translate(point).constant_term() == reference_evaluate(p, point)


def test_evaluate_refuses_a_point_of_the_wrong_length():
    x, y = MVPoly.var(VARS, "x"), MVPoly.var(VARS, "y")
    for p in (x + 1, x * y, MVPoly.zero(VARS)):
        for point in ([2], [1, 2, 3], []):
            with pytest.raises(ValueError, match="point dimension mismatch"):
                p.evaluate(point)
