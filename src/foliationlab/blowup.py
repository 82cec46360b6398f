"""Point blow-ups: charts, transforms, saturation, divisor tracking.

Chart j of the blow-up at the origin keeps the ambient variable names and
reinterprets position j as the exceptional coordinate u, every other
position i as the direction coordinate w_i:

    z_j = u,    z_i = u * w_i   (i != j).

Pulling a vector field back produces components with a common power u^s;
the saturation exponent s is the twist recording whether the tangent
bundle of the induced foliation equals the pullback bundle (s = 0) or
fails by s * E.

`blow_up` is one point blow-up: the saturated transform of every chart
with its singular points on E, each fact of the center computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .gaussrat import GaussRat
from .mvpoly import MVPoly, chart_exponent, chart_one_form, chart_transform, shift_var
from .foliation import (
    FoliationError,
    LogDivisor,
    VectorFieldGerm,
    divisor_invariance_check,
    exceptional_tag,
    is_singular_at_origin,
)
from . import linalg, unipoly


class InternalError(Exception):
    """A certified-impossible condition fired; indicates a bug, not bad input."""


def check_chart(n: int, j: int) -> None:
    """Raise FoliationError unless j indexes a chart of the point blow-up in
    dimension n."""
    if n < 2:
        raise FoliationError("blow-up needs ambient dimension >= 2")
    if not 0 <= j < n:
        raise FoliationError("chart index out of range")


@dataclass(frozen=True)
class SaturatedTransform:
    chart: int
    saturation_exponent: int
    saturated_field: VectorFieldGerm
    divisor: LogDivisor

    @property
    def raw_field(self) -> VectorFieldGerm:
        """The pushforward before saturation: the saturated field times u^s."""
        f = self.saturated_field
        return VectorFieldGerm(f.variables, [shift_var(c, self.chart, self.saturation_exponent) for c in f.components])

    @property
    def exceptional_invariant(self) -> bool:
        """E is invariant exactly when it joins the divisor."""
        return self.chart in self.divisor.axes

    def to_jsonable(self):
        return {
            "chart": self.chart + 1,
            "saturation_exponent": self.saturation_exponent,
            "saturated_field": self.saturated_field.to_text(),
            "divisor": self.divisor.to_jsonable(),
            "exceptional_invariant": self.exceptional_invariant,
        }


def transform_vector_field(
    v: VectorFieldGerm,
    j: int,
    divisor: LogDivisor | None = None,
    level: int = 1,
) -> SaturatedTransform:
    """Pushforward of v to chart j of the blow-up, saturated.

    The pole-cleared components are P_j = u * (a_j o sigma) and
    P_i = a_i o sigma - w_i * (a_j o sigma); the saturated field divides
    out their common power of u, and s is that power less the one u of the
    actual pushforward at a singular center.  The numerator kernel is
    `mvpoly.chart_transform`."""
    check_chart(v.dim(), j)
    s, saturated = chart_transform(v.components, j)
    if s == math.inf:
        raise FoliationError("cannot blow up the zero field")
    saturated = VectorFieldGerm(v.variables, saturated)
    axes = {}
    if divisor is not None:
        for a in divisor.axes:
            if a != j:
                axes[a] = divisor.history[a]
    if divisor_invariance_check(saturated, [j]):
        axes[j] = exceptional_tag(level)
    return SaturatedTransform(chart=j, saturation_exponent=s, saturated_field=saturated,
                              divisor=LogDivisor(axes.keys(), axes))


@dataclass(frozen=True)
class OneFormPullback:
    """pi* of sum b_i dz_i in the log basis (dlog u, dw_i), after dividing
    the certified common factor u out of every coefficient."""

    chart: int
    dlog_coeff: MVPoly
    dw_coeffs: dict[int, MVPoly]
    certified: bool


def pullback_one_form(b: Sequence[MVPoly], j: int) -> OneFormPullback:
    """Express pi*(sum b_i dz_i) on chart j in the basis (dlog u, dw_i) and
    certify divisibility of every coefficient by u (Siu containment).

    Since dz_j = u dlog u and dz_i = u dw_i + w_i u dlog u, u divides every
    coefficient by construction: `mvpoly.chart_one_form` builds them as
    exponent relabellings.  So the divisibility test guards the kernel's
    arithmetic, and its failing raises InternalError."""
    n = len(b)
    check_chart(n, j)
    variables = b[0].variables
    if len(variables) != n:
        raise ValueError("need %d coefficients" % len(variables))
    c_log, dw = chart_one_form(b, j)
    for name, coeff in [("dlog", c_log)] + [("dw%d" % i, q) for i, q in dw.items()]:
        if not coeff.divisible_by_var(j):
            raise InternalError("Siu divisibility failed for %s" % name)
    return OneFormPullback(chart=j, dlog_coeff=shift_var(c_log, j, -1),
                           dw_coeffs={i: shift_var(p, j, -1) for i, p in dw.items()}, certified=True)


def exceptional_multiplicity(p: MVPoly, chart_path: Sequence[int]) -> int:
    """Vanishing order of the full pullback of p along the exceptional
    divisor of the last blow-up in the chart path: the least exponent of
    the last chart's u over the exponents of p mapped along the path."""
    if p.is_zero():
        raise ValueError("zero polynomial has no exceptional multiplicity")
    if not chart_path:
        raise ValueError("empty chart path")
    for j in chart_path:
        check_chart(p.nvars(), j)
    *path, last = chart_path
    exps = list(p.num)
    for j in path:
        exps = [chart_exponent(e, j) for e in exps]
    return min(chart_exponent(e, last)[last] for e in exps)


# -- diophantine effectivity count ---------------------------------------------


def ceil_nth_root(k: int, n: int) -> int:
    """Smallest m with m^n >= k, by integer Newton steps down from 2^ceil(bits(k)/n), so k may pass any float."""
    if k <= 1:
        return k
    m = 1 << -(-k.bit_length() // n)
    while (step := ((n - 1) * m + k // m ** (n - 1)) // n) < m:
        m = step
    return m if m**n >= k else m + 1


@dataclass(frozen=True)
class SectionExists:
    count: int
    degree: int
    dimension_count: int
    constraints: int


@dataclass(frozen=True)
class NoSection:
    degree: int
    dimension_count: int
    constraints: int


def effectivity_count(n: int, k: int, alpha: int):
    """Riemann-Roch style count behind the effectivity of
    ceil(k^(1/n)) * alpha * H - k * E_k on the k-step tower over P^n.

    Sections of degree d = ceil(k^(1/n)) * alpha forms vanishing on the
    monomial ideal (z_1^k, z_2, .., z_n) exist as soon as the number of
    degree-<=d monomials exceeds the number killed by the ideal (the pure
    powers z_1^a with a < k, a <= d)."""
    if n < 1 or k < 1 or alpha < 1:
        raise FoliationError("n, k, alpha must be positive")
    d = ceil_nth_root(k, n) * alpha
    total = math.comb(d + n, n)
    constraints = min(k, d + 1)
    if total > constraints:
        return SectionExists(count=total - constraints, degree=d, dimension_count=total, constraints=constraints)
    return NoSection(degree=d, dimension_count=total, constraints=constraints)


# -- singular locus on the exceptional divisor -----------------------------------


@dataclass
class ELocus:
    """Singular points of a saturated transform on E = {u = 0} in one chart.

    `points` are chart coordinates (exceptional coordinate included, = 0).
    `cluster` is the monic residual (dim 2, chart 1) whose roots, none in
    Q(i), are the conjugate singular points an exhaustive root search left.
    `complete` records whether points + cluster provably exhaust the locus
    in the deduplicated chart slice."""

    points: list[tuple[GaussRat, ...]]
    cluster: unipoly.UPoly | None = None
    complete: bool = True
    non_isolated: bool = False
    notes: list[str] = field(default_factory=list)


def _eigendirection_loci(center: VectorFieldGerm) -> list[ELocus] | None:
    """Sing on E, chart by chart, of a multiplicity-one center in dim >= 3
    whose linear part A is not scalar: the eigendirections of A, from one
    eigenvalue computation; None for any other center.  Such a center has
    s = 0 in every chart: in chart j the u^1 coefficient of P_i is
    (A(e_j + w))_i - w_i * (A(e_j + w))_j, which vanishes for every i != j
    only if every e_j + w is an eigenvector, i.e. A = cI."""
    n = center.dim()
    if (n < 3 or min(c.vanishing_order() for c in center.components) != 1
            or linalg.is_scalar(linear := center.linear_part())):
        return None
    ev = linalg.eigenvalues_exact(linear)
    if isinstance(ev, linalg.Indeterminate):
        return [ELocus(points=[], complete=False,
                       notes=["eigenvalues outside Q(i); direction enumeration incomplete"]) for _ in range(n)]
    loci = [ELocus(points=[]) for _ in range(n)]
    for lam in dict.fromkeys(ev):
        basis = linalg.eigenspace(linear, lam)
        if len(basis) >= 2:
            return [ELocus(points=[], complete=False, non_isolated=True,
                           notes=["eigenspace of dimension >= 2: positive-dimensional eigendirection set"])
                    for _ in range(n)]
        e = basis[0]
        j = next(i for i in range(n) if not e[i].is_zero())  # the one chart that reports this direction
        scale = GaussRat(1) / e[j]
        loci[j].points.append(tuple(GaussRat(0) if i == j else e[i] * scale for i in range(n)))
    return loci


def blow_up(
    v: VectorFieldGerm,
    divisor: LogDivisor | None = None,
    level: int = 1,
) -> list[tuple[SaturatedTransform, ELocus]]:
    """One point blow-up of v at the origin: the saturated transform of
    every chart, each with its deduplicated singular points on E.  The
    eigendirections of the center are computed once for all charts."""
    sats = [transform_vector_field(v, j, divisor, level) for j in range(v.dim())]
    eigen = _eigendirection_loci(v)
    return [(sat, _locus_on_E(sat, eigen)) for sat in sats]


def exceptional_loci(v: VectorFieldGerm) -> list[ELocus]:
    """The loci of `blow_up(v)`, chart by chart: from the center's spectrum
    where it decides them, without the chart transforms."""
    return _eigendirection_loci(v) or [locus for _, locus in blow_up(v)]


def _locus_on_E(sat: SaturatedTransform, eigen: list[ELocus] | None) -> ELocus:
    """Sing(saturated field) on E in this chart, given the center's
    eigendirection loci (or None); they answer for every chart.

    Deduplication keeps only points whose direction coordinates vanish at
    every position before the chart index, so a point on E is reported by
    exactly one chart.  Exact in dimension 2 (irrational locations are
    returned as one conjugate cluster), and complete unless the root search
    stops at the divisor-norm cap; in higher dimension the
    enumeration is exact for multiplicity-one non-dicritical centers via
    eigendirections and for a restricted system of degree <= 1 (whose
    solution is zero at every index set to zero, so singular), and degrades
    to a documented incomplete probe otherwise.  In dim 2 some saturated
    component keeps a term free of u, so the two never both vanish on E."""
    j, f = sat.chart, sat.saturated_field
    n = f.dim()
    if n == 2:
        if j == 1:
            # chart 2 reports only w = 0, a root of gcd(a, b) iff a(0) = b(0) = 0
            origin = (GaussRat(0), GaussRat(0))
            return ELocus(points=[origin] if is_singular_at_origin(f) else [], complete=True)
        g = unipoly.poly_gcd(*(unipoly.from_mvpoly(c, 1 - j) for c in f.components))
        if unipoly.degree(g) <= 0:
            return ELocus(points=[], complete=True)
        res = unipoly.gaussian_rational_roots(g)
        # drop duplicate points, keep deterministic order
        points = sorted({(GaussRat(0), w0) for w0 in res.roots}, key=lambda q: (str(q[0]), str(q[1])))
        if not res.exhaustive:
            return ELocus(points=points, complete=False, notes=[
                "root search stopped at the divisor-norm cap %d; a residual of degree %d is not enumerated"
                % (unipoly.DIVISOR_NORM_CAP, unipoly.degree(res.residual))])
        cluster = None if res.split_completely() else unipoly.poly_monic(res.residual)
        return ELocus(points=points, cluster=cluster, complete=True)

    if eigen is not None:
        return eigen[j]

    # restricted system on E, with dedupe constraints
    zero_idx = [j] + [i for i in range(n) if i < j]
    restricted = [comp.set_vars_to_zero(zero_idx) for comp in f.components]
    if all(r.total_degree() <= 1 for r in restricted):
        keep = [i for i in range(n) if i not in zero_idx]
        units = [tuple(1 if t == i else 0 for t in range(n)) for i in keep]
        rows = tuple(tuple(r.coeff(e) for e in units) for r in restricted)
        sol = linalg.solve(rows, [-r.constant_term() for r in restricted])
        if sol is None:
            return ELocus(points=[], complete=True)
        if linalg.kernel_basis(rows):
            return ELocus(points=[], complete=False, non_isolated=True,
                          notes=["linear restricted system has positive-dimensional solution set"])
        pt = [GaussRat(0)] * n
        for pos, i in enumerate(keep):
            pt[i] = sol[pos]
        return ELocus(points=[tuple(pt)], complete=True)

    pts = [(GaussRat(0),) * n] if is_singular_at_origin(f) else []
    return ELocus(points=pts, complete=False,
                  notes=["dim >= 3 nonlinear restricted system: origin probe only"])
