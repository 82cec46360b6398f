"""Numeric verification of the Nevanlinna layer at finite radius.

Conventions, pinned by self-tests:

* Jensen identity (exact):  for Phi = log|P|^2 with zeros t_j of order
  nu_j,   2 * sum_{|t_j|<r} nu_j log(r / max(|t_j|, 1))
            = mean_{|t|=r} Phi - mean_{|t|=1} Phi,
  so each zero order carries point mass 2 in the squared-log convention.
* Characteristics are reported in "form units": T for the Fubini-Study
  form on each projective-line factor matches T(r) = log sqrt(1+r^2) -
  log sqrt(2) for f(t) = t.  The order-swapped radial formula
  T(r) = int_0^r q(rho) log(r/max(rho,1)) d rho is used throughout, with
  q(rho) the circle integral of the density.  It is integrated by adaptive
  Gauss-Kronrod 7/15 over the circle means (`characteristic_on_grid`).
  The error bound of T(r) adds the segments' Kronrod estimates, the circle
  bounds weighted like T, and a round-off floor.
* The First Main Theorem comparison smooths the ideal weight with
  delta = 1: psi = (1/2) log(1 + sum |g_i o f|^2).  Then T_psi - N - m is
  an exact constant in r, so a vanishing regression slope against log r is
  the finite-radius FMT statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .gaussrat import ZERO, GaussRat
from .mvpoly import MVPoly
from .foliation import FoliationError, VectorFieldGerm
from .exprtree import Exp, Expr, Poly, expr_from_mvpoly, order_at
from .quadrature import GK_NODES, GK_RULE, QuadConfig, circle_mean_arrays, nudge_radius

Zero = tuple[GaussRat, int]  # (location, multiplicity)
ROUNDOFF = 50.0 * np.finfo(float).eps  # relative round-off floor of a quadrature sum
ZERO_ORDER_CAP = 12  # largest order of a declared zero, read or stated
EUCLID_CUTOFF = 1e12  # cap of the Euclidean density and of each of its terms
FMT_SLOPE_TOL = 0.05  # largest |slope| of T - N - m against log r that passes FMT
TAUT_TOL = 1e-3  # normalized tautological trend below -TAUT_TOL is a violation
LOGDERIV_RESIDUAL_TOL = 1.0  # largest top-half fit residual that passes the lemma
BOOKKEEPING_MAX_ORDER = 16  # working order of the bookkeeping's vanishing orders


class NotALeaf(Exception):
    pass


def _zero_abs(t0: GaussRat) -> float:
    return math.sqrt(float(t0.abs2()))


def _nudged(r_grid: Sequence[float], zeros: Sequence[Zero]) -> tuple[list[float], list[float]]:
    """The grid with each radius shifted off the zero moduli, and the moduli."""
    moduli = [_zero_abs(z) for z, _ in zeros]
    return [nudge_radius(float(r), moduli) for r in r_grid], moduli


def _checked_zeros(name: str, exprs: Sequence[Expr] | None, zeros) -> list[Zero]:
    """Zeros (location, order or None) of target `name`, which vanishes to
    the least order of `exprs` (None where they are not known).  One rule
    reads every order, `order_at` up to ZERO_ORDER_CAP (exact at every t0): an
    omitted order is the one it reads, and a stated one, 1 to the cap,
    must equal it."""
    out = []
    for (t0, mult) in zeros:
        z = t0.to_complex()
        if mult is not None and mult < 1:
            raise FoliationError("declared zero of %s at %s has order %d; a zero has order >= 1" % (name, z, mult))
        if mult is not None and mult > ZERO_ORDER_CAP:
            raise FoliationError("declared zero of %s at %s has order %d, past the cap of %d on zero orders"
                                 % (name, z, mult, ZERO_ORDER_CAP))
        if exprs is not None:
            got = min((order_at(e, t0, ZERO_ORDER_CAP) for e in exprs), default=math.inf)
            if mult is not None and got != mult:
                raise FoliationError("declared zero of %s at %s has order %s, not %d" % (name, z, got, mult))
            if got == 0:
                raise FoliationError("declared zero of %s at %s does not vanish" % (name, z))
            if got == math.inf:
                raise FoliationError("declared zero of %s at %s has order past %d or vanishes identically"
                                     % (name, z, ZERO_ORDER_CAP))
            mult = got
        elif mult is None:
            raise FoliationError("zero order required for target %r" % name)
        out.append((t0, mult))
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x), stable for large |x|."""
    out = np.where(x > 36.0, x, np.log1p(np.exp(np.minimum(x, 36.0))))
    return np.where(x < -36.0, np.exp(np.clip(x, -700.0, -36.0)), out)


def _logsumexp(rows: list[np.ndarray]) -> np.ndarray:
    m = rows[0]
    for r in rows[1:]:
        m = np.maximum(m, r)
    safe = np.where(np.isneginf(m), 0.0, m)
    s = np.zeros_like(safe)
    for r in rows:
        s = s + np.exp(r - safe)
    with np.errstate(divide="ignore"):
        out = safe + np.log(s)
    return np.where(np.isneginf(m), -np.inf, out)


# ---------------------------------------------------------------------------
# curves


@dataclass
class ParametrizedCurve:
    """Entire curve components as expression trees, with declared zero data.

    declared_zeros maps a target name to (location, order or None) pairs,
    resolved and checked at construction: "f<k>" (1 <= k <= n) reads
    component k, "fprime" the components of f' that are not identically 0,
    "ideal" the ideal's generators, which fmt_verify holds and checks."""

    components: tuple[Expr, ...]
    declared_zeros: dict[str, list[Zero]] = field(default_factory=dict)

    def __post_init__(self):
        self.components = tuple(self.components)
        resolved = {}
        for name, zeros in self.declared_zeros.items():
            if name == "fprime":
                exprs = [d for d in self.derivative_exprs() if not (isinstance(d, Poly) and not d.coeffs.num)]
            elif name == "ideal":
                exprs = None
            elif name in ["f%d" % (k + 1) for k in range(self.dim())]:
                exprs = [self.components[int(name[1:]) - 1]]
            else:
                raise FoliationError("unknown zero target %r: the curve has %d component(s)" % (name, self.dim()))
            resolved[name] = _checked_zeros(name, exprs, zeros)
        self.declared_zeros = resolved

    def dim(self) -> int:
        return len(self.components)

    def is_algebraic(self) -> bool:
        """Polynomial components factor through a rational curve."""
        return all(isinstance(c, Poly) for c in self.components)

    def derivative_exprs(self) -> tuple[Expr, ...]:
        return tuple(c.diff() for c in self.components)

    def zeros_for(self, name: str) -> list[Zero]:
        return list(self.declared_zeros.get(name, []))


@dataclass
class NevanlinnaProfile:
    r_grid: list[float]
    T: list[float]
    N: list[float] | None
    m: list[float] | None
    bounds: list[float]
    diverged: list[bool]

    def csv_rows(self) -> list[list]:
        rows = [["r", "T", "N", "m", "error_bound"]]
        for i, r in enumerate(self.r_grid):
            rows.append([
                r, self.T[i],
                self.N[i] if self.N else "",
                self.m[i] if self.m else "",
                self.bounds[i],
            ])
        return rows

    def to_jsonable(self):
        return {
            "r": self.r_grid,
            "T": self.T,
            "N": self.N,
            "m": self.m,
            "error_bounds": self.bounds,
            "diverged": self.diverged,
        }


# ---------------------------------------------------------------------------
# densities (all in form units: FS on P^1 integrates to 1)


def _fs_term_log(g: Expr, gp: Expr, t: np.ndarray) -> np.ndarray:
    """|g'|^2 / (1 + |g|^2)^2 in the log domain, safe for any magnitude."""
    expo = gp.logabs2(t) - 2.0 * _softplus(g.logabs2(t))
    return np.exp(np.maximum(expo, -745.0))


def _fs_term_poly(g: Poly, gp: Poly, t: np.ndarray) -> np.ndarray:
    """|g'|^2 / (1 + |g|^2)^2 evaluated directly, falling back to the log
    domain where a square overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflows go to the log domain
        den = (1.0 + np.abs(g.eval_plain(t)) ** 2) ** 2
        out = np.abs(gp.eval_plain(t)) ** 2 / den
    bad = ~np.isfinite(den) | ~np.isfinite(out)
    if bad.any():
        out[bad] = _fs_term_log(g, gp, t[bad])
    return out


def _fs_term_exp(g: Exp, ap: Poly, t: np.ndarray) -> np.ndarray:
    """|g'|^2 / (1 + |g|^2)^2 for g = e^A, in closed form |A'|^2 / (4 cosh^2 Re A)."""
    with np.errstate(over="ignore"):  # a cosh past the float range makes the term exactly 0
        return (np.abs(ap.eval_plain(t)) / (2.0 * np.cosh(np.real(g.arg.eval_plain(t))))) ** 2


def fs_sum_density(components: Sequence[Expr]) -> Callable[[np.ndarray], np.ndarray]:
    """Sum of the Fubini-Study pullback densities of the components.
    Polynomial components are evaluated directly, a bare exp(A) in the
    closed form |A'|^2 / (4 cosh^2 Re A), and every other kind (products,
    sums, powers, c * exp(A)) in the log domain."""
    terms = [(_fs_term_poly, c, c.diff()) if isinstance(c, Poly) else
             (_fs_term_exp, c, c.arg.diff()) if isinstance(c, Exp) else
             (_fs_term_log, c, c.diff()) for c in components]

    def dens(t: np.ndarray) -> np.ndarray:
        total = np.zeros(t.shape, dtype=float)
        for term, g, gp in terms:
            total += term(g, gp, t)
        return total / math.pi

    return dens


def euclidean_density(components: Sequence[Expr]) -> Callable[[np.ndarray], np.ndarray]:
    derivs = [c.diff() for c in components]

    def dens(t: np.ndarray) -> np.ndarray:
        total = np.zeros(t.shape, dtype=float)
        for gp in derivs:
            lap = gp.logabs2(t)
            total = total + np.exp(np.minimum(lap, math.log(EUCLID_CUTOFF)))
        return np.minimum(total, EUCLID_CUTOFF) / math.pi

    return dens


def direction_map_density(gens_on_curve: Sequence[Expr]) -> Callable[[np.ndarray], np.ndarray]:
    """Fubini-Study pullback density of the projectivized map
    t -> [G_1 : ... : G_k], by Lagrange's identity
    sum_{i<j} |G_i G_j' - G_j G_i'|^2 / (sum_i |G_i|^2)^2 / pi, in the log
    domain: no cancellation where G' is parallel to G, and smooth across
    common zeros of the G_i (the map extends).  Identically zero for a
    single generator."""
    gs = list(gens_on_curve)
    wronskians = [gs[i] * gs[j].diff() - gs[j] * gs[i].diff()
                  for i in range(len(gs)) for j in range(i + 1, len(gs))]

    def dens(t: np.ndarray) -> np.ndarray:
        if not wronskians:
            return np.zeros(t.shape)
        log_q = _logsumexp([g.logabs2(t) for g in gs])
        with np.errstate(invalid="ignore"):  # -inf - -inf where every G_i is 0
            out = np.exp(_logsumexp([w.logabs2(t) for w in wronskians]) - 2.0 * log_q) / math.pi
        return np.where(np.isneginf(log_q), 0.0, out)

    return dens


# ---------------------------------------------------------------------------
# characteristic on a grid


def characteristic_on_grid(density, r_grid: Sequence[float], cfg: QuadConfig,
                           zero_moduli: Sequence[float] = ()) -> tuple[list[float], list[float], list[bool]]:
    """T(r) = int_0^r q(rho) log(r/max(rho,1)) d rho for every r at once,
    with q(rho) = 2 pi rho * (mean of density over |t| = rho).  The density
    must be nonnegative (every pullback density here is), so q is its own
    magnitude.

    Adaptive Gauss-Kronrod 7/15 on segments between the breakpoints
    {0, 1, the octaves 2^k, r_grid, zero moduli below max r_grid}; the nodes
    are interior, so no circle passes through a declared zero.  Each
    segment carries I0 = int q and I1 = int q log max(rho, 1), and
    T(r) = log r * sum I0 - sum I1 over the segments inside [0, r].  Each
    round evaluates the circles of every open segment in one batched call,
    then bisects the segments with the largest K - G (the most any radius
    sees) until the rest sum to at most tol * max(1, |T(max r)|) or to the
    round-off floor, or until the total evaluations pass cfg.budget.

    The error bound of T(r) is the sum over its segments of |K - G|, plus
    the circle-mean bounds weighted by log(r / max(rho, 1)), plus a
    round-off floor of 50 eps times the sum of the magnitudes added up.  A
    radius is diverged when a circle below it did not converge, the budget
    cut the refinement short, or its bound exceeds 1e-3 * max(1, |T(r)|).
    Returns (T, bounds, diverged)."""
    radii = np.asarray([float(r) for r in r_grid])
    r_max = radii.max()
    # a segment's (I0, I1) row times (log r, -1) is its part of T(r); times
    # (|log r|, 1) it is the magnitude of what T(r) adds up
    weights = np.vstack([np.log(radii), -np.ones(radii.size)])
    last = weights[:, radii.argmax()]  # the largest radius sees every segment
    # octaves, so that no segment is so long that its rule sees only the tail of q
    octaves = [math.ldexp(1.0, k) for k in range(1, math.frexp(r_max)[1])]
    breaks = np.array(sorted({0.0, *(x for x in (1.0, *octaves, *radii, *zero_moduli) if 0.0 < x <= r_max)}))
    lo, hi = breaks[:-1], breaks[1:]
    # per evaluated segment (they come first), the rule's (K, K - G) of q,
    # q lg, qb and qb lg, and whether all its circles converged
    seg, ok = np.zeros((0, 4, 2)), np.zeros(0, dtype=bool)
    evals = 0
    while True:
        done = seg.shape[0]
        half = 0.5 * (hi[done:] - lo[done:])
        rho = (lo[done:] + half)[:, None] + half[:, None] * GK_NODES
        mean, bound, counts, converged = circle_mean_arrays(density, rho, cfg)
        evals += int(counts.sum())
        with np.errstate(over="ignore", invalid="ignore"):  # radii past the float range read diverged
            scale = 2.0 * math.pi * half[:, None] * rho
            q, qb = scale * mean.reshape(rho.shape), scale * bound.reshape(rho.shape)
        lg = np.log(np.maximum(rho, 1.0))
        with np.errstate(invalid="ignore"):  # infinite circle bounds give nan, read as inf below
            f = np.stack([q, q * lg, qb, qb * lg], axis=1)
            seg = np.concatenate([seg, f @ GK_RULE])
        ok = np.concatenate([ok, converged.reshape(rho.shape).all(axis=1)])
        # (I0, I1) rows: Kronrod values (q >= 0: also their magnitudes), their K - G, circle bounds
        kron, est, circ = seg[:, 0:2, 0], seg[:, 0:2, 1], seg[:, 2:4, 0]
        inside = hi[:, None] <= radii
        # each segment's K - G at the radius that sees the most of it
        errs = np.where(inside, np.abs(est @ weights), 0.0).max(axis=1)
        target = max(cfg.tol * max(1.0, abs(kron.sum(axis=0) @ last)),
                     ROUNDOFF * (kron.sum(axis=0) @ np.abs(last)))
        if errs.sum() <= target or evals > cfg.budget:
            break
        order = np.argsort(-errs)
        rest = errs.sum() - np.cumsum(errs[order])
        split = order[:int(np.argmax(rest <= target)) + 1]
        split = split[hi[split] - lo[split] > 1e-9 * np.maximum(1.0, hi[split])]  # else floats end it
        if not split.size:
            break
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        seg, ok = seg[keep], ok[keep]

    def total(per_segment):
        return np.where(inside, per_segment, 0.0).sum(axis=0)

    T = total(kron @ weights)
    with np.errstate(invalid="ignore"):
        circle = np.nan_to_num(np.abs(circ @ weights), nan=math.inf)
    bounds = total(np.abs(est @ weights)) + total(circle) + ROUNDOFF * total(kron @ np.abs(weights))
    diverged = ((inside & ~ok[:, None]).any(axis=0) | (evals > cfg.budget)
                | (bounds > 1e-3 * np.maximum(1.0, np.abs(T))))
    return T.tolist(), bounds.tolist(), diverged.tolist()


# ---------------------------------------------------------------------------
# spec operations


def counting_function(zeros: Sequence[Zero], r: float) -> float:
    """N(r) = sum nu_j log(r/|t_j|) over |t_j| < r, with the annulus
    convention nu log r for zeros at the origin."""
    if r < 1.0:
        raise FoliationError("counting function needs r >= 1")
    total = 0.0
    for (t0, mult) in zeros:
        a = _zero_abs(t0)
        if a < r:
            total += mult * (math.log(r) if a == 0.0 else math.log(r / a))
    return total


def _annulus_counting(zeros: Sequence[Zero], r: float) -> float:
    """sum nu_j log(r / max(|t_j|, 1)): the exact Jensen mass between the
    unit circle and radius r."""
    total = 0.0
    for (t0, mult) in zeros:
        a = _zero_abs(t0)
        if a < r:
            total += mult * math.log(r / max(a, 1.0))
    return total


@dataclass
class JensenReport:
    r: float
    residual: float
    quadrature_bound: float
    counting_term: float
    average_r: float
    average_1: float
    unit_disk_correction: float

    def to_jsonable(self):
        return self.__dict__.copy()


def jensen_verify(p: Expr, zeros: Sequence[Zero], r_grid: Sequence[float],
                  cfg: QuadConfig | None = None) -> list[JensenReport]:
    """Residual of the exact Jensen identity for log|P|^2, one report per
    radius; the unit circle and every radius are integrated in one call.

    The declared zeros must exhaust the zeros of P in |t| < max r_grid."""
    cfg = cfg or QuadConfig()
    grid, moduli = _nudged(r_grid, zeros)
    mean, bound, _, _ = circle_mean_arrays(p.logabs2, [nudge_radius(1.0, moduli), *grid], cfg)
    (avg_1, *avgs), (bound_1, *bounds) = mean.tolist(), bound.tolist()
    reports = []
    for r, avg_r, bound_r in zip(grid, avgs, bounds):
        counting = counting_function(zeros, r)
        annulus = _annulus_counting(zeros, r)
        reports.append(JensenReport(
            r=r, residual=abs(2.0 * annulus - avg_r + avg_1), quadrature_bound=bound_r + bound_1,
            counting_term=counting, average_r=avg_r, average_1=avg_1, unit_disk_correction=counting - annulus,
        ))
    return reports


def characteristic_T(curve: ParametrizedCurve, form: str, r_grid: Sequence[float],
                     cfg: QuadConfig | None = None) -> NevanlinnaProfile:
    """Growth characteristic for the built-in positive forms."""
    cfg = cfg or QuadConfig()
    if form == "fs":
        dens = fs_sum_density(curve.components)
    elif form == "euclid":
        dens = euclidean_density(curve.components)
    else:
        raise ValueError("unknown form %r (use 'fs' or 'euclid')" % form)
    moduli = [_zero_abs(z) for zeros in curve.declared_zeros.values() for z, _ in zeros]
    T, bounds, diverged = characteristic_on_grid(dens, r_grid, cfg, moduli)
    return NevanlinnaProfile(list(map(float, r_grid)), T, None, None, bounds, diverged)


@dataclass
class FmtReport:
    profile: NevanlinnaProfile
    differences: list[float]
    slope_vs_log_r: float
    oscillation: float
    passed: bool

    def to_jsonable(self):
        return {
            "profile": self.profile.to_jsonable(),
            "differences": self.differences,
            "slope_vs_log_r": self.slope_vs_log_r,
            "oscillation_top_half": self.oscillation,
            "passed": self.passed,
        }


def _fit_slope(xs: list[float], ys: list[float]) -> float:
    a = np.vstack([np.asarray(xs), np.ones(len(xs))]).T
    sol, *_ = np.linalg.lstsq(a, np.asarray(ys), rcond=None)
    return float(sol[0])


def fmt_verify(curve: ParametrizedCurve, ideal_gens: Sequence[MVPoly],
               ideal_zeros: Sequence[Zero], r_grid: Sequence[float],
               cfg: QuadConfig | None = None) -> FmtReport:
    """First Main Theorem at finite radius: T - N - m must not grow.

    On the compactified model the exceptional characteristic is
    T(r) = sum_i T_FS(G_i) - T_dir([G]), the proximity is
    m(r) = (1/2) mean log( prod_i (1 + |G_i|^2) / sum_i |G_i|^2 ) >= 0,
    and T - N - m is constant in r up to quadrature error.  T comes from
    area quadrature, N from the declared zeros, m from circle averages, so
    the three sides are computed independently.  The bounds add m's circle
    bounds to T's, and a radius whose m circle did not converge reads
    diverged.  Each ideal zero must vanish on the generators to its stated
    order, and the slope needs two distinct radii; a false zero, an ideal
    vanishing along the curve or a shorter grid is refused before anything
    is integrated."""
    cfg = cfg or QuadConfig()
    gens_on_curve = [expr_from_mvpoly(g, curve.components) for g in ideal_gens]
    if all(order_at(g, ZERO, ZERO_ORDER_CAP) == math.inf for g in gens_on_curve):
        raise FoliationError("the ideal vanishes along the curve to an order past %d at t = 0, or identically"
                             % ZERO_ORDER_CAP)
    ideal_zeros = _checked_zeros("ideal", gens_on_curve, ideal_zeros)
    grid, moduli = _nudged(r_grid, ideal_zeros)
    if len(set(grid)) < 2:
        raise FoliationError("fmt fits the slope of T - N - m against log r, which needs two distinct radii, "
                             "not %d" % len(set(grid)))
    T_fs, b1, d1 = characteristic_on_grid(fs_sum_density(gens_on_curve), grid, cfg, moduli)
    if len(gens_on_curve) > 1:
        T_dir, b2, d2 = characteristic_on_grid(direction_map_density(gens_on_curve), grid, cfg, moduli)
    else:
        T_dir, b2, d2 = [0.0] * len(grid), [0.0] * len(grid), [False] * len(grid)
    N = [counting_function(ideal_zeros, r) for r in grid]

    def m_integrand(t: np.ndarray) -> np.ndarray:
        las = [g.logabs2(t) for g in gens_on_curve]
        return 0.5 * (sum(_softplus(la) for la in las) - _logsumexp(las))

    m_vals, m_bounds, _, m_converged = (a.tolist() for a in circle_mean_arrays(m_integrand, grid, cfg))
    T = [a - b for a, b in zip(T_fs, T_dir)]
    bounds = [x + y + z for x, y, z in zip(b1, b2, m_bounds)]
    diverged = [x or y or not c for x, y, c in zip(d1, d2, m_converged)]
    diffs = [T[i] - N[i] - m_vals[i] for i in range(len(grid))]
    logs = [math.log(r) for r in grid]
    slope = _fit_slope(logs, diffs)
    top = diffs[len(diffs) // 2:]
    osc = max(top) - min(top) if top else 0.0
    return FmtReport(
        profile=NevanlinnaProfile(grid, T, N, m_vals, bounds, diverged),
        differences=diffs, slope_vs_log_r=slope, oscillation=osc,
        passed=abs(slope) <= FMT_SLOPE_TOL,
    )


# ---------------------------------------------------------------------------
# multiplicity bookkeeping (mu = eta + nu)


@dataclass
class BookkeepingResult:
    mu: int | float
    eta: int | float
    nu: int | float
    identity_holds: bool
    eta_plus_nu_nonnegative: bool
    notes: list[str] = field(default_factory=list)

    def to_jsonable(self):
        def enc(v):
            return None if v is math.inf else v
        return {
            "mu": enc(self.mu), "eta": enc(self.eta), "nu": enc(self.nu),
            "identity_mu_eq_eta_plus_nu": self.identity_holds,
            "eta_plus_nu_nonnegative": self.eta_plus_nu_nonnegative,
            "notes": self.notes,
        }


def multiplicity_bookkeeping(curve: ParametrizedCurve, v: VectorFieldGerm, t0: GaussRat) -> BookkeepingResult:
    """Orders at t0 of f' (mu), of the reparametrization factor (eta), and
    of the coefficient ideal along the curve (nu), with the exact identity
    mu = eta + nu checked.  Every order, the tangency residuals' included,
    is exact (`order_at`) to the working order BOOKKEEPING_MAX_ORDER."""
    if curve.dim() != v.dim():
        raise ValueError("curve and germ dimension mismatch")
    derivs = curve.derivative_exprs()
    on_curve = [expr_from_mvpoly(c, curve.components) for c in v.components]
    # tangency: f_i' a_j(f) = f_j' a_i(f) for all pairs, to working order
    notes = []
    n = curve.dim()
    for i in range(n):
        for j in range(i + 1, n):
            residual = order_at(derivs[i] * on_curve[j] - derivs[j] * on_curve[i], t0, BOOKKEEPING_MAX_ORDER)
            if residual != math.inf:
                raise NotALeaf("tangency residual f%d' a%d(f) - f%d' a%d(f) has order %d at t = %s"
                               % (i + 1, j + 1, j + 1, i + 1, residual, t0.to_complex()))
    mu = min(order_at(d, t0, BOOKKEEPING_MAX_ORDER) for d in derivs)
    nu = min(order_at(g, t0, BOOKKEEPING_MAX_ORDER) for g in on_curve)
    eta: int | float = math.inf
    for i in range(n):
        oi = order_at(on_curve[i], t0, BOOKKEEPING_MAX_ORDER)
        if oi is not math.inf:
            di = order_at(derivs[i], t0, BOOKKEEPING_MAX_ORDER)
            eta = di - oi
            break
    if eta is math.inf:
        notes.append("all coefficient components vanish along the curve to working order")
    identity = (mu == eta + nu) if eta is not math.inf else False
    nonneg = (eta + nu >= 0) if eta is not math.inf else False
    return BookkeepingResult(mu, eta, nu, identity, nonneg, notes)


# ---------------------------------------------------------------------------
# tautological pairing


@dataclass
class TautologicalReport:
    applicable: bool
    r_grid: list[float]
    values: list[float]
    normalized: list[float]
    trend: float | None
    violation: bool
    error_bounds: list[float]  # of the T profile divided by
    diverged: list[bool]
    note: str = ""

    def to_jsonable(self):
        return self.__dict__.copy()


def tautological_pairing(curve: ParametrizedCurve, r_grid: Sequence[float],
                         cfg: QuadConfig | None = None) -> TautologicalReport:
    """Finite-radius pairing against the tautological bundle, normalized by
    the characteristic; reports the trend and flags nonnegativity failures
    beyond the tolerance.  Algebraic curves are NotApplicable."""
    cfg = cfg or QuadConfig()
    if curve.is_algebraic():
        return TautologicalReport(
            False, list(map(float, r_grid)), [], [], None, False, [], [],
            "curve is algebraic (polynomial components): transcendence hypothesis violated")
    derivs = curve.derivative_exprs()
    comps = curve.components

    def log_fprime_omega(t: np.ndarray) -> np.ndarray:
        rows = []
        for g, gp in zip(comps, derivs):
            rows.append(gp.logabs2(t) - 2.0 * _softplus(g.logabs2(t)))
        return _logsumexp(rows)

    mu_zeros = curve.zeros_for("fprime")
    grid, moduli = _nudged(r_grid, mu_zeros)
    t_prof = characteristic_T(curve, "fs", grid, cfg)
    avg1, *avgs = circle_mean_arrays(log_fprime_omega, [nudge_radius(1.0, moduli), *grid], cfg)[0].tolist()
    values, normalized = [], []
    for i, (r, avg_r) in enumerate(zip(grid, avgs)):
        val = _annulus_counting(mu_zeros, r) - 0.5 * avg_r + 0.5 * avg1
        values.append(val)
        normalized.append(val / t_prof.T[i] if t_prof.T[i] > 0 else math.inf)
    top = normalized[len(normalized) // 2:]
    trend = min(top) if top else None
    violation = trend is not None and trend < -TAUT_TOL
    return TautologicalReport(True, grid, values, normalized, trend, violation, t_prof.bounds, t_prof.diverged)


# ---------------------------------------------------------------------------
# logarithmic derivative lemma


@dataclass
class LogDerivativeReport:
    r_grid: list[float]
    lhs: list[float]
    error_bounds: list[float]  # of the circle means in lhs
    converged: list[bool]
    fit_coefficients: list[float]  # a, b, c
    max_residual_top_half: float
    passed: bool

    def to_jsonable(self):
        return self.__dict__.copy()


def log_derivative_check(g: Expr, zeros: Sequence[Zero], r_grid: Sequence[float],
                         cfg: QuadConfig | None = None) -> LogDerivativeReport:
    """Circle means of log+ |g'/g| fitted against a log T + b log r + c."""
    cfg = cfg or QuadConfig()
    gp = g.diff()
    grid, moduli = _nudged(r_grid, zeros)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 0.5 * (gp.logabs2(t) - g.logabs2(t)))

    lhs, lhs_bounds, _, converged = (a.tolist() for a in circle_mean_arrays(integrand, grid, cfg))
    t_prof = characteristic_on_grid(fs_sum_density([g]), grid, cfg, moduli)[0]
    rows = np.vstack([
        np.log(np.maximum(t_prof, 1e-12)),
        np.log(grid),
        np.ones(len(grid)),
    ]).T
    sol, *_ = np.linalg.lstsq(rows, np.asarray(lhs), rcond=None)
    fitted = rows @ sol
    residuals = np.abs(np.asarray(lhs) - fitted)
    top = residuals[len(grid) // 2:]
    max_res = float(top.max()) if len(top) else 0.0
    return LogDerivativeReport(
        grid, lhs, lhs_bounds, converged,
        sol.tolist(), max_res, max_res <= LOGDERIV_RESIDUAL_TOL,
    )
