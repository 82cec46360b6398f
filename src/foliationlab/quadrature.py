"""Adaptive quadrature: circle means and the Gauss-Kronrod radial rule.

Circle means use the periodic trapezoid rule with doubling, from
MIN_CIRCLE_POINTS up to MAX_CIRCLE_POINTS samples; the a-posteriori bound
is the last refinement delta, inf where the mean is not finite.  The means
over many radii are batched: each doubling pass evaluates the new angles of
every circle still refining as one (radius x angle) array of at most
CHUNK_POINTS points, so the integrand sees 2-D arrays.  The unit roots of
each doubling pass are computed once per process.

Radial integrals use the 7-point Gauss / 15-point Kronrod pair (QUADPACK
qk15, Piessens et al. 1983): GK_NODES on [-1, 1] and GK_RULE, whose columns
are the Kronrod weights and the Kronrod minus Gauss weights.  So one
product gives a segment's Kronrod value K and K - G, the error estimate
by which fmt's area route (`nevanlinna.characteristic_on_grid`) bisects.

QuadConfig.budget caps the evaluations of each circle mean and stops the
radial refinement of an area profile once its total evaluations pass it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MIN_CIRCLE_POINTS = 64
MAX_CIRCLE_POINTS = 1 << 16
CHUNK_POINTS = MIN_CIRCLE_POINTS * 64  # largest (radius x angle) array; a longer row goes alone
NUDGE_TOL = 1e-9  # relative distance a nudged radius keeps from each declared zero modulus
NUDGE_BUMP = 1e-6  # relative step of each nudge


@dataclass
class QuadConfig:
    tol: float = 1e-8
    budget: int = 1 << 24


def nudge_radius(r: float, zero_moduli) -> float:
    """Deterministically shift a radius off declared zero moduli."""
    moduli = sorted(float(m) for m in zero_moduli)
    out = float(r)
    for _ in range(64):
        if all(abs(out - m) > NUDGE_TOL * max(1.0, out) for m in moduli):
            return out
        out *= 1.0 + NUDGE_BUMP
    return out


# Gauss-Kronrod 7/15 on [-1, 1], from QUADPACK qk15: the positive Kronrod
# nodes (every other one, from the second, a Gauss node), Kronrod weights
# with the centre's last, Gauss weights with the centre's last.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
GK_NODES = np.array([-x for x in _XGK] + [0.0] + list(_XGK[::-1]))
_GAUSS = np.zeros(15)
_GAUSS[1::2] = _WG + _WG[-2::-1]
GK_RULE = np.array([_WGK + _WGK[-2::-1], _WGK + _WGK[-2::-1] - _GAUSS]).T  # f @ GK_RULE = (K, K - G)


@functools.lru_cache(maxsize=None)
def _unit_roots(n: int, shift: float) -> np.ndarray:
    """exp(i theta) at theta = 2 pi (k + shift) / n, k < n: the angles of one
    doubling pass, shared by every circle and every call."""
    unit = np.exp(1j * (2.0 * math.pi * (np.arange(n) + shift) / n))
    unit.flags.writeable = False
    return unit


def _row_means(fn, radii: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Trapezoid means of fn over the points radii x unit, one per radius."""
    rows = max(1, CHUNK_POINTS // unit.size)
    return np.concatenate([np.mean(fn(radii[i:i + rows, None] * unit), axis=1)
                           for i in range(0, radii.size, rows)])


def circle_mean_arrays(fn, radii, cfg: QuadConfig):
    """Means over the circles |t| = r, r in radii, of a real-valued integrand,
    as the arrays (mean, error bound, evaluations, converged).

    `fn(t_array) -> float array` of the same shape; on each circle the
    trapezoid rule on a periodic domain doubles until two refinements agree
    to tolerance.  All circles still refining double together, so they
    share one evaluation count and one budget test.  A circle whose mean is
    not finite stops, not converged."""
    radii = np.asarray(radii, dtype=float).ravel()
    n = evals = MIN_CIRCLE_POINTS
    mean = _row_means(fn, radii, _unit_roots(n, 0.0)) if radii.size else np.zeros(0)
    bound = np.full(radii.size, math.inf)
    counts = np.full(radii.size, n)
    live = np.flatnonzero(np.isfinite(mean))  # a circle through a zero of log|P|^2 means -inf and stops
    while live.size and n < MAX_CIRCLE_POINTS and evals + n <= cfg.budget:
        mean_new = 0.5 * (mean[live] + _row_means(fn, radii[live], _unit_roots(n, 0.5)))
        bound[live] = np.abs(mean_new - mean[live])
        mean[live] = mean_new
        evals += n
        n *= 2
        counts[live] = evals
        live = live[bound[live] > cfg.tol * np.maximum(1.0, np.abs(mean_new))]
    finite = np.isfinite(mean)
    bound[~finite] = math.inf
    return mean, bound, counts, finite & (bound <= cfg.tol * np.maximum(1.0, np.abs(mean)))

