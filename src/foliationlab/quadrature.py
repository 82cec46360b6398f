"""Adaptive quadrature for circle means.

Circle means use the periodic trapezoid rule with doubling, from
MIN_CIRCLE_POINTS up to MAX_CIRCLE_POINTS samples; the a-posteriori bound
is the last refinement delta.  The means over many radii are batched: each
doubling pass evaluates the new angles of every circle still refining as
one (radius x angle) array of at most CHUNK_POINTS points, so the
integrand sees 2-D arrays.  The FOLIATION_LAB_BUDGET environment variable,
a positive integer, caps the evaluations of each circle mean and the total
of a radial refinement in `nevanlinna.characteristic_on_grid`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

MIN_CIRCLE_POINTS = 64
MAX_CIRCLE_POINTS = 1 << 16
CHUNK_POINTS = MIN_CIRCLE_POINTS * 64  # largest (radius x angle) array; a longer row goes alone


def _env_budget() -> int:
    raw = os.environ.get("FOLIATION_LAB_BUDGET")
    if raw is None:
        return 1 << 24
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise ValueError("FOLIATION_LAB_BUDGET must be a positive integer, got %r" % raw)
    return int(raw)


@dataclass
class QuadConfig:
    tol: float = 1e-8
    budget: int = 0

    def __post_init__(self):
        if self.budget <= 0:
            self.budget = _env_budget()


@dataclass
class QuadResult:
    value: float
    error_bound: float
    evaluations: int
    converged: bool


class ZeroOnCircle(Exception):
    pass


def nudge_radius(r: float, zero_moduli, tol: float = 1e-9, bump: float = 1e-6) -> float:
    """Deterministically shift a radius off declared zero moduli."""
    moduli = sorted(float(m) for m in zero_moduli)
    out = float(r)
    for _ in range(64):
        if all(abs(out - m) > tol * max(1.0, out) for m in moduli):
            return out
        out *= 1.0 + bump
    return out


def _row_means(fn, radii: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Trapezoid means of fn over the angles theta, one per radius."""
    unit = np.exp(1j * theta)
    rows = max(1, CHUNK_POINTS // theta.size)
    return np.concatenate([np.mean(fn(radii[i:i + rows, None] * unit), axis=1)
                           for i in range(0, radii.size, rows)])


def circle_means(fn, radii, cfg: QuadConfig) -> list[QuadResult]:
    """Means over the circles |t| = r, r in radii, of a real-valued integrand.

    `fn(t_array) -> float array` of the same shape; on each circle the
    trapezoid rule on a periodic domain doubles until two refinements agree
    to tolerance.  All circles still refining double together, so they
    share one evaluation count and one budget test."""
    radii = np.asarray(radii, dtype=float)
    if not radii.size:
        return []
    n = evals = MIN_CIRCLE_POINTS
    mean = _row_means(fn, radii, 2.0 * math.pi * np.arange(n) / n)
    bound = np.full(radii.size, math.inf)
    counts = np.full(radii.size, n)
    live = np.arange(radii.size)
    while live.size and n < MAX_CIRCLE_POINTS and evals + n <= cfg.budget:
        theta_new = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        mean_new = 0.5 * (mean[live] + _row_means(fn, radii[live], theta_new))
        bound[live] = np.abs(mean_new - mean[live])
        mean[live] = mean_new
        evals += n
        n *= 2
        counts[live] = evals
        live = live[~(bound[live] <= cfg.tol * np.maximum(1.0, np.abs(mean_new)))]
    converged = bound <= cfg.tol * np.maximum(1.0, np.abs(mean))
    return [QuadResult(float(m), float(b), int(e), bool(c))
            for m, b, e, c in zip(mean, bound, counts, converged)]


def circle_mean(fn, r: float, cfg: QuadConfig) -> QuadResult:
    """Mean over the circle |t| = r: the one-radius case of circle_means."""
    return circle_means(fn, [r], cfg)[0]
