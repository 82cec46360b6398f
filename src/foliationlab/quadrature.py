"""Adaptive quadrature for circle means.

Circle means use the periodic trapezoid rule with doubling, from
MIN_CIRCLE_POINTS up to MAX_CIRCLE_POINTS samples; the a-posteriori bound
is the last refinement delta.  The FOLIATION_LAB_BUDGET environment
variable, a positive integer, caps the evaluations of each circle mean and
the total of a radial refinement in `nevanlinna.characteristic_on_grid`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

MIN_CIRCLE_POINTS = 64
MAX_CIRCLE_POINTS = 1 << 16


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


def circle_mean(fn, r: float, cfg: QuadConfig) -> QuadResult:
    """Mean over the circle |t| = r of a real-valued integrand.

    `fn(t_array) -> float array`; the trapezoid rule on a periodic domain
    doubles until two refinements agree to tolerance."""
    n = MIN_CIRCLE_POINTS
    evals = 0
    theta = 2.0 * math.pi * np.arange(n) / n
    vals = fn(r * np.exp(1j * theta))
    evals += n
    mean = float(np.mean(vals))
    bound = math.inf
    while n < MAX_CIRCLE_POINTS and evals + n <= cfg.budget:
        theta_new = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        vals_new = fn(r * np.exp(1j * theta_new))
        evals += n
        mean_new = 0.5 * (mean + float(np.mean(vals_new)))
        bound = abs(mean_new - mean)
        mean = mean_new
        n *= 2
        if bound <= cfg.tol * max(1.0, abs(mean)):
            return QuadResult(mean, bound, evals, True)
    return QuadResult(mean, bound, evals, bound <= cfg.tol * max(1.0, abs(mean)))
