"""Empirical L^p distances between coupled approximation stages.

The pricing expansions replace the spot by a chain of simpler processes,
and their error analysis rests on each link of the chain being L^p-close
at order t.  This module measures those distances directly: for a pair
(A, B) simulated on the same Brownian driver it estimates

    m(t) = E |A_t - B_t|^p

on a grid of maturities and fits the scaling exponent of m against t.
The supported pairs, in the order the approximations are applied:

* ("S", "X")   - drift removal (spot vs driftless spot)
* ("X", "Xt")  - coefficient freezing at (t, S0)
* ("Xt", "Xh") - lognormal to Gaussian
* ("Y", "Yt")  - first-variation coefficient freezing
* ("Yt", "Yh") - first-variation Gaussianization

Each stage should satisfy m(t) <= B_p t^p for t <= 1, so the fitted
log-log slope must not fall materially below p.  The slope is a lower
bound check only: faster decay is never a failure.  Because Euler bias
could masquerade as scaling, `refined_fit` recomputes the curve at twice
the step count and accepts the fit only when the slopes agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .model import LocalVolSurface, MarketParams
from .montecarlo import SimConfig, _increments, _reduce, _sim_block

__all__ = [
    "PAIRS",
    "DistanceCurve",
    "ScalingFit",
    "lp_distance_curve",
    "scaling_exponent",
    "refined_fit",
]

PAIRS = (("S", "X"), ("X", "Xt"), ("Xt", "Xh"), ("Y", "Yt"), ("Yt", "Yh"))


@dataclass(frozen=True)
class DistanceCurve:
    """Per-t estimates of E|A_t - B_t|^p for one coupled pair."""

    pair: tuple
    p: float
    t: np.ndarray
    moments: np.ndarray
    std_errors: np.ndarray
    n_paths: int
    seed: int
    steps: int


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log(moment) against log(t)."""

    slope: float
    intercept: float
    r_squared: float
    status: str  # "ok" or "degenerate-curve"


def lp_distance_curve(
    surface: LocalVolSurface,
    params: MarketParams,
    pair: Sequence[str],
    p: float,
    t_grid: Sequence[float],
    cfg: SimConfig,
) -> DistanceCurve:
    """Estimate E|A_t - B_t|^p on the grid, one coupled run per t.

    Both processes of the pair evolve on the same increments inside each
    run; runs at different t reuse the same counter addressing, so the
    whole curve is deterministic given (seed, cfg).
    """
    pair = tuple(pair)
    if pair not in PAIRS:
        raise ValidationError(f"pair must be one of {PAIRS}, got {pair}")
    if not p > 0.0:
        raise ValidationError(f"p must be positive, got {p}")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValidationError("t_grid must be a nonempty 1-d sequence")
    if not (np.all(np.diff(t) > 0) and t[0] > 0.0 and t[-1] <= 1.0):
        raise ValidationError(
            "t_grid must be strictly increasing with 0 < t <= 1 (the closeness "
            "bounds are stated for t <= 1)"
        )

    moments = np.empty(len(t))
    std_errors = np.empty(len(t))
    for i, ti in enumerate(t):

        def block_fn(lo, hi, ti=ti):
            dW = _increments(ti, cfg, lo, hi)
            ends, _, exploded = _sim_block(surface, params, ti, cfg, lo, hi, dW, pair)
            valid = ~exploded
            a, b = (ends[name][valid] for name in pair)
            return [np.abs(a - b) ** p], int(exploded.sum()), 0

        n, mean, cov, _, _ = _reduce(block_fn, cfg)
        moments[i], std_errors[i] = mean[0], math.sqrt(cov[0, 0] / n)

    return DistanceCurve(
        pair=pair,
        p=float(p),
        t=t,
        moments=moments,
        std_errors=std_errors,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
        steps=cfg.steps,
    )


def scaling_exponent(curve: DistanceCurve) -> ScalingFit:
    """Fit log(moment) = intercept + slope * log(t) by least squares.

    Curves with any nonpositive moment (for example a pair with identical
    dynamics, whose distance is exactly zero) carry no exponent and come
    back with status "degenerate-curve" and NaN fields instead of a fit.
    """
    if np.any(curve.moments <= 0.0) or not np.all(np.isfinite(curve.moments)):
        return ScalingFit(math.nan, math.nan, math.nan, "degenerate-curve")
    x = np.log(curve.t)
    y = np.log(curve.moments)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ScalingFit(float(slope), float(intercept), r_squared, "ok")


def refined_fit(
    surface: LocalVolSurface,
    params: MarketParams,
    pair: Sequence[str],
    p: float,
    t_grid: Sequence[float],
    cfg: SimConfig,
    slope_tol: float = 0.1,
) -> dict:
    """Fit the exponent at steps N and 2N and flag discretization drift.

    Returns a dict with both curves and fits plus `stable`, true when the
    two slopes agree within slope_tol (a fit that moves under step
    doubling is measuring Euler bias, not the coupling).
    """
    coarse = lp_distance_curve(surface, params, pair, p, t_grid, cfg)
    fine = lp_distance_curve(
        surface, params, pair, p, t_grid, replace(cfg, steps=2 * cfg.steps)
    )
    fit_coarse = scaling_exponent(coarse)
    fit_fine = scaling_exponent(fine)
    stable = (
        fit_coarse.status == "ok"
        and fit_fine.status == "ok"
        and abs(fit_coarse.slope - fit_fine.slope) <= slope_tol
    )
    return {
        "curve": coarse,
        "curve_refined": fine,
        "fit": fit_coarse,
        "fit_refined": fit_fine,
        "stable": stable,
    }
