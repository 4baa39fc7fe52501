"""Order-of-convergence fits and short-maturity comparison experiments.

The expansions make quantitative order claims: price errors O(T^gamma),
delta errors O(T^{gamma-1/2}), European-at-matched-volatility agreement
O(T) versus sqrt(T) unmatched.  `convergence_report` turns a table of
(T, error, std_error) rows into a weighted log-log fit with an explicit
verdict against a hypothesized order; `asymptotics_error_study` builds
such tables by running the Monte Carlo estimators against the asymptotic
quotes; `compare_experiment` prices one Asian contract and lines it up
against the European quotes at matched and unmatched volatility and the
closed-form geometric value.

Noise discipline: points whose error does not exceed 3 standard errors
are dropped (and reported) instead of fitted, and path counts scale like
1/T across the default grid so that the statistical error stays
subdominant to the O(T)-ish signals being measured.  Asian prices come
from the controlled estimator `mc_asian_price_cv` (the frozen-coefficient
geometric average as control variate), whose standard error at short
maturity is two orders of magnitude below the plain estimator's, so the
O(T) price gap is resolvable at moderate path budgets.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .asymptotics import asian_vol, asym_delta, asym_price, european_vol, geometric_bs
from .errors import ValidationError
from .model import ConstantVol, LocalVolSurface, MarketParams, PayoffSpec
from .montecarlo import (
    SimConfig,
    mc_asian_price_cv,
    mc_delta_fd,
    mc_delta_malliavin,
    mc_price,
)

__all__ = [
    "DEFAULT_T_GRID",
    "ConvergenceReport",
    "CompareTable",
    "convergence_report",
    "asymptotics_error_study",
    "compare_experiment",
    "asym_price_value",
]

DEFAULT_T_GRID = (0.2, 0.1, 0.05, 0.025, 0.0125)


# ---------------------------------------------------------------------------
# order regression
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    """Weighted log-log fit of error against T with a pass/fail verdict."""

    t: np.ndarray
    errors: np.ndarray
    std_errors: np.ndarray
    dropped: list
    fitted_order: float
    intercept: float
    r_squared: float
    hypothesized_order: float
    slack: float
    status: str  # "ok" or "insufficient-data"
    verdict: bool

    def describe(self) -> str:
        if self.status != "ok":
            return (
                f"insufficient data: {len(self.t)} usable points "
                f"({len(self.dropped)} noise-dominated dropped)"
            )
        return (
            f"order {self.fitted_order:.3f} (hypothesis {self.hypothesized_order:g} "
            f"- {self.slack:g}), r2 {self.r_squared:.3f}, "
            f"{'pass' if self.verdict else 'fail'}"
        )


def _check_hypothesis(hypothesized_order: float, slack: float) -> None:
    for name, value in (("hypothesized_order", hypothesized_order), ("slack", slack)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


def convergence_report(
    errors: Sequence, hypothesized_order: float, slack: float = 0.2
) -> ConvergenceReport:
    """Fit log(error) against log(T), weighted by relative standard errors.

    `errors` holds (T, value, std_error) rows.  Rows whose value does not
    exceed max(3 * std_error, 0) carry no usable signal and are dropped
    into `dropped`; fewer than 4 survivors yields an insufficient-data
    report (verdict False) instead of a meaningless fit.  Weighting uses
    relative standard errors, so rescaling all values (and their errors)
    by a constant moves the intercept only, never the fitted order.
    """
    _check_hypothesis(hypothesized_order, slack)
    rows = [(float(t), float(v), float(se)) for t, v, se in errors]
    if len(rows) < 4:
        raise ValidationError(f"need at least 4 grid points, got {len(rows)}")
    if not all(0.0 < t < math.inf for t, _, _ in rows):
        raise ValidationError("all T must be finite and positive")
    usable = [(t, v, se) for t, v, se in rows if v > max(3.0 * se, 0.0)]
    dropped = [r for r in rows if r not in usable]
    if len(usable) < 4:
        return ConvergenceReport(
            t=np.array([r[0] for r in usable]),
            errors=np.array([r[1] for r in usable]),
            std_errors=np.array([r[2] for r in usable]),
            dropped=dropped,
            fitted_order=math.nan,
            intercept=math.nan,
            r_squared=math.nan,
            hypothesized_order=hypothesized_order,
            slack=slack,
            status="insufficient-data",
            verdict=False,
        )
    t = np.array([r[0] for r in usable])
    v = np.array([r[1] for r in usable])
    se = np.array([r[2] for r in usable])
    x, y = np.log(t), np.log(v)
    rel = np.where(v > 0, se / v, 0.0)
    w = 1.0 / np.maximum(rel, 1e-12)  # polyfit weights multiply residuals
    slope, intercept = np.polyfit(x, y, 1, w=w)
    yhat = intercept + slope * x
    w2 = w * w
    ybar = float(np.sum(w2 * y) / np.sum(w2))
    ss_res = float(np.sum(w2 * (y - yhat) ** 2))
    ss_tot = float(np.sum(w2 * (y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ConvergenceReport(
        t=t,
        errors=v,
        std_errors=se,
        dropped=dropped,
        fitted_order=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        hypothesized_order=hypothesized_order,
        slack=slack,
        status="ok",
        verdict=bool(slope >= hypothesized_order - slack),
    )


# ---------------------------------------------------------------------------
# MC-vs-asymptotics error studies
# ---------------------------------------------------------------------------

def _scaled_cfg(cfg: SimConfig, T: float, T_max: float, path_scaling: bool) -> SimConfig:
    if not path_scaling or T >= T_max:
        return cfg
    return replace(cfg, n_paths=int(math.ceil(cfg.n_paths * T_max / T)))


def asymptotics_error_study(
    surface: LocalVolSurface,
    params: MarketParams,
    payoff: PayoffSpec,
    style: str,
    estimator: str,
    T_grid: Sequence[float],
    cfg: SimConfig,
    hypothesized_order: float,
    slack: float = 0.2,
    path_scaling: bool = True,
    bump: float = 1e-3,
):
    """Measure |MC - asymptotic quote| over a T grid and fit its order.

    estimator: "price", "delta-fd", or "delta-malliavin"; Asian prices use
    the control-variate estimator mc_asian_price_cv.  Path counts
    grow like 1/T (from cfg.n_paths at the largest T) unless disabled.
    Returns (ConvergenceReport, rows) where rows are dicts per T with the
    raw estimates for dumping.  A non-finite hypothesized_order or slack is
    refused before any estimate runs.
    """
    _check_hypothesis(hypothesized_order, slack)
    if style not in ("asian", "european"):
        raise ValidationError(f"style must be asian or european, got '{style}'")
    if estimator not in ("price", "delta-fd", "delta-malliavin"):
        raise ValidationError(f"unknown estimator '{estimator}'")
    T_grid = [float(T) for T in T_grid]
    if not all(0.0 < T < math.inf for T in T_grid):
        raise ValidationError(f"all T must be finite and positive, got {T_grid}")
    T_max = max(T_grid)
    vol_of = asian_vol if style == "asian" else european_vol

    rows = []
    for T in T_grid:
        c = _scaled_cfg(cfg, T, T_max, path_scaling)
        vol = vol_of(surface, params.S0, T)
        if estimator == "price":
            if style == "asian":
                est = mc_asian_price_cv(surface, params, payoff, T, c)
            else:
                est = mc_price(surface, params, payoff, style, T, c)
            ref = asym_price(payoff, params.S0, vol, T, style=style).value
        elif estimator == "delta-fd":
            est = mc_delta_fd(surface, params, payoff, style, T, c, bump=bump)
            ref = asym_delta(payoff, params.S0, vol, T, style=style).value
        else:
            est = mc_delta_malliavin(surface, params, payoff, style, T, c)
            ref = asym_delta(payoff, params.S0, vol, T, style=style).value
        rows.append(
            {
                "T": T,
                "mc": est.mean,
                "std_error": est.std_error,
                "ref": ref,
                "error": abs(est.mean - ref),
                "n_paths": c.n_paths,
                "diagnostics": est.diagnostics,
            }
        )
    report = convergence_report(
        [(r["T"], r["error"], r["std_error"]) for r in rows], hypothesized_order, slack
    )
    return report, rows


# ---------------------------------------------------------------------------
# comparison experiment
# ---------------------------------------------------------------------------

def asym_price_value(payoff: PayoffSpec, S0: float, vol: float, T: float, style: str) -> float:
    """The asymptotic price; at vol = 0 the intrinsic value phi(S0), the
    s -> 0 limit of the Gaussian proxy (the quote itself requires vol > 0)."""
    if vol > 0.0:
        return asym_price(payoff, S0, vol, T, style=style).value
    return float(payoff.value(np.array([S0]))[0])


def _bs_price(S0, K, r, q, sigma, T, family):
    """Vanilla European closed form; sigma = 0 degenerates to intrinsic."""
    disc_r, disc_q = math.exp(-r * T), math.exp(-q * T)
    if sigma <= 0.0:
        fwd = S0 * disc_q / disc_r
        intrinsic = max(fwd - K, 0.0) if family == "call" else max(K - fwd, 0.0)
        return disc_r * intrinsic
    s = sigma * math.sqrt(T)
    d1 = (math.log(S0 / K) + (r - q) * T) / s + 0.5 * s
    d2 = d1 - s
    if family == "call":
        return S0 * disc_q * ndtr(d1) - K * disc_r * ndtr(d2)
    return K * disc_r * ndtr(-d2) - S0 * disc_q * ndtr(-d1)


@dataclass
class CompareTable:
    """Asian MC price against asymptotic, European, and geometric columns."""

    T: np.ndarray
    mc: np.ndarray
    std_errors: np.ndarray
    asym: np.ndarray
    eur_matched: np.ndarray
    eur_unmatched: np.ndarray
    geo: np.ndarray  # NaN when the geometric column is disabled
    geo_enabled: bool
    reports: dict = field(default_factory=dict)


def compare_experiment(
    surface: LocalVolSurface,
    params: MarketParams,
    payoff: PayoffSpec,
    T_grid: Sequence[float],
    cfg: SimConfig,
    path_scaling: bool = True,
    hypotheses: Optional[dict] = None,
) -> CompareTable:
    """Price one Asian contract per T and line it up against the proxies.

    Columns: Monte Carlo Asian price (the frozen geometric-average
    control-variate estimator, as in asymptotics_error_study), the asymptotic
    Asian quote, the European closed form at the matched volatility (the
    Asian vol of the surface), the European at the unmatched European
    vol, and - for constant volatility only - the exact geometric-average
    price at that vol.  All error columns share the single MC estimate
    per T, so their differences are not independently noisy, and a
    convergence report is fitted to each error column.  Each fitted column
    needs an (order, slack) pair of finite reals in `hypotheses`, checked
    before any estimate runs.
    """
    if payoff.family not in ("call", "put"):
        raise ValidationError(
            f"compare_experiment needs a call or put payoff, got '{payoff.family}'"
        )
    T_grid = [float(T) for T in T_grid]
    if not all(0.0 < T < math.inf for T in T_grid):
        raise ValidationError(f"all T must be finite and positive, got {T_grid}")
    geo_enabled = isinstance(surface, ConstantVol)
    sigma0 = float(surface.sigma(0.0, params.S0)) if geo_enabled else math.nan
    S0, K = params.S0, payoff.strike
    T_max = max(T_grid)
    if hypotheses is None:
        hypotheses = {"matched": (1.0, 0.2), "unmatched": (0.5, 0.2), "geo": (1.0, 0.2)}
    columns = ("matched", "unmatched", "geo") if geo_enabled else ("matched", "unmatched")
    for col in columns:
        pair = hypotheses.get(col)
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(isinstance(v, numbers.Real) for v in pair)):
            raise ValidationError(f"hypotheses['{col}'] must be an (order, slack) pair "
                                  f"of real numbers, got {pair!r}")
        _check_hypothesis(*pair)

    n = len(T_grid)
    out = {k: np.full(n, math.nan) for k in
           ("mc", "se", "asym", "matched", "unmatched", "geo")}
    for i, T in enumerate(T_grid):
        c = _scaled_cfg(cfg, T, T_max, path_scaling)
        est = mc_asian_price_cv(surface, params, payoff, T, c)
        va, ve = asian_vol(surface, S0, T), european_vol(surface, S0, T)
        out["mc"][i] = est.mean
        out["se"][i] = est.std_error
        out["asym"][i] = asym_price_value(payoff, S0, va, T, "asian")
        out["matched"][i] = _bs_price(S0, K, params.r, params.q, va, T, payoff.family)
        out["unmatched"][i] = _bs_price(S0, K, params.r, params.q, ve, T, payoff.family)
        if geo_enabled:
            out["geo"][i] = geometric_bs(sigma0, params, payoff.family, K, T)[0]

    reports = {}
    for col in columns:
        hyp, slack = hypotheses[col]
        errs = np.abs(out["mc"] - out[col])
        reports[col] = convergence_report(
            list(zip(T_grid, errs, out["se"])), hyp, slack
        )
    return CompareTable(
        T=np.array(T_grid),
        mc=out["mc"],
        std_errors=out["se"],
        asym=out["asym"],
        eur_matched=out["matched"],
        eur_unmatched=out["unmatched"],
        geo=out["geo"],
        geo_enabled=geo_enabled,
        reports=reports,
    )
