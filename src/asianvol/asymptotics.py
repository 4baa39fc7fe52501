"""Short-maturity pricing formulas for arithmetic-average Asian options.

At leading order in the maturity T, the time-average of the diffusion is
Gaussian around the spot: undiscounted prices collapse to one-dimensional
expectations

    P(T) ~ E[phi(S0 + s Z)],   s = S0 * vol * sqrt(T),   Z ~ N(0, 1),

where ``vol`` is the maturity-dependent *averaged* volatility

    asian_vol:    sigma_A(T) = sqrt( (1/T^3) * Int_0^T sigma(t,S0)^2 (T-t)^2 dt ),
    european_vol: sigma_E(T) = sqrt( (1/T)   * Int_0^T sigma(t,S0)^2 dt ).

Both come from one Gauss-Legendre rule in u = sqrt(t/T) (a sqrt(t) term of
sigma becomes polynomial) split at the surface's ``time_kinks()``.

For a constant surface sigma_A = sigma / sqrt(3): an Asian option is priced
by the Bachelier formula at one-third of the European variance.  Deltas at
the same order are E[phi(S0 + s Z) Z] / s, evaluated here in the
variance-stable form with phi(S0) subtracted.

Everything in this module is deterministic: closed forms where they exist
(call/put Bachelier formulas, absolute Gaussian moments, power-payoff
leading terms, geometric-average lognormal formulas) and Gaussian
quadrature everywhere else.  The quadrature engine is kink-aware: payoffs
declare the locations where they lose smoothness and the integrator splits
and grades panels toward those points, so non-smooth payoffs are still
integrated to near machine accuracy rather than the few-digit accuracy a
plain Hermite rule would deliver.  Both rules evaluate sigma or the payoff
once per order level, doubling the order until successive levels agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import gammaln, ndtr

from .errors import DomainError, NumericError, ValidationError
from .model import LocalVolSurface, MarketParams, PayoffSpec

__all__ = [
    "VolQuote",
    "QuadratureInfo",
    "AsymptoticQuote",
    "asian_vol",
    "european_vol",
    "vol_quote",
    "gaussian_expectation",
    "asym_price",
    "asym_delta",
    "abs_moment",
    "power_leading_terms",
    "delta_parity_and_itm",
    "match_volatility",
    "geometric_bs",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_VOL_TOL = 1e-11  # relative accuracy of the averaged-vol and vol-matching integrals
_VOL_MAX_ORDER = 512  # Gauss-Legendre order per panel at the last averaged-vol level
_QUAD_TOL = 1e-10  # agreement of successive levels in gaussian_expectation


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


# ---------------------------------------------------------------------------
# averaged volatilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolQuote:
    """sigma_A and sigma_E at one maturity, with quadrature metadata."""

    asian_vol: float
    european_vol: float
    maturity: float
    nodes: int
    est_error: float


def _vol_integrals(surface: LocalVolSurface, S0: float, T: float):
    """(Int_0^T sigma^2 (T-t)^2 dt, Int_0^T sigma^2 dt, nodes, error) by
    Gauss-Legendre in u = sqrt(t/T), t = T u^2, dt = 2T u du."""
    if not 0.0 < T < np.inf:
        raise DomainError(f"averaged vol needs a finite T > 0, got {T}")
    kinks = sorted(k for k in surface.time_kinks() if 0.0 < k < T)
    cuts = np.sqrt(np.array([0.0, *kinks, T]) / T)
    half, mid = 0.5 * np.diff(cuts)[:, None], 0.5 * (cuts[1:] + cuts[:-1])[:, None]
    # absolute tolerance declared relative to each integral's natural scale
    floor = _VOL_TOL * np.maximum([T**3 / 3.0 * 0.04, T * 0.04], 1e-300)
    prev, nodes, m = None, 0, 8
    while m <= _VOL_MAX_ORDER:
        zs, ws = _legendre_rule(m)
        u = (mid + half * zs).ravel()
        t = T * u * u
        w = (half * ws).ravel() * 2.0 * T * u * surface.sigma(t, S0) ** 2
        vals = np.array([w @ (T - t) ** 2, w.sum()])
        nodes += u.size
        if prev is not None:
            err = np.abs(vals - prev)
            if np.all(err <= np.maximum(floor, _VOL_TOL * vals)):
                return vals[0], vals[1], nodes, float(err.max())
        prev, m = vals, 2 * m
    raise NumericError(f"averaged-vol quadrature did not reach tol={_VOL_TOL:g} by order-"
                       f"{_VOL_MAX_ORDER} panels; declare sigma's jumps in t in time_kinks()")


def asian_vol(surface: LocalVolSurface, S0: float, T: float) -> float:
    """sqrt((1/T^3) Int_0^T sigma(t,S0)^2 (T-t)^2 dt) by kink-split Gauss-Legendre."""
    return math.sqrt(_vol_integrals(surface, S0, T)[0] / T**3)


def european_vol(surface: LocalVolSurface, S0: float, T: float) -> float:
    """sqrt((1/T) Int_0^T sigma(t,S0)^2 dt) by kink-split Gauss-Legendre."""
    return math.sqrt(_vol_integrals(surface, S0, T)[1] / T)


def vol_quote(surface: LocalVolSurface, S0: float, T: float) -> VolQuote:
    """Both averaged vols at one maturity, with quadrature metadata."""
    va, ve, nodes, err = _vol_integrals(surface, S0, T)
    return VolQuote(math.sqrt(va / T**3), math.sqrt(ve / T), T, nodes, err)


# ---------------------------------------------------------------------------
# Gaussian quadrature engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureInfo:
    """How a Gaussian expectation was computed."""

    method: str  # "closed-form" | "exact" | "gauss-hermite" | "kink-split"
    nodes: int
    est_error: float
    truncation_error: float


@lru_cache(maxsize=32)
def _hermite_rule(n: int):
    z, w = np.polynomial.hermite_e.hermegauss(n)
    return z, w / _SQRT_2PI


@lru_cache(maxsize=16)
def _legendre_rule(m: int):
    return np.polynomial.legendre.leggauss(m)


_Z_MAX = 8.0  # integration window in standard deviations
_GRADE_RATIO = 0.25
_GRADE_LEVELS = 24  # smallest graded panel ~ (width) * 0.25^24 ~ 3e-15 * width


def _graded_edges(a: float, b: float, toward_a: bool, toward_b: bool):
    """Panel edges on [a, b], geometrically refined toward kink endpoints."""
    if toward_a and toward_b:
        mid = 0.5 * (a + b)
        left = _graded_edges(a, mid, True, False)
        right = _graded_edges(mid, b, False, True)
        return left + right[1:]
    if toward_b:
        return [a + b - e for e in reversed(_graded_edges(a, b, True, False))]
    if toward_a:
        w = b - a
        offs = [w * _GRADE_RATIO**j for j in range(_GRADE_LEVELS, -1, -1)]
        return [a] + [a + o for o in offs]
    # smooth on both ends: a few uniform panels are plenty for GL
    return list(np.linspace(a, b, 9))


def _panel_quad(f, edges: Sequence[float], m: int):
    """Composite Gauss-Legendre of f(z)*phi(z) over the given panel edges."""
    zs, ws = _legendre_rule(m)
    e = np.asarray(edges)
    half = 0.5 * (e[1:] - e[:-1])
    z = 0.5 * (e[1:] + e[:-1])[:, None] + half[:, None] * zs
    fz = np.asarray(f(z.ravel()), dtype=float).reshape(z.shape)
    return float(half @ ((fz * _phi(z)) @ ws)), z.size


def gaussian_expectation(f: Callable, kinks: Sequence[float] = ()) -> tuple:
    """E[f(Z)] for standard normal Z, returning (value, QuadratureInfo).

    ``f`` must accept numpy arrays.  ``kinks`` lists the z-locations where f
    or its derivatives jump; with no kinks a Gauss-Hermite rule (128 nodes,
    doubled until two successive levels agree to 1e-10) is used.  With
    kinks the integral is truncated to +-8 standard deviations (the
    truncation error is estimated and reported, assuming at most linear
    growth), split at the kinks, and integrated by composite Gauss-Legendre
    panels graded geometrically toward each kink; the panel order is
    doubled until two successive levels agree to 1e-10.
    """
    interior = sorted(k for k in kinks if -_Z_MAX < k < _Z_MAX)

    if not kinks:
        prev = None
        n = 128
        while n <= 2048:
            z, w = _hermite_rule(n)
            val = float(np.dot(w, np.asarray(f(z), dtype=float)))
            if prev is not None:
                change = abs(val - prev)
                if change <= max(_QUAD_TOL, _QUAD_TOL * abs(val)):
                    return val, QuadratureInfo("gauss-hermite", n, change, 0.0)
            prev = val
            n *= 2
        raise NumericError(
            f"Gauss-Hermite quadrature did not reach tol={_QUAD_TOL:g} by 2048 nodes"
        )

    # tail bound: |f(z)| <= |f(+-8)| + slope * |z -+ 8| beyond the window
    tail_mass = 1.0 - ndtr(_Z_MAX)
    f_hi, f_hi1 = float(f(np.array([_Z_MAX]))[0]), float(f(np.array([_Z_MAX + 1.0]))[0])
    f_lo, f_lo1 = float(f(np.array([-_Z_MAX]))[0]), float(f(np.array([-_Z_MAX - 1.0]))[0])
    slope = abs(f_hi1 - f_hi) + abs(f_lo1 - f_lo)
    trunc = (abs(f_hi) + abs(f_lo)) * tail_mass + slope * float(_phi(_Z_MAX))

    edges: list = []
    cuts = [-_Z_MAX] + interior + [_Z_MAX]
    for i in range(len(cuts) - 1):
        a, b = cuts[i], cuts[i + 1]
        seg = _graded_edges(a, b, toward_a=i > 0, toward_b=i < len(cuts) - 2)
        edges.extend(seg if not edges else seg[1:])

    prev = None
    m = 16
    while m <= 128:
        val, nodes = _panel_quad(f, edges, m)
        if prev is not None:
            change = abs(val - prev)
            if change <= max(_QUAD_TOL, _QUAD_TOL * abs(val)):
                return val, QuadratureInfo("kink-split", nodes, change, trunc)
        prev = val
        m *= 2
    raise NumericError(
        f"kink-split quadrature did not reach tol={_QUAD_TOL:g} by order-128 panels"
    )


# ---------------------------------------------------------------------------
# asymptotic prices and deltas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticQuote:
    """A leading-order price or delta with its claimed error order in T.

    ``claimed_error_order`` bounds the absolute error |exact - quote|: it is
    O(T^gamma) for prices and O(T^(gamma - 1/2)) for deltas, with gamma the
    payoff's Holder exponent.
    """

    value: float
    kind: str  # "price" | "delta"
    style: str  # "asian" | "european" | "geometric"
    claimed_error_order: float
    inputs: dict
    quadrature: QuadratureInfo


def _bachelier(w: float, p: PayoffSpec, S0: float, s: float):
    """Exact normal-model price and delta for stdev s; w = 1 call, w = -1 put."""
    d = (S0 - p.strike) / s
    return w * (S0 - p.strike) * ndtr(w * d) + s * float(_phi(d)), w * float(ndtr(w * d))


# families whose Gaussian expectation is known: method, and (price, delta)
# as a function of (payoff, S0, s)
_EXACT = {
    "constant": ("exact", lambda p, S0, s: (p.level, 0.0)),
    "linear": ("exact", lambda p, S0, s: (p.slope * S0 + p.intercept, p.slope)),
    "call": ("closed-form", partial(_bachelier, 1.0)),
    "put": ("closed-form", partial(_bachelier, -1.0)),
}


def _quote(kind, payoff, S0, vol, T, style, force_quadrature) -> AsymptoticQuote:
    """The leading-order price or delta: a closed form from _EXACT, else quadrature."""
    if not 0.0 < S0 < math.inf:
        raise DomainError(f"S0 must be finite and positive, got {S0}")
    if not 0.0 < vol < math.inf:
        raise DomainError(f"vol must be finite and positive, got {vol}")
    if not 0.0 < T < math.inf:
        raise DomainError(f"T must be finite and positive, got {T}")
    s = S0 * vol * math.sqrt(T)
    inputs = {"payoff": payoff.to_config(), "S0": S0, "vol": vol, "T": T}
    order = payoff.holder_gamma if kind == "price" else payoff.holder_gamma - 0.5
    if payoff.family in _EXACT and not force_quadrature:
        method, fn = _EXACT[payoff.family]
        val = fn(payoff, S0, s)[0 if kind == "price" else 1]
        return AsymptoticQuote(val, kind, style, order, inputs, QuadratureInfo(method, 0, 0.0, 0.0))
    if kind == "price":
        f = lambda z: payoff.value(S0 + s * z)
    else:
        base = payoff.value(S0)
        f = lambda z: (payoff.value(S0 + s * z) - base) * z / s
    kinks = tuple((k - S0) / s for k in payoff.kinks())
    val, info = gaussian_expectation(f, kinks=kinks)
    return AsymptoticQuote(val, kind, style, order, inputs, info)


def asym_price(
    payoff: PayoffSpec,
    S0: float,
    vol: float,
    T: float,
    style: str = "asian",
    force_quadrature: bool = False,
) -> AsymptoticQuote:
    """Leading-order price E[phi(S0 + s Z)] with s = S0*vol*sqrt(T).

    Call and put payoffs use the exact Bachelier-style closed form
    (S0-K)*N(d) + s*phi(d) with d = (S0-K)/s; constants and linear payoffs
    are exact; everything else is quadrature (``force_quadrature`` routes
    even call/put through the quadrature engine, used for cross-checks).
    """
    return _quote("price", payoff, S0, vol, T, style, force_quadrature)


def asym_delta(
    payoff: PayoffSpec,
    S0: float,
    vol: float,
    T: float,
    style: str = "asian",
    force_quadrature: bool = False,
) -> AsymptoticQuote:
    """Leading-order delta E[phi(S0 + s Z) Z] / s, in subtracted form.

    The integrand used is (phi(S0 + s z) - phi(S0)) * z / s, which stays
    O(1) as T -> 0 for payoffs differentiable at S0 instead of oscillating
    at scale 1/s.  Calls have the closed form N(d), puts -N(-d).
    """
    return _quote("delta", payoff, S0, vol, T, style, force_quadrature)


# ---------------------------------------------------------------------------
# Gaussian absolute moments and power-payoff leading terms
# ---------------------------------------------------------------------------

def abs_moment(gamma: float) -> float:
    """M(gamma) = E|Z|^gamma = 2^{gamma/2} Gamma((gamma+1)/2) / sqrt(pi)."""
    if not gamma >= 0.0:
        raise DomainError(f"abs_moment needs gamma >= 0, got {gamma}")
    return math.exp(
        0.5 * gamma * math.log(2.0) + gammaln(0.5 * (gamma + 1.0)) - 0.5 * math.log(math.pi)
    )


def power_leading_terms(exponent: float, S0: float, volT: float, T: float):
    """Leading terms of the ATM power-payoff price and delta.

    For the payoff (x - K)_+^e at K = S0 the asymptotic price collapses to
    (1/2) (S0 volT)^e M(e) T^{e/2} for any e in (0, 2).  The delta's leading
    term is (1/2) (S0 volT)^{e-1} M(1+e) T^{(e-1)/2}, which is meaningful
    only for e > 1/2: at e = 1 it reduces to the flat 1/2, above 1 it
    carries the capped-power exponent e = 1+eps, and on (1/2, 1) the
    T-exponent is negative, i.e. the reported term diverges as T -> 0 at
    the explicit rate T^{-(1-e)/2}.  For e <= 1/2 no leading delta term is
    reported (returned as None).
    """
    if not (0.0 < exponent < 2.0):
        raise DomainError(
            f"power leading terms need exponent in (0, 2), got {exponent}"
        )
    if not (S0 > 0.0 and volT > 0.0 and T > 0.0):
        raise DomainError("power leading terms need S0, volT, T all positive")
    price_lead = 0.5 * (S0 * volT) ** exponent * abs_moment(exponent) * T ** (0.5 * exponent)
    delta_lead: Optional[float] = None
    if exponent > 0.5:
        delta_lead = (
            0.5
            * (S0 * volT) ** (exponent - 1.0)
            * abs_moment(1.0 + exponent)
            * T ** (0.5 * (exponent - 1.0))
        )
    return price_lead, delta_lead


# ---------------------------------------------------------------------------
# discounting corrections for the ITM delta
# ---------------------------------------------------------------------------

def delta_parity_and_itm(r: float, q: float, T: float):
    """Carry factor multiplying the ITM Asian delta, exact and Taylor form.

    parity = (e^{-qT} - e^{-rT}) / ((r - q) T), continuous at r = q where
    it equals e^{-rT}; taylor = 1 - (r+q)T/2 + (r^2 + rq + q^2) T^2 / 6.
    """
    if not 0.0 < T < math.inf:
        raise DomainError(f"T must be finite and positive, got {T}")
    if abs(r - q) < 1e-12:
        parity = math.exp(-r * T)
    else:
        parity = (math.exp(-q * T) - math.exp(-r * T)) / ((r - q) * T)
    taylor = 1.0 - 0.5 * (r + q) * T + (r * r + r * q + q * q) * T * T / 6.0
    return parity, taylor


# ---------------------------------------------------------------------------
# matching Asian and European volatility curves
# ---------------------------------------------------------------------------

def _curve_derivatives(curve, s: float, d1, d2):
    if d1 is not None and d2 is not None:
        return float(d1(s)), float(d2(s))
    if hasattr(curve, "derivative"):
        return float(curve.derivative(1)(s)), float(curve.derivative(2)(s))
    # spline fallback on a local window around s
    lo = max(s * 0.5, 1e-12)
    grid = np.linspace(lo, s * 1.5, 41)
    spl = CubicSpline(grid, [float(curve(u)) for u in grid])
    return float(spl(s, 1)), float(spl(s, 2))


def match_volatility(
    direction: str,
    curve: Callable,
    s: float,
    curve_d1: Optional[Callable] = None,
    curve_d2: Optional[Callable] = None,
) -> float:
    """Convert between term European vol and term Asian vol at maturity s.

    direction "implied-to-tau": given the European (implied) term curve
    sigma_I, return tau(s) = sqrt( (2/s^3) Int_0^s sigma_I(u)^2 (u s - u^2) du ).

    direction "tau-to-implied": given the Asian term curve tau, return
    sigma_I(s) = tau * sqrt( 3 + 6 s tau'/tau + s^2 (tau'/tau)^2
                             + s^2 tau''/tau ).
    Derivatives come from ``curve_d1``/``curve_d2`` when supplied, from
    ``curve.derivative`` when the curve is a spline, and from a local cubic
    spline fit otherwise.  A negative square-root bracket is reported as a
    domain error, never clamped.
    """
    if not s > 0.0:
        raise DomainError(f"maturity must be positive, got {s}")
    if direction == "implied-to-tau":
        integrand = lambda u: float(curve(u)) ** 2 * (u * s - u * u)
        val, err = quad(integrand, 0.0, s, epsabs=_VOL_TOL * s**3, epsrel=_VOL_TOL, limit=200)
        if err > 100 * max(_VOL_TOL * s**3, _VOL_TOL * abs(val)):
            raise NumericError(
                f"vol-matching quadrature did not converge: error {err:.3e}"
            )
        return math.sqrt(max(val, 0.0) * 2.0 / s**3)
    if direction == "tau-to-implied":
        tau = float(curve(s))
        if tau <= 0.0:
            raise DomainError(f"tau({s}) = {tau} must be positive")
        td1, td2 = _curve_derivatives(curve, s, curve_d1, curve_d2)
        ratio = td1 / tau
        bracket = 3.0 + 6.0 * s * ratio + (s * ratio) ** 2 + s * s * td2 / tau
        if bracket < 0.0:
            raise DomainError(
                f"tau-to-implied bracket is negative at s={s}: {bracket:.6g}; "
                "the tau curve is not attainable from any implied curve"
            )
        return tau * math.sqrt(bracket)
    raise ValidationError(
        f"direction must be 'implied-to-tau' or 'tau-to-implied', got '{direction}'"
    )


# ---------------------------------------------------------------------------
# geometric-average Asian under Black-Scholes (exact lognormal)
# ---------------------------------------------------------------------------

def geometric_bs(sigma: float, params: MarketParams, payoff: str, K: float, T: float):
    """Exact price and delta of a geometric-average Asian call/put under BS.

    The log-average (1/T) Int_0^T log S_t dt is Gaussian with mean
    log S0 + (r - q - sigma^2/2) T/2 and variance sigma^2 T / 3, so the
    geometric-average option is a Black-Scholes option on a lognormal
    variable; prices are discounted at e^{-rT}.  Returns (price, delta).
    """
    if payoff not in ("call", "put"):
        raise ValidationError(f"geometric_bs payoff must be call or put, got '{payoff}'")
    if not sigma >= 0.0:
        raise DomainError(f"sigma must be nonnegative, got {sigma}")
    if not (T > 0.0 and K > 0.0):
        raise DomainError(f"need T > 0 and K > 0, got T={T}, K={K}")
    disc = math.exp(-params.r * T)
    mean_log = math.log(params.S0) + (params.r - params.q - 0.5 * sigma * sigma) * T / 2.0
    var_log = sigma * sigma * T / 3.0

    if var_log == 0.0:
        g = math.exp(mean_log)
        if payoff == "call":
            price = disc * max(g - K, 0.0)
            delta = disc * g / params.S0 if g > K else 0.0
        else:
            price = disc * max(K - g, 0.0)
            delta = -disc * g / params.S0 if g < K else 0.0
        return price, delta

    sd = math.sqrt(var_log)
    mean_g = math.exp(mean_log + 0.5 * var_log)
    d1 = (mean_log - math.log(K) + var_log) / sd
    d2 = d1 - sd
    if payoff == "call":
        price = disc * (mean_g * ndtr(d1) - K * ndtr(d2))
        delta = disc * ndtr(d1) * mean_g / params.S0
    else:
        price = disc * (K * ndtr(-d2) - mean_g * ndtr(-d1))
        delta = -disc * ndtr(-d1) * mean_g / params.S0
    return price, delta
