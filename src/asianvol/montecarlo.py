"""Path simulation and Monte Carlo estimators for the local-vol model.

One Brownian driver, eight processes.  On a uniform grid t_j = j dt over
[0, T] the engine evolves, per path and all from the same increments:

* ``S``  - the spot:          dS = (r-q) S dt + sigma(t,S) S dW
* ``Z``  - its S0-sensitivity: dZ = (r-q) Z dt + dcoef_dx(t,S) Z dW, Z0 = 1
* ``X``  - driftless spot:     dX = sigma(t,X) X dW, X0 = S0
* ``Y``  - its S0-sensitivity: dY = dcoef_dx(t,X) Y dW, Y0 = 1
* ``Xt`` - coefficients frozen at (t, S0), lognormal:  dXt = sigma(t,S0) Xt dW
* ``Yt`` - frozen sensitivity, lognormal:              dYt = dcoef_dx(t,S0) Yt dW
* ``Xh`` - frozen Gaussian:    dXh = sigma(t,S0) S0 dW
* ``Yh`` - frozen Gaussian sensitivity: dYh = dcoef_dx(t,S0) dW

One stepping kernel, _sim_block, evolves a block of paths, one (B,) row
per process.  (S, Z) at drift r-q and (X, Y) at drift 0 go through the
same level/sensitivity step, with coefficients at the left grid point from
one coefficient call per step (the fused sigma(t, x, 1) when the
sensitivity is evolved, sigma(t, x, 2) for a Malliavin weight): the level
steps by Euler or log-Euler (selected in SimConfig), the sensitivity by
Euler, so at zero drift the two pairs agree bit for bit.  The frozen
processes step by their exact factors or increments, with coefficients
sigma(t_j, S0) and dcoef_dx(t_j, S0) from one call.  A process that leaves
its domain (non-finite, or a nonpositive level) is held at its last valid
value and its path is marked exploded.  The kernel keeps the trapezoid
averages its caller names, then hands each step's rows to the caller's
fold: the Malliavin weights' prefix sums, or simulate's histories.

Randomness is counter-based and addressed by (seed, path, step).  The
kernel draws nothing: it steps the increments it is handed, and one
helper, _increments, makes a block's increments from its normals.  Every
estimator hands its per-path values to one block reducer, _reduce, which
works on a fixed block structure: means are compensated sums of the
blocks' pairwise sums, and covariances merge per-block moments in block
order, so every estimate is bit-identical for any thread count.  The
reducer also counts exploded paths and fails if more than 0.1% of paths
are excluded.

The Asian price has a controlled estimator, mc_asian_price_cv: its
control is the payoff of the geometric (trapezoid log-) average of the
frozen-coefficient lognormal process dS~ = (r-q) S~ dt + sigma(t,S0) S~ dW
on the same increments, whose law is Gaussian in log and known in closed
form on the simulation grid (Kemna & Vorst 1990; Glasserman 2003, 4.1).

Delta estimators: central finite differences re-simulate with identical
increments for both legs (common random numbers), and Malliavin-weight
estimators multiply the payoff by an integration-by-parts weight built
from the (S, Z) pair, so they stay exact in the drift.  The Asian weight
for F = (1/T) Int S dt is

    weight = F1 * sum_j u_j dW_j + F1^2 * sum_j u_j K_j dt,

with F1 = 1 / Int Z dt, u_j = 2 Z_j^2 / (sigma_j S_j), and K_j the
tail integral Int_{t_j}^T D_{t_j} Z_t dt evaluated in closed form from
the second-variation prefix sums (see _asian_weights); the European
weight is the three-term Skorokhod representation with G = S_T / Z_T.
Both are carried through the step loop as prefix sums.  Paths whose
denominators fall below 1e-6 of their expected scale get weight zero
(mirroring the indicator truncations that make the weights integrable)
and are counted in diagnostics.

Memory per block per thread: the draw's one (B, steps) array, which becomes
the increments, at most one copy of it kept by _rng, and a few (B,) rows; a
traced 200-step block peaks at _BLOCK_PEAK arrays.  A run whose block would
hold more than _MAX_ELEMENTS values at that peak is refused before any draw.
simulate holds its whole run (eight histories and the increments) and its
draws, and refuses a run whose histories and increments pass _MAX_ELEMENTS.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._rng import BLOCK, normal_block
from .asymptotics import gaussian_expectation
from .errors import DomainError, NumericError, ValidationError
from .model import LocalVolSurface, MarketParams, PayoffSpec

__all__ = [
    "PROCESS_NAMES",
    "SimConfig",
    "PathBundle",
    "McEstimate",
    "simulate",
    "mc_price",
    "mc_asian_price_cv",
    "mc_delta_fd",
    "mc_delta_malliavin",
]

PROCESS_NAMES = ("S", "X", "Y", "Z", "Xt", "Yt", "Xh", "Yh")
_STYLES = ("asian", "european", "geometric")
_MAX_ELEMENTS = 2e8  # float64 values one block or one simulate run may hold
_BLOCK_PEAK = 2.2  # (B, steps) arrays at a traced block's peak: the draw, one kept copy, (B,) rows


@dataclass(frozen=True)
class SimConfig:
    """Grid, path count, seed, and scheme for one simulation run."""

    steps: int
    n_paths: int
    seed: int
    scheme: str = "log-euler"
    threads: int = 1

    def __post_init__(self) -> None:
        if not (isinstance(self.steps, (int, np.integer)) and self.steps >= 2):
            raise ValidationError(f"steps must be an integer >= 2, got {self.steps}")
        if not (isinstance(self.n_paths, (int, np.integer)) and self.n_paths >= 1):
            raise ValidationError(f"n_paths must be a positive integer, got {self.n_paths}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValidationError(f"seed must be a 64-bit integer, got {self.seed}")
        if self.scheme not in ("euler", "log-euler"):
            raise ValidationError(f"scheme must be euler or log-euler, got '{self.scheme}'")
        if not (isinstance(self.threads, (int, np.integer)) and self.threads >= 1):
            raise ValidationError(f"threads must be a positive integer, got {self.threads}")


@dataclass
class PathBundle:
    """Simulated paths plus trapezoidal averages, all on one driver."""

    t: np.ndarray
    processes: dict
    averages: dict  # "S", "X", "Y", "logS": (1/T) Int . dt
    increments: np.ndarray
    exploded: np.ndarray
    n_exploded: int
    config: SimConfig


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error and run diagnostics."""

    mean: float
    std_error: float
    n_paths: int
    estimator: str
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# core stepping kernel
# ---------------------------------------------------------------------------

def _t_left(T: float, steps: int) -> np.ndarray:
    """The left grid points t_j = j T / steps, j < steps."""
    return (T / steps) * np.arange(steps)


def _increments(T: float, cfg: SimConfig, lo: int, hi: int) -> np.ndarray:
    """The Brownian increments of paths [lo, hi): their normals, scaled in place by sqrt(dt)."""
    dW = normal_block(cfg.seed, cfg.steps, lo, hi)
    dW *= math.sqrt(T / cfg.steps)
    return dW


def _sim_block(surface: LocalVolSurface, params: MarketParams, T: float, cfg: SimConfig,
               lo: int, hi: int, dW: np.ndarray, include: Sequence[str], fold=None,
               order: int = 0, average: Sequence[str] = ()):
    """Step paths [lo, hi) of the included processes; returns (ends, averages, exploded).

    dW holds the block's increments, shape (hi - lo, steps); it is read,
    never written.  A sensitivity is evolved only when included, its level
    whenever either of the pair is.  A level's coefficients are
    sigma(t_j, L, k), the tuple (sigma, a', a'')[:k + 1], with k = order,
    raised to 1 when its sensitivity is evolved.  After each step's domain
    check, fold(j, rows, new, coefs, dW_j), if given, sees the rows at t_j
    and at t_{j+1} and the coefficient tuples, dicts by name.  ``ends``
    maps each included name to its row at T; ``averages`` maps each name in
    ``average`` ("S", "X", "Y", or "logS" for log S; the row must be
    evolved) to (1/T) Int . dt by the trapezoid rule, summed panel by panel
    in time order; ``exploded`` marks the paths on which any evolved
    process left its domain.
    """
    steps, dt = cfg.steps, T / cfg.steps
    S0, B = params.S0, hi - lo
    pairs = [(level, sens, mu, max(order, int(sens in include)))
             for level, sens, mu in (("S", "Z", params.drift), ("X", "Y", 0.0))
             if level in include or sens in include]
    frozen = [name for name in ("Xt", "Yt", "Xh", "Yh") if name in include]
    evolved = [n for level, sens, _, _ in pairs for n in (level, sens) if n == level or n in include]
    rows = {name: np.full(B, S0 if name[0] in "SX" else 1.0) for name in evolved + frozen}
    if frozen:  # Xt, Yt: exact lognormal factors; Xh, Yh: Gaussian increments c x0 dW
        sig0, nu0 = surface.sigma(_t_left(T, steps), S0, 1)
        c = {"X": sig0, "Y": nu0}
        m = {name: -0.5 * c[name[0]]**2 * dt for name in frozen if name[1] == "t"}
        g = {name: c[name[0]] * rows[name][0] if name[1] == "h" else c[name[0]]
             for name in frozen}
    checked = [(name, 0.0 if name in "SX" else -np.inf) for name in evolved]
    sums = [(name.removeprefix("log"), name.startswith("log")) for name in average]
    left = [np.log(rows[src]) if log else rows[src] for src, log in sums]
    acc = np.zeros((len(sums), B))
    exploded = np.zeros(B, dtype=bool)
    for j in range(steps):
        tj, dWj, new, coefs = j * dt, dW[:, j], {}, {}
        for level, sens, mu, k in pairs:
            x = rows[level]
            co = coefs[level] = surface.sigma(tj, x, k) if k else (surface.sigma(tj, x),)
            if cfg.scheme == "log-euler":
                new[level] = x * np.exp((mu - 0.5 * co[0]**2) * dt + co[0] * dWj)
            else:
                new[level] = x * (1.0 + mu * dt + co[0] * dWj)
            if sens in rows:
                z = rows[sens]
                new[sens] = z * (1.0 + mu * dt) + co[1] * z * dWj
        for name in frozen:
            step = g[name][j] * dWj
            new[name] = rows[name] * np.exp(m[name][j] + step) if name in m else rows[name] + step
        for name, low in checked:
            row = new[name]
            if not (row.min() > low and row.max() < np.inf):  # a NaN fails too
                bad = ~((row > low) & (row < np.inf))
                row[bad] = rows[name][bad]
                exploded |= bad
        for i, (src, log) in enumerate(sums):
            right = np.log(new[src]) if log else new[src]
            acc[i] += 0.5 * (left[i] + right) * dt
            left[i] = right
        if fold is not None:
            fold(j, rows, new, coefs, dWj)
        rows = new
    for name in frozen:
        exploded |= ~np.isfinite(rows[name])  # a non-finite value persists
    return {name: rows[name] for name in include}, dict(zip(average, acc / T)), exploded


def _block_ranges(n: int):
    return [(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK)]


def _map_blocks(fn, ranges, threads: int):
    """Apply fn over block ranges, preserving block order in the result."""
    if threads <= 1 or len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(lambda r: fn(*r), ranges))


def _reduce(block_fn, cfg: SimConfig):
    """(n_valid, means, cov, excluded, flagged) of per-path columns over all paths.

    block_fn(lo, hi) returns (cols, excluded, flagged): k arrays holding one
    value per valid path of the block, and the block's counts of excluded
    (exploded) and flagged paths.  The means are compensated sums of the
    blocks' pairwise sums over n_valid.  cov is the k x k population
    covariance: each block's moments are taken about its first valid path,
    so a column without spread has covariance exactly 0, and the blocks are
    merged in block order by the pairwise update of Chan, Golub & LeVeque
    (1979).  Both are bit-identical for any thread count.  More than 0.1%
    of paths excluded (every path, in particular) raises NumericError.  A
    block that would peak over _MAX_ELEMENTS values is refused before any
    draw, at any thread count.
    """
    held = _BLOCK_PEAK * min(cfg.n_paths, BLOCK) * cfg.steps
    if held > _MAX_ELEMENTS:
        raise ValidationError(f"a block of {held:.3g} values is over {_MAX_ELEMENTS:g}")

    def moments(lo, hi):
        cols, excluded, flagged = block_fn(lo, hi)
        n = len(cols[0])
        sums = [float(np.add.reduce(c)) for c in cols]
        if n == 0:
            return n, sums, None, None, excluded, flagged
        d = [c - c[0] for c in cols]
        off = [float(np.add.reduce(x)) / n for x in d]
        d = [x - o for x, o in zip(d, off)]
        mean = np.array([c[0] + o for c, o in zip(cols, off)])
        m2 = np.array([[np.add.reduce(x * y) for y in d] for x in d])
        return n, sums, mean, m2, excluded, flagged

    parts = _map_blocks(moments, _block_ranges(cfg.n_paths), cfg.threads)
    excluded = sum(p[4] for p in parts)
    if excluded > 0.001 * cfg.n_paths:
        raise NumericError(
            f"{excluded} of {cfg.n_paths} paths exploded (> 0.1%); "
            "the scheme is unstable on this configuration"
        )
    n, mean, m2 = 0, 0.0, 0.0
    for nb, _, mean_b, m2_b, _, _ in parts:
        if nb:
            delta, n = mean_b - mean, n + nb
            mean = mean + delta * (nb / n)
            m2 = m2 + m2_b + np.outer(delta, delta) * ((n - nb) * nb / n)
    means = [math.fsum(p[1][i] for p in parts) / n for i in range(len(parts[0][1]))]
    return n, means, m2 / n, excluded, sum(p[5] for p in parts)


# ---------------------------------------------------------------------------
# simulation with full histories
# ---------------------------------------------------------------------------

def simulate(surface: LocalVolSurface, params: MarketParams, T: float, cfg: SimConfig) -> PathBundle:
    """Full-history simulation of all eight processes on one driver, for inspection.

    Each block writes its rows straight into whole-run time-major histories
    (``processes`` holds their transposes) and its increments into one
    (n_paths, steps) array; the averages are the kernel's trapezoid sums.
    A run whose histories and increments would hold more than _MAX_ELEMENTS
    values is refused before any draw.
    """
    if not 0.0 < T < math.inf:
        raise DomainError(f"T must be finite and positive, got {T}")
    n, steps = cfg.n_paths, cfg.steps
    total = n * ((steps + 1) * len(PROCESS_NAMES) + steps)
    if total > _MAX_ELEMENTS:
        raise ValidationError(
            f"history of {total:.2g} elements is too large; use the estimators, "
            "which stream in blocks"
        )
    hist = {name: np.empty((steps + 1, n)) for name in PROCESS_NAMES}
    dW, exploded = np.empty((n, steps)), np.empty(n, dtype=bool)
    averages = {name: np.empty(n) for name in ("S", "X", "Y", "logS")}

    def block(lo, hi):
        def keep(j, rows, new, coefs, dWj):
            for name in PROCESS_NAMES:
                hist[name][j, lo:hi] = rows[name]

        dW[lo:hi] = _increments(T, cfg, lo, hi)
        ends, avg, exploded[lo:hi] = _sim_block(surface, params, T, cfg, lo, hi, dW[lo:hi],
                                                PROCESS_NAMES, keep, average=tuple(averages))
        for name in PROCESS_NAMES:
            hist[name][-1, lo:hi] = ends[name]
        for name, a in avg.items():
            averages[name][lo:hi] = a

    _map_blocks(block, _block_ranges(n), cfg.threads)
    return PathBundle(
        t=np.linspace(0.0, T, steps + 1),
        processes={name: h.T for name, h in hist.items()},
        averages=averages,
        increments=dW,
        exploded=exploded,
        n_exploded=int(exploded.sum()),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _style_leg(surface, params, style: str, T: float, cfg: SimConfig, lo, hi,
               include=("S",), fold=None, order: int = 0):
    """(payoff arguments, exploded, dW, ends) of paths [lo, hi) on their own increments.

    The argument is the kernel's trapezoid average of S (asian), S_T
    (european), or exp of the trapezoid average of log S (geometric).
    """
    dW = _increments(T, cfg, lo, hi)
    average = {"asian": ("S",), "geometric": ("logS",)}.get(style, ())
    ends, averages, exploded = _sim_block(
        surface, params, T, cfg, lo, hi, dW, include, fold, order, average)
    x = averages[average[0]] if average else ends["S"]
    return (np.exp(x) if style == "geometric" else x), exploded, dW, ends


def mc_price(
    surface: LocalVolSurface,
    params: MarketParams,
    payoff: PayoffSpec,
    style: str,
    T: float,
    cfg: SimConfig,
) -> McEstimate:
    """Discounted plain Monte Carlo price: e^{-rT} mean of the payoff.

    The payoff argument is the trapezoidal average of S (asian), the
    terminal S_T (european), or exp of the average log S (geometric).
    """
    if style not in _STYLES:
        raise ValidationError(f"style must be one of {_STYLES}, got '{style}'")
    if not 0.0 < T < math.inf:
        raise DomainError(f"T must be finite and positive, got {T}")

    def block_fn(lo, hi):
        x, exploded = _style_leg(surface, params, style, T, cfg, lo, hi)[:2]
        return [payoff.value(x[~exploded])], int(exploded.sum()), 0

    n, mean, cov, excluded, _ = _reduce(block_fn, cfg)
    disc = math.exp(-params.r * T)
    return McEstimate(
        disc * mean[0], disc * math.sqrt(cov[0, 0] / n), n, f"mc-price-{style}",
        {"excluded": excluded},
    )


# --- the frozen geometric-average control ----------------------------------

def _frozen_log_average(surface: LocalVolSurface, params: MarketParams, T: float, steps: int):
    """(a, m, v) with the frozen trapezoid log-average equal to m + dW @ a.

    log S~ steps exactly by (mu - sigma_j^2 / 2) dt + sigma_j dW_j, with
    sigma_j = sigma(t_j, S0) held at the left point as for Xt; increment j
    enters the trapezoid average of log S~ with weight
    c_j = (steps - j - 1/2) / steps, so the average is Gaussian with mean m
    and variance v = dt sum_j (c_j sigma_j)^2.
    """
    dt = T / steps
    sig = surface.sigma(_t_left(T, steps), params.S0)
    c = (steps - np.arange(steps) - 0.5) / steps
    a = c * sig
    m = math.log(params.S0) + dt * math.fsum(c * (params.drift - 0.5 * sig * sig))
    return a, m, dt * math.fsum(a * a)


def _control(payoff: PayoffSpec, m: float, v: float):
    """The control's function of G and its mean E[fn(G)] for log G ~ N(m, v).

    The mean is a Gaussian expectation split at the payoff's kinks.  A user
    table is held flat beyond its ends (value() refuses to extrapolate):
    the frozen geometric average may leave the table's range where the
    arithmetic average does not, and the quadrature always reaches beyond it.
    """
    fn, kinks = payoff.value, payoff.kinks()
    if payoff.family == "user-table":
        lo, hi = payoff.table_x[0], payoff.table_x[-1]
        fn, kinks = (lambda g: payoff.value(np.clip(g, lo, hi))), (lo,) + kinks + (hi,)
    if v == 0.0:
        return fn, float(fn(math.exp(m)))
    sd = math.sqrt(v)
    mean, _ = gaussian_expectation(
        lambda z: fn(np.exp(m + sd * z)),
        kinks=tuple((math.log(k) - m) / sd for k in kinks if k > 0.0),
    )
    return fn, mean


def mc_asian_price_cv(
    surface: LocalVolSurface,
    params: MarketParams,
    payoff: PayoffSpec,
    T: float,
    cfg: SimConfig,
) -> McEstimate:
    """Discounted Asian price with the frozen geometric-average control variate.

    Y = phi(A) is the payoff of the trapezoidal average of S, as in
    mc_price; the control X = phi(G) is the payoff of exp of the frozen
    process's trapezoid log-average, log G = m + sum_j a_j dW_j on the same
    increments (one mat-vec per block), and E[X] is a one-dimensional
    Gaussian expectation split at the payoff's kinks.  The estimate is
    mean(Y) - beta (mean(X) - E[X]) with beta = Cov(X, Y) / Var(X) fitted on
    the same paths; its standard error is that of Y - beta X.  Both come from
    the means and covariance of the (Y, X) columns from _reduce, so the result
    is bit-identical for any thread count.  A control without spread (v = 0,
    zero volatility) has Var(X) = 0 exactly and gets beta = 0, which is the
    plain estimate.  Exploded paths are left out of both columns.
    Diagnostics add beta and the variance-reduction factor
    Var(Y) / Var(Y - beta X).
    """
    if not 0.0 < T < math.inf:
        raise DomainError(f"T must be finite and positive, got {T}")
    a, m, v = _frozen_log_average(surface, params, T, cfg.steps)
    control, control_mean = _control(payoff, m, v)

    def block_fn(lo, hi):
        average, exploded, dW, _ = _style_leg(surface, params, "asian", T, cfg, lo, hi)
        valid = ~exploded
        y = payoff.value(average[valid])
        x = control(np.exp(m + np.einsum("ij,j->i", dW, a)[valid]))
        return [y, x], int(exploded.sum()), 0

    n, (y_bar, x_bar), cov, excluded, _ = _reduce(block_fn, cfg)
    var_y = float(cov[0, 0])
    beta = float(cov[0, 1] / cov[1, 1]) if cov[1, 1] > 0.0 else 0.0
    resid = max(var_y - beta * float(cov[0, 1]), 0.0)
    vr = var_y / resid if resid > 0.0 else (1.0 if var_y == 0.0 else math.inf)
    disc = math.exp(-params.r * T)
    return McEstimate(
        disc * (y_bar - beta * (x_bar - control_mean)), disc * math.sqrt(resid / n), n,
        "mc-price-asian-cv", {"excluded": excluded, "beta": beta, "vr_factor": vr},
    )


def mc_delta_fd(
    surface: LocalVolSurface,
    params: MarketParams,
    payoff: PayoffSpec,
    style: str,
    T: float,
    cfg: SimConfig,
    bump: float = 1e-3,
) -> McEstimate:
    """Central-difference delta with common random numbers.

    Both legs re-simulate from S0*(1 +- bump) with identical Brownian
    increments; the per-path difference quotient is averaged.
    """
    if style not in _STYLES:
        raise ValidationError(f"style must be one of {_STYLES}, got '{style}'")
    if not (1e-5 <= bump <= 1e-1):
        raise DomainError(f"bump must lie in [1e-5, 1e-1], got {bump}")
    if not 0.0 < T < math.inf:
        raise DomainError(f"T must be finite and positive, got {T}")
    p_up = replace(params, S0=params.S0 * (1.0 + bump))
    p_dn = replace(params, S0=params.S0 * (1.0 - bump))
    denom = 2.0 * bump * params.S0

    def block_fn(lo, hi):
        # one leg at a time: only its payoff arguments outlive it
        (up, up_bad), (dn, dn_bad) = (
            _style_leg(surface, p, style, T, cfg, lo, hi)[:2] for p in (p_up, p_dn)
        )
        valid = ~(up_bad | dn_bad)
        v = (payoff.value(up[valid]) - payoff.value(dn[valid])) / denom
        return [v], int((~valid).sum()), 0

    n, mean, cov, excluded, _ = _reduce(block_fn, cfg)
    disc = math.exp(-params.r * T)
    return McEstimate(
        disc * mean[0], disc * math.sqrt(cov[0, 0] / n), n, f"mc-delta-fd-{style}",
        {"excluded": excluded, "bump": bump},
    )


# --- Malliavin weights -----------------------------------------------------
# Each runs one block of the (S, Z) pair, folding the weight's sums into (B,)
# rows from one sigma(t, S, 2) call per step.  With rho = dcoef_dxx, the
# second-variation prefix sum is R_j = sum_{k<j} rho_k Z_k (nu_k dt - dW_k).

def _asian_weights(surface, params: MarketParams, T: float, cfg: SimConfig, lo, hi):
    """(A, weight, flagged, exploded) for F = (1/T) Int S dt on paths [lo, hi).

    With u_j = 2 Z_j^2 / (sigma_j S_j) the weight is
    (1/I) sum u_j dW_j + (1/I^2) sum u_j K_j dt, where I = Int Z dt and
    K_j = Int_{t_j}^T D_{t_j} Z_t dt comes from the closed form
    D_s Z_t = Z_t (nu_s - c_s (R_t - R_s)), c_s = sigma_s S_s / Z_s, as
    K_j = (nu_j + c_j R_j)(P_N - P_j) - c_j (Q_N - Q_j), with P and Q the
    prefix integrals of Z and Z R.  With alpha_j = u_j (nu_j + c_j R_j) and
    u_j c_j = 2 Z_j, sum u_j K_j =
    P_N sum alpha_j - sum alpha_j P_j - 2 (Q_N sum Z_j - sum Z_j Q_j).
    """
    dt = T / cfg.steps
    # integrability floors at 1e-6 of the deterministic expected scale
    mean_Z = np.exp(params.drift * np.linspace(0.0, T, cfg.steps + 1))
    floor_I = 1e-6 * float(np.trapezoid(mean_Z, dx=dt))
    floor_Z = 1e-6 * float(mean_Z.min())
    P, Q, R, du, sa, sap, sz, szq = np.zeros((8, hi - lo))
    min_Z = np.full(hi - lo, np.inf)

    def fold(j, rows, new, coefs, dWj):
        nonlocal P, Q, R, du, sa, sap, sz, szq
        S, Z, Z1 = rows["S"], rows["Z"], new["Z"]
        sig, nu, rho = coefs["S"]
        np.minimum(min_Z, Z, out=min_Z)
        u = 2.0 * Z * Z / (sig * S)
        ZR = Z * R
        alpha = u * nu + 2.0 * ZR
        du += u * dWj
        sa += alpha
        sap += alpha * P
        sz += Z
        szq += Z * Q
        R += rho * Z * (nu * dt - dWj)
        Q += 0.5 * (ZR + Z1 * R) * dt
        P += 0.5 * (Z + Z1) * dt

    A, exploded = _style_leg(surface, params, "asian", T, cfg, lo, hi, ("S", "Z"), fold, 2)[:2]
    F1 = 1.0 / P
    w = F1 * du + F1 * F1 * (P * sa - sap - 2.0 * (Q * sz - szq)) * dt
    return A, w, (P < floor_I) | (min_Z < floor_Z), exploded


def _european_weights(surface, params: MarketParams, T: float, cfg: SimConfig, lo, hi):
    """(S_T, weight, flagged, exploded) for Phi(S_T) on paths [lo, hi).

    weight = G (sum h_j dW_j + sum h_j (nu_j - c_j (R_N - R_j)) dt) / (S0 T)
             - 1/S0,  with h_j = Z_j / (sigma_j S_j), c_j = 1 / h_j and
    G = S_T / Z_T, so the second sum is sum h_j nu_j - N R_N + sum_{j<N} R_j.
    Exact when dcoef_dx = sigma (level-independent surfaces); otherwise
    accurate to the same O(sqrt(T)) order as the underlying expansion.
    """
    dt, S0 = T / cfg.steps, params.S0
    floor_Z = 1e-6 * math.exp(-abs(params.drift) * T)
    R, dh, shn, sR = np.zeros((4, hi - lo))
    min_Z = np.full(hi - lo, np.inf)

    def fold(j, rows, new, coefs, dWj):
        nonlocal R, dh, shn, sR
        S, Z = rows["S"], rows["Z"]
        sig, nu, rho = coefs["S"]
        np.minimum(min_Z, Z, out=min_Z)
        h = Z / (sig * S)
        dh += h * dWj
        shn += h * nu
        sR += R
        R += rho * Z * (nu * dt - dWj)

    S_T, exploded, _, ends = _style_leg(
        surface, params, "european", T, cfg, lo, hi, ("S", "Z"), fold, 2)
    Z_T = ends["Z"]
    w = S_T / Z_T * (dh + (shn - cfg.steps * R + sR) * dt) / (S0 * T) - 1.0 / S0
    return S_T, w, (min_Z < floor_Z) | (Z_T < floor_Z), exploded


def mc_delta_malliavin(
    surface: LocalVolSurface,
    params: MarketParams,
    payoff: PayoffSpec,
    style: str,
    T: float,
    cfg: SimConfig,
) -> McEstimate:
    """Malliavin-weight delta: e^{-rT} mean of payoff times weight.

    The weights are built from the (S, Z) pair, which keeps them valid
    under nonzero drift (at zero drift S and Z coincide with the driftless
    X and Y sample-by-sample, so this is also the driftless weight).
    Flagged paths (denominator floors) contribute weight zero, mirroring
    the indicator truncation that makes the continuous-time weight
    integrable, and are counted in diagnostics.
    """
    if style not in ("asian", "european"):
        raise ValidationError(
            f"malliavin delta supports asian or european style, got '{style}'"
        )
    if not 0.0 < T < math.inf:
        raise DomainError(f"T must be finite and positive, got {T}")
    weights = _asian_weights if style == "asian" else _european_weights

    def block_fn(lo, hi):
        with np.errstate(divide="ignore", invalid="ignore"):  # such a weight is zeroed
            x, w, flagged, exploded = weights(surface, params, T, cfg, lo, hi)
        w[flagged | ~np.isfinite(w)] = 0.0
        valid = ~exploded
        cols = [payoff.value(x[valid]) * w[valid], w[valid]]
        return cols, int(exploded.sum()), int(flagged[valid].sum())

    n, mean, cov, excluded, flagged = _reduce(block_fn, cfg)
    disc = math.exp(-params.r * T)
    return McEstimate(
        disc * mean[0], disc * math.sqrt(cov[0, 0] / n), n, f"mc-delta-malliavin-{style}",
        {"excluded": excluded, "flagged": flagged, "weight_mean": mean[1],
         "weight_var": float(cov[1, 1])},
    )
