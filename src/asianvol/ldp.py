"""Rate function for the short-maturity tail of the average, plus decay fits.

For a time-independent volatility sigma(x), the exponential decay rate of
OTM Asian prices and deltas as T -> 0 is governed by the constrained
variational problem

    I(x, y) = min { (1/2) Int_0^1 (g'(t) / sigma(e^{g(t)}))^2 dt :
                    g absolutely continuous, g(0) = log y,
                    Int_0^1 e^{g(t)} dt = x }

(y the starting spot, x the target average).  The problem holds a
level-only `LocalVolSurface`; both solvers read the weight
w(g) = sigma(e^g)^-2 and its derivative w'(g) = -2 sigma^-3 (a' - sigma)
from one fused `surface.sigma(0, e^g, 1)` call, where a' = d(sigma x)/dx is
the surface's closed-form coefficient derivative.  Two independent solvers
are provided:

* `rate_function` - the product: first-discretize-then-optimize.  g lives
  on a uniform grid, the objective uses forward-difference slopes with
  trapezoidal coefficient averaging, the integral constraint is enforced
  by an augmented-Lagrangian outer loop, and the inner minimizations run
  L-BFGS with an analytic gradient.
* `rate_function_shooting` - the oracle: the Euler-Lagrange boundary-value
  problem (free right endpoint, so g'(1) = 0) is solved by shooting on
  the initial slope and the constraint multiplier with an adaptive
  integrator.  Used only to cross-check the direct solver.

Neither method is guaranteed to find a global minimizer; when they
disagree, the smaller objective is the better upper bound for I.

`decay_slope` closes the loop with prices: it fits T log(value) against
a constant plus vanishing corrections (T log T and T terms) and reports
how far the extrapolated constant is from -I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize, root

from .errors import DomainError, NumericError, ValidationError
from .model import LocalVolSurface

__all__ = [
    "RateFunctionProblem",
    "RateFunctionResult",
    "DecayReport",
    "rate_function",
    "rate_function_shooting",
    "decay_slope",
    "problem_from_surface",
]

# rate_function's augmented-Lagrangian schedule and convergence bounds
_MAX_OUTER = 14
_PENALTY0 = 10.0
_PENALTY_FACTOR = 10.0
_CONSTRAINT_TOL = 1e-8
_EL_TOL = 1e-5


@dataclass(frozen=True)
class RateFunctionProblem:
    """Inputs of the variational problem: the surface, target x, start y.

    surface must be a level-only `LocalVolSurface` (the decay theory
    requires time-independent volatility); the solvers evaluate it at t = 0
    and take w' from its a' rather than by differencing sigma.  grid_n is
    the number of grid intervals of the direct solver.
    """

    surface: LocalVolSurface
    x: float
    y: float
    grid_n: int = 200

    def __post_init__(self) -> None:
        if not isinstance(self.surface, LocalVolSurface):
            raise ValidationError(
                f"surface must be a LocalVolSurface, got {type(self.surface).__name__}"
            )
        if self.surface.is_time_dependent:
            raise ValidationError(
                "the rate function is defined for time-independent volatility only"
            )
        if not (self.x > 0.0 and self.y > 0.0):
            raise ValidationError(f"x and y must be positive, got x={self.x}, y={self.y}")
        if not (isinstance(self.grid_n, (int, np.integer)) and self.grid_n >= 2):
            raise ValidationError(f"grid_n must be an integer >= 2, got {self.grid_n}")


@dataclass
class RateFunctionResult:
    """Solver output: the value, the optimal path, and convergence data."""

    value: float
    t: np.ndarray
    g: np.ndarray
    constraint_residual: float  # relative: |Int e^g - x| / x
    el_residual: float          # sup-norm of the discrete stationarity gradient
    multiplier: float
    converged: bool
    n_outer: int


def problem_from_surface(
    surface: LocalVolSurface, x: float, y: float, grid_n: int = 200
) -> RateFunctionProblem:
    """Build a problem from a level-only volatility surface (t frozen at 0)."""
    return RateFunctionProblem(surface=surface, x=x, y=y, grid_n=grid_n)


def _weight(surface: LocalVolSurface, lvl):
    """w = sigma^-2 and w' = d/dg sigma(e^g)^-2 at lvl = e^g (scalar or array).

    One fused call gives sigma and a' = d(sigma x)/dx, so
    w' = -2 sigma^-3 x dsigma/dx = -2 sigma^-3 (a' - sigma).
    """
    s, ap = surface.sigma(0.0, lvl, 1)
    if not np.all((s > 0.0) & (s < np.inf)):
        raise DomainError("sigma must be finite and positive on the visited range")
    return s**-2.0, -2.0 * s**-3.0 * (ap - s)


# ---------------------------------------------------------------------------
# direct solver
# ---------------------------------------------------------------------------

def rate_function(problem: RateFunctionProblem) -> RateFunctionResult:
    """Minimize the discretized action under the integral constraint.

    The path is initialized as the straight line from log y whose endpoint
    is adjusted so the trapezoidal constraint holds exactly, then driven to
    a constrained stationary point by the augmented-Lagrangian loop.  A run
    that exhausts the outer budget comes back with converged=False and the
    achieved residuals rather than raising.
    """
    n, h = problem.grid_n, 1.0 / problem.grid_n
    x, y = problem.x, problem.y
    log_y = math.log(y)
    t = np.linspace(0.0, 1.0, n + 1)

    # trapezoid weights of the constraint integral
    cw = np.full(n + 1, h)
    cw[0] = cw[-1] = 0.5 * h

    def constraint(g: np.ndarray) -> float:
        return float(cw @ np.exp(g)) - x

    def objective_and_grad(g: np.ndarray):
        w, wp = _weight(problem.surface, np.exp(g))
        d = np.diff(g) / h
        m = 0.5 * (w[:-1] + w[1:])
        f = 0.5 * h * float(d**2 @ m)
        # gradient over all nodes; node 0 stays fixed
        grad = np.zeros(n + 1)
        grad[:-1] -= d * m
        grad[1:] += d * m
        dsq = d**2
        grad[:-1] += 0.25 * h * dsq * wp[:-1]
        grad[1:] += 0.25 * h * dsq * wp[1:]
        return f, grad

    def feasible_line() -> np.ndarray:
        # endpoint a such that the trapezoid integral of exp(line) equals x
        def gap(a):
            return float(cw @ np.exp(log_y + (a - log_y) * t)) - x

        lo = min(log_y, math.log(x)) - 3.0
        hi = max(log_y, math.log(x)) + 3.0
        a = brentq(gap, lo, hi, xtol=1e-14)
        return log_y + (a - log_y) * t

    g = feasible_line()
    lam, mu = 0.0, _PENALTY0
    n_outer = 0
    for n_outer in range(1, _MAX_OUTER + 1):

        def lagrangian(free: np.ndarray):
            gg = np.concatenate(([log_y], free))
            f, grad = objective_and_grad(gg)
            c = constraint(gg)
            gc = cw * np.exp(gg)
            val = f + lam * c + 0.5 * mu * c * c
            grad_full = grad + (lam + mu * c) * gc
            return val, grad_full[1:]

        res = minimize(
            lagrangian,
            g[1:],
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12},
        )
        g = np.concatenate(([log_y], res.x))
        c = constraint(g)
        lam += mu * c
        if abs(c) <= _CONSTRAINT_TOL * x:
            break
        mu *= _PENALTY_FACTOR

    f, grad = objective_and_grad(g)
    gc = cw * np.exp(g)
    el = float(np.max(np.abs((grad + lam * gc)[1:])))
    c_rel = abs(constraint(g)) / x
    return RateFunctionResult(
        value=f,
        t=t,
        g=g,
        constraint_residual=c_rel,
        el_residual=el,
        multiplier=lam,
        converged=(c_rel <= _CONSTRAINT_TOL and el <= _EL_TOL),
        n_outer=n_outer,
    )


# ---------------------------------------------------------------------------
# shooting oracle
# ---------------------------------------------------------------------------

def rate_function_shooting(problem: RateFunctionProblem) -> float:
    """Solve the Euler-Lagrange BVP by shooting; returns the objective.

    Stationarity of the constrained action gives

        d/dt (g' w(g)) = (1/2) g'^2 w'(g) + lam e^g,   w(g) = sigma(e^g)^-2,

    with g(0) = log y fixed and the natural condition g'(1) = 0.  The
    two unknowns (initial slope, multiplier lam) are found by a root
    search on (g'(1), Int e^g - x).  Requires sigma continuously
    differentiable along the path.  Raises NumericError when no root is
    bracketed from any of the coarse starting points.
    """
    x, y = problem.x, problem.y
    if math.isclose(x, y, rel_tol=1e-14):
        return 0.0
    surface = problem.surface
    log_y = math.log(y)

    def rhs(t, state, lam):
        g, p, _, _ = state
        lvl = math.exp(g)
        w, wp = _weight(surface, lvl)
        return [p, (lam * lvl - 0.5 * p * p * wp) / w, lvl, 0.5 * p * p * w]

    def integrate(p0: float, lam: float):
        return solve_ivp(
            rhs,
            (0.0, 1.0),
            [log_y, p0, 0.0, 0.0],
            args=(lam,),
            method="RK45",
            rtol=1e-10,
            atol=1e-12,
        )

    def residuals(v):
        sol = integrate(v[0], v[1])
        if not sol.success or not np.all(np.isfinite(sol.y[:, -1])):
            return np.array([1e3, 1e3])
        _, p1, a1, _ = sol.y[:, -1]
        return np.array([p1, (a1 - x) / x])

    # linearized-problem starting guesses, then coarse rescalings
    d = x / y - 1.0
    p0_guess = 3.0 * d
    lam_guess = -3.0 * d * _weight(surface, y)[0] / y
    for scale in (1.0, 0.5, 2.0, 0.25, 4.0, 0.1):
        sol = root(residuals, [p0_guess * scale, lam_guess * scale], method="hybr")
        if sol.success and np.max(np.abs(residuals(sol.x))) < 1e-8:
            final = integrate(sol.x[0], sol.x[1])
            return float(final.y[3, -1])
    raise NumericError(
        f"shooting found no solution for x={x}, y={y} from any starting point"
    )


# ---------------------------------------------------------------------------
# decay-slope regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    """Extrapolated limit of T log(value) and its distance from -I."""

    limit: float
    target: float  # -I_ref
    gap: float
    coefficients: tuple  # (constant, T log T, T)
    n_points: int


def decay_slope(
    T_grid: Sequence[float], values: Sequence[float], I_ref: float
) -> DecayReport:
    """Fit T log(value) = a + b (T log T) + c T and compare a with -I_ref.

    Exponentially decaying quantities v ~ C T^q exp(-I/T) satisfy
    T log v = -I + q (T log T) + T log C, so the regression basis captures
    power-law prefactors exactly and `limit` estimates -I.
    """
    T = np.asarray(T_grid, dtype=float)
    v = np.asarray(values, dtype=float)
    if T.shape != v.shape or T.ndim != 1:
        raise ValidationError("T_grid and values must be 1-d of equal length")
    if len(T) < 3:
        raise ValidationError("need at least 3 points to fit the decay")
    if not np.all(np.diff(T) < 0.0):
        raise ValidationError("T_grid must be strictly decreasing")
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise DomainError("values must be positive and finite")
    lhs = T * np.log(v)
    basis = np.column_stack([np.ones_like(T), T * np.log(T), T])
    coef, *_ = np.linalg.lstsq(basis, lhs, rcond=None)
    limit = float(coef[0])
    target = -float(I_ref)
    return DecayReport(
        limit=limit,
        target=target,
        gap=abs(limit - target),
        coefficients=tuple(float(c) for c in coef),
        n_points=len(T),
    )
