"""Rate function for the short-maturity tail of the average, plus decay fits.

For a time-independent volatility sigma(x), the exponential decay rate of
OTM Asian prices and deltas as T -> 0 is governed by the constrained
variational problem

    I(x, y) = min { (1/2) Int_0^1 (g'(t) / sigma(e^{g(t)}))^2 dt :
                    g absolutely continuous, g(0) = log y,
                    Int_0^1 e^{g(t)} dt = x }

(y the starting spot, x the target average).  The problem holds a
level-only `LocalVolSurface`; both solvers read the weight
w(g) = sigma(e^g)^-2 and its g-derivatives from one fused
`surface.sigma(0, e^g, order)` call, where a' = d(sigma x)/dx and a'' are
the surface's closed-form coefficient derivatives.  Two independent solvers
are provided:

* `rate_function` - the product: first-discretize-then-optimize.  g lives
  on a uniform grid, the objective uses forward-difference slopes with
  trapezoidal coefficient averaging, and the integral constraint is
  enforced by an augmented-Lagrangian outer loop.  Each interval couples
  only its two nodes, so the inner minimizations take damped Newton steps
  on a tridiagonal Hessian plus the penalty's rank-one term: one banded
  Cholesky solve with Sherman-Morrison per step, a Levenberg shift where
  the factorization fails, and Armijo backtracking (Nocedal & Wright,
  Numerical Optimization, 2nd ed., section 3.4 and chapter 17).
* `rate_function_shooting` - the oracle, which keeps the name of the
  shooting solver it replaced because the benchmark calls it by that name.
  Energy is conserved along the Euler-Lagrange path, so the path's
  endpoint is one scalar root over two 1-D integrals, each a Gauss-Legendre
  rule split at sigma's kinks.  Used only to cross-check the direct solver.

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
from scipy.linalg import LinAlgError, solveh_banded
from scipy.optimize import brentq

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
_MAX_NEWTON = 50    # Newton steps per outer iteration
_MAX_HALVINGS = 30  # Armijo step halvings per Newton step
_NEWTON_TOL = 1e-12  # Newton decrement, relative to 1 + |L|, of the last step


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
        if not (0.0 < self.x < np.inf and 0.0 < self.y < np.inf):
            raise ValidationError(f"x, y must be finite and positive, got x={self.x}, y={self.y}")
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


def _weight(surface: LocalVolSurface, lvl, order: int = 1):
    """w = sigma^-2 and its g-derivatives up to `order` at lvl = e^g.

    One fused call gives sigma, a' = d(sigma x)/dx and, at order 2, a''.
    With sigma_g = x dsigma/dx = a' - sigma,
    w' = -2 sigma^-3 sigma_g and w'' = 6 sigma^-4 sigma_g^2 - 2 sigma^-3 (x a'' - sigma_g).
    """
    s, *a = surface.sigma(0.0, lvl, order)
    if not np.all((s > 0.0) & (s < np.inf)):
        raise DomainError("sigma must be finite and positive on the visited range")
    sg = a[0] - s
    w = (s**-2.0, -2.0 * s**-3.0 * sg)
    return w if order == 1 else w + (6.0 * s**-4.0 * sg**2 - 2.0 * s**-3.0 * (lvl * a[1] - sg),)


# ---------------------------------------------------------------------------
# direct solver
# ---------------------------------------------------------------------------

def _action(surface: LocalVolSurface, g: np.ndarray):
    """f = (h/2) sum_i d_i^2 m_i on the uniform grid g (h = 1/(len(g) - 1), d_i the
    forward slope, m_i the mean of w on interval i), its gradient over all nodes
    and its tridiagonal Hessian as (diagonal, off-diagonal)."""
    h = 1.0 / (len(g) - 1)
    w, wp, wpp = _weight(surface, np.exp(g), 2)
    d = np.diff(g) / h
    m = 0.5 * (w[:-1] + w[1:])
    q = 0.25 * h * d**2
    grad, diag = np.zeros(len(g)), np.zeros(len(g))
    grad[:-1] += q * wp[:-1] - d * m
    grad[1:] += q * wp[1:] + d * m
    diag[:-1] += m / h - d * wp[:-1] + q * wpp[:-1]
    diag[1:] += m / h + d * wp[1:] + q * wpp[1:]
    return 0.5 * h * float(d**2 @ m), grad, diag, 0.5 * d * (wp[:-1] - wp[1:]) - m / h


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

    def augmented(free: np.ndarray, lam: float, mu: float):
        # L = f + lam c + mu c^2 / 2 over the free nodes: value, gradient and the
        # Hessian's tridiagonal part (diagonal, off-diagonal) plus mu gc gc^T
        g = np.concatenate(([log_y], free))
        f, grad, diag, off = _action(problem.surface, g)
        c = constraint(g)
        gc = cw * np.exp(g)
        lc = lam + mu * c
        return (f + lam * c + 0.5 * mu * c * c, (grad + lc * gc)[1:], (diag + lc * gc)[1:],
                off[1:], gc[1:])

    def newton_step(grad, diag, off, gc, mu):
        # Sherman-Morrison on one banded Cholesky solve with two right-hand
        # sides; a failed factorization or a non-descent step retries with a
        # growing Levenberg shift tau I on the tridiagonal part
        tau = 0.0
        while True:
            try:
                ab = np.vstack((np.r_[0.0, off], diag + tau))
                z, zc = solveh_banded(ab, np.column_stack((-grad, gc))).T
                step = z - zc * (mu * (gc @ z) / (1.0 + mu * (gc @ zc)))
                if grad @ step <= 0.0:
                    return step
            except LinAlgError:
                pass
            tau = max(2.0 * tau, 1e-6 * float(np.max(np.abs(diag))))

    def feasible_line() -> np.ndarray:
        # endpoint a such that the trapezoid integral of exp(line) equals x
        def gap(a):
            return float(cw @ np.exp(log_y + (a - log_y) * t)) - x

        lo = min(log_y, math.log(x)) - 3.0
        hi = max(log_y, math.log(x)) + 3.0
        a = brentq(gap, lo, hi, xtol=1e-14)
        return log_y + (a - log_y) * t

    free = feasible_line()[1:]
    lam, mu = 0.0, _PENALTY0
    n_outer = 0
    for n_outer in range(1, _MAX_OUTER + 1):
        val, grad, *hess = augmented(free, lam, mu)
        for _ in range(_MAX_NEWTON):
            step = newton_step(grad, *hess, mu)
            slope, alpha = grad @ step, 1.0
            if -slope <= _NEWTON_TOL * (1.0 + abs(val)):
                free = free + step  # converged to rounding: the last, full step
                break
            for _ in range(_MAX_HALVINGS):  # Armijo backtracking on L
                trial = augmented(free + alpha * step, lam, mu)
                if trial[0] <= val + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                break  # no decrease along a descent step: stalled, e.g. at a kink of sigma
            free = free + alpha * step
            val, grad, *hess = trial
        c = constraint(np.concatenate(([log_y], free)))
        lam += mu * c
        if abs(c) <= _CONSTRAINT_TOL * x:
            break
        mu *= _PENALTY_FACTOR

    g = np.concatenate(([log_y], free))
    f, grad, *_ = _action(problem.surface, g)
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
# energy-integral oracle
# ---------------------------------------------------------------------------

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)  # per panel, on [-1, 1]


def rate_function_shooting(problem: RateFunctionProblem) -> float:
    """I from the energy integral of the Euler-Lagrange path; the name is
    kept from the shooting solver this replaced, as the benchmark calls it.

    The Lagrangian has no explicit t, so E = (1/2) w g'^2 - lam e^g is
    constant along the stationary path; with g'(1) = 0 the path is monotone
    from log y to an endpoint b and (1/2) w g'^2 = |lam| |e^g - e^b|.  With
    A(b) = Int sqrt(w / (2 |e^g - e^b|)) |dg| over [log y, b] and B(b) the
    same with a factor e^g, sqrt|lam| = A, x = B / A and I = A^2 |x - e^b|.
    b is the root of B / A = x (brentq), bracketed from log x outward.  In
    v = sqrt|b - g| the endpoint singularity is gone: each integral is a
    64-node Gauss-Legendre rule on every panel between sigma's `kinks()`,
    from one order-1 `_weight` call.  Raises NumericError when no endpoint
    is bracketed before e^b leaves the floats.
    """
    x, y = problem.x, problem.y
    if math.isclose(x, y, rel_tol=1e-14):
        return 0.0
    surface = problem.surface
    log_x, log_y = math.log(x), math.log(y)
    sgn = 1.0 if x > y else -1.0  # the path's direction
    kinks = [math.log(k) for k in getattr(surface, "kinks", tuple)()]

    def integrals(b):
        # e^(b/2) A(b) and e^(b/2) B(b)
        cuts = np.array(sorted({0.0, math.sqrt(abs(b - log_y))} | {
            math.sqrt(abs(b - k)) for k in kinks if min(log_y, b) < k < max(log_y, b)}))
        half = 0.5 * np.diff(cuts)[:, None]
        v = (cuts[:-1, None] + half * (_NODES + 1.0)).ravel()
        lvl = np.exp(b - sgn * v * v)
        # |e^g - e^b| = e^b |expm1(g - b)|, taken from v: g rounds to b at the end
        f = (half * _WEIGHTS).ravel() * np.sqrt(
            2.0 * _weight(surface, lvl)[0] * v * v / np.abs(np.expm1(-sgn * v * v)))
        return f.sum(), f @ lvl

    def gap(b):
        a, ab = integrals(b)
        return ab / (a * x) - 1.0

    # gap(log x) has the sign of y - x: the path's average lies between y and e^b
    near, far = log_x, 2.0 * log_x - log_y
    while not sgn * gap(far) > 0.0:  # NaN too
        near, far = far, 3.0 * far - 2.0 * near  # twice the step, outward
        if abs(far) > 700.0:  # e^b would leave the floats
            raise NumericError(f"no endpoint of the optimal path bracketed for x={x}, y={y}")
    b = brentq(gap, min(near, far), max(near, far), xtol=1e-14)
    a = integrals(b)[0]
    return a * a * abs(x * math.exp(-b) - 1.0)


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
