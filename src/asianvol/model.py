"""Market data, local volatility surfaces, and payoff definitions.

The diffusion being modelled everywhere in this package is

    dS_t = (r - q) S_t dt + sigma(t, S_t) S_t dW_t,   S_0 > 0,

with ``sigma`` a deterministic local-volatility function.  Besides the
value of ``sigma`` itself, the pricing and sensitivity code repeatedly
needs the first and second x-derivatives of the *diffusion coefficient*

    a(t, x) = sigma(t, x) * x,

so every surface exposes those too (``dcoef_dx``, ``dcoef_dxx``), in
closed form for every family (the bilinear table is linear in x on each
cell).  ``sigma(t, x, order)`` is the fused entry point: with order 1 or
2 it returns sigma, a' and (for 2) a'' from one domain check and one
family evaluation.

Four surface families are supported:

* ``constant``       -- flat sigma,
* ``time-scaled``    -- sigma(t) = c0 + c1*t + c2*sqrt(t), no level dependence,
* ``capped-power``   -- sigma(x) = clip(sref*(x/xref)^(-exponent), floor, cap),
* ``tabulated-grid`` -- bilinear interpolation on a rectangular (t, x) grid.

Payoffs are plain functions of the average (or terminal) level; the
supported families carry their strike-type parameters, their kink
locations, and a Holder modulus ``|phi(x) - phi(y)| <= beta |x - y|^gamma``
that downstream error estimates rely on.

Each family is one table row: ``_SURFACES`` maps it to its class, whose
``keys`` prototype its constructor's parameters, and ``_PAYOFFS`` holds a
payoff family's config keys, defaults, validation, value, kinks and Holder
modulus.  ``_check_type`` types every config value, a family or market block
by its checker (``_surface_block``, ``_payoff_block``, ``_market_block``).
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "MarketParams",
    "LocalVolSurface",
    "ConstantVol",
    "TimeScaledVol",
    "CappedPowerVol",
    "TabulatedVol",
    "PayoffSpec",
    "market_from_config",
    "surface_from_config",
    "payoff_from_config",
    "tabulated_from_csv",
]


# ---------------------------------------------------------------------------
# market parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarketParams:
    """Spot and carry parameters: S0 > 0, risk-free rate r, dividend yield q."""

    S0: float
    r: float = 0.0
    q: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.S0) and self.S0 > 0.0):
            raise ValidationError(f"S0 must be finite and positive, got {self.S0}")
        if not (np.isfinite(self.r) and np.isfinite(self.q)):
            raise ValidationError(f"rates must be finite, got r={self.r}, q={self.q}")

    @property
    def drift(self) -> float:
        return self.r - self.q

    def to_config(self) -> dict:
        return {"S0": self.S0, "r": self.r, "q": self.q}


# ---------------------------------------------------------------------------
# local volatility surfaces
# ---------------------------------------------------------------------------

def _evaluate(fn, t, x):
    """fn on (t, x) after one domain check on the inputs as given; x is
    broadcast against an array t of another shape (a 0-d t works as it is).
    Scalar in gives scalar out, a tuple of them for a tuple."""
    ta = np.asarray(t, dtype=float)
    xa = np.asarray(x, dtype=float)
    # one min/max pass per input, no temporaries; a NaN fails every comparison
    if not (xa.min(initial=np.inf) > 0.0 and xa.max(initial=-np.inf) < np.inf):
        raise DomainError("surface evaluated at non-positive or non-finite x")
    if not (ta.min(initial=np.inf) >= 0.0 and ta.max(initial=-np.inf) < np.inf):
        raise DomainError("surface evaluated at negative or non-finite t")
    if ta.ndim and ta.shape != xa.shape:
        ta, xa = np.broadcast_arrays(ta, xa)
    val = fn(ta, xa)
    if xa.ndim:
        return val
    return tuple(map(float, val)) if isinstance(val, tuple) else float(val)


def _float_array(key: str, value) -> np.ndarray:
    """A constructor's array argument as floats; a ragged, bool or non-numeric
    one is a ValidationError naming the argument."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{key} must be a rectangular array of numbers, got {value!r}")
    return arr.astype(float)


class LocalVolSurface:
    """Base class: vectorized sigma plus diffusion-coefficient derivatives.

    ``sigma``, ``dcoef_dx`` and ``dcoef_dxx`` accept scalars or arrays for
    both arguments and broadcast them; scalar-in gives scalar-out.
    ``sigma(t, x, order)`` with order 1 or 2 is the fused call: the tuple
    (sigma, a', a'') up to that derivative, from one domain check and one
    family evaluation, in arrays that share no memory.
    """

    family: str = "abstract"

    # a family implements two methods on float arrays (x of the result's
    # shape, t 0-d or of x's shape): _sigma(t, x), the hot order-0 path, and
    # _coefs(t, x, order), the tuple (sigma, a', a'')[:order + 1] for order 1
    # or 2 in closed form, building a'' only for order 2, in arrays that
    # share no memory; a family whose sigma has kinks or jumps in t lists
    # those times in time_kinks(), which time quadratures split at

    def sigma(self, t, x, order: int = 0):
        if order == 0:
            return _evaluate(self._sigma, t, x)
        return _evaluate(lambda t, x: self._coefs(t, x, order), t, x)

    def dcoef_dx(self, t, x):
        return _evaluate(lambda t, x: self._coefs(t, x, 1)[1], t, x)

    def dcoef_dxx(self, t, x):
        return _evaluate(lambda t, x: self._coefs(t, x, 2)[2], t, x)

    def time_kinks(self) -> tuple:
        return ()

    # metadata ------------------------------------------------------------

    @property
    def is_time_dependent(self) -> bool:
        return False

    def to_config(self) -> dict:
        """The constructor's arguments, read back from same-named attributes."""
        cfg = {"family": self.family}
        for name in inspect.signature(type(self)).parameters:
            v = getattr(self, name)
            cfg[name] = v.tolist() if isinstance(v, np.ndarray) else v
        return cfg


class ConstantVol(LocalVolSurface):
    """Flat Black-Scholes volatility.

    sigma = 0 is admitted for degenerate deterministic dynamics.
    """

    family = "constant"
    keys = {"sigma": 0.0}

    def __init__(self, sigma: float):
        if not (np.isfinite(sigma) and sigma >= 0.0):
            raise ValidationError(f"constant vol must be nonnegative, got {sigma}")
        self.level = float(sigma)

    def _sigma(self, t, x):
        return np.full_like(x, self.level)

    def _coefs(self, t, x, order):
        sig = self._sigma(t, x)  # a = sigma*x is linear in x
        return (sig, sig.copy()) if order == 1 else (sig, sig.copy(), np.zeros_like(x))

    def to_config(self):
        # stored as ``level``: ``sigma`` is the evaluation method
        return {"family": "constant", "sigma": self.level}


class TimeScaledVol(LocalVolSurface):
    """Purely time-dependent vol sigma(t) = c0 + c1*t + c2*sqrt(t).

    Covers linear ramps and square-root ramps (and mixtures).  No level
    dependence, so the diffusion coefficient is linear in x.
    """

    family = "time-scaled"
    keys = {"c0": 0.0, "c1": 0.0, "c2": 0.0}

    def __init__(self, c0: float, c1: float = 0.0, c2: float = 0.0):
        for name, c in (("c0", c0), ("c1", c1), ("c2", c2)):
            if not np.isfinite(c):
                raise ValidationError(f"coefficient {name} must be finite, got {c}")
        self.c0, self.c1, self.c2 = float(c0), float(c1), float(c2)

    def _sigma(self, t, x):
        return np.broadcast_to(
            self.c0 + self.c1 * t + self.c2 * np.sqrt(t), x.shape
        ).copy()

    def _coefs(self, t, x, order):
        sig = self._sigma(t, x)  # a = sigma*x is linear in x
        return (sig, sig.copy()) if order == 1 else (sig, sig.copy(), np.zeros_like(x))

    @property
    def is_time_dependent(self):
        return True


class CappedPowerVol(LocalVolSurface):
    """Level-dependent vol sigma(x) = clip(sref*(x/xref)^(-exponent), floor, cap).

    A CEV-style skew flattened outside [x_cap_hi_boundary, x_floor_boundary]
    so that sigma stays bounded above and away from zero on all of (0, inf).
    Derivatives of a(x) = sigma(x)*x are analytic on each branch:

        power branch:  a'(x) = (1-exponent)*sigma(x),
                       a''(x) = -exponent*(1-exponent)*sigma(x)/x,
        clipped branch: a'(x) = clipped level, a''(x) = 0.
    """

    family = "capped-power"
    keys = {"sref": 0.0, "xref": 0.0, "exponent": 0.0, "floor": 0.0, "cap": 0.0}

    def __init__(
        self,
        sref: float,
        xref: float,
        exponent: float,
        floor: float,
        cap: float,
    ):
        if not (np.isfinite(sref) and sref > 0.0):
            raise ValidationError(f"sref must be positive, got {sref}")
        if not (np.isfinite(xref) and xref > 0.0):
            raise ValidationError(f"xref must be positive, got {xref}")
        if not np.isfinite(exponent):
            raise ValidationError(f"exponent must be finite, got {exponent}")
        if not (0.0 <= floor <= cap):
            raise ValidationError(
                f"need 0 <= floor <= cap, got floor={floor}, cap={cap}"
            )
        self.sref = float(sref)
        self.xref = float(xref)
        self.exponent = float(exponent)
        self.floor = float(floor)
        self.cap = float(cap)

    def _sigma(self, t, x):
        sig = np.asarray(self.sref * (x / self.xref) ** (-self.exponent))
        return np.clip(sig, self.floor, self.cap, out=sig)  # one temporary of x's size

    def _coefs(self, t, x, order):
        # order 1 or 2, from one power: the clipped sigma is strictly inside
        # (floor, cap) exactly where the power branch is
        sig = self._sigma(t, x)
        on_power = (sig > self.floor) & (sig < self.cap)
        out = (sig, np.multiply(sig, 1.0 - self.exponent, out=sig.copy(), where=on_power))
        if order == 1:
            return out
        d2 = np.zeros_like(sig)
        np.multiply(sig, -self.exponent * (1.0 - self.exponent), out=d2, where=on_power)
        d2 /= x
        return out + (d2,)

    def kinks(self) -> tuple:
        """The finite positive levels, ascending, where the power branch
        meets floor or cap: sigma's slope jumps there."""
        if self.exponent == 0.0 or self.floor == self.cap:
            return ()  # sigma is flat
        with np.errstate(divide="ignore", over="ignore"):
            xs = self.xref * (np.array([self.floor, self.cap]) / self.sref) ** (-1.0 / self.exponent)
        return tuple(float(x) for x in np.sort(xs) if 0.0 < x < np.inf)


class TabulatedVol(LocalVolSurface):
    """Bilinear interpolation of sigma on a rectangular (t, x) grid.

    Evaluation at x outside the grid raises :class:`DomainError`; in t the
    surface extrapolates as a constant beyond the first/last time node.
    sigma is linear in x on each cell, with slope beta, so a' = sigma + beta*x
    and a'' = 2*beta hold exactly on the cell the point falls in (the
    right-hand cell at an interior node, the edge cell at a grid edge).
    """

    family = "tabulated-grid"
    keys = {"ts": [0.0], "xs": [0.0], "values": [[0.0]]}

    def __init__(self, ts: Sequence[float], xs: Sequence[float], values):
        ts, xs = _float_array("ts", ts), _float_array("xs", xs)
        vals = _float_array("values", values)
        if ts.ndim != 1 or xs.ndim != 1 or len(ts) < 2 or len(xs) < 2:
            raise ValidationError("tabulated grid needs 1-D ts and xs of length >= 2")
        if np.any(np.diff(ts) <= 0.0) or np.any(np.diff(xs) <= 0.0):
            raise ValidationError("tabulated grid axes must be strictly increasing")
        if vals.shape != (len(ts), len(xs)):
            raise ValidationError(
                f"values shape {vals.shape} does not match grid "
                f"({len(ts)}, {len(xs)})"
            )
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise ValidationError("tabulated sigma values must be finite and positive")
        self.ts, self.xs, self.values = ts, xs, vals

    def _locate(self, grid, v):
        idx = np.clip(np.searchsorted(grid, v, side="right") - 1, 0, len(grid) - 2)
        lo = grid[idx]
        w = (v - lo) / (grid[idx + 1] - lo)
        return idx, w

    def _sigma(self, t, x):
        return self._coefs(t, x, 0)[0]

    def _coefs(self, t, x, order):
        if np.any(x < self.xs[0]) or np.any(x > self.xs[-1]):
            raise DomainError(
                f"x outside tabulated range [{self.xs[0]}, {self.xs[-1]}]"
            )
        t = np.clip(t, self.ts[0], self.ts[-1])  # constant extrapolation in t
        it, wt = self._locate(self.ts, t)
        ix, wx = self._locate(self.xs, x)
        v00 = self.values[it, ix]
        v01 = self.values[it, ix + 1]
        v10 = self.values[it + 1, ix]
        v11 = self.values[it + 1, ix + 1]
        sig = (
            v00 * (1 - wt) * (1 - wx)
            + v01 * (1 - wt) * wx
            + v10 * wt * (1 - wx)
            + v11 * wt * wx
        )
        if order == 0:
            return (sig,)
        beta = ((1 - wt) * (v01 - v00) + wt * (v11 - v10)) / (self.xs[ix + 1] - self.xs[ix])
        out = (sig, sig + beta * x)
        return out if order == 1 else out + (2.0 * beta,)

    def time_kinks(self):
        return tuple(self.ts.tolist())  # sigma is piecewise linear in t

    @property
    def is_time_dependent(self):
        return True


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

class _PayoffFamily(NamedTuple):
    """One payoff family.  ``keys`` maps each parameter the family reads to
    its config prototype, ``defaults`` the optional ones to their values; the
    callables take the :class:`PayoffSpec`, ``value`` also a 1-D float array."""

    keys: dict
    check: Callable
    value: Callable
    kinks: Callable
    beta: Callable = lambda p: 1.0
    gamma: Callable = lambda p: 1.0
    defaults: dict = {}


def _check_strike(p) -> None:
    if not (np.isfinite(p.strike) and p.strike > 0.0):
        raise ValidationError(f"{p.family} strike must be positive, got {p.strike}")


def _check_power_call(p) -> None:
    _check_strike(p)
    if not (0.0 < p.exponent <= 1.0):
        raise ValidationError(f"power-call exponent must be in (0, 1], got {p.exponent}")


def _check_capped_power(p) -> None:
    _check_strike(p)
    if not (0.0 <= p.exponent < 1.0):
        raise ValidationError(
            f"capped-power exponent (the eps in 1+eps) must be in [0, 1), got {p.exponent}"
        )
    if not (np.isfinite(p.cap_width) and p.cap_width > 0.0):
        raise ValidationError(f"capped-power cap_width must be positive, got {p.cap_width}")


def _check_linear(p) -> None:
    if not (np.isfinite(p.slope) and np.isfinite(p.intercept)):
        raise ValidationError("linear payoff needs finite slope and intercept")


def _check_constant(p) -> None:
    if not np.isfinite(p.level):
        raise ValidationError(f"constant payoff level must be finite, got {p.level}")


def _check_table(p) -> None:
    if p.table_x is None or p.table_y is None:
        raise ValidationError("user-table payoff needs table_x and table_y")
    tx, ty = _float_array("table_x", p.table_x), _float_array("table_y", p.table_y)
    if tx.ndim != 1 or tx.shape != ty.shape or len(tx) < 2:
        raise ValidationError("user-table needs matching 1-D x and y, length >= 2")
    if np.any(np.diff(tx) <= 0.0):
        raise ValidationError("user-table x values must be strictly increasing")
    if not (np.all(np.isfinite(tx)) and np.all(np.isfinite(ty))):
        raise ValidationError("user-table entries must be finite")


def _table_value(p, x):
    tx = np.asarray(p.table_x)
    ty = np.asarray(p.table_y)
    if np.any(x < tx[0]) or np.any(x > tx[-1]):
        raise DomainError(f"user-table payoff evaluated outside [{tx[0]}, {tx[-1]}]")
    return np.interp(x, tx, ty)


def _table_beta(p) -> float:
    slopes = np.abs(np.diff(p.table_y) / np.diff(p.table_x))
    return float(max(slopes.max(), 1e-300))


_PAYOFFS = {
    "call": _PayoffFamily(
        {"strike": 0.0}, _check_strike,
        lambda p, x: np.maximum(x - p.strike, 0.0), lambda p: (p.strike,),
    ),
    "put": _PayoffFamily(
        {"strike": 0.0}, _check_strike,
        lambda p, x: np.maximum(p.strike - x, 0.0), lambda p: (p.strike,),
    ),
    "power-call": _PayoffFamily(
        {"strike": 0.0, "exponent": 0.0}, _check_power_call,
        lambda p, x: np.maximum(x - p.strike, 0.0) ** p.exponent, lambda p: (p.strike,),
        gamma=lambda p: p.exponent,
    ),
    "capped-power": _PayoffFamily(
        {"strike": 0.0, "exponent": 0.0, "cap_width": 0.0},
        _check_capped_power,
        lambda p, x: np.clip(x - p.strike, 0.0, p.cap_width) ** (1.0 + p.exponent),
        lambda p: (p.strike, p.strike + p.cap_width),
        lambda p: (1.0 + p.exponent) * p.cap_width**p.exponent,
    ),
    "linear": _PayoffFamily(
        {"slope": 0.0, "intercept": 0.0}, _check_linear,
        lambda p, x: p.slope * x + p.intercept, lambda p: (),
        lambda p: max(abs(p.slope), 1e-300), defaults={"slope": 1.0, "intercept": 0.0},
    ),
    # any positive beta works for a flat payoff
    "constant": _PayoffFamily(
        {"level": 0.0}, _check_constant,
        lambda p, x: np.full_like(x, p.level), lambda p: (),
    ),
    "user-table": _PayoffFamily(
        {"table_x": [0.0], "table_y": [0.0]}, _check_table, _table_value,
        lambda p: tuple(float(v) for v in p.table_x[1:-1]), _table_beta,
    ),
}


@dataclass(frozen=True)
class PayoffSpec:
    """A payoff function of the averaged (or terminal) level.

    Families and their parameters (one ``_PAYOFFS`` row each):

    * ``call`` / ``put``    : strike
    * ``power-call``        : strike, exponent in (0, 1]: (x - K)_+^exponent
    * ``capped-power``      : strike, exponent eps in [0, 1), cap_width d > 0:
                              (x - K)^(1+eps) on [K, K+d), d^(1+eps) above
    * ``linear``            : slope, intercept: slope*x + intercept
    * ``constant``          : level
    * ``user-table``        : table of (x, value) pairs, piecewise linear,
                              no extrapolation

    ``holder_gamma`` / ``holder_beta`` give a modulus of continuity
    |phi(x)-phi(y)| <= beta*|x-y|^gamma valid on the payoff's domain
    (for capped-power and user-table: a Lipschitz bound).
    """

    family: str
    strike: float = 0.0
    exponent: float = 1.0
    cap_width: float = 0.0
    slope: float = 1.0
    intercept: float = 0.0
    level: float = 0.0
    table_x: Optional[tuple] = None
    table_y: Optional[tuple] = None

    def __post_init__(self) -> None:
        if not (isinstance(self.family, str) and self.family in _PAYOFFS):
            raise ValidationError(f"unknown payoff family '{self.family}'")
        _PAYOFFS[self.family].check(self)

    # evaluation ----------------------------------------------------------

    def value(self, x):
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        out = _PAYOFFS[self.family].value(self, np.atleast_1d(xa))
        return float(out[0]) if scalar else out

    def __call__(self, x):
        return self.value(x)

    # structure -----------------------------------------------------------

    def kinks(self) -> tuple:
        """x-locations where the payoff or its derivative is discontinuous."""
        return _PAYOFFS[self.family].kinks(self)

    @property
    def holder_gamma(self) -> float:
        return _PAYOFFS[self.family].gamma(self)

    @property
    def holder_beta(self) -> float:
        return _PAYOFFS[self.family].beta(self)

    def to_config(self) -> dict:
        cfg = {"family": self.family}
        for key in _PAYOFFS[self.family].keys:
            v = getattr(self, key)
            cfg[key] = v if np.ndim(v) == 0 else list(v)
        return cfg


# ---------------------------------------------------------------------------
# config typing and factories (used by the CLI and the acceptance battery)
# ---------------------------------------------------------------------------

def _is_real(value) -> bool:
    """An int or float config value; Python counts a bool as an int, a config does not."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


_KIND = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
         list: "a non-empty list", dict: "a mapping"}


def _check_type(name: str, value, proto, what: str = "config"):
    """``value`` checked against the prototype ``proto`` and returned in its
    type; an error names ``what`` and the dotted key ``name``.  A float takes
    an int (never a bool) and returns it as a float.  A list is non-empty and
    its items match its first item (a mapping item as ``name[i]``).  A mapping
    has exactly the prototype's keys, each checked as ``name.key``, or any keys
    if the prototype is ``{}``.  A callable prototype is a block's checker,
    and the value is typed as ``proto(name, value, what)``."""
    if callable(proto):
        return proto(name, value, what)
    ok = _is_real(value) if isinstance(proto, float) else type(value) is type(proto)
    if not ok or (isinstance(proto, list) and not value):
        raise ValidationError(f"{what} key '{name}' must be {_KIND[type(proto)]}, got {value!r}")
    if isinstance(proto, float):
        return float(value)
    if isinstance(proto, list):
        item = proto[0]
        return [_check_type(f"{name}[{i}]" if isinstance(item, dict) else name, v, item, what)
                for i, v in enumerate(value)]
    if not (isinstance(proto, dict) and proto):
        return value
    paths = {key: f"{name}.{key}" if name else str(key) for key in {**proto, **value}}
    for key, path in paths.items():  # the key set first, then each value
        if key not in proto or key not in value:
            raise ValidationError(f"{what} has {'no' if key in proto else 'unknown'} key '{path}'")
    return {key: _check_type(paths[key], value[key], proto[key], what) for key in proto}


_MARKET = {"S0": 0.0, "r": 0.0, "q": 0.0}  # the market block's keys


def _market_block(name: str, value, what: str) -> MarketParams:
    """The checker of a market block, r and q defaulting to 0: its MarketParams."""
    kw = _check_type(name, {"r": 0.0, "q": 0.0, **_check_type(name, value, {}, what)},
                     _MARKET, what)
    return MarketParams(**kw)


def _family_block(table: dict, defaults: Callable, make: Callable) -> Callable:
    """The checker of a family block.  Its ``family`` string picks the row of
    ``table``; ``defaults(row)`` fill the row's absent optional keys, the block
    is checked as a mapping of ``family`` and the row's ``keys``, and the
    checker returns ``make`` of the typed mapping."""
    def check(name: str, value, what: str):
        fam = _check_type(name, value, {}, what).get("family")
        if not (isinstance(fam, str) and fam in table):
            raise ValidationError(f"{what} key '{name}.family' must be one of "
                                  f"{', '.join(table)}, got {fam!r}")
        row = table[fam]
        return make(_check_type(name, {**defaults(row), **value},
                                {"family": fam, **row.keys}, what))
    return check


def tabulated_from_csv(path) -> TabulatedVol:
    """Load a tabulated surface from a CSV file with header ``t,x,sigma``.

    Rows may come in any order but must cover a complete rectangular grid.
    """
    raw = np.genfromtxt(path, delimiter=",", names=True)
    names = raw.dtype.names
    if names is None or tuple(names) != ("t", "x", "sigma"):
        raise ValidationError(
            f"surface CSV must have header 't,x,sigma', got {names}"
        )
    ts = np.unique(raw["t"])
    xs = np.unique(raw["x"])
    if len(raw) != len(ts) * len(xs):
        raise ValidationError(
            f"surface CSV is not a complete {len(ts)}x{len(xs)} grid "
            f"({len(raw)} rows)"
        )
    values = np.full((len(ts), len(xs)), np.nan)
    it = np.searchsorted(ts, raw["t"])
    ix = np.searchsorted(xs, raw["x"])
    values[it, ix] = raw["sigma"]
    if np.any(np.isnan(values)):
        raise ValidationError("surface CSV has duplicate or missing grid points")
    return TabulatedVol(ts, xs, values)


_SURFACES = {
    cls.family: cls for cls in (ConstantVol, TimeScaledVol, CappedPowerVol, TabulatedVol)
}
_surface_block = _family_block(
    _SURFACES,
    lambda cls: {p.name: p.default for p in inspect.signature(cls).parameters.values()
                 if p.default is not p.empty},
    lambda kw: _SURFACES[kw.pop("family")](**kw),
)
# tables arrive as YAML lists; the frozen spec holds tuples
_payoff_block = _family_block(
    _PAYOFFS, lambda row: row.defaults,
    lambda kw: PayoffSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in kw.items()}),
)


def market_from_config(cfg: dict) -> MarketParams:
    return _market_block("market", cfg, "config")


def surface_from_config(cfg: dict) -> LocalVolSurface:
    return _surface_block("surface", cfg, "config")


def payoff_from_config(cfg: dict) -> PayoffSpec:
    return _payoff_block("payoff", cfg, "config")
