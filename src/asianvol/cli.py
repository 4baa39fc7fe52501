"""Config-driven command line for the Asian-option toolkit.

Commands
--------
vols            term Asian/European vol curves of a surface over a T grid
price           one contract: Monte Carlo vs the short-maturity quote
delta           one contract: asymptotic, finite-difference, Malliavin deltas
verify-approx   L^p closeness curve for one process pair, with exponent fit
ldp             large-deviations rate function and optimal path
converge        |MC - asymptotic| over a T grid with a fitted error order
compare         Asian MC vs asymptotic / matched European / geometric proxies
check           run the acceptance battery (``--check`` is an alias)

Configuration is YAML with blocks ``model`` (surface + market), ``payoff``,
``mc``, ``output`` and a per-command ``experiment`` block.  Every value has
a default; a ``--config FILE`` overrides defaults, and ``--key.path=value``
flags override the file (values are parsed as YAML, so lists work).  A
file and a flag follow one merge rule: a mapping merges key by key into
its block, except that the ``model.surface`` and ``payoff`` blocks, whose
keys depend on the chosen family, are taken whole; and a ``family`` key
that switches family starts its block afresh -- give the new family's keys
after it.  Unknown keys are rejected by their full dotted name, a block
given anything but a mapping by its key, and a number, flag or list of the
wrong type by its key.

Every run writes ``resolved.yaml`` (the fully resolved configuration) into
the output directory and repeats it as a ``#``-comment header inside each
CSV, so any output file can be reproduced from itself.  Two execution
details are deliberately excluded from the echo: the output directory, and
the thread count (``--threads`` or the ``ASIANVOL_THREADS`` environment
variable) -- results are thread-invariant and output bytes must not depend
on how or where the work ran.

Exit codes: 0 success, 1 invalid input or parameters, 2 numerical failure,
3 one or more acceptance criteria failed.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from .asymptotics import (
    abs_moment,
    asian_vol,
    asym_delta,
    asym_price,
    delta_parity_and_itm,
    european_vol,
    geometric_bs,
    power_leading_terms,
    vol_quote,
)
from .errors import DomainError, NumericError, ValidationError
from .harness import DEFAULT_T_GRID, asym_price_value, asymptotics_error_study, compare_experiment
from .approxlab import refined_fit
from .ldp import decay_slope, problem_from_surface, rate_function, rate_function_shooting
from .model import (
    ConstantVol,
    MarketParams,
    PayoffSpec,
    _is_real,
    market_from_config,
    payoff_from_config,
    surface_from_config,
)
from .montecarlo import SimConfig, mc_delta_fd, mc_delta_malliavin, mc_price

__all__ = ["main", "run_criterion"]


# ---------------------------------------------------------------------------
# defaults
# ---------------------------------------------------------------------------

_BASE_DEFAULTS = {
    "model": {
        "surface": {"family": "constant", "sigma": 0.2},
        "market": {"S0": 100.0, "r": 0.0, "q": 0.0},
    },
    "payoff": {"family": "call", "strike": 100.0},
    "mc": {
        "steps": 200,
        "n_paths": 100000,
        "seed": 1,
        "scheme": "log-euler",
    },
    "output": {"dir": "out"},
}

_EXPERIMENT_DEFAULTS = {
    "vols": {"t_lo": 1.0e-4, "t_hi": 2.0, "n_t": 20, "spacing": "log"},
    "price": {"style": "asian", "method": "both", "T": 0.25},
    "delta": {"style": "asian", "method": "all", "T": 0.25, "bump": 1.0e-3},
    "verify-approx": {
        "pair": ["X", "Xt"],
        "p": 2.0,
        "t_lo": 0.01,
        "t_hi": 0.5,
        "n_t": 8,
        "spacing": "log",
        "slope_tol": 0.1,
    },
    "ldp": {"x": 110.0, "grid_n": 200, "oracle": True},
    "converge": {
        "style": "asian",
        "estimator": "price",
        "t_grid": list(DEFAULT_T_GRID),
        "hypothesized_order": 1.0,
        "slack": 0.2,
        "path_scaling": True,
        "bump": 1.0e-3,
    },
    "compare": {"t_grid": list(DEFAULT_T_GRID), "path_scaling": True},
}

_OVERRIDE_RE = re.compile(r"^--([A-Za-z0-9_.-]+)=(.*)$", re.S)


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

_FAMILY_BLOCKS = ("model.surface", "payoff")


def _set(cfg: dict, dotted: str, value) -> None:
    """Write ``value`` at the dotted key: the one way a file or an override
    changes a config.  A mapping given for a block merges key by key, except
    that a family block is taken whole."""
    *head, leaf = dotted.split(".")
    node = cfg
    for i, part in enumerate(head):
        if not isinstance(node, dict) or part not in node:
            raise ValidationError(f"unknown config key '{'.'.join(head[: i + 1])}'")
        node = node[part]
    # family blocks accept new keys (the family factories validate them)
    in_family = ".".join(head) in _FAMILY_BLOCKS
    if not isinstance(node, dict) or (leaf not in node and not in_family):
        raise ValidationError(f"unknown config key '{dotted}'")
    if isinstance(node.get(leaf), dict):
        if not isinstance(value, dict):
            raise ValidationError(f"config block '{dotted}' must be a mapping")
        if dotted not in _FAMILY_BLOCKS:
            for key, val in value.items():
                _set(cfg, f"{dotted}.{key}", val)
            return
    # a family switch would otherwise leave the old family's keys behind,
    # which the new factory rejects
    if in_family and leaf == "family" and value != node.get("family"):
        node.clear()
    node[leaf] = copy.deepcopy(value)


def _load_yaml(path, what: str) -> dict:
    """The mapping in a YAML file (an empty file is an empty mapping)."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"{what} not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ValidationError(f"{what} {path} is not valid YAML:\n{exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ValidationError(f"{what} {path} must contain a YAML mapping at top level")
    return data


def _parse_overrides(extras) -> list:
    out = []
    for token in extras:
        m = _OVERRIDE_RE.match(token)
        if m is None:
            raise ValidationError(
                f"unrecognized argument '{token}' (overrides look like --mc.seed=7)"
            )
        out.append((m.group(1), m.group(2)))
    return out


def _resolve(command: str, config_path, overrides) -> dict:
    cfg = copy.deepcopy(_BASE_DEFAULTS)
    cfg["experiment"] = copy.deepcopy(_EXPERIMENT_DEFAULTS[command])
    if config_path is not None:
        for key, value in _load_yaml(config_path, "config file").items():
            _set(cfg, str(key), value)
    for dotted, text in overrides:
        try:
            value = yaml.safe_load(text) if text != "" else None
        except yaml.YAMLError as exc:
            raise ValidationError(
                f"override --{dotted} has an invalid YAML value: {exc}"
            ) from exc
        _set(cfg, dotted, value)
    out = cfg["output"]["dir"]
    if not isinstance(out, str):
        raise ValidationError(f"config key 'output.dir' must be a string, got {out!r}")
    defaults = {"mc": _BASE_DEFAULTS["mc"], "experiment": _EXPERIMENT_DEFAULTS[command]}
    for block, block_defaults in defaults.items():
        for key, value in cfg[block].items():
            _check_type(f"{block}.{key}", value, block_defaults[key])
    return cfg


_KIND = {bool: "true or false", int: "an integer", float: "a number", list: "a list"}


def _check_type(name: str, value, default) -> None:
    """``value`` must have the type of ``default``, except that a float also
    takes an int (never a bool).  A list's items are checked against its
    first item; strings are left to the commands, which name the allowed
    values."""
    if isinstance(default, str):
        return
    if not (_is_real(value) if isinstance(default, float) else type(value) is type(default)):
        raise ValidationError(
            f"config key '{name}' must be {_KIND[type(default)]}, got {value!r}"
        )
    if isinstance(default, list):
        for item in value:
            _check_type(name, item, default[0])


def _plain(obj):
    """YAML-safe copy: numpy scalars/arrays and tuples to plain Python."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


# ---------------------------------------------------------------------------
# object construction and output plumbing
# ---------------------------------------------------------------------------

def _objects(cfg: dict, threads: int):
    surface = surface_from_config(cfg["model"]["surface"])
    market = market_from_config(cfg["model"]["market"])
    payoff = payoff_from_config(cfg["payoff"])
    mc = cfg["mc"]
    sim = SimConfig(
        steps=mc["steps"],
        n_paths=mc["n_paths"],
        seed=mc["seed"],
        scheme=mc["scheme"],
        threads=threads,
    )
    return surface, market, payoff, sim


def _t_grid(e: dict) -> list:
    lo, hi, n = float(e["t_lo"]), float(e["t_hi"]), int(e["n_t"])
    if not (0.0 < lo < hi):
        raise ValidationError(f"need 0 < t_lo < t_hi, got [{lo}, {hi}]")
    if n < 2:
        raise ValidationError(f"n_t must be at least 2, got {n}")
    spacing = e["spacing"]
    if spacing == "log":
        return [float(t) for t in np.geomspace(lo, hi, n)]
    if spacing == "linear":
        return [float(t) for t in np.linspace(lo, hi, n)]
    raise ValidationError(f"spacing must be 'log' or 'linear', got '{spacing}'")


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_csv(path: Path, resolved_text: str, header: str, rows) -> None:
    """The one CSV writer: the resolved config as ``#`` comments, the header,
    then one line per row."""
    with open(path, "w") as fh:
        for line in resolved_text.rstrip("\n").split("\n"):
            fh.write(f"# {line}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_summary(path: Path, summary: dict) -> None:
    path.write_text(yaml.safe_dump(_plain(summary), sort_keys=True))


def _term_vol(surface, S0: float, style: str, T: float) -> float:
    if style == "asian":
        return asian_vol(surface, S0, T)
    if style == "european":
        return european_vol(surface, S0, T)
    raise ValidationError(f"style must be asian or european, got '{style}'")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_vols(cfg, threads, outdir, resolved):
    surface = surface_from_config(cfg["model"]["surface"])
    market = market_from_config(cfg["model"]["market"])
    grid = _t_grid(cfg["experiment"])
    rows = []
    for T in grid:
        q = vol_quote(surface, market.S0, T)
        ratio = q.asian_vol / q.european_vol if q.european_vol > 0.0 else math.nan
        rows.append((T, q.asian_vol, q.european_vol, ratio))
    _write_csv(outdir / "vols.csv", resolved, "T,asian_vol,european_vol,ratio", rows)
    print(f"wrote {outdir / 'vols.csv'} ({len(rows)} maturities)")
    print(
        f"  sigma_A: {rows[0][1]:.6g} at T={grid[0]:.6g}  ->  "
        f"{rows[-1][1]:.6g} at T={grid[-1]:.6g}"
    )


def _cmd_price(cfg, threads, outdir, resolved):
    surface, market, payoff, sim = _objects(cfg, threads)
    e = cfg["experiment"]
    style, method, T = e["style"], e["method"], float(e["T"])
    if method not in ("mc", "asym", "both"):
        raise ValidationError(f"method must be mc, asym or both, got '{method}'")
    if style == "geometric" and method != "mc":
        raise ValidationError(
            "asymptotic quotes cover asian and european styles; "
            "use method: mc for geometric"
        )
    mc_val = se = quote = math.nan
    if method in ("mc", "both"):
        est = mc_price(surface, market, payoff, style, T, sim)
        mc_val, se = est.mean, est.std_error
    if method in ("asym", "both"):
        vol = _term_vol(surface, market.S0, style, T)
        quote = asym_price_value(payoff, market.S0, vol, T, style)
    _write_csv(
        outdir / "price.csv",
        resolved,
        "T,mc,std_error,asym,difference",
        [(T, mc_val, se, quote, mc_val - quote)],
    )
    print(f"{style} price at T={T:.6g}:")
    if method in ("mc", "both"):
        print(f"  monte carlo  {mc_val:.6g}  (std error {se:.3g})")
    if method in ("asym", "both"):
        print(f"  asymptotic   {quote:.6g}")
    if method == "both":
        print(f"  difference   {mc_val - quote:.6g}")


def _cmd_delta(cfg, threads, outdir, resolved):
    surface, market, payoff, sim = _objects(cfg, threads)
    e = cfg["experiment"]
    style, method, T = e["style"], e["method"], float(e["T"])
    methods = ("asym", "fd", "malliavin") if method == "all" else (method,)
    for m in methods:
        if m not in ("asym", "fd", "malliavin"):
            raise ValidationError(f"method must be asym, fd, malliavin or all, got '{m}'")
    vals = {k: math.nan for k in ("asym", "fd", "fd_se", "mal", "mal_se")}
    if "asym" in methods:
        if style not in ("asian", "european"):
            raise ValidationError(
                "asymptotic deltas cover asian and european styles; "
                "pick method fd for geometric"
            )
        v = _term_vol(surface, market.S0, style, T)
        # no quote at zero volatility (the delta has no s -> 0 limit)
        vals["asym"] = (
            asym_delta(payoff, market.S0, v, T, style=style).value if v > 0.0 else math.nan
        )
    if "fd" in methods:
        est = mc_delta_fd(surface, market, payoff, style, T, sim, bump=float(e["bump"]))
        vals["fd"], vals["fd_se"] = est.mean, est.std_error
    if "malliavin" in methods:
        est = mc_delta_malliavin(surface, market, payoff, style, T, sim)
        vals["mal"], vals["mal_se"] = est.mean, est.std_error
    _write_csv(
        outdir / "delta.csv",
        resolved,
        "T,asym,fd,fd_std_error,malliavin,malliavin_std_error",
        [(T, vals["asym"], vals["fd"], vals["fd_se"], vals["mal"], vals["mal_se"])],
    )
    print(f"{style} delta at T={T:.6g}:")
    if "asym" in methods:
        print(f"  asymptotic   {vals['asym']:.6g}")
    if "fd" in methods:
        print(f"  finite diff  {vals['fd']:.6g}  (std error {vals['fd_se']:.3g})")
    if "malliavin" in methods:
        print(f"  malliavin    {vals['mal']:.6g}  (std error {vals['mal_se']:.3g})")


def _cmd_verify_approx(cfg, threads, outdir, resolved):
    surface, market, _, sim = _objects(cfg, threads)
    e = cfg["experiment"]
    pair = tuple(str(name) for name in e["pair"])
    grid = _t_grid(e)
    res = refined_fit(
        surface, market, pair, float(e["p"]), grid, sim, slope_tol=float(e["slope_tol"])
    )
    for key, fname in (("curve", "approx_curve.csv"), ("curve_refined", "approx_curve_refined.csv")):
        c = res[key]
        _write_csv(outdir / fname, resolved, "t,moment,std_error",
                   zip(c.t, c.moments, c.std_errors))
    fit, fit2 = res["fit"], res["fit_refined"]
    _write_csv(
        outdir / "approx_fit.csv",
        resolved,
        "steps,slope,intercept,r_squared,status",
        [
            (sim.steps, fit.slope, fit.intercept, fit.r_squared, fit.status),
            (2 * sim.steps, fit2.slope, fit2.intercept, fit2.r_squared, fit2.status),
        ],
    )
    tag = "-".join(pair)
    print(f"L^{e['p']:g} closeness of ({tag}), fitted t-exponent:")
    print(f"  steps {sim.steps}: slope {fit.slope:.4g}  (r^2 {fit.r_squared:.4f}, {fit.status})")
    print(f"  steps {2 * sim.steps}: slope {fit2.slope:.4g}  (r^2 {fit2.r_squared:.4f}, {fit2.status})")
    print(f"  stable under step doubling: {res['stable']}")


def _cmd_ldp(cfg, threads, outdir, resolved):
    surface = surface_from_config(cfg["model"]["surface"])
    market = market_from_config(cfg["model"]["market"])
    e = cfg["experiment"]
    problem = problem_from_surface(surface, float(e["x"]), market.S0, grid_n=int(e["grid_n"]))
    res = rate_function(problem)
    _write_csv(outdir / "path.csv", resolved, "t,g", zip(res.t, res.g))
    summary = {k: v for k, v in vars(res).items() if k not in ("t", "g")}
    if bool(e["oracle"]):
        oracle = rate_function_shooting(problem)
        summary["oracle"] = oracle
        summary["oracle_gap_abs"] = abs(res.value - oracle)
    _write_summary(outdir / "summary.yaml", summary)
    print(f"I({float(e['x']):.6g}) = {res.value:.6g}  (converged={res.converged}, "
          f"outer iterations {res.n_outer})")
    if bool(e["oracle"]):
        print(f"  oracle {summary['oracle']:.6g}  "
              f"(|gap| {summary['oracle_gap_abs']:.3g})")


def _cmd_converge(cfg, threads, outdir, resolved):
    surface, market, payoff, sim = _objects(cfg, threads)
    e = cfg["experiment"]
    report, rows = asymptotics_error_study(
        surface,
        market,
        payoff,
        e["style"],
        e["estimator"],
        [float(T) for T in e["t_grid"]],
        sim,
        float(e["hypothesized_order"]),
        slack=float(e["slack"]),
        path_scaling=bool(e["path_scaling"]),
        bump=float(e["bump"]),
    )
    _write_csv(
        outdir / "converge.csv",
        resolved,
        "T,mc,std_error,ref,error,n_paths",
        [(r["T"], r["mc"], r["std_error"], r["ref"], r["error"], r["n_paths"]) for r in rows],
    )
    _write_summary(
        outdir / "summary.yaml",
        {
            "fitted_order": report.fitted_order,
            "intercept": report.intercept,
            "r_squared": report.r_squared,
            "hypothesized_order": report.hypothesized_order,
            "slack": report.slack,
            "status": report.status,
            "verdict": report.verdict,
            "dropped": [list(row) for row in report.dropped],
        },
    )
    print(f"{e['estimator']} error vs asymptotic quote ({e['style']}):")
    print(f"  {report.describe()}")


def _cmd_compare(cfg, threads, outdir, resolved):
    surface, market, payoff, sim = _objects(cfg, threads)
    e = cfg["experiment"]
    table = compare_experiment(
        surface,
        market,
        payoff,
        [float(T) for T in e["t_grid"]],
        sim,
        path_scaling=bool(e["path_scaling"]),
    )
    _write_csv(
        outdir / "compare.csv",
        resolved,
        "T,mc,asym,err_matched,err_unmatched,err_geo,stderr",
        zip(table.T, table.mc, table.asym, table.mc - table.eur_matched,
            table.mc - table.eur_unmatched, table.mc - table.geo, table.std_errors),
    )
    summary = {
        name: {
            "fitted_order": rep.fitted_order,
            "r_squared": rep.r_squared,
            "status": rep.status,
            "verdict": rep.verdict,
        }
        for name, rep in table.reports.items()
    }
    _write_summary(outdir / "summary.yaml", summary)
    print(f"asian MC vs proxies over {len(table.T)} maturities "
          f"(geometric column {'on' if table.geo_enabled else 'off'}):")
    for name, rep in table.reports.items():
        print(f"  {name:9s} {rep.describe()}")


_COMMAND_FN = {
    "vols": _cmd_vols,
    "price": _cmd_price,
    "delta": _cmd_delta,
    "verify-approx": _cmd_verify_approx,
    "ldp": _cmd_ldp,
    "converge": _cmd_converge,
    "compare": _cmd_compare,
}


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------

def _market(c: dict) -> MarketParams:
    return MarketParams(S0=float(c["S0"]), r=float(c.get("r", 0.0)), q=float(c.get("q", 0.0)))


def _sim(c: dict, threads: int, paths: str = "n_paths", seed: str = "seed") -> SimConfig:
    """The criterion's SimConfig: steps, and paths and seed from the named keys."""
    return SimConfig(
        steps=int(c["steps"]), n_paths=int(c[paths]), seed=int(c[seed]), threads=threads
    )


def _crit_01(c, threads):
    """Constant vol: the Asian/European vol ratio is 1/sqrt(3) exactly."""
    target = 1.0 / math.sqrt(3.0)
    S0 = float(c["S0"])
    worst = 0.0
    for sig in c["sigmas"]:
        surface = ConstantVol(float(sig))
        for T in np.geomspace(float(c["t_lo"]), float(c["t_hi"]), int(c["n_t"])):
            q = vol_quote(surface, S0, float(T))
            worst = max(worst, abs(q.asian_vol / q.european_vol - target))
    n = len(c["sigmas"]) * int(c["n_t"])
    ok = worst <= float(c["tol"])
    return ok, (
        f"max |sigma_A/sigma_E - 1/sqrt(3)| = {worst:.3e} over {n} (sigma, T) "
        f"points (tol {float(c['tol']):.1e})"
    )


def _crit_02(c, threads):
    """Asian MC price approaches the quote at first order in T."""
    surface = ConstantVol(float(c["sigma"]))
    payoff = PayoffSpec("call", strike=float(c["K"]))
    sim = _sim(c, threads, paths="n_paths_base")
    report, rows = asymptotics_error_study(
        surface, _market(c), payoff, "asian", "price",
        [float(T) for T in c["t_grid"]], sim,
        float(c["hypothesized_order"]), slack=float(c["slack"]),
    )
    ok = (
        report.status == "ok"
        and report.fitted_order >= float(c["min_order"])
        and report.r_squared >= float(c["min_r2"])
    )
    if report.status != "ok":
        worst = max(r["error"] / max(3.0 * r["std_error"], 1e-300) for r in rows)
        return ok, (
            f"price error |MC - quote| is noise-dominated at "
            f"{len(report.dropped)}/{len(rows)} maturities (best signal is "
            f"{worst:.2f}x the 3-standard-error floor at {int(c['n_paths_base'])} "
            f"base paths); no resolvable order fit"
        )
    vr = [r["diagnostics"]["vr_factor"] for r in rows]
    return ok, (
        f"price error order {report.fitted_order:.3f} "
        f"(need >= {float(c['min_order']):g}), r^2 {report.r_squared:.3f} "
        f"(need >= {float(c['min_r2']):g}); control-variate variance reduction "
        f"{min(vr):.3g}x to {max(vr):.3g}x"
    )


def _crit_03(c, threads):
    """ATM delta is 1/2 at leading order and corrects like sqrt(T)."""
    surface = ConstantVol(float(c["sigma"]))
    market = _market(c)
    payoff = PayoffSpec("call", strike=float(c["S0"]))
    simp = _sim(c, threads, paths="point_paths")
    T0 = float(c["T_point"])
    fd = mc_delta_fd(surface, market, payoff, "asian", T0, simp, bump=float(c["bump"]))
    ml = mc_delta_malliavin(surface, market, payoff, "asian", T0, simp)
    z_fd = abs(fd.mean - 0.5) / fd.std_error
    z_ml = abs(ml.mean - 0.5) / ml.std_error
    ok_point = z_fd <= 3.0 and z_ml <= 3.0

    simg = _sim(c, threads, paths="n_paths_base", seed="seed_grid")
    report, _ = asymptotics_error_study(
        surface, market, payoff, "asian", "delta-fd",
        [float(T) for T in c["t_grid"]], simg, 0.5, slack=float(c["slack"]),
        bump=float(c["bump"]),
    )
    ok_grid = report.status == "ok" and report.verdict
    order = f"{report.fitted_order:.3f}" if report.status == "ok" else "n/a"
    ok = ok_point and ok_grid
    return ok, (
        f"ATM delta at T={T0:g}: fd {fd.mean:.5f} ({z_fd:.2f} se from 1/2), "
        f"malliavin {ml.mean:.5f} ({z_ml:.2f} se); |delta - 1/2| fitted order "
        f"{order} (hypothesis 0.5 - {float(c['slack']):g}, status {report.status})"
    )


def _crit_04(c, threads):
    """ITM delta carries the discounting Taylor factor in T."""
    surface = ConstantVol(float(c["sigma"]))
    market = _market(c)
    payoff = PayoffSpec("call", strike=float(c["K"]))
    sim = _sim(c, threads)
    floor = float(c["tol_floor"])
    worst_ratio, worst_T = 0.0, math.nan
    for T in c["t_grid"]:
        T = float(T)
        est = mc_delta_fd(surface, market, payoff, "asian", T, sim, bump=float(c["bump"]))
        _, taylor = delta_parity_and_itm(market.r, market.q, T)
        err = abs(est.mean - taylor)
        tol = max(3.0 * est.std_error, floor)
        if err / tol > worst_ratio:
            worst_ratio, worst_T = err / tol, T
    ok = worst_ratio <= 1.0
    return ok, (
        f"ITM delta vs 1 - (r+q)T/2 + (r^2+rq+q^2)T^2/6: worst error/tolerance "
        f"= {worst_ratio:.2f} at T={worst_T:g} (allow max(3 se, {floor:g}))"
    )


def _crit_05(c, threads):
    """ATM power payoff prices at the T^(gamma/2) law with the M(gamma) constant."""
    sigma, gamma, S0 = float(c["sigma"]), float(c["gamma"]), float(c["S0"])
    surface = ConstantVol(sigma)
    market = _market(c)
    payoff = PayoffSpec("power-call", strike=S0, exponent=gamma)
    sim = _sim(c, threads)
    grid = [float(T) for T in np.geomspace(float(c["t_lo"]), float(c["t_hi"]), int(c["n_t"]))]
    prices = [mc_price(surface, market, payoff, "asian", T, sim).mean for T in grid]
    slope, loga = np.polyfit(np.log(grid), np.log(prices), 1)
    sig_a = sigma / math.sqrt(3.0)
    # leading price constant: price_lead(T) / T^(gamma/2) is T-free
    lead, _ = power_leading_terms(gamma, S0, sig_a, 1.0)
    slope_err = abs(slope - 0.5 * gamma)
    const_err = abs(math.exp(loga) / lead - 1.0)
    ok = slope_err <= float(c["slope_tol"]) and const_err <= float(c["const_rtol"])
    return ok, (
        f"power payoff (gamma={gamma:g}): fitted T-exponent {slope:.4f} vs "
        f"{0.5 * gamma:g} (tol {float(c['slope_tol']):g}), constant off by "
        f"{100 * const_err:.2f}% (tol {100 * float(c['const_rtol']):.0f}%)"
    )


def _crit_06(c, threads):
    """Each process pair is L^p-close at first order in t (slope about 2 for p=2)."""
    grid = [float(t) for t in np.geomspace(float(c["t_lo"]), float(c["t_hi"]), int(c["n_t"]))]
    sim = _sim(c, threads)
    min_slope, min_r2 = float(c["min_slope"]), float(c["min_r2"])
    ok = True
    bits = []
    for entry in c["pairs"]:
        surface = surface_from_config(entry["surface"])
        market = market_from_config(entry["market"])
        pair = (str(entry["a"]), str(entry["b"]))
        res = refined_fit(
            surface, market, pair, float(c["p"]), grid, sim,
            slope_tol=float(c["slope_tol"]),
        )
        fit, fit2 = res["fit"], res["fit_refined"]
        good = (
            res["stable"]
            and min(fit.slope, fit2.slope) >= min_slope
            and min(fit.r_squared, fit2.r_squared) >= min_r2
        )
        ok = ok and good
        bits.append(
            f"{pair[0]}-{pair[1]} {fit.slope:.2f}/{fit2.slope:.2f}"
            + ("" if good else " FAIL")
        )
    return ok, (
        f"L^{float(c['p']):g} moment slopes at steps {int(c['steps'])}/{2 * int(c['steps'])} "
        f"(need >= {min_slope:g}, r^2 >= {min_r2:g}, stable): " + ", ".join(bits)
    )


def _crit_07(c, threads):
    """Rate-function battery: oracles, invariances, refinement, tail decay."""
    surface = ConstantVol(float(c["sigma"]))
    skew = surface_from_config(c["skew_surface"])
    y, n = float(c["y"]), int(c["grid_n"])
    parts, oks = [], []

    def solve(surf, x, grid_n=n):
        return rate_function(problem_from_surface(surf, x, y, grid_n=grid_n))

    # the rate vanishes only on the diagonal
    triv = solve(surface, y).value
    oks.append(triv <= float(c["trivial_tol"]))
    parts.append(f"I(y,y)={triv:.1e}")

    # joint scaling of (x, y) leaves the rate alone for level-free vol
    x0 = float(c["xs_oracle"][0])
    base = solve(surface, x0).value
    scale = float(c["scale"])
    scaled = rate_function(
        problem_from_surface(surface, scale * x0, scale * y, grid_n=n)
    ).value
    rel_sc = abs(scaled - base) / base
    oks.append(rel_sc <= float(c["scaling_tol"]))
    parts.append(f"scaling gap {rel_sc:.1e}")

    # direct minimizer against the energy-integral oracle, level-free and skewed
    worst_or = 0.0
    for surf, x in [(surface, float(c["xs_oracle"][0])), (surface, float(c["xs_oracle"][1])),
                    (skew, float(c["x_skew"]))]:
        prob = problem_from_surface(surf, x, y, grid_n=n)
        direct = rate_function(prob).value
        oracle = rate_function_shooting(prob)
        worst_or = max(worst_or, abs(direct - oracle) / oracle)
    oks.append(worst_or <= float(c["oracle_tol"]))
    parts.append(f"vs shooting {worst_or:.1e}")

    # monotone in the displacement from the diagonal
    xs = [float(x) for x in c["monotone_grid"]]
    vals = [solve(surface, x).value for x in xs]
    iy = xs.index(y)
    tol = float(c["monotone_tol"])
    mono = all(vals[i] >= vals[i + 1] - tol for i in range(iy)) and all(
        vals[i] <= vals[i + 1] + tol for i in range(iy, len(xs) - 1)
    )
    oks.append(mono)
    parts.append(f"monotone {'ok' if mono else 'violated'}")

    # grid refinement contracts at least at second order
    ns = [int(k) for k in c["richardson_ns"]]
    vs = [solve(surface, float(c["x_skew"]), grid_n=k).value for k in ns]
    diffs = [abs(vs[i] - vs[i + 1]) for i in range(len(vs) - 1)]
    ratios = [diffs[i] / diffs[i + 1] for i in range(len(diffs) - 1)]
    oks.append(all(r >= float(c["contraction_min"]) for r in ratios))
    parts.append("refinement x" + "/".join(f"{r:.1f}" for r in ratios))

    # the decay fitter recovers planted rates: a bare exponential and one
    # behind a sqrt(T) prefactor
    ts = np.geomspace(0.01, 1.0, 12)[::-1]
    i_pure = float(c["pure_I"])
    rep_pure = decay_slope(ts, np.exp(-i_pure / ts), i_pure)
    ok_pure = abs(rep_pure.gap) <= float(c["pure_rtol"]) * i_pure
    i_ref = solve(surface, float(c["x_skew"])).value
    rep_pre = decay_slope(ts, np.sqrt(ts) * np.exp(-i_ref / ts), i_ref)
    ok_pre = abs(rep_pre.gap) <= float(c["prefactor_rtol"]) * i_ref
    oks.append(ok_pure and ok_pre)
    parts.append(
        f"planted decay {abs(rep_pure.gap) / i_pure:.1e}/"
        f"{abs(rep_pre.gap) / i_ref:.1e} rel"
    )

    # OTM Monte Carlo prices decay at the solver's rate: T log P falls
    # toward -I and lands closer at the small-T end
    d = c["decay"]
    K = float(d["K"])
    i_mc = solve(surface, K).value
    payoff = PayoffSpec("call", strike=K)
    market = MarketParams(S0=y, r=0.0, q=0.0)
    tgrid = [float(T) for T in d["t_grid"]]
    tmax = max(tgrid)
    tlp = []
    for T in tgrid:
        sim = SimConfig(
            steps=int(d["steps"]),
            n_paths=int(math.ceil(int(d["n_paths_base"]) * tmax / T)),
            seed=int(d["seed"]),
            threads=threads,
        )
        p = mc_price(surface, market, payoff, "asian", T, sim).mean
        if not p > 0.0:
            return False, "OTM decay check: Monte Carlo price vanished"
        tlp.append(T * math.log(p))
    falling = all(tlp[i] > tlp[i + 1] for i in range(len(tlp) - 1))
    closer = abs(tlp[-1] + i_mc) < abs(tlp[0] + i_mc)
    oks.append(falling and closer)
    parts.append(
        f"T log P {tlp[0]:.3f} -> {tlp[-1]:.3f} vs -I = {-i_mc:.3f} "
        f"({'ok' if falling and closer else 'violated'})"
    )

    return all(oks), "; ".join(parts)


def _crit_08(c, threads):
    """Matched-vol European tracks the Asian price an order better than unmatched."""
    surface = ConstantVol(float(c["sigma"]))
    market = _market(c)
    payoff = PayoffSpec("call", strike=float(c["K"]))
    sim = _sim(c, threads, paths="n_paths_base")
    slack = float(c["slack"])
    table = compare_experiment(
        surface, market, payoff, [float(T) for T in c["t_grid"]], sim,
        hypotheses={"matched": (1.0, slack), "unmatched": (0.5, slack), "geo": (1.0, slack)},
    )
    rm, ru, rg = table.reports["matched"], table.reports["unmatched"], table.reports["geo"]
    if not all(rep.status == "ok" for rep in (rm, ru, rg)):
        return False, (
            "proxy error orders unresolved: "
            + ", ".join(f"{k} {v.status}" for k, v in table.reports.items())
        )
    om, ou, og = rm.fitted_order, ru.fitted_order, rg.fitted_order
    ok = (
        om >= float(c["min_matched"])
        and og >= float(c["min_geo"])
        and ou <= float(c["max_unmatched"])
        and om - ou >= float(c["min_gap"])
    )
    return ok, (
        f"error orders: matched {om:.2f} (>= {float(c['min_matched']):g}), "
        f"unmatched {ou:.2f} (<= {float(c['max_unmatched']):g}), "
        f"geometric {og:.2f} (>= {float(c['min_geo']):g}), "
        f"gap {om - ou:.2f} (>= {float(c['min_gap']):g})"
    )


def _crit_09(c, threads):
    """Closed forms against independent oracles: quadrature, sampling, moments."""
    S0, vol, T = float(c["S0"]), float(c["vol"]), float(c["T"])
    tol = float(c["quad_tol"])
    worst_q = 0.0
    for fam in ("call", "put"):
        for K in c["strikes"]:
            payoff = PayoffSpec(fam, strike=float(K))
            for fn in (asym_price, asym_delta):
                closed = fn(payoff, S0, vol, T).value
                quad = fn(payoff, S0, vol, T, force_quadrature=True).value
                worst_q = max(worst_q, abs(closed - quad))
    ok_quad = worst_q <= tol

    # geometric-average closed form vs direct sampling of its lognormal law
    g = c["geometric"]
    sigma, K, Tg = float(g["sigma"]), float(g["K"]), float(g["T"])
    market = MarketParams(S0=float(g["S0"]), r=float(g["r"]), q=float(g["q"]))
    price, delta = geometric_bs(sigma, market, "call", K, Tg)
    rng = np.random.default_rng(int(g["seed"]))
    z = rng.standard_normal(int(g["n_draws"]))
    mean_log = math.log(market.S0) + (market.r - market.q - 0.5 * sigma**2) * Tg / 2.0
    draws = np.exp(mean_log + sigma * math.sqrt(Tg / 3.0) * z)
    disc = math.exp(-market.r * Tg)
    pay = np.maximum(draws - K, 0.0)
    se_p = disc * pay.std(ddof=1) / math.sqrt(len(pay))
    z_price = abs(disc * pay.mean() - price) / se_p
    # the geometric average is proportional to S0, so the pathwise delta
    # is the discounted in-the-money average divided by S0
    dpay = np.where(draws > K, draws / market.S0, 0.0)
    se_d = disc * dpay.std(ddof=1) / math.sqrt(len(dpay))
    z_delta = abs(disc * dpay.mean() - delta) / se_d
    ok_geo = z_price <= 3.0 and z_delta <= 3.0

    worst_m = 0.0
    for k in (1, 2, 3):
        dfact = float(math.prod(range(1, 2 * k, 2)))
        worst_m = max(worst_m, abs(abs_moment(2.0 * k) - dfact))
    ok_mom = worst_m <= float(c["moment_tol"])

    ok = ok_quad and ok_geo and ok_mom
    return ok, (
        f"closed form vs quadrature max gap {worst_q:.1e} (tol {tol:.0e}); "
        f"geometric sampling z-scores {z_price:.2f}/{z_delta:.2f} (need <= 3); "
        f"|M(2k) - (2k-1)!!| <= {worst_m:.1e} (tol {float(c['moment_tol']):.0e})"
    )


def _crit_10(c, threads):
    """Reruns and thread counts leave every output byte unchanged."""
    thread_counts = [int(k) for k in c["threads"]]
    runs = [("rerun-a", thread_counts[0]), ("rerun-b", thread_counts[0])] + [
        (f"threads-{k}", k) for k in thread_counts[1:]
    ]
    checked = 0
    with tempfile.TemporaryDirectory() as td:
        for sub in c["subjects"]:
            name, command = str(sub["name"]), str(sub["command"])
            cfg_path = Path(td) / f"{name}.yaml"
            cfg_path.write_text(yaml.safe_dump(_plain(sub["config"]), sort_keys=True))
            digests = []
            for tag, thr in runs:
                outdir = Path(td) / name / tag
                argv = [
                    "--config", str(cfg_path), "--threads", str(thr),
                    command, f"--output.dir={outdir}",
                ]
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = main(argv)
                if rc != 0:
                    return False, f"subject '{name}' exited with {rc} at {thr} threads"
                h = hashlib.sha256()
                for f in sorted(outdir.iterdir()):
                    h.update(f.name.encode())
                    h.update(f.read_bytes())
                digests.append(h.hexdigest())
            if len(set(digests)) != 1:
                return False, (
                    f"subject '{name}' produced differing bytes across runs "
                    f"(threads {thread_counts})"
                )
            checked += 1
    return True, (
        f"{checked} commands x {len(runs)} runs byte-identical "
        f"(threads {thread_counts})"
    )


_CRITERIA = {
    1: (_crit_01, "constant-vol ratio"),
    2: (_crit_02, "asian price error order"),
    3: (_crit_03, "ATM delta half plus sqrt(T) correction"),
    4: (_crit_04, "ITM delta carry Taylor"),
    5: (_crit_05, "power payoff scaling law"),
    6: (_crit_06, "process-pair closeness order"),
    7: (_crit_07, "rate-function battery"),
    8: (_crit_08, "matched vs unmatched proxy orders"),
    9: (_crit_09, "closed-form oracles"),
    10: (_crit_10, "byte-identical reruns"),
}


class _CriterionConfig(dict):
    """A criterion config whose missing key, at any depth (lists included),
    raises ValidationError naming the criterion and the key's path."""

    def __init__(self, data: dict, criterion: int, path: str = ""):
        self.criterion, self.path = criterion, path
        super().__init__((k, self._nest(v, f"{path}{k}")) for k, v in data.items())

    def _nest(self, v, path: str):
        if isinstance(v, list):
            return [self._nest(x, f"{path}[{i}]") for i, x in enumerate(v)]
        return _CriterionConfig(v, self.criterion, path + ".") if isinstance(v, dict) else v

    def __missing__(self, key):
        raise ValidationError(f"criterion {self.criterion} config has no key '{self.path}{key}'")


def run_criterion(criterion: int, config_path, threads: int = 1):
    """Run one acceptance criterion from its config file.

    Returns (passed, detail); detail is a one-line quantitative account.
    """
    if criterion not in _CRITERIA:
        raise ValidationError(f"criterion must be 1..{len(_CRITERIA)}, got {criterion}")
    cfg = _load_yaml(config_path, "criterion config")
    fn, _ = _CRITERIA[criterion]
    return fn(_CriterionConfig(cfg, criterion), threads)


def _default_configs_dir() -> Path:
    here = Path("configs/acceptance")
    if here.is_dir():
        return here
    return Path(__file__).resolve().parents[2] / "configs" / "acceptance"


def _parse_criteria(tokens) -> list:
    if not tokens or tokens == ["all"]:
        return sorted(_CRITERIA)
    out = []
    for tok in tokens:
        if tok == "all":
            return sorted(_CRITERIA)
        try:
            n = int(str(tok).lstrip("cC").lstrip("0") or "0")
        except ValueError:
            raise ValidationError(f"criteria are numbers 1..{len(_CRITERIA)}, got '{tok}'")
        if n not in _CRITERIA:
            raise ValidationError(f"criteria are numbers 1..{len(_CRITERIA)}, got '{tok}'")
        out.append(n)
    return out


def _cmd_check(tokens, configs_dir, threads: int) -> int:
    nums = _parse_criteria(tokens)
    cdir = Path(configs_dir) if configs_dir is not None else _default_configs_dir()
    passed = 0
    for n in nums:
        ok, detail = run_criterion(n, cdir / f"c{n:02d}.yaml", threads)
        _, title = _CRITERIA[n]
        print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'} [{title}]: {detail}")
        passed += int(ok)
    print(f"{passed}/{len(nums)} criteria passed")
    return 0 if passed == len(nums) else 3


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asianvol",
        description="Asian-option pricing, hedging, and verification toolkit",
    )
    parser.add_argument("--config", default=None, help="YAML config file")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="worker threads (default: ASIANVOL_THREADS or 1); never changes results",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMAND_FN:
        sub.add_parser(name, help=f"run the {name} experiment")
    check = sub.add_parser("check", help="run acceptance criteria")
    check.add_argument("criteria", nargs="*", default=["all"],
                       help="criterion numbers, or 'all'")
    check.add_argument("--configs-dir", default=None,
                       help="directory holding c01.yaml .. c10.yaml")
    return parser


def _resolve_threads(arg) -> int:
    if arg is None:
        raw = os.environ.get("ASIANVOL_THREADS", "1")
        try:
            arg = int(raw)
        except ValueError:
            raise ValidationError(f"ASIANVOL_THREADS must be an integer, got '{raw}'")
    if arg < 1:
        raise ValidationError(f"threads must be a positive integer, got {arg}")
    return arg


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # `--check` anywhere is shorthand for the check subcommand
    argv = ["check" if a == "--check" else a for a in argv]
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        threads = _resolve_threads(args.threads)
        overrides = _parse_overrides(extras)
        if args.command == "check":
            if overrides:
                raise ValidationError(
                    "check takes no overrides; edit the criterion configs instead"
                )
            rc = _cmd_check(args.criteria, args.configs_dir, threads)
        else:
            cfg = _resolve(args.command, args.config, overrides)
            outdir = Path(cfg["output"]["dir"])
            outdir.mkdir(parents=True, exist_ok=True)
            # the echoed config describes the experiment; where the files land
            # (like the thread count) is an execution detail, not part of it
            echo = {k: v for k, v in cfg.items() if k != "output"}
            resolved = yaml.safe_dump(_plain(echo), sort_keys=True, default_flow_style=False)
            (outdir / "resolved.yaml").write_text(resolved)
            _COMMAND_FN[args.command](cfg, threads, outdir, resolved)
            rc = 0
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return rc
    except BrokenPipeError:
        # the reader left (`check | head -1`): devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
