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
after it.  The resolved config is typed as one value by ``model._check_type``
(family and market blocks by their checkers): an unknown or missing key, a
value of the wrong type or an empty list is named by its full dotted key, as
in ``config key 'model.surface.sigma' must be a number, got 'abc'``, and a
block given anything but a mapping by its key.

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
import copy
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import yaml

from .acceptance import _CRITERIA, run_criterion
from .asymptotics import asian_vol, asym_delta, european_vol, vol_quote
from .errors import DomainError, NumericError, ValidationError
from .harness import DEFAULT_T_GRID, asym_price_value, asymptotics_error_study, compare_experiment
from .approxlab import refined_fit
from .ldp import problem_from_surface, rate_function, rate_function_shooting
from .model import _check_type, _market_block, _payoff_block, _surface_block
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
    # family blocks accept new keys (their checkers type them)
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
    # which the new family's checker rejects
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


def _resolve(command: str, config_path, overrides) -> tuple:
    """The config as given, for the echo, and typed, model and payoff blocks as objects."""
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
    proto = {**_BASE_DEFAULTS, "model": {"surface": _surface_block, "market": _market_block},
             "payoff": _payoff_block, "experiment": _EXPERIMENT_DEFAULTS[command]}
    return cfg, _check_type("", cfg, proto)


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
    sim = SimConfig(**cfg["mc"], threads=threads)
    return cfg["model"]["surface"], cfg["model"]["market"], cfg["payoff"], sim


def _t_grid(e: dict) -> list:
    lo, hi, n = e["t_lo"], e["t_hi"], e["n_t"]
    if not (0.0 < lo < hi < math.inf):
        raise ValidationError(f"need 0 < t_lo < t_hi < inf, got [{lo}, {hi}]")
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
    surface, market = cfg["model"]["surface"], cfg["model"]["market"]
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
    style, method, T = e["style"], e["method"], e["T"]
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
    style, method, T = e["style"], e["method"], e["T"]
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
        est = mc_delta_fd(surface, market, payoff, style, T, sim, bump=e["bump"])
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
    pair = tuple(e["pair"])
    grid = _t_grid(e)
    res = refined_fit(
        surface, market, pair, e["p"], grid, sim, slope_tol=e["slope_tol"]
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
    surface, market = cfg["model"]["surface"], cfg["model"]["market"]
    e = cfg["experiment"]
    problem = problem_from_surface(surface, e["x"], market.S0, grid_n=e["grid_n"])
    res = rate_function(problem)
    _write_csv(outdir / "path.csv", resolved, "t,g", zip(res.t, res.g))
    summary = {k: v for k, v in vars(res).items() if k not in ("t", "g")}
    if e["oracle"]:
        oracle = rate_function_shooting(problem)
        summary["oracle"] = oracle
        summary["oracle_gap_abs"] = abs(res.value - oracle)
    _write_summary(outdir / "summary.yaml", summary)
    print(f"I({e['x']:.6g}) = {res.value:.6g}  (converged={res.converged}, "
          f"outer iterations {res.n_outer})")
    if e["oracle"]:
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
        e["t_grid"],
        sim,
        e["hypothesized_order"],
        slack=e["slack"],
        path_scaling=e["path_scaling"],
        bump=e["bump"],
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
        e["t_grid"],
        sim,
        path_scaling=e["path_scaling"],
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
# check
# ---------------------------------------------------------------------------

def _default_configs_dir() -> Path:
    here = Path("configs/acceptance")
    if here.is_dir():
        return here
    return Path(__file__).resolve().parents[2] / "configs" / "acceptance"


def _parse_criteria(tokens) -> list:
    out = []
    for tok in tokens:
        if tok == "all":
            return sorted(_CRITERIA)
        try:
            n = int(str(tok).lstrip("cC").lstrip("0") or "0")
        except ValueError:
            n = 0
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
        print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'} [{_CRITERIA[n][1]}]: {detail}")
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
            cfg, typed = _resolve(args.command, args.config, overrides)
            outdir = Path(typed["output"]["dir"])
            outdir.mkdir(parents=True, exist_ok=True)
            # the echoed config describes the experiment; where the files land
            # (like the thread count) is an execution detail, not part of it
            echo = {k: v for k, v in cfg.items() if k != "output"}
            resolved = yaml.safe_dump(_plain(echo), sort_keys=True, default_flow_style=False)
            (outdir / "resolved.yaml").write_text(resolved)
            _COMMAND_FN[args.command](typed, threads, outdir, resolved)
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
