"""The acceptance battery behind ``asianvol check``.

Each criterion is one row of ``_CRITERIA``: its function, its scoreboard
title, and the prototype of its config (``model._check_type``), which every
key must match before the criterion runs.  A surface or market block is typed
by its ``model`` checker into its object; only c10's subject ``config`` is the
``{}`` of any mapping, because the CLI checks it.  A criterion reads each value
in its declared type.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import yaml

from .approxlab import refined_fit
from .asymptotics import (abs_moment, asym_delta, asym_price, delta_parity_and_itm,
                          geometric_bs, power_leading_terms, vol_quote)
from .errors import ValidationError
from .harness import asymptotics_error_study, compare_experiment
from .ldp import decay_slope, problem_from_surface, rate_function, rate_function_shooting
from .model import (_MARKET, ConstantVol, MarketParams, PayoffSpec, _check_type,
                    _market_block, _surface_block)
from .montecarlo import SimConfig, mc_delta_fd, mc_delta_malliavin, mc_price

__all__ = ["run_criterion"]


def _market(c: dict) -> MarketParams:
    return MarketParams(S0=c["S0"], r=c["r"], q=c["q"])


def _sim(c: dict, threads: int, paths: str = "n_paths", seed: str = "seed") -> SimConfig:
    """The criterion's SimConfig: steps, and paths and seed from the named keys."""
    return SimConfig(steps=c["steps"], n_paths=c[paths], seed=c[seed], threads=threads)


def _crit_01(c, threads):
    """Constant vol: the Asian/European vol ratio is 1/sqrt(3) exactly."""
    target = 1.0 / math.sqrt(3.0)
    worst = 0.0
    for sig in c["sigmas"]:
        surface = ConstantVol(sig)
        for T in np.geomspace(c["t_lo"], c["t_hi"], c["n_t"]):
            q = vol_quote(surface, c["S0"], float(T))
            worst = max(worst, abs(q.asian_vol / q.european_vol - target))
    n = len(c["sigmas"]) * c["n_t"]
    ok = worst <= c["tol"]
    return ok, (
        f"max |sigma_A/sigma_E - 1/sqrt(3)| = {worst:.3e} over {n} (sigma, T) "
        f"points (tol {c['tol']:.1e})"
    )


def _crit_02(c, threads):
    """Asian MC price approaches the quote at first order in T."""
    surface = ConstantVol(c["sigma"])
    payoff = PayoffSpec("call", strike=c["K"])
    sim = _sim(c, threads, paths="n_paths_base")
    report, rows = asymptotics_error_study(
        surface, _market(c), payoff, "asian", "price", c["t_grid"], sim,
        c["hypothesized_order"], slack=c["slack"],
    )
    ok = (
        report.status == "ok"
        and report.fitted_order >= c["min_order"]
        and report.r_squared >= c["min_r2"]
    )
    if report.status != "ok":
        worst = max(r["error"] / max(3.0 * r["std_error"], 1e-300) for r in rows)
        return ok, (
            f"price error |MC - quote| is noise-dominated at "
            f"{len(report.dropped)}/{len(rows)} maturities (best signal is "
            f"{worst:.2f}x the 3-standard-error floor at {c['n_paths_base']} "
            f"base paths); no resolvable order fit"
        )
    vr = [r["diagnostics"]["vr_factor"] for r in rows]
    return ok, (
        f"price error order {report.fitted_order:.3f} "
        f"(need >= {c['min_order']:g}), r^2 {report.r_squared:.3f} "
        f"(need >= {c['min_r2']:g}); control-variate variance reduction "
        f"{min(vr):.3g}x to {max(vr):.3g}x"
    )


def _crit_03(c, threads):
    """ATM delta is 1/2 at leading order and corrects like sqrt(T)."""
    surface = ConstantVol(c["sigma"])
    market = _market(c)
    payoff = PayoffSpec("call", strike=c["S0"])
    simp = _sim(c, threads, paths="point_paths")
    T0 = c["T_point"]
    fd = mc_delta_fd(surface, market, payoff, "asian", T0, simp, bump=c["bump"])
    ml = mc_delta_malliavin(surface, market, payoff, "asian", T0, simp)
    z_fd = abs(fd.mean - 0.5) / fd.std_error
    z_ml = abs(ml.mean - 0.5) / ml.std_error
    ok_point = z_fd <= 3.0 and z_ml <= 3.0

    simg = _sim(c, threads, paths="n_paths_base", seed="seed_grid")
    report, _ = asymptotics_error_study(
        surface, market, payoff, "asian", "delta-fd", c["t_grid"], simg, 0.5,
        slack=c["slack"], bump=c["bump"],
    )
    ok_grid = report.status == "ok" and report.verdict
    order = f"{report.fitted_order:.3f}" if report.status == "ok" else "n/a"
    ok = ok_point and ok_grid
    return ok, (
        f"ATM delta at T={T0:g}: fd {fd.mean:.5f} ({z_fd:.2f} se from 1/2), "
        f"malliavin {ml.mean:.5f} ({z_ml:.2f} se); |delta - 1/2| fitted order "
        f"{order} (hypothesis 0.5 - {c['slack']:g}, status {report.status})"
    )


def _crit_04(c, threads):
    """ITM delta carries the discounting Taylor factor in T."""
    surface = ConstantVol(c["sigma"])
    market = _market(c)
    payoff = PayoffSpec("call", strike=c["K"])
    sim = _sim(c, threads)
    floor = c["tol_floor"]
    worst_ratio, worst_T = 0.0, math.nan
    for T in c["t_grid"]:
        est = mc_delta_fd(surface, market, payoff, "asian", T, sim, bump=c["bump"])
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
    sigma, gamma, S0 = c["sigma"], c["gamma"], c["S0"]
    surface = ConstantVol(sigma)
    market = _market(c)
    payoff = PayoffSpec("power-call", strike=S0, exponent=gamma)
    sim = _sim(c, threads)
    grid = [float(T) for T in np.geomspace(c["t_lo"], c["t_hi"], c["n_t"])]
    prices = [mc_price(surface, market, payoff, "asian", T, sim).mean for T in grid]
    slope, loga = np.polyfit(np.log(grid), np.log(prices), 1)
    sig_a = sigma / math.sqrt(3.0)
    # leading price constant: price_lead(T) / T^(gamma/2) is T-free
    lead, _ = power_leading_terms(gamma, S0, sig_a, 1.0)
    slope_err = abs(slope - 0.5 * gamma)
    const_err = abs(math.exp(loga) / lead - 1.0)
    ok = slope_err <= c["slope_tol"] and const_err <= c["const_rtol"]
    return ok, (
        f"power payoff (gamma={gamma:g}): fitted T-exponent {slope:.4f} vs "
        f"{0.5 * gamma:g} (tol {c['slope_tol']:g}), constant off by "
        f"{100 * const_err:.2f}% (tol {100 * c['const_rtol']:.0f}%)"
    )


def _crit_06(c, threads):
    """Each process pair is L^p-close at first order in t (slope about 2 for p=2)."""
    grid = [float(t) for t in np.geomspace(c["t_lo"], c["t_hi"], c["n_t"])]
    sim = _sim(c, threads)
    min_slope, min_r2 = c["min_slope"], c["min_r2"]
    ok = True
    bits = []
    for entry in c["pairs"]:
        pair = (entry["a"], entry["b"])
        res = refined_fit(entry["surface"], entry["market"], pair, c["p"], grid, sim,
                          slope_tol=c["slope_tol"])
        fit, fit2 = res["fit"], res["fit_refined"]
        good = (
            res["stable"]
            and min(fit.slope, fit2.slope) >= min_slope
            and min(fit.r_squared, fit2.r_squared) >= min_r2
        )
        ok = ok and good
        bits.append(f"{pair[0]}-{pair[1]} {fit.slope:.2f}/{fit2.slope:.2f}"
                    + ("" if good else " FAIL"))
    return ok, (
        f"L^{c['p']:g} moment slopes at steps {c['steps']}/{2 * c['steps']} "
        f"(need >= {min_slope:g}, r^2 >= {min_r2:g}, stable): " + ", ".join(bits)
    )


def _crit_07(c, threads):
    """Rate-function battery: oracles, invariances, refinement, tail decay."""
    y, n = c["y"], c["grid_n"]
    if y not in c["monotone_grid"]:
        raise ValidationError(f"criterion 7 config key 'monotone_grid' must contain y = {y:g}")
    if len(c["richardson_ns"]) < 3:
        raise ValidationError("criterion 7 config key 'richardson_ns' needs at least 3 grid "
                              f"sizes to give a contraction ratio, got {c['richardson_ns']}")
    surface = ConstantVol(c["sigma"])
    parts, oks = [], []

    def solve(surf, x, grid_n=n):
        return rate_function(problem_from_surface(surf, x, y, grid_n=grid_n))

    # the rate vanishes only on the diagonal
    triv = solve(surface, y).value
    oks.append(triv <= c["trivial_tol"])
    parts.append(f"I(y,y)={triv:.1e}")

    # joint scaling of (x, y) leaves the rate alone for level-free vol
    x0 = c["xs_oracle"][0]
    base = solve(surface, x0).value
    scale = c["scale"]
    scaled = rate_function(
        problem_from_surface(surface, scale * x0, scale * y, grid_n=n)
    ).value
    rel_sc = abs(scaled - base) / base
    oks.append(rel_sc <= c["scaling_tol"])
    parts.append(f"scaling gap {rel_sc:.1e}")

    # direct minimizer against the energy-integral oracle, level-free and skewed
    worst_or = 0.0
    for surf, x in [(surface, x) for x in c["xs_oracle"]] + [(c["skew_surface"], c["x_skew"])]:
        prob = problem_from_surface(surf, x, y, grid_n=n)
        direct = rate_function(prob).value
        oracle = rate_function_shooting(prob)
        worst_or = max(worst_or, abs(direct - oracle) / oracle)
    oks.append(worst_or <= c["oracle_tol"])
    parts.append(f"vs shooting {worst_or:.1e}")

    # monotone in the displacement from the diagonal
    xs = c["monotone_grid"]
    vals = [solve(surface, x).value for x in xs]
    iy = xs.index(y)
    tol = c["monotone_tol"]
    mono = all(vals[i] >= vals[i + 1] - tol for i in range(iy)) and all(
        vals[i] <= vals[i + 1] + tol for i in range(iy, len(xs) - 1)
    )
    oks.append(mono)
    parts.append(f"monotone {'ok' if mono else 'violated'}")

    # grid refinement contracts at least at second order
    vs = [solve(surface, c["x_skew"], grid_n=k).value for k in c["richardson_ns"]]
    diffs = [abs(vs[i] - vs[i + 1]) for i in range(len(vs) - 1)]
    ratios = [diffs[i] / diffs[i + 1] for i in range(len(diffs) - 1)]
    oks.append(all(r >= c["contraction_min"] for r in ratios))
    parts.append("refinement x" + "/".join(f"{r:.1f}" for r in ratios))

    # the decay fitter recovers planted rates: a bare exponential and one
    # behind a sqrt(T) prefactor
    ts = np.geomspace(0.01, 1.0, 12)[::-1]
    i_pure = c["pure_I"]
    rep_pure = decay_slope(ts, np.exp(-i_pure / ts), i_pure)
    ok_pure = abs(rep_pure.gap) <= c["pure_rtol"] * i_pure
    i_ref = solve(surface, c["x_skew"]).value
    rep_pre = decay_slope(ts, np.sqrt(ts) * np.exp(-i_ref / ts), i_ref)
    ok_pre = abs(rep_pre.gap) <= c["prefactor_rtol"] * i_ref
    oks.append(ok_pure and ok_pre)
    parts.append(
        f"planted decay {abs(rep_pure.gap) / i_pure:.1e}/"
        f"{abs(rep_pre.gap) / i_ref:.1e} rel"
    )

    # OTM Monte Carlo prices decay at the solver's rate: T log P falls
    # toward -I and lands closer at the small-T end
    d = c["decay"]
    i_mc = solve(surface, d["K"]).value
    payoff = PayoffSpec("call", strike=d["K"])
    market = MarketParams(S0=y, r=0.0, q=0.0)
    tmax = max(d["t_grid"])
    tlp = []
    for T in d["t_grid"]:
        sim = SimConfig(steps=d["steps"], n_paths=math.ceil(d["n_paths_base"] * tmax / T),
                        seed=d["seed"], threads=threads)
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
    surface = ConstantVol(c["sigma"])
    market = _market(c)
    payoff = PayoffSpec("call", strike=c["K"])
    sim = _sim(c, threads, paths="n_paths_base")
    slack = c["slack"]
    table = compare_experiment(
        surface, market, payoff, c["t_grid"], sim,
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
        om >= c["min_matched"]
        and og >= c["min_geo"]
        and ou <= c["max_unmatched"]
        and om - ou >= c["min_gap"]
    )
    return ok, (
        f"error orders: matched {om:.2f} (>= {c['min_matched']:g}), "
        f"unmatched {ou:.2f} (<= {c['max_unmatched']:g}), "
        f"geometric {og:.2f} (>= {c['min_geo']:g}), "
        f"gap {om - ou:.2f} (>= {c['min_gap']:g})"
    )


def _crit_09(c, threads):
    """Closed forms against independent oracles: quadrature, sampling, moments."""
    S0, vol, T = c["S0"], c["vol"], c["T"]
    tol = c["quad_tol"]
    worst_q = 0.0
    for fam in ("call", "put"):
        for K in c["strikes"]:
            payoff = PayoffSpec(fam, strike=K)
            for fn in (asym_price, asym_delta):
                closed = fn(payoff, S0, vol, T).value
                quad = fn(payoff, S0, vol, T, force_quadrature=True).value
                worst_q = max(worst_q, abs(closed - quad))
    ok_quad = worst_q <= tol

    # geometric-average closed form vs direct sampling of its lognormal law
    g = c["geometric"]
    sigma, K, Tg = g["sigma"], g["K"], g["T"]
    market = _market(g)
    price, delta = geometric_bs(sigma, market, "call", K, Tg)
    rng = np.random.default_rng(g["seed"])
    z = rng.standard_normal(g["n_draws"])
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
    ok_mom = worst_m <= c["moment_tol"]

    ok = ok_quad and ok_geo and ok_mom
    return ok, (
        f"closed form vs quadrature max gap {worst_q:.1e} (tol {tol:.0e}); "
        f"geometric sampling z-scores {z_price:.2f}/{z_delta:.2f} (need <= 3); "
        f"|M(2k) - (2k-1)!!| <= {worst_m:.1e} (tol {c['moment_tol']:.0e})"
    )


def _crit_10(c, threads):
    """Reruns and thread counts leave every output byte unchanged."""
    from .cli import main  # cli imports this module

    thread_counts = c["threads"]
    runs = [("rerun-a", thread_counts[0]), ("rerun-b", thread_counts[0])] + [
        (f"threads-{k}", k) for k in thread_counts[1:]
    ]
    checked = 0
    with tempfile.TemporaryDirectory() as td:
        for sub in c["subjects"]:
            name = sub["name"]
            cfg_path = Path(td) / f"{name}.yaml"
            cfg_path.write_text(yaml.safe_dump(sub["config"], sort_keys=True))
            digests = []
            for tag, thr in runs:
                outdir = Path(td) / name / tag
                argv = [
                    "--config", str(cfg_path), "--threads", f"{thr}",
                    sub["command"], f"--output.dir={outdir}",
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
    1: (_crit_01, "constant-vol ratio",
        {"S0": 0.0, "sigmas": [0.0], "t_lo": 0.0, "t_hi": 0.0, "n_t": 0, "tol": 0.0}),
    2: (_crit_02, "asian price error order",
        {**_MARKET, "sigma": 0.0, "K": 0.0, "t_grid": [0.0], "n_paths_base": 0, "steps": 0,
         "seed": 0, "hypothesized_order": 0.0, "slack": 0.0, "min_order": 0.0, "min_r2": 0.0}),
    3: (_crit_03, "ATM delta half plus sqrt(T) correction",
        {**_MARKET, "sigma": 0.0, "T_point": 0.0, "point_paths": 0, "bump": 0.0, "seed": 0,
         "seed_grid": 0, "steps": 0, "t_grid": [0.0], "n_paths_base": 0, "slack": 0.0}),
    4: (_crit_04, "ITM delta carry Taylor",
        {**_MARKET, "sigma": 0.0, "K": 0.0, "t_grid": [0.0], "n_paths": 0, "steps": 0,
         "bump": 0.0, "seed": 0, "tol_floor": 0.0}),
    5: (_crit_05, "power payoff scaling law",
        {**_MARKET, "sigma": 0.0, "gamma": 0.0, "t_lo": 0.0, "t_hi": 0.0, "n_t": 0,
         "n_paths": 0, "steps": 0, "seed": 0, "slope_tol": 0.0, "const_rtol": 0.0}),
    6: (_crit_06, "process-pair closeness order",
        {"p": 0.0, "t_lo": 0.0, "t_hi": 0.0, "n_t": 0, "n_paths": 0, "steps": 0, "seed": 0,
         "min_slope": 0.0, "min_r2": 0.0, "slope_tol": 0.0,
         "pairs": [{"a": "", "b": "", "surface": _surface_block, "market": _market_block}]}),
    7: (_crit_07, "rate-function battery",
        {"sigma": 0.0, "y": 0.0, "grid_n": 0, "trivial_tol": 0.0, "scale": 0.0,
         "scaling_tol": 0.0, "xs_oracle": [0.0], "x_skew": 0.0, "skew_surface": _surface_block,
         "oracle_tol": 0.0, "monotone_grid": [0.0], "monotone_tol": 0.0, "richardson_ns": [0],
         "contraction_min": 0.0, "pure_I": 0.0, "pure_rtol": 0.0, "prefactor_rtol": 0.0,
         "decay": {"K": 0.0, "t_grid": [0.0], "n_paths_base": 0, "steps": 0, "seed": 0}}),
    8: (_crit_08, "matched vs unmatched proxy orders",
        {**_MARKET, "sigma": 0.0, "K": 0.0, "t_grid": [0.0], "n_paths_base": 0, "steps": 0,
         "seed": 0, "slack": 0.0, "min_matched": 0.0, "max_unmatched": 0.0, "min_geo": 0.0,
         "min_gap": 0.0}),
    9: (_crit_09, "closed-form oracles",
        {"S0": 0.0, "vol": 0.0, "T": 0.0, "strikes": [0.0], "quad_tol": 0.0, "moment_tol": 0.0,
         "geometric": {**_MARKET, "sigma": 0.0, "K": 0.0, "T": 0.0, "n_draws": 0, "seed": 0}}),
    10: (_crit_10, "byte-identical reruns",
         {"threads": [0], "subjects": [{"name": "", "command": "", "config": {}}]}),
}


def _load_config(criterion: int, config_path) -> dict:
    """The criterion's config file, checked against its key table."""
    from .cli import _load_yaml  # cli imports this module

    if criterion not in _CRITERIA:
        raise ValidationError(f"criterion must be 1..{len(_CRITERIA)}, got {criterion}")
    cfg = _load_yaml(config_path, "criterion config")
    return _check_type("", cfg, _CRITERIA[criterion][2], f"criterion {criterion} config")


def run_criterion(criterion: int, config_path, threads: int = 1):
    """Run one acceptance criterion from its config file.

    Returns (passed, detail); detail is a one-line quantitative account.
    """
    cfg = _load_config(criterion, config_path)
    return _CRITERIA[criterion][0](cfg, threads)
