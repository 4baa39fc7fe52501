"""Wrap each asianvol layer's public calls in spans, and derive per-layer metrics.

The layers are the package modules: ``_rng``, ``model``, ``montecarlo``,
``approxlab``, ``asymptotics``, ``ldp``, ``harness`` and ``cli``.  Several
modules import layer functions by name (``normal_block`` into
``montecarlo``, ``_sim_block`` into ``approxlab``, the estimators into
``harness`` and ``cli``), so a wrapper must replace the function at every
name that refers to it, not only where it is defined.  ``install`` finds
those names by identity across every loaded ``asianvol`` module and
refuses to run when a target is missing, so a renamed function fails the
traced run instead of reporting zero.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from pathlib import Path

from spans import self_times, union_length

LAYER_MODULES = ("_rng", "model", "montecarlo", "approxlab", "asymptotics", "ldp",
                 "harness", "cli")
ESTIMATORS = {"mc_price": "mc.price", "mc_delta_fd": "mc.delta_fd",
              "mc_delta_malliavin": "mc.delta_malliavin"}

# counters that must repeat exactly from one traced batch to the next
DETERMINISTIC = ("rng.normals", "mc.path_steps", "model.coef_calls",
                 "asym.quad_nodes", "ldp.outer_iters")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("rng.calls", "count"), ("rng.normals", "count"), ("rng.busy_s", "s"),
    ("rng.ns_per_normal", "ns"), ("rng.distinct_frac", "ratio"), ("rng.errors", "count"),
    ("model.coef_calls", "count"), ("model.coef_elems", "count"),
    ("model.coef_busy_s", "s"), ("model.coef_ns_per_elem", "ns"),
    ("model.payoff_busy_s", "s"), ("model.errors", "count"),
    ("mc.kernel_calls", "count"), ("mc.path_steps", "count"), ("mc.kernel_self_s", "s"),
    ("mc.kernel_ns_per_path_step", "ns"), ("mc.useful_frac", "ratio"),
    ("mc.malliavin_s", "s"), ("mc.malliavin_ns_per_path_step", "ns"),
    ("mc.reduce_self_s", "s"), ("mc.concurrency", "ratio"),
    ("mc.excluded_paths", "count"), ("mc.flagged_paths", "count"),
    ("mc.price_ns_per_path_step", "ns"), ("mc.delta_fd_ns_per_path_step", "ns"),
    ("mc.delta_malliavin_ns_per_path_step", "ns"), ("mc.errors", "count"),
    ("approx.curve_calls", "count"), ("approx.curve_points", "count"),
    ("approx.curve_s", "s"), ("approx.self_s", "s"), ("approx.errors", "count"),
    ("asym.vol_calls", "count"), ("asym.vol_s", "s"), ("asym.quote_calls", "count"),
    ("asym.quote_s", "s"), ("asym.quad_nodes", "count"), ("asym.errors", "count"),
    ("ldp.direct_calls", "count"), ("ldp.direct_s", "s"), ("ldp.outer_iters", "count"),
    ("ldp.unconverged", "count"), ("ldp.shooting_calls", "count"),
    ("ldp.shooting_s", "s"), ("ldp.errors", "count"),
    ("harness.calls", "count"), ("harness.self_s", "s"), ("harness.errors", "count"),
    ("cli.commands", "count"), ("cli.self_s", "s"), ("cli.bytes_written", "bytes"),
    ("cli.errors", "count"),
    ("trace.overhead_frac", "ratio"),
)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _size(v) -> int:
    return getattr(v, "size", 1)


def _dir_bytes(argv) -> int:
    for a in argv:
        if a.startswith("--output.dir="):
            d = Path(a.split("=", 1)[1])
            return sum(f.stat().st_size for f in d.iterdir() if f.is_file())
    return 0


class Installed:
    """The attribute replacements made by ``install``; ``remove`` undoes them."""

    def __init__(self) -> None:
        self.patches: list = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer, av) -> Installed:
    """Wrap every lookup site of the layer functions in ``av`` (asianvol)."""
    for layer in LAYER_MODULES:
        importlib.import_module(f"asianvol.{layer}")
    done = Installed()
    try:
        _install(tracer, av, done)
    except BaseException:
        done.remove()
        raise
    return done


def _install(tracer, av, done: Installed) -> None:
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "asianvol" or name.startswith("asianvol.")]
    count = tracer.count

    def everywhere(fn, name, layer, before=None, after=None):
        wrapped = tracer.wrap(fn, name, f"{layer}.errors", before, after)
        hits = 0
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is fn:
                    done.patches.append((m, attr, val))
                    setattr(m, attr, wrapped)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no asianvol module refers to {fn.__qualname__}")

    def on_class(cls, attr, name, layer, before=None, after=None):
        original = cls.__dict__[attr]
        done.patches.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(original, name, f"{layer}.errors", before, after))

    def calls(counter):
        return lambda args, kwargs: count(counter)

    # _rng
    def draw(args, kwargs):
        seed, n_steps = _arg(args, kwargs, 0, "seed"), _arg(args, kwargs, 1, "n_steps")
        lo, hi = _arg(args, kwargs, 2, "lo"), _arg(args, kwargs, 3, "hi")
        count("rng.calls")
        count("rng.normals", (hi - lo) * n_steps)
        tracer.addresses.append((int(seed), lo * n_steps, hi * n_steps))

    everywhere(av._rng.normal_block, "rng.normal_block", "rng", before=draw)

    # model: surface coefficients and payoff evaluation
    def coef(args, kwargs):
        t, x = _arg(args, kwargs, 1, "t"), _arg(args, kwargs, 2, "x")
        count("model.coef_calls")
        count("model.coef_elems", max(_size(t), _size(x)))

    for attr in ("sigma", "dcoef_dx", "dcoef_dxx"):
        on_class(av.model.LocalVolSurface, attr, "model.coef", "model", before=coef)
    on_class(av.model.PayoffSpec, "value", "model.payoff", "model")

    # montecarlo: stepping kernel, Malliavin weights, estimators
    def kernel(args, kwargs):
        cfg = _arg(args, kwargs, 3, "cfg")
        lo, hi = _arg(args, kwargs, 4, "lo"), _arg(args, kwargs, 5, "hi")
        count("mc.kernel_calls")
        count("mc.path_steps", (hi - lo) * cfg.steps)

    everywhere(av.montecarlo._sim_block, "mc.kernel", "mc", before=kernel)
    for fn in (av.montecarlo._asian_weights, av.montecarlo._european_weights):
        everywhere(fn, "mc.malliavin", "mc")

    def estimator(span):
        def before(args, kwargs):
            cfg = _arg(args, kwargs, 5, "cfg")
            count(f"{span}.useful", cfg.n_paths * cfg.steps)
            count("mc.useful_path_steps", cfg.n_paths * cfg.steps)

        def after(result, args, kwargs):
            count("mc.excluded_paths", result.diagnostics.get("excluded", 0))
            count("mc.flagged_paths", result.diagnostics.get("flagged", 0))

        return before, after

    for fname, span in ESTIMATORS.items():
        before, after = estimator(span)
        everywhere(getattr(av.montecarlo, fname), span, "mc", before, after)

    # approxlab
    def curve(args, kwargs):
        t_grid, cfg = _arg(args, kwargs, 4, "t_grid"), _arg(args, kwargs, 5, "cfg")
        count("approx.curve_calls")
        count("approx.curve_points", len(t_grid))
        count("mc.useful_path_steps", len(t_grid) * cfg.n_paths * cfg.steps)

    everywhere(av.approxlab.lp_distance_curve, "approx.curve", "approx", before=curve)
    everywhere(av.approxlab.refined_fit, "approx.refined_fit", "approx")

    # asymptotics
    def vol_nodes(result, args, kwargs):
        count("asym.quad_nodes", result.nodes)

    def quote_nodes(result, args, kwargs):
        count("asym.quad_nodes", result.quadrature.nodes)

    for fn in (av.asymptotics.asian_vol, av.asymptotics.european_vol):
        everywhere(fn, "asym.vol", "asym", before=calls("asym.vol_calls"))
    everywhere(av.asymptotics.vol_quote, "asym.vol", "asym",
               before=calls("asym.vol_calls"), after=vol_nodes)
    for fn in (av.asymptotics.asym_price, av.asymptotics.asym_delta):
        everywhere(fn, "asym.quote", "asym", before=calls("asym.quote_calls"), after=quote_nodes)
    everywhere(av.asymptotics.geometric_bs, "asym.quote", "asym",
               before=calls("asym.quote_calls"))

    # ldp
    def direct(result, args, kwargs):
        count("ldp.outer_iters", result.n_outer)
        count("ldp.unconverged", int(not result.converged))

    everywhere(av.ldp.rate_function, "ldp.direct", "ldp",
               before=calls("ldp.direct_calls"), after=direct)
    everywhere(av.ldp.rate_function_shooting, "ldp.shooting", "ldp",
               before=calls("ldp.shooting_calls"))

    # harness
    for fn in (av.harness.asymptotics_error_study, av.harness.compare_experiment,
               av.harness.convergence_report):
        everywhere(fn, "harness", "harness", before=calls("harness.calls"))

    # cli
    def written(result, args, kwargs):
        argv = kwargs.get("argv", args[0] if args else None)
        count("cli.bytes_written", _dir_bytes(argv or ()))

    everywhere(av.cli.main, "cli", "cli", before=calls("cli.commands"), after=written)


def distinct_words(addresses) -> int:
    """Distinct (seed, word) Philox addresses among (seed, lo, hi) draws."""
    by_seed = defaultdict(list)
    for seed, lo, hi in addresses:
        by_seed[seed].append((lo, hi))
    return sum(union_length(ivs) for ivs in by_seed.values())


def _per(num, den, scale=1.0) -> float:
    return num * scale / den if den else 0.0


def per_layer(spans, counts, addresses) -> dict:
    """Per-layer metrics of one traced batch (trace.overhead_frac excluded)."""
    st = self_times(spans)
    dur = defaultdict(float)
    own = defaultdict(float)
    for s in spans:
        dur[s.name] += s.duration
        own[s.name] += st[s.sid]
    c = defaultdict(int, counts)
    est_wall = sum(dur[span] for span in ESTIMATORS.values())
    out = {
        "rng.calls": c["rng.calls"],
        "rng.normals": c["rng.normals"],
        "rng.busy_s": dur["rng.normal_block"],
        "rng.ns_per_normal": _per(dur["rng.normal_block"], c["rng.normals"], 1e9),
        "rng.distinct_frac": _per(distinct_words(addresses), c["rng.normals"]),
        "model.coef_calls": c["model.coef_calls"],
        "model.coef_elems": c["model.coef_elems"],
        "model.coef_busy_s": dur["model.coef"],
        "model.coef_ns_per_elem": _per(dur["model.coef"], c["model.coef_elems"], 1e9),
        "model.payoff_busy_s": dur["model.payoff"],
        "mc.kernel_calls": c["mc.kernel_calls"],
        "mc.path_steps": c["mc.path_steps"],
        "mc.kernel_self_s": own["mc.kernel"],
        "mc.kernel_ns_per_path_step": _per(own["mc.kernel"], c["mc.path_steps"], 1e9),
        "mc.useful_frac": _per(c["mc.useful_path_steps"], c["mc.path_steps"]),
        "mc.malliavin_s": dur["mc.malliavin"],
        "mc.malliavin_ns_per_path_step": _per(
            dur["mc.malliavin"], c["mc.delta_malliavin.useful"], 1e9),
        "mc.reduce_self_s": sum(own[span] for span in ESTIMATORS.values()),
        "mc.concurrency": _per(dur["mc.kernel"], est_wall + dur["approx.curve"]),
        "mc.excluded_paths": c["mc.excluded_paths"],
        "mc.flagged_paths": c["mc.flagged_paths"],
    }
    for span in ESTIMATORS.values():
        out[f"{span}_ns_per_path_step"] = _per(dur[span], c[f"{span}.useful"], 1e9)
    out.update({
        "approx.curve_calls": c["approx.curve_calls"],
        "approx.curve_points": c["approx.curve_points"],
        "approx.curve_s": dur["approx.curve"],
        "approx.self_s": own["approx.curve"] + own["approx.refined_fit"],
        "asym.vol_calls": c["asym.vol_calls"],
        "asym.vol_s": dur["asym.vol"],
        "asym.quote_calls": c["asym.quote_calls"],
        "asym.quote_s": dur["asym.quote"],
        "asym.quad_nodes": c["asym.quad_nodes"],
        "ldp.direct_calls": c["ldp.direct_calls"],
        "ldp.direct_s": dur["ldp.direct"],
        "ldp.outer_iters": c["ldp.outer_iters"],
        "ldp.unconverged": c["ldp.unconverged"],
        "ldp.shooting_calls": c["ldp.shooting_calls"],
        "ldp.shooting_s": dur["ldp.shooting"],
        "harness.calls": c["harness.calls"],
        "harness.self_s": own["harness"],
        "cli.commands": c["cli.commands"],
        "cli.self_s": own["cli"],
        "cli.bytes_written": c["cli.bytes_written"],
    })
    for layer in ("rng", "model", "mc", "approx", "asym", "ldp", "harness", "cli"):
        out[f"{layer}.errors"] = c[f"{layer}.errors"]
    return out
