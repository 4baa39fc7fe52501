"""The two benchmark workloads: inputs from the seed, ops, and their checks.

Each workload is a fixed batch of ops.  An op is one public asianvol call
(one estimator call, one CLI command, one quote or one solve); the batch
repeats unchanged for as long as a run measures.  The seed picks the
Philox seeds of the Monte Carlo ops and jitters the quote inputs, so a
fresh seed gives fresh inputs of the same size.

Every op has a check against a reference that does not come from the
numbers under test: closed forms, exact parities, a second estimator, or
an independent quadrature.  A check returns None when it passes and a
one-line reason when it fails.  Statistical checks allow ``Z`` standard
errors, wide enough that a correct program almost never fails one over
thousands of checks.

Why these two (the layer each part loads is in README.md):

* ``mc_mix``: every Monte Carlo path through the package, built from three
  parts that each load other layers -- estimators on a level-dependent
  surface (``greeks_skew``: surface coefficient calls, Malliavin weight
  assembly), ``refined_fit`` on the five c06 pairs (``chain_lab``: the
  kernel with 2-4 coupled processes, terminal states only, step doubling)
  and the CLI at two threads on constant vol (``term_sweep_flat``: RNG and
  S-only stepping, paths repeated across commands).
* ``quotes_rates``: quotes and rate-function solves with no Monte Carlo,
  the workload on which any Monte Carlo change should show no change.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

Z = 5.0
S0 = 100.0
SKEW = {"sref": 0.2, "xref": 100.0, "exponent": 0.3, "floor": 0.05, "cap": 1.0}  # c06/c10
PROBE_THREADS = (1, 2)


@dataclass
class Op:
    key: tuple
    kind: str
    call: Callable[[], object]
    check: Callable[[object, dict], Optional[str]]
    path_steps: int = 0  # useful: sum of n_paths * steps per requested estimate
    std_errors: Optional[Callable[[object], list]] = None
    part: str = ""  # the part of a composite workload the op comes from


@dataclass
class Workload:
    name: str
    ops: list
    expected: dict  # per-batch counts derived from the inputs
    probe: Optional[Callable[[], Optional[str]]] = None

    def warm_up(self) -> None:
        """Call the first op of every kind once, untimed."""
        seen = set()
        for op in self.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                op.call()


def _lib(av, name, *args, **kwargs):
    # looked up at call time, so the traced run sees the installed wrapper
    return getattr(av, name)(*args, **kwargs)


def _ncdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _npdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _within(name: str, value: float, ref: float, tol: float) -> Optional[str]:
    if abs(value - ref) <= tol:
        return None
    return f"{name} {value:.10g} vs reference {ref:.10g}: |gap| {abs(value - ref):.3g} > {tol:.3g}"


def _trap_weights(steps: int) -> np.ndarray:
    w = np.full(steps + 1, 1.0 / steps)
    w[0] = w[-1] = 0.5 / steps
    return w


def _mean_average(S: float, mu: float, T: float, steps: int) -> float:
    """E of the trapezoid average of S on the grid: E S_t = S e^{mu t} exactly.

    Holds for log-Euler with any surface, since each step multiplies by a
    lognormal factor of mean e^{mu dt} whatever sigma the state gives.
    """
    t = np.linspace(0.0, T, steps + 1)
    return float(S * (_trap_weights(steps) @ np.exp(mu * t)))


# ---------------------------------------------------------------------------
# greeks_skew
# ---------------------------------------------------------------------------

def greeks_skew(av, seed: int, workdir: Path) -> Workload:
    rnd = random.Random(seed)
    surface = av.CappedPowerVol(**SKEW)
    market = av.MarketParams(S0, r=0.03, q=0.01)
    steps, n_paths = 40, 10_000
    disc = lambda T: math.exp(-market.r * T)
    refs: dict = {}

    def quote_ref(payoff, T):
        # leading-order quote centred on the forward average and discounted;
        # its O(T) skew error stays under a quarter of S0 sigma_A^2 T on this
        # book (about twice the gap measured with 4e5 paths)
        if (payoff, T) not in refs:
            va = av.asian_vol(surface, S0, T)
            ea = _mean_average(S0, market.drift, T, steps)
            q = disc(T) * av.asym_price(payoff, ea, va * S0 / ea, T).value
            refs[(payoff, T)] = (q, 0.25 * S0 * va * va * T)
        return refs[(payoff, T)]

    ops = []
    # three maturities, so that the median op of mc_mix is an FD delta and
    # not the gap between two kinds of op
    for T in (0.1, 0.175, 0.25):
        ea = _mean_average(S0, market.drift, T, steps)
        for K in (95.0, 105.0):
            for fam in ("call", "put"):
                payoff = av.PayoffSpec(fam, strike=K)
                cfg = av.SimConfig(steps=steps, n_paths=n_paths, seed=rnd.getrandbits(63))
                c = (fam, K, T)
                args = (surface, market, payoff, "asian", T, cfg)

                def check_price(est, res, payoff=payoff, T=T, K=K, fam=fam, ea=ea):
                    q, gap = quote_ref(payoff, T)
                    bad = _within("price vs forward quote", est.mean, q, Z * est.std_error + gap)
                    if bad or fam == "call":
                        return bad
                    call = res[("price", ("call", K, T))]
                    return _within("call-put price parity", call.mean - est.mean,
                                   disc(T) * (ea - K),
                                   Z * math.hypot(call.std_error, est.std_error))

                def check_delta(est, res, c=c, other="malliavin"):
                    ref = res[(other, c)]
                    return _within(f"delta vs {other}", est.mean, ref.mean,
                                   Z * math.hypot(est.std_error, ref.std_error))

                def check_fd(est, res, c=c, T=T, K=K, fam=fam, ea=ea):
                    bad = check_delta(est, res, c, "malliavin")
                    if bad or fam == "call":
                        return bad
                    call = res[("fd", ("call", K, T))]
                    return _within("call-put delta parity", call.mean - est.mean,
                                   disc(T) * ea / S0,
                                   Z * math.hypot(call.std_error, est.std_error))

                ses = lambda est: [est.std_error]
                ops += [
                    Op(("price", c), "mc_price", functools.partial(_lib, av, "mc_price", *args),
                       check_price, n_paths * steps, ses),
                    Op(("fd", c), "mc_delta_fd",
                       functools.partial(_lib, av, "mc_delta_fd", *args),
                       check_fd, n_paths * steps, ses),
                    Op(("malliavin", c), "mc_delta_malliavin",
                       functools.partial(_lib, av, "mc_delta_malliavin", *args),
                       functools.partial(check_delta, c=c, other="fd"), n_paths * steps, ses),
                ]
    # FD draws both legs; every other estimator one
    drawn = sum(op.path_steps * (2 if op.kind == "mc_delta_fd" else 1) for op in ops)
    expected = {"rng.normals": drawn, "mc.path_steps": drawn, "approx.curve_points": 0}

    first = ops[2]  # a Malliavin delta: two blocks of paths, so threads split it

    def probe():
        outs = []
        for threads in PROBE_THREADS:
            surf, mkt, pay, style, T, cfg = first.call.args[2:]
            est = av.mc_delta_malliavin(surf, mkt, pay, style, T,
                                        dataclasses.replace(cfg, threads=threads))
            outs.append(repr((est.mean, est.std_error, est.n_paths,
                              sorted(est.diagnostics.items()))))
        return None if outs[0] == outs[1] else f"mc_delta_malliavin differs by thread count: {outs}"

    return Workload("greeks_skew", ops, expected, probe)


# ---------------------------------------------------------------------------
# term_sweep_flat
# ---------------------------------------------------------------------------

T_GRID = (0.2, 0.1, 0.05, 0.025, 0.0125)  # the CLI's default 5-maturity grid


def _read_csv(path: Path) -> list:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    head = lines[0].split(",")
    return [dict(zip(head, map(float, ln.split(",")))) for ln in lines[1:]]


def _bs_call(S: float, K: float, sigma: float, T: float) -> float:
    s = sigma * math.sqrt(T)
    d1 = math.log(S / K) / s + 0.5 * s
    return S * _ncdf(d1) - K * _ncdf(d1 - s)


def _lognormal_call(m: float, v: float, K: float) -> float:
    """E (G - K)_+ for log G ~ N(m, v)."""
    d1 = (m - math.log(K) + v) / math.sqrt(v)
    return math.exp(m + 0.5 * v) * _ncdf(d1) - K * _ncdf(d1 - math.sqrt(v))


def _geometric_bracket(S: float, K: float, sigma: float, T: float, steps: int):
    """Bounds on a call on the trapezoid average of exact GBM (r = q = 0).

    The weighted arithmetic average dominates the weighted geometric one
    path by path, so C_G <= C_A <= C_G + E[A] - E[G]; returns (C_G, E[A] -
    E[G]) with the geometric law taken exactly on the discrete grid.
    """
    t = np.linspace(0.0, T, steps + 1)
    w = _trap_weights(steps)
    m = math.log(S) - 0.5 * sigma * sigma * float(w @ t)
    v = sigma * sigma * float(w @ np.minimum.outer(t, t) @ w)
    return _lognormal_call(m, v, K), S - math.exp(m + 0.5 * v)


def term_sweep_flat(av, seed: int, workdir: Path) -> Workload:
    importlib.import_module("asianvol.cli")  # not imported by the package itself
    rnd = random.Random(seed)
    sigma, K, base, steps, threads = 0.2, 100.0, 2048, 100, 2
    mc_seed = rnd.getrandbits(63)
    common = [
        "--model.surface.family=constant", f"--model.surface.sigma={sigma}",
        f"--model.market.S0={S0}", "--model.market.r=0.0", "--model.market.q=0.0",
        "--payoff.family=call", f"--payoff.strike={K}",
        f"--mc.n_paths={base}", f"--mc.steps={steps}", f"--mc.seed={mc_seed}",
    ]
    # the harness scales paths by T_max / T, so the shorter maturities'
    # paths are prefixes of the longest one's
    n_of = {T: base if T >= T_GRID[0] else int(math.ceil(base * T_GRID[0] / T)) for T in T_GRID}
    per_command = sum(n_of[T] * steps for T in T_GRID)
    geo = {T: _geometric_bracket(S0, K, sigma, T, steps) for T in T_GRID}

    def command(name, extra, outdir, threads=threads):
        argv = ["--threads", str(threads), name, *common, *extra, f"--output.dir={outdir}"]
        # the commands print a summary; keep it off the benchmark's stdout
        with contextlib.redirect_stdout(io.StringIO()):
            return av.cli.main(argv)

    def rows_check(rows, style):
        for r in rows:
            T = r["T"]
            if int(r["n_paths"]) != n_of[T]:
                return f"T={T}: {int(r['n_paths'])} paths, inputs give {n_of[T]}"
            if style == "european":
                bad = _within(f"european T={T} vs Black-Scholes", r["mc"],
                              _bs_call(S0, K, sigma, T), Z * r["std_error"])
            else:
                lo, width = geo[T]
                bad = _within(f"asian T={T} vs geometric bracket", r["mc"],
                              min(max(r["mc"], lo), lo + width), Z * r["std_error"])
            if bad:
                return bad
        return None

    ops = []
    for style in ("asian", "european"):
        outdir = workdir / f"converge-{style}"
        extra = [f"--experiment.style={style}", "--experiment.estimator=price"]

        def check(rc, res, outdir=outdir, style=style):
            if rc != 0:
                return f"exit code {rc}"
            return rows_check(_read_csv(outdir / "converge.csv"), style)

        ops.append(Op(("converge", style), "cli converge",
                      functools.partial(command, "converge", extra, outdir), check, per_command,
                      lambda rc, outdir=outdir: [r["std_error"] for r in
                                                 _read_csv(outdir / "converge.csv")]))

    cmp_dir = workdir / "compare"

    def check_compare(rc, res):
        if rc != 0:
            return f"exit code {rc}"
        rows = _read_csv(cmp_dir / "compare.csv")
        conv = _read_csv(workdir / "converge-asian" / "converge.csv")
        for r, c in zip(rows, conv):
            T = r["T"]
            # same seed and path counts: compare redraws converge's paths
            if (r["mc"], r["stderr"]) != (c["mc"], c["std_error"]):
                return f"T={T}: compare MC {r['mc']!r} differs from converge {c['mc']!r}"
            # the Gaussian proxy at sigma_A = sigma / sqrt(3), ATM: s / sqrt(2 pi)
            s = S0 * sigma / math.sqrt(3.0) * math.sqrt(T)
            bad = (_within(f"asym T={T} vs sigma/sqrt(3) Bachelier", r["asym"],
                           s * _npdf(0.0), 1e-9 * S0)
                   or _within(f"geo T={T} vs continuous geometric", r["mc"] - r["err_geo"],
                              _lognormal_call(math.log(S0) - sigma**2 * T / 4.0,
                                              sigma**2 * T / 3.0, K), 1e-9 * S0))
            if bad:
                return bad
        return None

    ops.append(Op(("compare",), "cli compare",
                  functools.partial(command, "compare", [], cmp_dir), check_compare, per_command,
                  lambda rc: [r["stderr"] for r in _read_csv(cmp_dir / "compare.csv")]))
    drawn = sum(op.path_steps for op in ops)
    expected = {"rng.normals": drawn, "mc.path_steps": drawn, "approx.curve_points": 0}

    def probe():
        outs = []
        for th in PROBE_THREADS:
            d = workdir / f"probe-threads{th}"
            rc = command("converge", ["--experiment.style=asian"], d, threads=th)
            outs.append((rc, (d / "converge.csv").read_bytes(), (d / "summary.yaml").read_bytes()))
        return None if outs[0] == outs[1] else "converge output differs by thread count"

    return Workload("term_sweep_flat", ops, expected, probe)


# ---------------------------------------------------------------------------
# chain_lab
# ---------------------------------------------------------------------------

def chain_lab(av, seed: int, workdir: Path) -> Workload:
    rnd = random.Random(seed)
    steps, n_paths, p = 32, 4096, 2.0
    t_grid = [float(t) for t in np.geomspace(0.01, 0.5, 8)]
    cfg = av.SimConfig(steps=steps, n_paths=n_paths, seed=rnd.getrandbits(63))
    sigma, mu = 0.2, 0.05
    b, s0 = SKEW["exponent"], SKEW["sref"]  # power branch at S0 = xref
    flat, skew = av.ConstantVol(sigma), av.CappedPowerVol(**SKEW)
    nu0 = (1.0 - b) * s0

    # exact second moments of the gap for pairs whose schemes are exact
    # solutions on the grid, and the leading Ito-Taylor term (first
    # order in t, with an O(1/steps) Euler allowance) for the skew pairs
    exact = {
        ("S", "X"): lambda t: S0 * S0 * math.exp(sigma**2 * t) * math.expm1(mu * t) ** 2,
        ("Xt", "Xh"): lambda t: S0 * S0 * (math.expm1(sigma**2 * t) - sigma**2 * t),
        ("Yt", "Yh"): lambda t: math.expm1(nu0**2 * t) - nu0**2 * t,
    }
    leading = {
        ("X", "Xt"): (b * s0 * s0 * S0) ** 2 / 2.0,
        ("Y", "Yt"): (b * (1.0 - b) * s0 * s0) ** 2 / 2.0,
    }
    pairs = (  # c06's pairs, surfaces and markets
        (("S", "X"), flat, av.MarketParams(S0, r=mu)),
        (("X", "Xt"), skew, av.MarketParams(S0)),
        (("Y", "Yt"), skew, av.MarketParams(S0)),
        (("Xt", "Xh"), flat, av.MarketParams(S0)),
        (("Yt", "Yh"), skew, av.MarketParams(S0)),
    )

    def check(res, results, pair):
        for curve in (res["curve"], res["curve_refined"]):
            for t, m, se in zip(curve.t, curve.moments, curve.std_errors):
                if pair in exact:
                    ref, tol = exact[pair](t), Z * se + 1e-9 * exact[pair](t)
                elif t == curve.t[0]:
                    ref = leading[pair] * t * t
                    tol = Z * se + 6.0 / curve.steps * ref
                else:
                    continue
                bad = _within(f"{pair[0]}-{pair[1]} m(t={t:.4g}, steps={curve.steps})",
                              float(m), ref, tol)
                if bad:
                    return bad
        return None

    per_op = len(t_grid) * n_paths * (steps + 2 * steps)
    ops = [
        Op(("refined_fit", pair), "refined_fit",
           functools.partial(_lib, av, "refined_fit", surface, market, pair, p, t_grid, cfg),
           functools.partial(check, pair=pair), per_op,
           lambda res: [float(se) for c in (res["curve"], res["curve_refined"])
                        for se in c.std_errors])
        for pair, surface, market in pairs
    ]
    expected = {"rng.normals": per_op * len(ops), "mc.path_steps": per_op * len(ops),
                "approx.curve_points": 2 * len(t_grid) * len(ops)}

    def probe():
        # the ops run one block of paths; the probe adds a second so that
        # two threads really split the work
        outs = []
        for th in PROBE_THREADS:
            c = dataclasses.replace(cfg, n_paths=av._rng.BLOCK + 1024, threads=th)
            res = av.refined_fit(flat, av.MarketParams(S0), ("Xt", "Xh"), p, t_grid, c)
            outs.append(b"".join(x.tobytes() for k in ("curve", "curve_refined")
                                 for x in (res[k].moments, res[k].std_errors)))
        return None if outs[0] == outs[1] else "refined_fit differs by thread count"

    return Workload("chain_lab", ops, expected, probe)


# ---------------------------------------------------------------------------
# quotes_rates
# ---------------------------------------------------------------------------

def _gauss_expect(f, kinks, lo=-12.0, hi=12.0, n: int = 4_000) -> float:
    """E f(Z) by composite Simpson, graded quadratically toward every kink.

    Each panel between kinks is halved, and each half is integrated in
    v with z = edge +- width * v^2, which makes power singularities such
    as sqrt(z - K) smooth in v.
    """
    edges = [lo] + sorted(k for k in kinks if lo < k < hi) + [hi]
    v = np.linspace(0.0, 1.0, n + 1)
    w = np.full(n + 1, 2.0)
    w[1:-1:2] = 4.0
    w[0] = w[-1] = 1.0
    w /= 3.0 * n
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        for edge, width in ((a, half), (b, -half)):
            z = edge + width * v * v
            y = f(z) * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * 2.0 * abs(width) * v
            total += float(w @ y)
    return total


def _vol_ref(surface, T: float, n: int = 20_000):
    """sigma_A and sigma_E by composite Simpson in t, vectorised over the grid."""
    t = np.linspace(0.0, T, n + 1)
    s2 = np.asarray(surface.sigma(t, S0)) ** 2
    w = np.full(n + 1, 2.0)
    w[1:-1:2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (T / n) / 3.0
    return math.sqrt(float(w @ (s2 * (T - t) ** 2)) / T**3), math.sqrt(float(w @ s2) / T)


def quotes_rates(av, seed: int, workdir: Path) -> Workload:
    rnd = random.Random(seed)
    jitter = lambda v: v * (1.0 + rnd.uniform(-0.02, 0.02))
    skew = av.CappedPowerVol(**SKEW)
    surfaces = {
        "constant": av.ConstantVol(0.2),
        "time-scaled": av.TimeScaledVol(0.2, 0.1, 0.05),
        "capped-power": skew,
        "tabulated-grid": av.TabulatedVol(
            [0.0, 0.25, 0.5, 1.0], [60.0, 80.0, 100.0, 120.0, 140.0],
            [[0.30, 0.25, 0.20, 0.18, 0.17], [0.29, 0.24, 0.21, 0.19, 0.18],
             [0.28, 0.24, 0.22, 0.20, 0.19], [0.27, 0.23, 0.22, 0.21, 0.20]]),
    }
    ops = []
    for fam, surface in surfaces.items():
        for T in np.geomspace(0.01, 1.0, 8):
            T = jitter(float(T))

            def check_vol(q, res, surface=surface, T=T, fam=fam):
                ra, re = _vol_ref(surface, T)
                bad = (_within("asian vol", q.asian_vol, ra, 1e-6 * ra)
                       or _within("european vol", q.european_vol, re, 1e-6 * re))
                if bad or fam != "constant":
                    return bad
                return _within("sigma_A / sigma_E", q.asian_vol / q.european_vol,
                               1.0 / math.sqrt(3.0), 1e-9)

            ops.append(Op(("vol", fam, T), "vol_quote",
                          functools.partial(_lib, av, "vol_quote", surface, S0, T), check_vol))

    payoffs = {
        "call": lambda K: av.PayoffSpec("call", strike=K),
        "put": lambda K: av.PayoffSpec("put", strike=K),
        "power-call": lambda K: av.PayoffSpec("power-call", strike=K, exponent=0.5),
        "capped-power": lambda K: av.PayoffSpec("capped-power", strike=K, exponent=0.3,
                                                cap_width=10.0),
    }
    for T in (jitter(0.05), jitter(0.25)):
        vol = av.asian_vol(skew, S0, T)
        s = S0 * vol * math.sqrt(T)
        for K in (jitter(95.0), jitter(100.0), jitter(105.0)):
            d = (S0 - K) / s
            for fam, make in payoffs.items():
                payoff = make(K)
                for kind in ("price", "delta"):

                    def check_quote(q, res, payoff=payoff, kind=kind, fam=fam, K=K, T=T,
                                    s=s, d=d):
                        v = q.value
                        if fam in ("call", "put"):
                            sign = 1.0 if fam == "call" else -1.0
                            ref = ((sign * (S0 - K) * _ncdf(sign * d) + s * _npdf(d))
                                   if kind == "price" else sign * _ncdf(sign * d))
                            bad = _within(f"{fam} {kind} vs closed form", v, ref, 1e-8)
                            if bad or fam == "call":
                                return bad
                            call = res[("quote", kind, "call", K, T)].value
                            return _within(f"put-call {kind} parity", call - v,
                                           S0 - K if kind == "price" else 1.0, 1e-8)
                        kinks = [(k - S0) / s for k in payoff.kinks()]
                        base = float(payoff.value(S0))
                        f = ((lambda z: payoff.value(S0 + s * z)) if kind == "price" else
                             (lambda z: (payoff.value(S0 + s * z) - base) * z / s))
                        ref = _gauss_expect(f, kinks)
                        return _within(f"{fam} {kind} vs Simpson", v, ref, 1e-8 * abs(ref) + 1e-12)

                    ops.append(Op(("quote", kind, fam, K, T), f"asym_{kind}",
                                  functools.partial(_lib, av, f"asym_{kind}", payoff, S0, vol, T,
                                                    force_quadrature=True),
                                  check_quote))

    oracle_tol = 1e-3  # c07
    for name, surface in (("constant", av.ConstantVol(0.3)), ("capped-power", skew)):
        for x in (jitter(90.0), jitter(110.0)):
            problem = av.problem_from_surface(surface, x, S0)

            def check_rate(value, res, name=name, x=x):
                direct = res[("direct", name, x)]
                shoot = res[("shooting", name, x)]
                return _within("direct vs shooting rate function", direct.value, shoot,
                               oracle_tol * shoot)

            ops.append(Op(("direct", name, x), "rate_function",
                          functools.partial(_lib, av, "rate_function", problem), check_rate))
            ops.append(Op(("shooting", name, x), "rate_function_shooting",
                          functools.partial(_lib, av, "rate_function_shooting", problem),
                          check_rate))
    expected = {"rng.normals": 0, "mc.path_steps": 0, "approx.curve_points": 0}
    return Workload("quotes_rates", ops, expected)


# ---------------------------------------------------------------------------
# mc_mix
# ---------------------------------------------------------------------------

def mc_mix(av, seed: int, workdir: Path) -> Workload:
    """greeks_skew, chain_lab and term_sweep_flat as one batch.

    Each part gets its own seed drawn from ``seed``, so no two parts share
    a Philox stream.
    """
    rnd = random.Random(seed)
    parts = [make(av, rnd.getrandbits(63), workdir / make.__name__)
             for make in (greeks_skew, chain_lab, term_sweep_flat)]
    ops = [dataclasses.replace(op, part=part.name) for part in parts for op in part.ops]
    expected = {k: sum(part.expected[k] for part in parts) for k in parts[0].expected}

    def probe():
        return next((bad for part in parts if (bad := part.probe()) is not None), None)

    return Workload("mc_mix", ops, expected, probe)


BY_NAME = {
    "mc_mix": mc_mix,
    "quotes_rates": quotes_rates,
}
