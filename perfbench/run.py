"""Run one asianvol benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The workload's batch of ops repeats for ``--seconds``
seconds (at least two batches, and none started that would, at the median
batch time so far, end past the limit), every op is checked
against its reference after each batch, and the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with tracing off, in three
fresh interpreters one after the other, each set up and measured for a
third of the time (batch times on a shared machine differ between
processes and drift within one; pooling three processes steadies the
medians).  It reports set-up time, batch wall time, op latencies,
throughput, precision per second and peak memory, and ends with a
determinism probe outside the timed region.  ``--trace 1`` alternates untraced
batches with traced ones, during which every layer boundary is wrapped,
and reports the per-layer metrics, the count cross-checks and the tracing
overhead.  Full results, with a stamp of the code and toolchain, go to
``.perfbench/results/``; the spans of a traced run go to
``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("mc_mix", "quotes_rates")
ROUNDS = 3  # fresh interpreters per untraced run
# the end-to-end metrics every workload has; path_steps_per_s and
# mc_var_x_s (Monte Carlo workloads only) and fail_frac are printed and
# stored but not part of the result line
E2E_GATED = ("setup_s", "job_s", "op_p50_ms", "op_tail_ms", "peak_rss_mib")

# ROADMAP item 1's re-anchor figures (single thread, 200k x 200 constant
# vol for the estimators, 8192 x 200 blocks for the RNG); the workloads
# run other sizes and surfaces, so these are context, not targets
BASELINES = {
    "rng.ns_per_normal": 32.8,
    "mc.price_ns_per_path_step": 66.0,
    "mc.delta_fd_ns_per_path_step": 133.0,
    "mc.delta_malliavin_ns_per_path_step": 255.0,
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--round", action="store_true",
                    help="run one untraced round in this process and print it as JSON")
    ap.add_argument("--probe", action="store_true",
                    help="with --round, end with the determinism probe")
    return ap.parse_args(argv)


def stamp(av, args) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for f in sorted((SRC / "asianvol").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rng_block": av._rng.BLOCK,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_batch(wl, tracer, op_ids) -> dict:
    """Run every op of the workload once, timing each, then check them all."""
    results, errors, lat = {}, {}, []
    if tracer is not None:
        tracer.active = True
    b0 = time.perf_counter()
    for op in wl.ops:
        t = time.perf_counter()
        try:
            results[op.key] = op.call() if tracer is None else tracer.run_op(next(op_ids), op.call)
        except Exception as exc:  # an op that raises is a counted failure
            results[op.key] = None
            errors[op.key] = f"raised {type(exc).__name__}: {exc}"
        lat.append(time.perf_counter() - t)
    wall = time.perf_counter() - b0
    recorded = None
    if tracer is not None:
        tracer.active = False
        recorded = tracer.take()

    failures, var_x_s = {}, []
    for op, seconds in zip(wl.ops, lat):
        reason = errors.get(op.key)
        if reason is None:
            try:
                reason = op.check(results[op.key], results)
            except Exception as exc:  # a reference op that failed, or bad output
                reason = f"check raised {type(exc).__name__}: {exc}"
            if op.std_errors is not None:
                var_x_s += [se * se * seconds for se in op.std_errors(results[op.key]) if se > 0]
        if reason is not None:
            failures[repr(op.key)] = reason
    return {"wall": wall, "latencies": lat, "failures": failures, "var_x_s": var_x_s,
            "recorded": recorded}


def time_left(start: float, seconds: float, walls: list) -> bool:
    """Whether one more batch, as long as the median one so far, fits in the run."""
    return len(walls) < 2 or (time.perf_counter() - start + statistics.median(walls)
                              <= seconds)


def measure(wl, seconds: float) -> list:
    batches = []
    start = time.perf_counter()
    while time_left(start, seconds, [b["wall"] for b in batches]):
        batches.append(run_batch(wl, None, None))
    return batches


def end_to_end(path_steps, parts, batches, setups, peak_rss_mib) -> dict:
    import metrics

    lat = [x for b in batches for x in b["latencies"]]
    tail_s, pct, n = metrics.tail(lat)
    mc = [(p, x) for b in batches for p, x in zip(path_steps, b["latencies"]) if p]
    var_x_s = [v for b in batches for v in b["var_x_s"]]
    failed = sum(len(b["failures"]) for b in batches)
    # the share of a batch each part of a composite workload takes
    by_part = {
        f"job_s.{part}": (statistics.median(
            sum(x for x, p in zip(b["latencies"], parts) if p == part) for b in batches), "s")
        for part in dict.fromkeys(p for p in parts if p)
    }
    return {
        "setup_s": (statistics.median(setups), "s"),
        "job_s": (statistics.median(b["wall"] for b in batches), "s"),
        **by_part,
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "op_tail_pct": (pct, "%"),
        "op_samples": (n, "count"),
        "path_steps_per_s": ((sum(p for p, _ in mc) / sum(x for _, x in mc)) if mc else None,
                             "1/s"),
        "mc_var_x_s": (metrics.geomean(var_x_s) if var_x_s else None, "var*s"),
        "fail_frac": (failed / len(lat), "ratio"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def combine(per_batch: list) -> dict:
    """One value per metric: the common value of counts, the mean of times."""
    out = {}
    for name in per_batch[0]:
        vals = [m[name] for m in per_batch]
        out[name] = vals[0] if all(v == vals[0] for v in vals) else statistics.fmean(vals)
    return out


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True))


def finish(args, info, failures, correct, attempted, failed, result_metrics) -> int:
    for key, reason in sorted(failures):
        print(f"  FAILED op {key}: {reason}")
    write_json(OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
               dict(info, failures=sorted(failures)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


def header(args, st) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("stamp " + " ".join(f"{k}={v}" for k, v in st.items()))


def run_round(args, last: bool) -> dict:
    """One untraced round in a fresh interpreter."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds / ROUNDS),
            "--trace", "0", "--round"] + (["--probe"] if last else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark round failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(args) -> int:
    rounds = [run_round(args, i == ROUNDS - 1) for i in range(ROUNDS)]
    st = dict(rounds[0]["stamp"], seconds=args.seconds, rounds=ROUNDS)
    header(args, st)
    batches = [b for r in rounds for b in r["batches"]]
    e2e = end_to_end(rounds[0]["path_steps"], rounds[0]["parts"], batches,
                     [r["setup_s"] for r in rounds],
                     statistics.median(r["peak_rss_mib"] for r in rounds))
    probe = rounds[-1]["probe"]
    failures = {r for b in batches for r in b["failures"].items()}
    for name, (value, unit) in e2e.items():
        shown = "n/a (no Monte Carlo)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<20} {shown}")
    if rounds[-1]["has_probe"]:
        print(f"  probe threads 1 vs 2: {probe or 'identical'}")
    info = {"stamp": st, "setups": [r["setup_s"] for r in rounds],
            "batch_walls": [[b["wall"] for b in r["batches"]] for r in rounds],
            "end_to_end": {k: v for k, (v, _) in e2e.items()}, "probe": probe}
    return finish(args, info, failures, not failures and probe is None,
                  int(e2e["op_samples"][0]), sum(len(b["failures"]) for b in batches),
                  {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in E2E_GATED})


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "asianvol" / "__init__.py").is_file():
        print(f"perfbench: no asianvol package under {SRC}; run inside a full checkout",
              file=sys.stderr)
        return 2
    if args.trace == 0 and not args.round:
        return untraced(args)
    sys.path.insert(0, str(SRC))
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        return in_process(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def in_process(args, workdir: Path) -> int:
    t0 = time.perf_counter()
    import asianvol as av
    import workloads

    wl = workloads.BY_NAME[args.workload](av, args.seed, workdir)
    wl.warm_up()
    setup_s = time.perf_counter() - t0
    if not Path(av.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: asianvol imported from {av.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.round:
        batches = measure(wl, args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = wl.probe() if args.probe and wl.probe is not None else None
        for b in batches:
            del b["recorded"]
        print(json.dumps({"stamp": stamp(av, args), "setup_s": setup_s, "peak_rss_mib": peak,
                          "path_steps": [op.path_steps for op in wl.ops],
                          "parts": [op.part for op in wl.ops], "batches": batches,
                          "probe": probe, "has_probe": wl.probe is not None}))
        return 0

    import itertools

    import layers
    from spans import Tracer

    st = stamp(av, args)
    header(args, st)
    # untraced and traced batches alternate, so that drift in machine speed
    # cancels out of the overhead; wrappers are in place only while traced
    untraced_batches, traced = [], []
    tracer, op_ids = Tracer(), itertools.count(1)
    start = time.perf_counter()
    while time_left(start, args.seconds,
                    [u["wall"] + t["wall"] for u, t in zip(untraced_batches, traced)]):
        untraced_batches.append(run_batch(wl, None, None))
        installed = layers.install(tracer, av)
        try:
            traced.append(run_batch(wl, tracer, op_ids))
        finally:
            installed.remove()
    per_batch = [layers.per_layer(*b["recorded"]) for b in traced]
    counts = [b["recorded"][1] for b in traced]
    layer = combine(per_batch)
    layer["trace.overhead_frac"] = (statistics.median(b["wall"] for b in traced)
                                    / statistics.median(b["wall"] for b in untraced_batches)
                                    - 1.0)
    problems = []
    for name, want in wl.expected.items():
        got = [m[name] for m in per_batch]
        if any(g != want for g in got):
            problems.append(f"{name}: traced {got} per batch, inputs give {want}")
    for name in sorted(set().union(*counts)):
        got = [c.get(name, 0) for c in counts]
        if any(g != got[0] for g in got):
            problems.append(f"counter {name} differs between traced batches: {got}")
    batches = untraced_batches + traced
    failures = {r for b in batches for r in b["failures"].items()}
    for name, unit in layers.PER_LAYER:
        note = f"   (re-anchor baseline {BASELINES[name]:g})" if (
            name in BASELINES and layer[name]) else ""
        print(f"  {name:<36} {layer[name]:.6g} {unit}{note}")
    for p in problems:
        print(f"  CROSS-CHECK FAILED {p}")
    write_json(OUT / "spans" / f"{args.workload}-seed{args.seed}.json",
               [list(s) for b in traced for s in b["recorded"][0]])
    info = {"stamp": st, "per_layer": layer, "problems": problems,
            "deterministic": {k: counts[0].get(k, 0) for k in layers.DETERMINISTIC}}
    return finish(args, info, failures, not failures and not problems,
                  sum(len(b["latencies"]) for b in batches),
                  sum(len(b["failures"]) for b in batches),
                  {name: {"value": layer[name], "unit": unit}
                   for name, unit in layers.PER_LAYER})


if __name__ == "__main__":
    sys.exit(main())
