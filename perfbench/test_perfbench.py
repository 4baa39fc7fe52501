"""Tests of the benchmark's own logic: spans, self time, tails, unions, wrappers.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, self_times, union_length  # noqa: E402


def test_self_time_ignores_children_on_other_threads():
    # an estimator on the op thread waits while two pool workers run
    # overlapping kernel spans; each kernel spends part of its time in an
    # RNG child on its own thread
    main, w1, w2 = 1, 2, 3
    spans = [
        Span(1, "mc.price", 0.0, 10.0, 0, main, 1),
        Span(2, "mc.kernel", 1.0, 6.0, 1, w1, 1),
        Span(3, "mc.kernel", 2.0, 8.0, 1, w2, 1),
        Span(4, "rng.normal_block", 1.0, 2.5, 2, w1, 1),
        Span(5, "rng.normal_block", 2.0, 3.0, 3, w2, 1),
        Span(6, "model.payoff", 8.5, 9.0, 1, main, 1),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 0.5)  # only the same-thread payoff span
    assert st[2] == pytest.approx(5.0 - 1.5)
    assert st[3] == pytest.approx(6.0 - 1.0)
    assert st[4] == pytest.approx(1.5)


def test_self_time_counts_overlapping_same_thread_children_once():
    spans = [
        Span(1, "parent", 0.0, 10.0, 0, 7, 1),
        Span(2, "a", 1.0, 4.0, 1, 7, 1),
        Span(3, "b", 3.0, 5.0, 1, 7, 1),
        Span(4, "c", 9.0, 12.0, 1, 7, 1),  # clipped to the parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, n = metrics.tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(x > value for x in range(1, 101)) == 10
    value, pct, n = metrics.tail(list(range(1000, 0, -1)))
    assert (value, pct, n) == (990, 99.0, 1000)
    assert metrics.tail(range(11))[0] == 0
    with pytest.raises(ValueError):
        metrics.tail(range(10))


def test_union_merges_overlaps_and_nesting():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 15), (20, 30), (22, 25), (30, 31), (7, 7)]) == 26
    assert union_length([(2.0, 1.0)]) == 0


def test_distinct_words_unions_per_seed():
    # prefixes of one seed's paths (1/T path scaling), a repeat, and a
    # second seed whose words never coincide with the first's
    draws = [(1, 0, 400), (1, 0, 800), (1, 0, 1600), (1, 0, 1600), (2, 0, 400), (2, 200, 600)]
    assert layers.distinct_words(draws) == 1600 + 600


def test_worker_spans_hang_under_the_dispatching_span():
    tr = Tracer()
    leaf = tr.wrap(lambda: threading.get_ident(), "leaf", "x.errors")

    def dispatch():
        with ThreadPoolExecutor(max_workers=2) as ex:
            return list(ex.map(lambda _: leaf(), range(4)))

    outer = tr.wrap(dispatch, "outer", "x.errors")
    tr.active = True
    tr.run_op(7, outer)
    spans, counts, _ = tr.take()
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    (op,), (out,) = by_name["op"], by_name["outer"]
    assert out.parent == op.sid
    assert len(by_name["leaf"]) == 4
    assert all(s.parent == out.sid and s.op == 7 for s in by_name["leaf"])
    assert all(s.thread != out.thread for s in by_name["leaf"])
    assert counts == {}


def test_counts_survive_contending_threads():
    tr = Tracer()
    hit = tr.wrap(lambda: None, "hit", "x.errors",
                  before=lambda args, kwargs: tr.count("hits"))
    tr.active = True
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [hit() for _ in range(2000)])
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    spans, counts, _ = tr.take()
    assert counts["hits"] == 16000
    assert len(spans) == 16000


def test_errors_are_counted_and_reraised():
    tr = Tracer()
    boom = tr.wrap(lambda: 1 / 0, "boom", "x.errors")
    tr.active = True
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tr.take()[1] == {"x.errors": 1}


def test_install_wraps_every_lookup_site_and_counts_from_inputs():
    import asianvol as av

    tr = Tracer()
    installed = layers.install(tr, av)
    try:
        assert av.montecarlo.normal_block.__wrapped__ is av._rng.normal_block.__wrapped__
        assert hasattr(av.approxlab._sim_block, "__wrapped__")
        for m in (av.harness, av.cli):
            assert hasattr(m.mc_price, "__wrapped__")
        assert hasattr(av.cli.compare_experiment, "__wrapped__")
        cfg = av.SimConfig(steps=5, n_paths=300, seed=3)
        tr.active = True
        av.mc_delta_fd(av.ConstantVol(0.2), av.MarketParams(100.0),
                       av.PayoffSpec("call", strike=100.0), "asian", 0.1, cfg)
        tr.active = False
        m = layers.per_layer(*tr.take())
    finally:
        installed.remove()
    assert not hasattr(av.montecarlo.normal_block, "__wrapped__")
    assert not hasattr(av.model.LocalVolSurface.sigma, "__wrapped__")
    assert m["rng.normals"] == m["mc.path_steps"] == 2 * 300 * 5
    assert m["mc.useful_frac"] == pytest.approx(0.5)
    assert m["rng.distinct_frac"] == pytest.approx(0.5)
    assert m["model.coef_calls"] == 2 * 5


def test_failed_install_leaves_nothing_wrapped(monkeypatch):
    import asianvol as av
    import asianvol.cli

    monkeypatch.delattr(asianvol.cli, "main")  # the last target install wraps
    with pytest.raises(AttributeError):
        layers.install(Tracer(), av)
    assert not hasattr(av.montecarlo.normal_block, "__wrapped__")
    assert not hasattr(av.harness.mc_price, "__wrapped__")
    assert not hasattr(av.model.PayoffSpec.value, "__wrapped__")


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_GATED)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    import workloads

    assert list(workloads.BY_NAME) == list(run.WORKLOADS)


def test_parts_of_a_composite_workload_get_their_own_job_time():
    # three batches of four ops: two of part "a", one of part "b", one Monte
    # Carlo op of part "b" with 100 useful path-steps
    lat = [[0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4], [0.3, 0.2, 0.5, 0.4]]
    batches = [{"wall": sum(x), "latencies": x, "failures": {}, "var_x_s": [1e-4]} for x in lat]
    e2e = run.end_to_end([0, 0, 0, 100], ["a", "a", "b", "b"], batches * 4, [1.0], 50.0)
    assert e2e["job_s"][0] == pytest.approx(1.0)
    assert e2e["job_s.a"][0] == pytest.approx(0.3)
    assert e2e["job_s.b"][0] == pytest.approx(0.7)
    assert e2e["path_steps_per_s"][0] == pytest.approx(100 / 0.4)
    plain = run.end_to_end([0, 0, 0, 100], [""] * 4, batches * 4, [1.0], 50.0)
    assert not [k for k in plain if k.startswith("job_s.")]
