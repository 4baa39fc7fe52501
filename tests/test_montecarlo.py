"""Tests for the path engine and Monte Carlo estimators."""

import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri
from scipy.stats import norm

from asianvol.errors import DomainError, NumericError, ValidationError
from asianvol.model import (
    CappedPowerVol,
    ConstantVol,
    MarketParams,
    PayoffSpec,
    TabulatedVol,
    TimeScaledVol,
)
from asianvol.montecarlo import (
    PROCESS_NAMES,
    McEstimate,
    SimConfig,
    _control,
    _frozen_log_average,
    _reduce,
    mc_asian_price_cv,
    mc_delta_fd,
    mc_delta_malliavin,
    mc_price,
    simulate,
)
from asianvol import _rng, montecarlo
from asianvol.approxlab import lp_distance_curve
from asianvol._rng import BLOCK, normal_block
from asianvol.asymptotics import geometric_bs
from asianvol.harness import DEFAULT_T_GRID, asymptotics_error_study

FLAT = MarketParams(S0=100.0, r=0.0, q=0.0)
DRIFTY = MarketParams(S0=100.0, r=0.05, q=0.01)
SKEW = CappedPowerVol(sref=0.2, xref=100.0, exponent=0.3, floor=0.05, cap=1.0)
CALL = PayoffSpec("call", strike=100.0)
# sigma varies in t and in x around S0 = 100, so dcoef_dx(t, S0) != sigma(t, S0)
TABLE = TabulatedVol(
    ts=[0.0, 0.5, 1.0], xs=[10.0, 80.0, 125.0, 1000.0],
    values=[[0.35, 0.25, 0.2, 0.15], [0.4, 0.28, 0.22, 0.18], [0.45, 0.3, 0.25, 0.2]],
)


def bs_call_delta(S0, K, r, q, sigma, T):
    d1 = (math.log(S0 / K) + (r - q + 0.5 * sigma**2) * T) / (sigma * math.sqrt(T))
    return math.exp(-q * T) * norm.cdf(d1)


@pytest.fixture
def cold_store(monkeypatch):
    """normal_block with nothing kept; the kept blocks are restored afterwards."""
    monkeypatch.setattr(_rng, "_stream", None)
    monkeypatch.setattr(_rng, "_kept", {})


def refuse_draws(monkeypatch):
    """Record every normal block the engine asks for, and fail it."""
    calls = []

    def draw(*args):
        calls.append(args)
        raise RuntimeError("a normal block was drawn")

    monkeypatch.setattr(montecarlo, "normal_block", draw)
    return calls


# ---------------------------------------------------------------------------
# the Brownian driver
# ---------------------------------------------------------------------------

class TestDriver:
    """Counter-based increments must not depend on how paths are batched."""

    def test_partition_invariance(self):
        whole = normal_block(seed=123, n_steps=7, lo=0, hi=50)
        pieces = np.concatenate(
            [normal_block(123, 7, lo, hi) for lo, hi in [(0, 13), (13, 14), (14, 50)]]
        )
        assert np.array_equal(whole, pieces)

    def test_offset_block_matches_tail(self):
        whole = normal_block(seed=9, n_steps=3, lo=0, hi=40)
        tail = normal_block(seed=9, n_steps=3, lo=25, hi=40)
        assert np.array_equal(whole[25:], tail)

    def test_seeds_decorrelate(self):
        a = normal_block(seed=1, n_steps=10, lo=0, hi=2000)
        b = normal_block(seed=2, n_steps=10, lo=0, hi=2000)
        corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(corr) < 0.02, f"cross-seed correlation {corr}"

    def test_moments(self):
        z = normal_block(seed=77, n_steps=100, lo=0, hi=5000).ravel()
        n = z.size
        assert abs(z.mean()) < 4 / math.sqrt(n)
        assert abs(z.var() - 1.0) < 4 * math.sqrt(2.0 / n)
        assert np.isfinite(z).all()

    @pytest.mark.parametrize(
        "n_steps, lo, hi", [(7, 3, 11), (5, 1, 2), (3, 7, 40), (7, 3, 20000)])
    def test_matches_an_independent_philox_reference(self, n_steps, lo, hi):
        # word offsets lo * n_steps = 21, 5, 21, 21: none a multiple of Philox's
        # 4-word counter block; the reference draws every word from 0.  The
        # last case spans 139,979 words, three conversion chunks, the last ragged
        assert (lo * n_steps) % 4
        words = Philox(key=2024).random_raw(hi * n_steps)[lo * n_steps:]
        u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
        ref = ndtri(u).reshape(hi - lo, n_steps)
        got = normal_block(2024, n_steps, lo, hi)
        assert got.tobytes() == ref.tobytes()
        assert _rng._draw(2024, n_steps, lo, hi).tobytes() == ref.tobytes()

    def test_top_word_gives_a_finite_normal(self, monkeypatch, cold_store):
        # a word whose top 53 bits are all ones would round to u = 1.0;
        # a stand-in generator feeds such words, and the lowest, to the conversion
        words = np.array([2**64 - 1, 2**64 - 2**11, 0], dtype=np.uint64)

        class Fixed:
            def __init__(self, bit_generator):
                pass

            def integers(self, low, high, size, dtype, endpoint):
                return np.resize(words, size)

        monkeypatch.setattr(_rng, "Generator", Fixed)
        z = normal_block(seed=0, n_steps=3, lo=0, hi=1)[0]
        assert np.isfinite(z).all()
        assert z[0] == z[1] == ndtri(1.0 - 2.0**-53) and z[2] == ndtri(2.0**-54)

    def test_returns_a_fresh_writable_array(self):
        a = normal_block(5, 4, 3, 9)
        b = normal_block(5, 4, 3, 9)
        assert a.flags.writeable and not np.shares_memory(a, b)
        ref = b.copy()
        a *= 0.1  # a caller scaling its draws in place leaves other draws alone
        assert b.tobytes() == ref.tobytes()


@pytest.mark.usefixtures("cold_store")
class TestKeptBlocks:
    """Re-draws of the current (seed, n_steps) stream are served from memory."""

    @staticmethod
    def counted_draws(monkeypatch):
        calls = []
        draw = _rng._draw

        def counting(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(_rng, "_draw", counting)
        return calls

    def test_kept_block_equals_a_cold_draw(self, monkeypatch):
        cold = _rng._draw(11, 40, 0, BLOCK)
        calls = self.counted_draws(monkeypatch)
        first = normal_block(11, 40, 0, BLOCK)
        again = normal_block(11, 40, 0, BLOCK)
        assert calls == [(11, 40, 0, BLOCK)]  # the second request drew nothing
        assert again.tobytes() == first.tobytes() == cold.tobytes()
        assert again.flags.writeable and again.flags.c_contiguous
        assert not np.shares_memory(again, _rng._kept[(0, BLOCK)])

    def test_mutating_a_returned_block_never_reaches_a_later_hit(self):
        ref = _rng._draw(12, 16, 5, 300)
        drawn = normal_block(12, 16, 5, 300)
        drawn *= 0.0
        served = normal_block(12, 16, 5, 300)
        served[:] = np.nan
        assert normal_block(12, 16, 5, 300).tobytes() == ref.tobytes()
        with pytest.raises(ValueError):
            _rng._kept[(5, 300)][0, 0] = 1.0  # the kept block itself is read-only

    @pytest.mark.parametrize("other", [(14, 16), (13, 17)])
    def test_another_stream_drops_the_kept_blocks(self, monkeypatch, other):
        normal_block(13, 16, 0, 100)
        normal_block(13, 16, 100, 200)
        assert _rng._stream == (13, 16) and set(_rng._kept) == {(0, 100), (100, 200)}
        normal_block(*other, 0, 10)
        assert _rng._stream == other and set(_rng._kept) == {(0, 10)}
        calls = self.counted_draws(monkeypatch)
        back = normal_block(13, 16, 0, 100)  # drawn again, not served
        assert calls == [(13, 16, 0, 100)]
        assert back.tobytes() == _rng._draw(13, 16, 0, 100).tobytes()

    def test_kept_bytes_stay_within_the_bound(self):
        # 12.5 MiB: two full blocks at 100 steps, or one at 200
        assert _rng.KEEP_BYTES == 2 * BLOCK * 100 * 8 == BLOCK * 200 * 8

        def kept_bytes():
            return sum(a.nbytes for a in _rng._kept.values())

        normal_block(15, 201, 0, BLOCK)  # 12.56 MiB on its own: never kept
        assert _rng._kept == {}
        normal_block(16, 100, 0, BLOCK)  # 6.25 MiB
        normal_block(16, 100, BLOCK, 2 * BLOCK)  # the second block fits exactly
        normal_block(16, 100, 2 * BLOCK, 2 * BLOCK + 1)  # one path more does not
        assert set(_rng._kept) == {(0, BLOCK), (BLOCK, 2 * BLOCK)}
        assert kept_bytes() == _rng.KEEP_BYTES
        normal_block(17, 100, 0, 12000)  # another stream: 9.16 MiB
        normal_block(17, 100, 6000, 18000)  # its 4.58 MiB gap would pass the bound
        assert set(_rng._kept) == {(0, 12000)}
        normal_block(17, 100, 12000, 2 * BLOCK)  # a 3.34 MiB gap fits exactly
        assert set(_rng._kept) == {(0, 12000), (12000, 2 * BLOCK)}
        assert kept_bytes() == _rng.KEEP_BYTES
        normal_block(18, 200, 0, BLOCK)  # a full block at 200 steps fits exactly
        assert set(_rng._kept) == {(0, BLOCK)} and kept_bytes() == _rng.KEEP_BYTES
        normal_block(18, 200, BLOCK, BLOCK + 1)  # nothing is evicted to make room
        assert set(_rng._kept) == {(0, BLOCK)}

    def test_a_sub_range_of_a_kept_piece_draws_nothing(self, monkeypatch):
        normal_block(30, 50, 0, 1000)
        calls = self.counted_draws(monkeypatch)
        z = normal_block(30, 50, 200, 700)
        assert calls == []
        assert z.tobytes() == _rng._draw(30, 50, 200, 700).tobytes()
        assert z.flags.writeable and not np.shares_memory(z, _rng._kept[(0, 1000)])

    def test_an_overlapping_request_draws_only_its_gaps(self, monkeypatch):
        normal_block(31, 24, 100, 200)
        normal_block(31, 24, 300, 400)
        calls = self.counted_draws(monkeypatch)
        z = normal_block(31, 24, 50, 450)
        assert calls == [(31, 24, 50, 100), (31, 24, 200, 300), (31, 24, 400, 450)]
        assert z.tobytes() == _rng._draw(31, 24, 50, 450).tobytes()
        assert sorted(_rng._kept) == [(50, 100), (100, 200), (200, 300), (300, 400), (400, 450)]
        calls.clear()
        assert normal_block(31, 24, 60, 440).tobytes() == z[10:390].tobytes() and calls == []

    def test_the_default_error_study_draws_each_normal_once(self, monkeypatch):
        # 2,048 base paths at T = 0.2, scaled by 1/T down to 32,768 at 0.0125:
        # 63,488 paths of requests, of which the first 32,768 are distinct
        calls = self.counted_draws(monkeypatch)
        asymptotics_error_study(ConstantVol(0.2), FLAT, CALL, "asian", "price",
                                DEFAULT_T_GRID, SimConfig(100, 2048, 13), 1.0)
        assert {c[:2] for c in calls} == {(13, 100)}
        drawn = sorted(c[2:] for c in calls)
        assert sum((hi - lo) * 100 for lo, hi in drawn) == 32768 * 100
        assert all(a[1] <= b[0] for a, b in zip(drawn, drawn[1:]))

    def test_pool_threads_asking_for_overlapping_ranges_get_the_reference(self):
        ranges = [(0, 600), (300, 900), (100, 200), (500, 1200), (0, 1200), (850, 1000)] * 6
        ref = _rng._draw(32, 16, 0, 1200)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as ex:
                got = list(ex.map(lambda r: normal_block(32, 16, *r), ranges))
        finally:
            sys.setswitchinterval(interval)
        for (lo, hi), z in zip(ranges, got):
            assert z.tobytes() == ref[lo:hi].tobytes()
        pieces = sorted(_rng._kept)
        assert all(a[1] <= b[0] for a, b in zip(pieces, pieces[1:]))
        for lo, hi in pieces:
            assert _rng._kept[(lo, hi)].tobytes() == ref[lo:hi].tobytes()

    def test_pool_threads_drawing_one_stream_get_identical_arrays(self):
        ranges = [(lo, min(lo + 1000, 4500)) for lo in range(0, 4500, 1000)] * 6
        ref = {r: _rng._draw(18, 32, *r) for r in set(ranges)}
        with ThreadPoolExecutor(max_workers=2) as ex:
            got = list(ex.map(lambda r: normal_block(18, 32, *r), ranges))
        for r, z in zip(ranges, got):
            assert z.tobytes() == ref[r].tobytes()
        assert len({id(z) for z in got}) == len(got)
        assert not any(np.shares_memory(a, b) for a, b in zip(got, got[1:]))
        assert set(_rng._kept) == set(ref)

    def test_two_streams_under_contention_serve_only_their_own_draws(self):
        # more workers than cores and a short switch interval, so requests of
        # two streams interleave between the store's lookups and its stores
        ranges = [(lo, lo + 300) for lo in range(0, 1500, 300)]
        jobs = [(seed, r) for r in ranges for seed in (21, 22)] * 8
        ref = {(seed, r): _rng._draw(seed, 16, *r) for seed, r in set(jobs)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as ex:
                futures = [ex.submit(normal_block, seed, 16, *r) for seed, r in jobs]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for job, z in zip(jobs, got):
            assert z.tobytes() == ref[job].tobytes()
        seed = _rng._stream[0]
        for r, z in _rng._kept.items():  # what is kept belongs to the current stream
            assert z.tobytes() == ref[(seed, r)].tobytes()

    def test_a_block_drawn_while_the_stream_changed_is_not_kept(self, monkeypatch):
        draw = _rng._draw

        def racing(seed, n_steps, lo, hi):
            if seed == 19:  # another thread moves to a new stream mid-draw
                normal_block(20, 8, 0, 5)
            return draw(seed, n_steps, lo, hi)

        monkeypatch.setattr(_rng, "_draw", racing)
        z = normal_block(19, 8, 0, 10)
        assert z.tobytes() == draw(19, 8, 0, 10).tobytes()
        assert _rng._stream == (20, 8) and set(_rng._kept) == {(0, 5)}
        assert _rng._kept[(0, 5)].tobytes() == draw(20, 8, 0, 5).tobytes()


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

class TestSimConfig:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(steps=1, n_paths=10, seed=0), "steps"),
            (dict(steps=10, n_paths=0, seed=0), "n_paths"),
            (dict(steps=10, n_paths=10, seed=-1), "seed"),
            (dict(steps=10, n_paths=10, seed=0, scheme="milstein"), "scheme"),
            (dict(steps=10, n_paths=10, seed=0, threads=0), "threads"),
        ],
    )
    def test_rejects_bad_fields(self, kwargs, fragment):
        with pytest.raises(ValidationError, match=fragment):
            SimConfig(**kwargs)

    def test_defaults(self):
        cfg = SimConfig(steps=10, n_paths=10, seed=0)
        assert cfg.scheme == "log-euler"


# ---------------------------------------------------------------------------
# pathwise structure of the simulated processes
# ---------------------------------------------------------------------------

class TestProcesses:
    def test_martingale_property_of_discounted_spot(self):
        cfg = SimConfig(steps=100, n_paths=20000, seed=42)
        b = simulate(SKEW, DRIFTY, 1.0, cfg)
        st = b.processes["S"][:, -1] * math.exp(-DRIFTY.drift * 1.0)
        se = st.std(ddof=1) / math.sqrt(len(st))
        assert abs(st.mean() - 100.0) < 4 * se, f"z = {(st.mean() - 100) / se:.2f}"

    def test_first_variation_mean(self):
        # E[Z_T] = exp((r - q) T)
        cfg = SimConfig(steps=100, n_paths=20000, seed=42)
        b = simulate(SKEW, DRIFTY, 1.0, cfg)
        zt = b.processes["Z"][:, -1]
        se = zt.std(ddof=1) / math.sqrt(len(zt))
        assert abs(zt.mean() - math.exp(0.04)) < 4 * se

    def test_driftless_processes_are_martingales(self):
        cfg = SimConfig(steps=100, n_paths=20000, seed=42)
        b = simulate(SKEW, DRIFTY, 1.0, cfg)
        targets = {"X": 100.0, "Xt": 100.0, "Y": 1.0, "Yt": 1.0, "Yh": 1.0}
        for name, target in targets.items():
            v = b.processes[name][:, -1]
            se = v.std(ddof=1) / math.sqrt(len(v))
            z = (v.mean() - target) / se
            assert abs(z) < 4, f"{name}: mean {v.mean():.5f}, z = {z:.2f}"

    def test_constant_vol_collapses_spot_onto_frozen(self):
        # with sigma constant and zero drift, the log-euler step for X is the
        # exact lognormal step, so X and Xt coincide bit for bit
        cfg = SimConfig(steps=50, n_paths=500, seed=7)
        b = simulate(ConstantVol(0.2), FLAT, 0.5, cfg)
        assert np.array_equal(b.processes["X"], b.processes["Xt"])

    # (process, surface, coefficient frozen at (t, S0), start value): Xh and
    # Xt use sigma, Yh and Yt dcoef_dx
    @pytest.mark.parametrize(
        "name, surface, coef, x0",
        [
            ("Xh", ConstantVol(0.25), "sigma", 100.0),
            ("Xh", TABLE, "sigma", 100.0),
            ("Yh", TABLE, "dcoef_dx", 1.0),
        ],
        ids=["Xh-constant", "Xh-tabulated", "Yh-tabulated"],
    )
    def test_frozen_gaussian_is_scaled_brownian(self, name, surface, coef, x0):
        cfg = SimConfig(steps=40, n_paths=300, seed=3)
        T = 1.0
        b = simulate(surface, FLAT, T, cfg)
        dt = T / 40
        c = np.array([getattr(surface, coef)(j * dt, 100.0) for j in range(40)])
        expect = x0 + x0 * np.cumsum(c * b.increments, axis=1)
        assert np.allclose(b.processes[name][:, 1:], expect, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "name, surface, coef, x0",
        [
            ("Xt", TimeScaledVol(c0=0.1, c1=0.05, c2=0.2), "sigma", 100.0),
            ("Xt", TABLE, "sigma", 100.0),
            ("Yt", TABLE, "dcoef_dx", 1.0),
        ],
        ids=["Xt-time-scaled", "Xt-tabulated", "Yt-tabulated"],
    )
    def test_frozen_lognormal_matches_product_formula(self, name, surface, coef, x0):
        cfg = SimConfig(steps=30, n_paths=200, seed=11)
        T = 0.5
        b = simulate(surface, FLAT, T, cfg)
        dt = T / 30
        c = np.array([getattr(surface, coef)(j * dt, 100.0) for j in range(30)])
        logx = np.cumsum(-0.5 * c**2 * dt + c * b.increments, axis=1)
        assert np.allclose(b.processes[name][:, 1:], x0 * np.exp(logx), rtol=1e-12)

    def test_driftless_pair_matches_spot_pair_at_zero_drift(self):
        cfg = SimConfig(steps=60, n_paths=400, seed=5)
        b = simulate(SKEW, FLAT, 0.75, cfg)
        assert np.array_equal(b.processes["S"], b.processes["X"])
        assert np.array_equal(b.processes["Z"], b.processes["Y"])

    def test_trapezoid_average_against_closed_form(self):
        # sigma = 0: the average is a deterministic trapezoid sum
        cfg = SimConfig(steps=16, n_paths=3, seed=0)
        b = simulate(ConstantVol(0.0), MarketParams(100.0, 0.08, 0.0), 2.0, cfg)
        t = b.t
        expect = np.trapezoid(100.0 * np.exp(0.08 * t), t) / 2.0
        assert np.allclose(b.averages["S"], expect, rtol=1e-14)

    def test_bit_identical_across_threads(self):
        # all 8 processes over a ragged third block
        cfg = SimConfig(steps=4, n_paths=2 * BLOCK + 123, seed=13)
        runs = [simulate(SKEW, DRIFTY, 0.3, replace(cfg, threads=t)) for t in (1, 2, 4)]
        base = runs[0]
        assert set(base.processes) == set(PROCESS_NAMES)
        for b in runs[1:]:
            for name in PROCESS_NAMES:
                assert b.processes[name].tobytes() == base.processes[name].tobytes(), name
            assert set(b.averages) == set(base.averages)
            for name in base.averages:
                assert b.averages[name].tobytes() == base.averages[name].tobytes(), name
            assert b.increments.tobytes() == base.increments.tobytes()
            assert b.exploded.tobytes() == base.exploded.tobytes()
            assert b.n_exploded == base.n_exploded

    def test_history_size_guard(self):
        cfg = SimConfig(steps=10000, n_paths=10000, seed=0)
        with pytest.raises(ValidationError, match="too large"):
            simulate(SKEW, FLAT, 1.0, cfg)

    def test_history_size_guard_counts_the_increments(self, monkeypatch):
        # 24 000 x 8 x 1001 = 1.92e8 history values fit 2e8; with the
        # 2.4e7 increments the run holds 2.16e8 and is refused before any draw
        calls = refuse_draws(monkeypatch)
        with pytest.raises(ValidationError, match="history of 2.2e"):
            simulate(SKEW, FLAT, 1.0, SimConfig(steps=1000, n_paths=24000, seed=0))
        assert calls == []

    def test_negative_maturity_rejected(self):
        with pytest.raises(DomainError):
            simulate(SKEW, FLAT, -1.0, SimConfig(steps=10, n_paths=10, seed=0))


# ---------------------------------------------------------------------------
# the kernel steps the increments it is handed
# ---------------------------------------------------------------------------

class TestKernelSeam:
    """_sim_block on hand-made increments, with every normal draw refused."""

    def test_zero_increments_hold_every_process_at_its_start(self, monkeypatch):
        calls = refuse_draws(monkeypatch)
        cfg = SimConfig(steps=8, n_paths=5, seed=0, scheme="euler")
        dW = np.zeros((5, 8))
        dW.flags.writeable = False  # the kernel reads its increments only
        ends, averages, exploded = montecarlo._sim_block(
            SKEW, FLAT, 1.0, cfg, 0, 5, dW, ("S", "Z", "X", "Y", "Xh", "Yh"),
            average=("S", "X", "Y", "logS"))
        assert calls == [] and not exploded.any()
        for name, start in (("S", 100.0), ("Z", 1.0), ("X", 100.0), ("Y", 1.0),
                            ("Xh", 100.0), ("Yh", 1.0)):
            assert np.all(ends[name] == start), name
        # dt = 1/8: every panel and partial sum is exact
        for name, start in (("S", 100.0), ("X", 100.0), ("Y", 1.0)):
            assert np.all(averages[name] == start), name
        np.testing.assert_allclose(averages["logS"], math.log(100.0), rtol=1e-15)

    def test_one_euler_step(self, monkeypatch):
        refuse_draws(monkeypatch)
        cfg = SimConfig(steps=2, n_paths=4, seed=0, scheme="euler")
        dW0 = np.array([-0.1, -0.01, 0.02, 0.15])
        dW = np.column_stack([dW0, np.zeros(4)])  # the second step holds S
        dW.flags.writeable = False
        ends, averages, exploded = montecarlo._sim_block(
            SKEW, FLAT, 0.5, cfg, 0, 4, dW, ("S",), average=("S",))
        S1 = 100.0 * (1.0 + SKEW.sigma(0.0, np.full(4, 100.0)) * dW0)
        assert not exploded.any()
        assert ends["S"].tobytes() == S1.tobytes()
        dt = 0.25
        want = (0.5 * (100.0 + S1) * dt + 0.5 * (S1 + S1) * dt) / 0.5
        assert averages["S"].tobytes() == want.tobytes()

    def test_increments_are_the_scaled_normals(self):
        cfg = SimConfig(steps=12, n_paths=300, seed=21)
        got = montecarlo._increments(0.7, cfg, 40, 300)
        want = normal_block(21, 12, 40, 300) * math.sqrt(0.7 / 12)
        assert got.shape == (260, 12) and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# scheme refinement
# ---------------------------------------------------------------------------

class TestRefinement:
    """Deterministic (sigma = 0) limits expose the pure discretization error."""

    def test_euler_asian_price_refines_at_first_order(self):
        # nested coupling: increments drawn once on the finest grid and
        # aggregated pairwise give common random numbers across all step
        # counts, so E[P_N - P_2N] isolates the O(1/N) weak error; the
        # package kernel steps each coarsened set, BLOCK paths at a time
        T, S0, params = 1.0, 100.0, MarketParams(100.0, 0.2, 0.0)
        n_paths, fine = 100000, 400
        grids = (25, 50, 100, 200)

        def euler_asian_payoff(dW, lo, hi):
            cfg = SimConfig(steps=dW.shape[1], n_paths=n_paths, seed=55, scheme="euler")
            _, averages, exploded = montecarlo._sim_block(
                ConstantVol(0.3), params, T, cfg, lo, hi, dW, ("S",), average=("S",))
            assert not exploded.any()
            return np.maximum(averages["S"] - S0, 0.0)

        def coarsen(dW, k):
            return dW.reshape(len(dW), -1, k).sum(axis=2)

        d = {n: [] for n in grids}
        for lo in range(0, n_paths, BLOCK):
            hi = min(lo + BLOCK, n_paths)
            z = normal_block(seed=55, n_steps=fine, lo=lo, hi=hi)
            z *= math.sqrt(T / fine)
            for n in grids:
                d[n].append(euler_asian_payoff(coarsen(z, fine // n), lo, hi)
                            - euler_asian_payoff(coarsen(z, fine // (2 * n)), lo, hi))
        diffs = [abs(float(np.concatenate(d[n]).mean())) for n in grids]
        slope = -np.polyfit(np.log(grids), np.log(diffs), 1)[0]
        assert slope >= 0.8, f"euler refinement order {slope:.3f}"

    def test_euler_drift_error_is_first_order(self):
        params = MarketParams(100.0, 0.5, 0.0)
        exact = 100.0 * math.exp(0.5)
        errs = []
        for n in (25, 50, 100, 200):
            cfg = SimConfig(steps=n, n_paths=2, seed=0, scheme="euler")
            b = simulate(ConstantVol(0.0), params, 1.0, cfg)
            errs.append(abs(b.processes["S"][0, -1] - exact))
        slope = np.polyfit(np.log([25, 50, 100, 200]), np.log(errs), 1)[0]
        assert -1.2 < slope < -0.8, f"euler drift order {-slope:.3f}"

    def test_trapezoid_average_error_is_second_order(self):
        params = MarketParams(100.0, 0.4, 0.0)
        exact = 100.0 * (math.exp(0.4) - 1.0) / 0.4
        errs = []
        for n in (4, 8, 16, 32):
            cfg = SimConfig(steps=n, n_paths=2, seed=0)
            b = simulate(ConstantVol(0.0), params, 1.0, cfg)
            errs.append(abs(b.averages["S"][0] - exact))
        slope = np.polyfit(np.log([4, 8, 16, 32]), np.log(errs), 1)[0]
        assert -2.2 < slope < -1.8, f"trapezoid order {-slope:.3f}"


# ---------------------------------------------------------------------------
# pricing estimator
# ---------------------------------------------------------------------------

class TestMcPrice:
    def test_european_flat_vol_matches_black_scholes(self):
        sigma, T = 0.2, 0.5
        # log-euler steps are exact in law for constant sigma, so two suffice
        cfg = SimConfig(steps=2, n_paths=200000, seed=13)
        est = mc_price(ConstantVol(sigma), DRIFTY, CALL, "european", T, cfg)
        d1 = (math.log(1.0) + (0.04 + sigma**2 / 2) * T) / (sigma * math.sqrt(T))
        d2 = d1 - sigma * math.sqrt(T)
        bs = 100.0 * math.exp(-0.01 * T) * norm.cdf(d1) - 100.0 * math.exp(
            -0.05 * T
        ) * norm.cdf(d2)
        assert abs(est.mean - bs) < 4 * est.std_error, (
            f"mc {est.mean:.4f} vs bs {bs:.4f} (se {est.std_error:.4f})"
        )

    def test_geometric_crosscheck_agrees_with_closed_form(self):
        sigma, T, K = 0.2, 0.25, 100.0
        price, _ = geometric_bs(sigma, FLAT, "call", K, T)
        cfg = SimConfig(steps=200, n_paths=100000, seed=21)
        est = mc_price(ConstantVol(sigma), FLAT, PayoffSpec("call", strike=K), "geometric", T, cfg)
        assert est.estimator == "mc-price-geometric"
        assert abs(est.mean - price) < max(4 * est.std_error, 2e-3), (
            f"mc {est.mean:.5f} vs closed {price:.5f}"
        )

    def test_degenerate_sigma_zero_is_deterministic(self):
        params = MarketParams(100.0, 0.03, 0.0)
        cfg = SimConfig(steps=20, n_paths=100, seed=1)
        est = mc_price(ConstantVol(0.0), params, CALL, "geometric", 1.0, cfg)
        # deterministic path: geometric average is S0 exp(r T / 2)
        exact = math.exp(-0.03) * (100.0 * math.exp(0.015) - 100.0)
        assert est.std_error == 0.0
        assert math.isclose(est.mean, exact, rel_tol=1e-12)

    def test_identical_asian_payoffs_have_zero_std_error(self):
        # 100 equal payoffs that are not exactly representable: a one-pass
        # variance formula reads its own cancellation here, not a spread
        params = MarketParams(100.0, 0.03, 0.0)
        est = mc_price(ConstantVol(0.0), params, CALL, "asian", 1.0, SimConfig(20, 100, 1))
        assert est.std_error == 0.0

    def test_standard_error_scales_as_inverse_sqrt_paths(self):
        small = mc_price(SKEW, FLAT, CALL, "asian", 0.5, SimConfig(50, 20000, 17))
        big = mc_price(SKEW, FLAT, CALL, "asian", 0.5, SimConfig(50, 80000, 17))
        ratio = small.std_error / big.std_error
        assert 1.6 < ratio < 2.4, f"se ratio on 4x paths: {ratio:.3f}"

    def test_same_seed_reproduces_bitwise(self):
        cfg = SimConfig(steps=40, n_paths=30000, seed=3)
        a = mc_price(SKEW, DRIFTY, CALL, "asian", 0.5, cfg)
        b = mc_price(SKEW, DRIFTY, CALL, "asian", 0.5, cfg)
        assert a == b

    def test_thread_count_does_not_change_results(self):
        base = mc_price(SKEW, DRIFTY, CALL, "asian", 0.5, SimConfig(40, 30000, 3))
        for threads in (2, 4, 8):
            cfg = SimConfig(steps=40, n_paths=30000, seed=3, threads=threads)
            est = mc_price(SKEW, DRIFTY, CALL, "asian", 0.5, cfg)
            assert est.mean == base.mean and est.std_error == base.std_error, (
                f"threads={threads} changed the estimate"
            )

    def test_unknown_style_rejected(self):
        with pytest.raises(ValidationError, match="lookback"):
            mc_price(SKEW, FLAT, CALL, "lookback", 0.5, SimConfig(10, 10, 0))

    def test_unstable_scheme_raises(self):
        # euler with huge sigma drives many paths nonpositive
        cfg = SimConfig(steps=2, n_paths=5000, seed=5, scheme="euler")
        with pytest.raises(NumericError, match="exploded"):
            mc_price(ConstantVol(5.0), FLAT, CALL, "european", 1.0, cfg)

    def test_exploded_paths_are_frozen_not_nan(self):
        cfg = SimConfig(steps=2, n_paths=2000, seed=5, scheme="euler")
        b = simulate(ConstantVol(5.0), FLAT, 1.0, cfg)
        assert b.n_exploded > 0
        assert np.isfinite(b.processes["S"]).all()
        assert (b.processes["S"] > 0).all()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bad_path_holds_its_last_valid_value(self, threads):
        """Euler at sigma = 5: a step that leaves (0, inf) is replaced by the
        path's last valid level, the path goes on from there and is counted
        exploded; S and, at zero drift, X follow the same rule."""
        cfg = SimConfig(steps=10, n_paths=2000, seed=5, scheme="euler", threads=threads)
        b = simulate(ConstantVol(5.0), FLAT, 1.0, cfg)
        S = np.empty((2000, 11))
        S[:, 0] = 100.0
        ever_bad = np.zeros(2000, dtype=bool)
        for j in range(10):
            S[:, j + 1] = S[:, j] * (1.0 + 5.0 * b.increments[:, j])
            bad = ~(S[:, j + 1] > 0.0)
            S[bad, j + 1] = S[bad, j]
            ever_bad |= bad
        for name in ("S", "X"):
            assert b.processes[name].tobytes() == S.tobytes()
        assert (b.exploded == ever_bad).all()
        assert b.n_exploded == 1910

    @pytest.mark.parametrize("threads", [1, 2])
    def test_exploded_counts_are_pinned(self, threads):
        # a few of 20 000 paths (three blocks) leave the domain: under 0.1%
        cfg = SimConfig(steps=8, n_paths=20000, seed=5, scheme="euler", threads=threads)
        assert simulate(ConstantVol(5.0), FLAT, 0.02, cfg).n_exploded == 4
        est = mc_price(ConstantVol(5.0), FLAT, CALL, "asian", 0.02, cfg)
        assert est.diagnostics["excluded"] == 4 and est.n_paths == 19996


# ---------------------------------------------------------------------------
# the controlled Asian price
# ---------------------------------------------------------------------------

def lognormal_option(m, v, K, family):
    """E[(G - K)_+] or E[(K - G)_+] for log G ~ N(m, v)."""
    sd = math.sqrt(v)
    d1 = (m - math.log(K) + v) / sd
    call = math.exp(m + 0.5 * v) * norm.cdf(d1) - K * norm.cdf(d1 - sd)
    return call if family == "call" else call - math.exp(m + 0.5 * v) + K


class TestAsianPriceCv:
    @pytest.mark.parametrize(
        "surface, params", [(ConstantVol(0.25), FLAT), (SKEW, DRIFTY)], ids=["flat", "skew"]
    )
    def test_agrees_with_plain_estimator(self, surface, params):
        cfg = SimConfig(steps=50, n_paths=40000, seed=31)
        plain = mc_price(surface, params, CALL, "asian", 0.3, cfg)
        cv = mc_asian_price_cv(surface, params, CALL, 0.3, cfg)
        assert cv.estimator == "mc-price-asian-cv"
        assert abs(cv.mean - plain.mean) < 4 * math.hypot(cv.std_error, plain.std_error)
        assert cv.diagnostics["vr_factor"] > 100.0
        assert cv.std_error < 0.1 * plain.std_error

    @pytest.mark.parametrize("family, K", [("call", 101.0), ("put", 98.0)])
    def test_control_mean_matches_lognormal_closed_form(self, family, K):
        sigma, T, steps = 0.3, 0.4, 25
        a, m, v = _frozen_log_average(ConstantVol(sigma), DRIFTY, T, steps)
        # the discrete trapezoid law, assembled independently: weights w on
        # the grid t, log S~_t Gaussian with mean (mu - sigma^2/2) t and
        # covariance sigma^2 min(s, t)
        t = np.linspace(0.0, T, steps + 1)
        w = np.full(steps + 1, 1.0 / steps)
        w[[0, -1]] *= 0.5
        assert m == pytest.approx(
            math.log(100.0) + (0.04 - 0.5 * sigma**2) * float(w @ t), abs=1e-13
        )
        assert v == pytest.approx(sigma**2 * float(w @ np.minimum.outer(t, t) @ w), rel=1e-12)
        _, mean = _control(PayoffSpec(family, strike=K), m, v)
        assert mean == pytest.approx(lognormal_option(m, v, K, family), abs=1e-10)

    @pytest.mark.parametrize("surface", [ConstantVol(0.25), SKEW], ids=["flat", "skew"])
    def test_linear_payoff_hits_the_exact_grid_mean(self, surface):
        # log-euler keeps E[S_t] = S0 e^{(r-q) t} on the grid, so E[A] is
        # exact; the controlled estimate must hit it within its own error
        steps, T = 40, 0.3
        t = np.linspace(0.0, T, steps + 1)
        w = np.full(steps + 1, 1.0 / steps)
        w[[0, -1]] *= 0.5
        exact = math.exp(-0.05 * T) * float(w @ (100.0 * np.exp(0.04 * t)))
        linear = PayoffSpec("linear", slope=1.0, intercept=0.0)
        est = mc_asian_price_cv(surface, DRIFTY, linear, T, SimConfig(steps, 40000, 8))
        assert abs(est.mean - exact) < 4 * est.std_error, (est, exact)
        assert est.std_error < 0.01

    def test_bit_identical_across_threads_and_ragged_path_counts(self):
        n = 2 * BLOCK + 123
        base = mc_asian_price_cv(SKEW, DRIFTY, CALL, 0.2, SimConfig(20, n, 4))
        for threads in (2, 4):
            est = mc_asian_price_cv(SKEW, DRIFTY, CALL, 0.2, SimConfig(20, n, 4, threads=threads))
            assert est == base, f"threads={threads} changed the estimate"

    def test_euler_scheme_is_unbiased(self):
        cfg = SimConfig(steps=20, n_paths=40000, seed=12, scheme="euler")
        plain = mc_price(SKEW, DRIFTY, CALL, "asian", 0.25, cfg)
        cv = mc_asian_price_cv(SKEW, DRIFTY, CALL, 0.25, cfg)
        assert abs(cv.mean - plain.mean) < 4 * math.hypot(cv.std_error, plain.std_error)

    @pytest.mark.parametrize(
        "params", [FLAT, DRIFTY, MarketParams(100.0, 0.03, 0.0)], ids=["flat", "drifty", "r3"]
    )
    def test_zero_vol_control_is_constant(self, params):
        # with drift the constant control's sample variance is rounding
        # noise of either sign: beta must not be fitted to it
        itm = PayoffSpec("call", strike=95.0)
        cfg = SimConfig(steps=20, n_paths=100, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cv = mc_asian_price_cv(ConstantVol(0.0), params, itm, 1.0, cfg)
        plain = mc_price(ConstantVol(0.0), params, itm, "asian", 1.0, cfg)
        assert cv.diagnostics["beta"] == 0.0
        assert (cv.mean, cv.std_error) == (plain.mean, plain.std_error)
        if params is FLAT:
            assert (cv.mean, cv.std_error) == (5.0, 0.0)

    def test_exploded_paths_left_out_like_the_plain_estimator(self):
        # euler at sigma sqrt(dt) ~ 0.27 drives a few paths nonpositive
        cfg = SimConfig(steps=4, n_paths=20000, seed=6, scheme="euler")
        plain = mc_price(ConstantVol(1.2), FLAT, CALL, "asian", 0.2, cfg)
        cv = mc_asian_price_cv(ConstantVol(1.2), FLAT, CALL, 0.2, cfg)
        assert cv.diagnostics["excluded"] == plain.diagnostics["excluded"] > 0
        assert cv.n_paths == plain.n_paths

    def test_user_table_control_held_flat_beyond_the_table(self):
        table = PayoffSpec("user-table", table_x=(90.0, 100.0, 110.0), table_y=(0.0, 0.0, 10.0))
        cfg = SimConfig(steps=20, n_paths=20000, seed=2)
        plain = mc_price(ConstantVol(0.1), FLAT, table, "asian", 0.1, cfg)
        cv = mc_asian_price_cv(ConstantVol(0.1), FLAT, table, 0.1, cfg)
        assert abs(cv.mean - plain.mean) < 4 * math.hypot(cv.std_error, plain.std_error)

    def test_nonpositive_maturity_rejected(self):
        with pytest.raises(DomainError, match="positive"):
            mc_asian_price_cv(SKEW, FLAT, CALL, 0.0, SimConfig(10, 10, 0))


# ---------------------------------------------------------------------------
# finite-difference deltas
# ---------------------------------------------------------------------------

class TestFdDelta:
    def test_linear_payoff_has_no_truncation_error(self):
        # GBM scales multiplicatively in S0, so for a linear payoff the
        # per-path difference quotient is exact and the fd delta equals
        # price / S0 to machine precision
        lin = PayoffSpec("linear", slope=1.0)
        cfg = SimConfig(steps=30, n_paths=20000, seed=9)
        d = mc_delta_fd(ConstantVol(0.2), DRIFTY, lin, "asian", 0.5, cfg, bump=1e-3)
        p = mc_price(ConstantVol(0.2), DRIFTY, lin, "asian", 0.5, cfg)
        assert math.isclose(d.mean, p.mean / 100.0, rel_tol=1e-12), (
            f"fd {d.mean!r} vs price/S0 {p.mean / 100.0!r}"
        )

    def test_deterministic_linear_delta_is_exact(self):
        lin = PayoffSpec("linear", slope=1.0)
        cfg = SimConfig(steps=30, n_paths=50, seed=9)
        est = mc_delta_fd(ConstantVol(0.0), DRIFTY, lin, "asian", 0.5, cfg)
        t = np.linspace(0, 0.5, 31)
        expect = math.exp(-0.05 * 0.5) * np.trapezoid(np.exp(0.04 * t), t) / 0.5
        assert abs(est.mean - expect) < 1e-10
        # identical paths have no spread at all
        assert est.std_error == 0.0

    def test_european_call_delta_against_black_scholes(self):
        sigma, T = 0.25, 0.5
        cfg = SimConfig(steps=2, n_paths=200000, seed=31)
        est = mc_delta_fd(ConstantVol(sigma), DRIFTY, CALL, "european", T, cfg)
        bs = bs_call_delta(100.0, 100.0, 0.05, 0.01, sigma, T)
        assert abs(est.mean - bs) < max(4 * est.std_error, 2e-3), (
            f"fd {est.mean:.4f} vs bs {bs:.4f}"
        )

    @pytest.mark.parametrize("style", ["asian", "european"])
    def test_bit_identical_across_threads(self, style):
        cfg = SimConfig(steps=4, n_paths=2 * BLOCK + 123, seed=17)
        runs = [
            mc_delta_fd(SKEW, DRIFTY, CALL, style, 0.3, replace(cfg, threads=t))
            for t in (1, 2, 4)
        ]
        assert all(repr(est) == repr(runs[0]) for est in runs[1:]), runs

    @pytest.mark.parametrize("bump", [1e-6, 0.2, 0.0, -1e-3])
    def test_bump_out_of_range_rejected(self, bump):
        with pytest.raises(DomainError, match="bump"):
            mc_delta_fd(SKEW, FLAT, CALL, "asian", 0.5, SimConfig(10, 10, 0), bump=bump)

    def test_bump_insensitivity(self):
        cfg = SimConfig(steps=40, n_paths=40000, seed=23)
        d1 = mc_delta_fd(SKEW, FLAT, CALL, "asian", 0.5, cfg, bump=1e-3)
        d2 = mc_delta_fd(SKEW, FLAT, CALL, "asian", 0.5, cfg, bump=1e-2)
        # common random numbers: the two estimates share all noise, so the
        # difference is pure truncation error
        assert abs(d1.mean - d2.mean) < 5e-4


# ---------------------------------------------------------------------------
# Malliavin-weight deltas
# ---------------------------------------------------------------------------

def history_weights(surface, params, T, bundle, style):
    """The Malliavin weights by the suffix-integral formulas, evaluated on the
    stored S and Z histories and increments of ``bundle``.

    With a = sigma S, c = a / Z and R_j = sum_{k<j} (nu_k rho_k Z_k dt -
    rho_k Z_k dW_k), asian: (1/I) sum u_j dW_j + (1/I^2) sum u_j K_j dt with
    u = 2 Z^2 / a, K_j = (nu_j + c_j R_j) IZ_j - c_j IZR_j and IZ, IZR the
    suffix integrals of Z and Z R; european: G (sum h_j dW_j +
    sum h_j (nu_j - c_j (R_N - R_j)) dt) / (S0 T) - 1/S0 with h = Z / a.
    """
    S, Z, dW = bundle.processes["S"], bundle.processes["Z"], bundle.increments
    steps = dW.shape[1]
    dt = T / steps
    Sl, Zl = S[:, :-1], Z[:, :-1]
    sig, nu, rho = surface.sigma(dt * np.arange(steps), Sl, 2)
    a = sig * Sl
    c = a / Zl
    R = np.zeros_like(Z)
    R[:, 1:] = np.cumsum(nu * rho * Zl * dt - rho * Zl * dW, axis=1)

    def suffix(h):
        panels = 0.5 * (h[:, :-1] + h[:, 1:]) * dt
        return np.cumsum(panels[:, ::-1], axis=1)[:, ::-1]

    if style == "asian":
        u = 2.0 * Zl**2 / a
        IZ = suffix(Z)
        K = (nu + c * R[:, :-1]) * IZ - c * suffix(Z * R)
        return (u * dW).sum(axis=1) / IZ[:, 0] + (u * K).sum(axis=1) * dt / IZ[:, 0] ** 2
    h = Zl / a
    corr = (h * (nu - c * (R[:, -1:] - R[:, :-1]))).sum(axis=1) * dt
    G = S[:, -1] / Z[:, -1]
    return G * ((h * dW).sum(axis=1) + corr) / (params.S0 * T) - 1.0 / params.S0


class TestMalliavinDelta:
    @pytest.mark.parametrize(
        "payoff, strike_ratio",
        [
            (("call",), 1.0),
            (("call",), 1.1),
            (("put",), 0.9),
            (("power-call", 0.75), 1.0),
        ],
    )
    def test_asian_weight_agrees_with_finite_differences(self, payoff, strike_ratio):
        family = payoff[0]
        kwargs = {"strike": 100.0 * strike_ratio}
        if family == "power-call":
            kwargs["exponent"] = payoff[1]
        spec = PayoffSpec(family, **kwargs)
        cfg = SimConfig(steps=50, n_paths=60000, seed=101)
        dm = mc_delta_malliavin(SKEW, DRIFTY, spec, "asian", 0.5, cfg)
        df = mc_delta_fd(SKEW, DRIFTY, spec, "asian", 0.5, cfg, bump=1e-3)
        tol = 3 * math.hypot(dm.std_error, df.std_error)
        assert abs(dm.mean - df.mean) < tol, (
            f"{family} K={kwargs['strike']}: malliavin {dm.mean:.5f} "
            f"vs fd {df.mean:.5f}, tol {tol:.5f}"
        )

    def test_asian_weight_handles_nonzero_drift(self):
        # the weight is built from (S, Z), so drift must not bias it
        cfg = SimConfig(steps=50, n_paths=80000, seed=107)
        hi_drift = MarketParams(100.0, 0.10, 0.0)
        dm = mc_delta_malliavin(SKEW, hi_drift, CALL, "asian", 0.5, cfg)
        df = mc_delta_fd(SKEW, hi_drift, CALL, "asian", 0.5, cfg, bump=1e-3)
        tol = 3 * math.hypot(dm.std_error, df.std_error)
        assert abs(dm.mean - df.mean) < tol

    @pytest.mark.parametrize("params", [FLAT, DRIFTY])
    def test_european_weight_against_black_scholes(self, params):
        # constant sigma: the three-term weight is exact in the drift
        sigma, T = 0.2, 0.25
        cfg = SimConfig(steps=50, n_paths=100000, seed=113)
        est = mc_delta_malliavin(ConstantVol(sigma), params, CALL, "european", T, cfg)
        bs = bs_call_delta(100.0, 100.0, params.r, params.q, sigma, T)
        assert abs(est.mean - bs) < 4 * est.std_error, (
            f"malliavin {est.mean:.4f} vs bs {bs:.4f} (se {est.std_error:.4f})"
        )

    def test_atm_short_maturity_delta_near_half(self):
        cfg = SimConfig(steps=50, n_paths=100000, seed=211)
        est = mc_delta_malliavin(ConstantVol(0.2), FLAT, CALL, "asian", 0.02, cfg)
        assert abs(est.mean - 0.5) < 3 * est.std_error, (
            f"ATM delta {est.mean:.4f} +- {est.std_error:.4f}"
        )

    def test_constant_payoff_has_zero_delta(self):
        const = PayoffSpec("constant", level=7.0)
        cfg = SimConfig(steps=50, n_paths=60000, seed=131)
        est = mc_delta_malliavin(SKEW, FLAT, const, "asian", 0.5, cfg)
        assert abs(est.mean) < 4 * est.std_error

    def test_weight_diagnostics_reported(self):
        cfg = SimConfig(steps=30, n_paths=20000, seed=3)
        est = mc_delta_malliavin(SKEW, FLAT, CALL, "asian", 0.5, cfg)
        diag = est.diagnostics
        assert {"flagged", "weight_mean", "weight_var", "excluded"} <= set(diag)
        assert diag["weight_var"] > 0.0
        # E[weight] is the delta of the constant payoff 1, which is 0
        n = est.n_paths
        se_w = math.sqrt(diag["weight_var"] / n)
        assert abs(diag["weight_mean"]) < 5 * se_w

    GUARDED = {
        "price": lambda c: mc_price(SKEW, FLAT, CALL, "asian", 0.5, c),
        "price-cv": lambda c: mc_asian_price_cv(SKEW, FLAT, CALL, 0.5, c),
        "delta-fd": lambda c: mc_delta_fd(SKEW, FLAT, CALL, "geometric", 0.5, c),
        "malliavin": lambda c: mc_delta_malliavin(SKEW, FLAT, CALL, "asian", 0.5, c),
        "pair-curve": lambda c: lp_distance_curve(SKEW, FLAT, ("Y", "Yt"), 2.0, [0.5], c),
    }

    @pytest.mark.parametrize("name", list(GUARDED))
    def test_budget_guard(self, monkeypatch, name):
        # one block would peak at 2.2 x 8192 x 12000 = 2.16e8 values, over the 2e8 limit
        calls = refuse_draws(monkeypatch)
        cfg = SimConfig(steps=12000, n_paths=BLOCK, seed=0)
        with pytest.raises(ValidationError, match="a block of 2.16e"):
            self.GUARDED[name](cfg)
        assert calls == []

    def test_guard_does_not_depend_on_threads(self, monkeypatch):
        calls = refuse_draws(monkeypatch)
        messages = []
        for threads in (1, 8):
            cfg = SimConfig(steps=12000, n_paths=BLOCK, seed=0, threads=threads)
            with pytest.raises(ValidationError) as err:
                mc_delta_malliavin(SKEW, FLAT, CALL, "asian", 0.5, cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert calls == []
        # 8 blocks of 2.2 x 8192 x 2000 = 3.6e7 values each: under the limit per
        # block, over it for 8 blocks at once; the run reaches its draws
        for threads in (1, 8):
            cfg = SimConfig(steps=2000, n_paths=8 * BLOCK, seed=0, threads=threads)
            with pytest.raises(RuntimeError, match="drawn"):
                mc_delta_malliavin(SKEW, FLAT, CALL, "asian", 0.5, cfg)

    def test_guard_passes_a_small_block(self):
        # 2.2 x 100 x 12000 = 2.6e6 values: the step count alone is no reason to refuse
        cfg = SimConfig(steps=12000, n_paths=100, seed=0)
        est = mc_delta_malliavin(SKEW, FLAT, CALL, "asian", 0.5, cfg)
        assert math.isfinite(est.mean) and est.n_paths == 100

    @pytest.mark.parametrize("style", ["asian", "european"])
    def test_one_coefficient_call_per_step(self, monkeypatch, style):
        calls = []
        for name in ("sigma", "dcoef_dx", "dcoef_dxx"):
            method = getattr(SKEW, name)
            monkeypatch.setattr(SKEW, name, lambda *a, m=method: calls.append(a) or m(*a))
        mc_delta_malliavin(SKEW, DRIFTY, CALL, style, 0.5, SimConfig(steps=17, n_paths=500, seed=3))
        assert len(calls) == 17

    @pytest.mark.parametrize("surface", [SKEW, TABLE], ids=["skew", "table"])
    @pytest.mark.parametrize("style", ["asian", "european"])
    def test_streamed_weights_match_the_suffix_integral_formulas(self, surface, style):
        cfg = SimConfig(steps=24, n_paths=3000, seed=19)
        weights = montecarlo._asian_weights if style == "asian" else montecarlo._european_weights
        x, w, flagged, exploded = weights(surface, DRIFTY, 0.4, cfg, 0, cfg.n_paths)
        b = simulate(surface, DRIFTY, 0.4, cfg)
        assert not flagged.any() and not exploded.any()
        want_x = b.averages["S"] if style == "asian" else b.processes["S"][:, -1]
        assert x.tobytes() == want_x.tobytes()
        ref = history_weights(surface, DRIFTY, 0.4, b, style)
        np.testing.assert_allclose(w, ref, rtol=1e-12, atol=1e-12)

    def test_geometric_style_rejected(self):
        with pytest.raises(ValidationError, match="geometric"):
            mc_delta_malliavin(SKEW, FLAT, CALL, "geometric", 0.5, SimConfig(10, 10, 0))

    def test_reproducible_across_threads(self):
        base = mc_delta_malliavin(SKEW, DRIFTY, CALL, "asian", 0.5, SimConfig(40, 25000, 3))
        par = mc_delta_malliavin(
            SKEW, DRIFTY, CALL, "asian", 0.5, SimConfig(40, 25000, 3, threads=4)
        )
        assert base.mean == par.mean
        assert base.diagnostics == par.diagnostics


# ---------------------------------------------------------------------------
# memory per block
# ---------------------------------------------------------------------------

class TestBlockMemory:
    """Traced peak of one 8192 x 200 block on the c06/c10 skew, in units of
    one (B, steps) float array; the estimators run one block per thread."""

    PARAMS = MarketParams(S0=100.0, r=0.03, q=0.01)
    CFG = SimConfig(steps=200, n_paths=BLOCK, seed=8)

    RUNS = {
        "price": (lambda p, c: mc_price(SKEW, p, CALL, "asian", 0.25, c), 2.1),
        "price-cv": (lambda p, c: mc_asian_price_cv(SKEW, p, CALL, 0.25, c), 2.1),
        "delta-fd": (lambda p, c: mc_delta_fd(SKEW, p, CALL, "asian", 0.25, c), 3.1),
        "malliavin-asian": (
            lambda p, c: mc_delta_malliavin(SKEW, p, CALL, "asian", 0.25, c), 2.2),
        "malliavin-european": (
            lambda p, c: mc_delta_malliavin(SKEW, p, CALL, "european", 0.25, c), 2.2),
        "pair-curve": (
            lambda p, c: lp_distance_curve(SKEW, p, ("Y", "Yt"), 2.0, [0.25], c), 2.1),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_traced_peak(self, name, cold_store):
        run, limit = self.RUNS[name]
        tracemalloc.start()
        try:
            run(self.PARAMS, self.CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = peak / (8 * BLOCK * self.CFG.steps)
        assert arrays <= limit, f"{name}: peak of {arrays:.2f} (B, steps) arrays"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_simulate_peaks_near_what_its_guard_counts(self, threads):
        # the whole-run histories and increments the guard counts, plus one
        # 8192 x 100 draw per working thread, 3.5% of the count each, and the
        # two blocks that KEEP_BYTES holds at 100 steps, 7% together
        cfg = SimConfig(steps=100, n_paths=3 * BLOCK, seed=4, threads=threads)
        counted = cfg.n_paths * ((cfg.steps + 1) * len(PROCESS_NAMES) + cfg.steps)
        tracemalloc.start()
        try:
            simulate(SKEW, self.PARAMS, 0.25, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ratio = peak / (8 * counted)
        assert ratio <= 1.25, f"threads {threads}: peak of {ratio:.2f} x the counted values"

    def test_a_cold_draw_holds_one_array(self, cold_store):
        # the conversion runs CHUNK words at a time into the output, so the
        # draw adds a few chunks (1/25 of an array each here) to that array
        tracemalloc.start()
        try:
            _rng._draw(8, 200, 0, BLOCK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = peak / (8 * BLOCK * 200)
        assert arrays <= 1.2, f"a cold draw peaks at {arrays:.2f} (B, steps) arrays"

    @pytest.mark.parametrize("name", ["price", "delta-fd"])
    def test_a_kept_block_costs_one_array(self, name, cold_store):
        # a full block at 200 steps fits KEEP_BYTES, so one copy is kept: the
        # bound is the draw's one array plus that copy, with a slack of 20
        # per-path vectors, each 1/200 of an array; a re-run is served from
        # the copy and keeps nothing more
        run, _ = self.RUNS[name]
        for bound in (2 + 20 / 200, 1 + 20 / 200):
            tracemalloc.start()
            try:
                run(self.PARAMS, self.CFG)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert _rng._stream == (self.CFG.seed, 200) and set(_rng._kept) == {(0, BLOCK)}
            arrays = peak / (8 * BLOCK * self.CFG.steps)
            assert arrays <= bound, f"{name}: peak of {arrays:.2f} (B, steps) arrays"


# ---------------------------------------------------------------------------
# the block reducer
# ---------------------------------------------------------------------------

def column_blocks(data, keep, excluded=lambda lo, hi: 0):
    """A block_fn over synthetic columns: the kept paths of each block,
    which also flags one path per block."""
    return lambda lo, hi: ([row[lo:hi][keep[lo:hi]] for row in data], excluded(lo, hi), 1)


class TestReduce:
    def test_matches_numpy_two_pass_moments(self):
        # four blocks; the kept paths are ragged and the second block keeps none
        n_paths = 3 * BLOCK + 123
        rng = np.random.default_rng(5)
        cov = [[4.0, -1.5], [-1.5, 1.0]]
        data = np.array([1e6, -3e5]) + rng.multivariate_normal([0, 0], cov, n_paths)
        data = np.ascontiguousarray(data.T)
        keep = rng.random(n_paths) < 0.7
        keep[BLOCK:2 * BLOCK] = False
        n, means, got, excluded, flagged = _reduce(
            column_blocks(data, keep), SimConfig(2, n_paths, 0, threads=2)
        )
        assert (n, excluded, flagged) == (int(keep.sum()), 0, 4)
        np.testing.assert_allclose(means, data[:, keep].mean(axis=1), rtol=1e-14)
        # the raw-moment formula loses ~1e-4 of this covariance to cancellation
        np.testing.assert_allclose(got, np.cov(data[:, keep], bias=True), rtol=1e-9)

    def test_means_are_compensated_sums_of_block_sums(self):
        n_paths = 2 * BLOCK + 123
        data = np.random.default_rng(6).standard_normal((1, n_paths))
        keep = np.ones(n_paths, dtype=bool)
        _, means, _, _, _ = _reduce(column_blocks(data, keep), SimConfig(2, n_paths, 0))
        blocks = (data[0, lo:lo + BLOCK] for lo in range(0, n_paths, BLOCK))
        assert means[0] == math.fsum(float(np.add.reduce(b)) for b in blocks) / n_paths

    @pytest.mark.parametrize("n_exc, raises", [(3, False), (4, True)])
    def test_explosion_guard_at_one_in_a_thousand(self, n_exc, raises):
        n_paths = 3000 + n_exc
        data = np.ones((1, n_paths))
        keep = np.arange(n_paths) >= n_exc
        fn = column_blocks(data, keep, excluded=lambda lo, hi: n_exc if lo == 0 else 0)
        if raises:
            with pytest.raises(NumericError, match="4 of 3004 paths exploded"):
                _reduce(fn, SimConfig(2, n_paths, 0))
        else:
            n, means, cov, excluded, _ = _reduce(fn, SimConfig(2, n_paths, 0))
            assert (n, means, cov.tolist(), excluded) == (3000, [1.0], [[0.0]], 3)

    def test_no_valid_path_trips_the_guard(self):
        fn = column_blocks(np.ones((1, 5)), np.zeros(5, dtype=bool), excluded=lambda lo, hi: 5)
        with pytest.raises(NumericError, match="5 of 5 paths exploded"):
            _reduce(fn, SimConfig(2, 5, 0))


# ---------------------------------------------------------------------------
# estimate container
# ---------------------------------------------------------------------------

class TestMcEstimate:
    def test_fields(self):
        est = mc_price(SKEW, FLAT, CALL, "asian", 0.25, SimConfig(20, BLOCK + 17, 1))
        assert isinstance(est, McEstimate)
        assert est.n_paths == BLOCK + 17
        assert est.std_error > 0
        assert est.estimator == "mc-price-asian"
        assert est.diagnostics["excluded"] == 0
