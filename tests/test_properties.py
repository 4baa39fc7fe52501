"""Property tests (hypothesis) for invariants of the engine, the quotes and
the config round trips."""

import itertools
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from asianvol import _rng
from asianvol._rng import BLOCK, normal_block
from asianvol.approxlab import lp_distance_curve
from asianvol.errors import DomainError
from asianvol.asymptotics import asian_vol, asym_delta, asym_price, european_vol
from asianvol.model import (
    _PAYOFFS,
    _SURFACES,
    CappedPowerVol,
    ConstantVol,
    MarketParams,
    PayoffSpec,
    TabulatedVol,
    TimeScaledVol,
    payoff_from_config,
    surface_from_config,
)
from asianvol.montecarlo import SimConfig, _reduce, mc_delta_fd, mc_delta_malliavin


@settings(max_examples=30, deadline=None)
@given(
    n_paths=st.integers(1, 3 * BLOCK + 500),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    loc=st.floats(-1e6, 1e6),
    scale=st.floats(1e-3, 1e3),
    const=st.floats(-1e6, 1e6),
    keep_frac=st.floats(0.0, 1.0),
)
def test_reduce_is_thread_invariant_and_exact_without_spread(
    n_paths, k, seed, loc, scale, const, keep_frac
):
    rng = np.random.default_rng(seed)
    data = loc + scale * rng.standard_normal((k, n_paths))
    data[-1] = const  # the last column has no spread
    keep = rng.random(n_paths) < keep_frac
    keep[0] = True

    def block_fn(lo, hi):
        return [row[lo:hi][keep[lo:hi]] for row in data], 0, 0

    runs = [_reduce(block_fn, SimConfig(2, n_paths, 0, threads=t)) for t in (1, 2, 4)]
    for n, means, cov, _, _ in runs:
        assert n == runs[0][0] == int(keep.sum())
        assert np.array(means).tobytes() == np.array(runs[0][1]).tobytes()
        assert cov.tobytes() == runs[0][2].tobytes()
    cov = runs[0][2]
    assert (cov[-1] == 0.0).all() and (cov[:, -1] == 0.0).all()
    assert (np.diag(cov) >= 0.0).all()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 400),
    n_steps=st.integers(1, 13),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_normal_block_is_partition_invariant(n, n_steps, seed, data):
    """Any ragged partition of the paths [0, n) draws the same normals, byte
    for byte, for every n_steps (so every word offset modulo Philox's 4-word
    counter block): the kernel's thread-count invariance rests on this."""
    cuts = data.draw(st.lists(st.integers(1, n - 1), unique=True, max_size=6)) if n > 1 else []
    edges = [0, *sorted(cuts), n]
    whole = normal_block(seed, n_steps, 0, n)
    parts = [normal_block(seed, n_steps, lo, hi) for lo, hi in zip(edges, edges[1:])]
    assert whole.shape == (n, n_steps) and np.isfinite(whole).all()
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@settings(max_examples=12, deadline=None)
@given(
    steps=st.integers(2, 80),
    n_paths=st.integers(1, BLOCK + 600),
    seed=st.integers(0, 2**64 - 2),
    threads=st.sampled_from([1, 2]),
    pair=st.sampled_from([("S", "X"), ("X", "Xt"), ("Y", "Yt")]),
)
def test_estimates_do_not_depend_on_the_kept_blocks(steps, n_paths, seed, threads, pair):
    """Estimates are the same bytes with nothing kept, with the blocks of
    their own stream kept, and with another stream's blocks kept."""
    skew = CappedPowerVol(sref=0.2, xref=100.0, exponent=0.3, floor=0.05, cap=1.0)
    params = MarketParams(S0=100.0, r=0.03, q=0.01)
    call = PayoffSpec("call", strike=100.0)
    cfg = SimConfig(steps=steps, n_paths=n_paths, seed=seed, threads=threads)

    def curve():
        c = lp_distance_curve(skew, params, pair, 2.0, [0.01, 0.05, 0.2], cfg)
        return c.moments.tolist(), c.std_errors.tolist()

    for run in (
        lambda: mc_delta_fd(skew, params, call, "asian", 0.1, cfg),
        lambda: mc_delta_malliavin(skew, params, call, "asian", 0.1, cfg),
        curve,
    ):
        _rng._stream, _rng._kept = None, {}
        cold = repr(run())
        assert _rng._stream == (seed, steps)
        warm = repr(run())  # the cold run left its own stream's blocks kept
        normal_block(seed + 1, steps, 0, min(n_paths, BLOCK))
        other = repr(run())
        assert cold == warm == other


@settings(max_examples=100, deadline=None)
@given(sigma=st.floats(1e-3, 5.0), S0=st.floats(1e-2, 1e4), T=st.floats(1e-4, 10.0))
def test_constant_vol_asian_to_european_ratio_is_one_over_sqrt3(sigma, S0, T):
    """For a flat surface sigma_A^2 = sigma^2 Int_0^T (T-t)^2 dt / T^3 = sigma^2 / 3
    at every (S0, T), while sigma_E = sigma."""
    surface = ConstantVol(sigma)
    ratio = asian_vol(surface, S0, T) / european_vol(surface, S0, T)
    assert abs(ratio * math.sqrt(3.0) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# config round trips, one strategy per family
# ---------------------------------------------------------------------------

finite = st.floats(-1e6, 1e6)
positive = st.floats(1e-3, 1e4)


def increasing(lo, hi, min_size=2, max_size=5):
    return st.lists(st.floats(lo, hi), min_size=min_size, max_size=max_size,
                    unique=True).map(sorted)


PAYOFF_STRATEGIES = {
    "call": st.builds(lambda k: PayoffSpec("call", strike=k), positive),
    "put": st.builds(lambda k: PayoffSpec("put", strike=k), positive),
    "power-call": st.builds(
        lambda k, e: PayoffSpec("power-call", strike=k, exponent=e),
        positive, st.floats(1e-3, 1.0),
    ),
    "capped-power": st.builds(
        lambda k, e, d: PayoffSpec("capped-power", strike=k, exponent=e, cap_width=d),
        positive, st.floats(0.0, 0.999), positive,
    ),
    "linear": st.builds(lambda a, b: PayoffSpec("linear", slope=a, intercept=b), finite, finite),
    "constant": st.builds(lambda v: PayoffSpec("constant", level=v), finite),
    "user-table": increasing(0.0, 1e3).flatmap(
        lambda xs: st.lists(finite, min_size=len(xs), max_size=len(xs)).map(
            lambda ys: PayoffSpec("user-table", table_x=tuple(xs), table_y=tuple(ys))
        )
    ),
}


def _tabulated(ts, xs, data):
    values = data.draw(st.lists(st.lists(st.floats(1e-3, 5.0), min_size=len(xs),
                                         max_size=len(xs)),
                                min_size=len(ts), max_size=len(ts)))
    return TabulatedVol(ts, xs, values)


SURFACE_STRATEGIES = {
    "constant": st.builds(ConstantVol, st.floats(0.0, 5.0)),
    "time-scaled": st.builds(TimeScaledVol, finite, finite, finite),
    "capped-power": st.builds(
        lambda sref, xref, b, lo_hi: CappedPowerVol(sref, xref, b, *lo_hi),
        positive, positive, st.floats(-3.0, 3.0),
        st.lists(st.floats(0.0, 5.0), min_size=2, max_size=2).map(sorted),
    ),
    "tabulated-grid": st.builds(
        _tabulated, increasing(0.0, 10.0), increasing(1e-3, 1e3), st.data()
    ),
}


def test_strategies_cover_every_family():
    assert set(PAYOFF_STRATEGIES) == set(_PAYOFFS)
    assert set(SURFACE_STRATEGIES) == set(_SURFACES)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PAYOFF_STRATEGIES)).flatmap(PAYOFF_STRATEGIES.get))
def test_payoff_config_round_trip(payoff):
    cfg = payoff.to_config()
    assert yaml.safe_load(yaml.safe_dump(cfg)) == cfg  # plain YAML types only
    back = payoff_from_config(cfg)
    assert back == payoff
    assert repr(back.to_config()) == repr(cfg)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SURFACE_STRATEGIES)).flatmap(SURFACE_STRATEGIES.get))
def test_surface_config_round_trip(surface):
    cfg = surface.to_config()
    assert yaml.safe_load(yaml.safe_dump(cfg)) == cfg  # plain YAML types only
    back = surface_from_config(cfg)
    assert type(back) is type(surface)
    assert repr(back.to_config()) == repr(cfg)


# ---------------------------------------------------------------------------
# the fused coefficient call
# ---------------------------------------------------------------------------

def _x_strategy(surface):
    if isinstance(surface, TabulatedVol):
        # no extrapolation in x: the whole grid, both edges included
        return st.floats(surface.xs[0], surface.xs[-1])
    return st.floats(1e-3, 1e4)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SURFACE_STRATEGIES)).flatmap(SURFACE_STRATEGIES.get), st.data())
def test_fused_call_equals_the_separate_calls(surface, data):
    """sigma(t, x, order) gives sigma, dcoef_dx and dcoef_dxx bit for bit, for
    scalar and array (t, x) of the shapes the engine uses, in arrays that share
    no memory with each other or the inputs; every entry point checks the
    domain the same way."""
    xs, ts = _x_strategy(surface), st.floats(0.0, 10.0)
    B, steps = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))

    def arr(elements, *shape):
        n = math.prod(shape)
        return np.array(data.draw(st.lists(elements, min_size=n, max_size=n))).reshape(shape)

    t0, x0 = data.draw(ts), data.draw(xs)
    cases = [(t0, x0), (t0, arr(xs, B)), (arr(ts, steps), x0), (arr(ts, steps), arr(xs, B, steps))]
    for t, x in cases:
        separate = [surface.sigma(t, x), surface.dcoef_dx(t, x), surface.dcoef_dxx(t, x)]
        for order in (1, 2):
            fused = surface.sigma(t, x, order)
            assert len(fused) == order + 1
            for f, s in zip(fused, separate):
                assert type(f) is type(s)
                assert np.asarray(f).tobytes() == np.asarray(s).tobytes()
            arrays = [v for v in (*fused, t, x) if isinstance(v, np.ndarray)]
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))

    methods = (surface.sigma, surface.dcoef_dx, surface.dcoef_dxx,
               lambda t, x: surface.sigma(t, x, 1), lambda t, x: surface.sigma(t, x, 2))
    for fn in methods:
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            for x in (bad, np.array([x0, bad])):
                with pytest.raises(DomainError):
                    fn(t0, x)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                fn(bad, x0)
        with pytest.raises(DomainError):
            fn(-1.0, np.array([]))


# ---------------------------------------------------------------------------
# put-call parity of the asymptotic quotes
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    S0=st.floats(50.0, 200.0),
    moneyness=st.floats(0.7, 1.3),
    vol=st.floats(0.05, 1.0),
    T=st.floats(1e-3, 2.0),
    force_quadrature=st.booleans(),
)
def test_put_call_parity_of_quotes(S0, moneyness, vol, T, force_quadrature):
    """E[(X-K)+] - E[(K-X)+] = E[X] - K = S0 - K for X = S0 + s Z, and the
    deltas differ by d(S0 - K)/dS0 = 1, closed form and quadrature alike."""
    K = S0 * moneyness
    call, put = PayoffSpec("call", strike=K), PayoffSpec("put", strike=K)
    quotes = {}
    for fn in (asym_price, asym_delta):
        c = fn(call, S0, vol, T, force_quadrature=force_quadrature)
        p = fn(put, S0, vol, T, force_quadrature=force_quadrature)
        assert (c.quadrature.method == "closed-form") is not force_quadrature
        quotes[fn] = c.value - p.value
    tol = 1e-7 if force_quadrature else 1e-12
    assert abs(quotes[asym_price] - (S0 - K)) <= tol * S0
    assert abs(quotes[asym_delta] - 1.0) <= tol
