"""Property tests (hypothesis) for invariants of the Monte Carlo engine."""

import numpy as np
from hypothesis import given, settings, strategies as st

from asianvol._rng import BLOCK
from asianvol.montecarlo import SimConfig, _reduce


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
