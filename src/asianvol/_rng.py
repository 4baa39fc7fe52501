"""Counter-based Gaussian draws addressed by (seed, path, step).

Every Brownian increment used by the simulation engine is a deterministic
function of (seed, path index, step index): word number
``path * n_steps + step`` of the Philox-4x64 stream keyed by ``seed`` is
mapped to a uniform in (0, 1) and then through the normal quantile.  That
makes results independent of path batching and of how many worker threads
happen to consume the blocks, and lets common-random-number estimators
re-draw the exact same increments for a bumped re-simulation.

Such re-draws are served from memory: the blocks last drawn for one stream,
a (seed, n_steps) pair, are kept while they total at most KEEP_BYTES, and a
request for another stream drops them.  A kept block is a pure function of
its address, so a re-draw is bit for bit the draw it replaces.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

# paths per generation block used by the simulation drivers; block
# boundaries are part of no contract (any partition gives the same draws)
BLOCK = 8192
# bytes of normals kept for re-draws: one full block at 64 steps, so no
# full block of 65 steps or more is ever kept
KEEP_BYTES = BLOCK * 64 * 8

_lock = threading.Lock()  # the block workers of montecarlo draw concurrently
_stream = None  # the (seed, n_steps) whose blocks are kept
_kept = {}  # (lo, hi) -> read-only normals of that stream


def _draw(seed: int, n_steps: int, lo: int, hi: int) -> np.ndarray:
    w0 = lo * n_steps
    nwords = (hi - lo) * n_steps
    bg = Philox(key=seed)
    # advance() skips whole 4-word counter blocks; generate and drop the
    # remainder when the first word is not block-aligned
    q, r = divmod(w0, 4)
    bg.advance(q)
    raw = Generator(bg).integers(
        0, 2**64, size=r + nwords, dtype=np.uint64, endpoint=False
    )[r:]
    # (2k + 1) 2^-54 with k the top 53 bits, i.e. k 2^-53 + 2^-54 rounded
    # the same way; shifted in place, converted signed into a fresh array
    raw >>= np.uint64(10)
    raw |= np.uint64(1)
    u = raw.view(np.int64) * 2.0**-54
    # k = 2^53 - 1 rounds to 1.0; hold it at the largest double below 1
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return ndtri(u, out=u).reshape(hi - lo, n_steps)


def normal_block(seed: int, n_steps: int, lo: int, hi: int) -> np.ndarray:
    """Standard normals for paths [lo, hi), shape (hi - lo, n_steps), in a new array.

    A block kept from an earlier draw of the same (seed, n_steps) comes back
    as a copy; otherwise the block is drawn, and a copy is kept if the kept
    bytes stay within KEEP_BYTES and the stream is still the current one.
    """
    global _stream, _kept
    if hi <= lo or lo < 0:
        raise ValueError(f"bad path range [{lo}, {hi})")
    stream = (seed, n_steps)
    with _lock:
        if stream != _stream:
            _stream, _kept = stream, {}
        kept = _kept.get((lo, hi))
    if kept is not None:
        return kept.copy()
    z = _draw(seed, n_steps, lo, hi)
    with _lock:
        if stream == _stream and (lo, hi) not in _kept and (
            z.nbytes + sum(a.nbytes for a in _kept.values()) <= KEEP_BYTES
        ):
            kept = _kept[(lo, hi)] = z.copy()
            kept.flags.writeable = False
    return z
