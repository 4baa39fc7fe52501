"""Counter-based Gaussian draws addressed by (seed, path, step).

Every Brownian increment used by the simulation engine is a deterministic
function of (seed, path index, step index): word number
``path * n_steps + step`` of the Philox-4x64 stream keyed by ``seed`` is
mapped to a uniform in (0, 1) and then through the normal quantile.  That
makes results independent of path batching and of how many worker threads
happen to consume the blocks, and lets common-random-number estimators
re-draw the exact same increments for a bumped re-simulation.  A draw
converts CHUNK words at a time straight into its output array, so it holds
one (paths, n_steps) array and each pass stays in cache.

Re-draws are served from memory: the store keeps disjoint path ranges of
one stream, a (seed, n_steps) pair.  A request is assembled from the kept
pieces that cover it, and only its uncovered sub-ranges are drawn; those
are kept while the stream's pieces total at most KEEP_BYTES.  A request
for another stream drops every piece, and nothing is evicted within a
stream.  A piece is a pure function of its address, so an assembled block
is bit for bit a fresh draw, whatever the request order or thread count.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

# paths per generation block used by the simulation drivers; block
# boundaries are part of no contract (any partition gives the same draws)
BLOCK = 8192
# bytes of normals kept for re-draws: two full blocks at 100 steps, one at 200
KEEP_BYTES = BLOCK * 200 * 8
# Philox words per conversion pass: its words and normals, 1 MiB, fit in L2
CHUNK = 2**16

_lock = threading.Lock()  # the block workers of montecarlo draw concurrently
_stream = None  # the (seed, n_steps) whose pieces are kept
_kept = {}  # (lo, hi) -> read-only normals of paths [lo, hi) of that stream


def _draw(seed: int, n_steps: int, lo: int, hi: int) -> np.ndarray:
    out = np.empty((hi - lo) * n_steps)
    bg = Philox(key=seed)
    # advance() skips whole 4-word counter blocks; generate and drop the
    # remainder when the first word is not block-aligned
    q, r = divmod(lo * n_steps, 4)
    bg.advance(q)
    gen = Generator(bg)
    if r:
        gen.integers(0, 2**64, size=r, dtype=np.uint64, endpoint=False)
    for a in range(0, out.size, CHUNK):
        u = out[a:a + CHUNK]
        raw = gen.integers(0, 2**64, size=u.size, dtype=np.uint64, endpoint=False)
        # (2k + 1) 2^-54 with k the top 53 bits, i.e. k 2^-53 + 2^-54 rounded
        # the same way; shifted in place, converted signed into the output
        raw >>= np.uint64(10)
        raw |= np.uint64(1)
        np.multiply(raw.view(np.int64), 2.0**-54, out=u)
        # k = 2^53 - 1 rounds to 1.0; hold it at the largest double below 1
        np.minimum(u, 1.0 - 2.0**-53, out=u)
        ndtri(u, out=u)
    return out.reshape(hi - lo, n_steps)


def _keep(stream: tuple, lo: int, hi: int, z: np.ndarray, copy: bool) -> None:
    with _lock:
        if stream == _stream and all(hi <= a or b <= lo for a, b in _kept) and (
            z.nbytes + sum(k.nbytes for k in _kept.values()) <= KEEP_BYTES
        ):
            kept = _kept[(lo, hi)] = z.copy() if copy else z
            kept.flags.writeable = False


def normal_block(seed: int, n_steps: int, lo: int, hi: int) -> np.ndarray:
    """Standard normals for paths [lo, hi), shape (hi - lo, n_steps), in a new array.

    Paths kept from earlier draws of the same (seed, n_steps) are copied
    in and only the gaps between them are drawn.  A drawn gap is kept if
    the stream is still the current one, no piece kept meanwhile overlaps
    it, and the kept bytes stay within KEEP_BYTES.
    """
    global _stream, _kept
    if hi <= lo or lo < 0:
        raise ValueError(f"bad path range [{lo}, {hi})")
    stream = (seed, n_steps)
    with _lock:
        if stream != _stream:
            _stream, _kept = stream, {}
        pieces = sorted((r, z) for r, z in _kept.items() if r[0] < hi and r[1] > lo)
    if not pieces:
        out = _draw(seed, n_steps, lo, hi)
        _keep(stream, lo, hi, out, copy=True)
        return out
    out, at = np.empty((hi - lo, n_steps)), lo
    for (a, b), z in pieces + [((hi, hi), None)]:
        if at < a:
            gap = _draw(seed, n_steps, at, a)
            out[at - lo:a - lo] = gap
            _keep(stream, at, a, gap, copy=False)
        if z is not None:
            out[max(a, lo) - lo:min(b, hi) - lo] = z[max(lo - a, 0):min(b, hi) - a]
        at = b
    return out
