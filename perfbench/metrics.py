"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math


def tail(values):
    """Latency at the highest percentile with at least ten samples beyond it.

    With n sorted samples that is the (n-10)-th smallest, i.e. the
    100*(n-10)/n percentile.  Returns (value, percentile, n); fewer than
    eleven samples have no such percentile and raise ValueError.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        raise ValueError(f"a tail with ten samples beyond it needs n >= 11, got {n}")
    return xs[n - 11], 100.0 * (n - 10) / n, n


def geomean(values) -> float:
    """Geometric mean of positive values."""
    xs = list(values)
    if not xs or min(xs) <= 0.0:
        raise ValueError("geometric mean needs a nonempty list of positive values")
    return math.exp(math.fsum(math.log(x) for x in xs) / len(xs))

