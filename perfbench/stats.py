"""Order statistics shared by the benchmark runner, the worker and the spread check."""

from __future__ import annotations

import statistics

# A tail percentile needs this many samples strictly beyond it to mean anything.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the tail of `values`.

    The tail is the highest percentile that still has TAIL_BEYOND samples
    beyond it: the sample at sorted rank n - TAIL_BEYOND - 1. With fewer than
    2 * TAIL_BEYOND samples that percentile would sit below the median, so the
    maximum is reported instead, as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 2 * TAIL_BEYOND:
        return float(xs[-1]), 100.0, n
    return float(xs[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n, n


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
