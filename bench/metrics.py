"""Order statistics shared by the runner, the compare mode and the tests."""

from __future__ import annotations

import math
import statistics

# Candidate percentiles for the tail metric, in increasing order.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
MIN_BEYOND = 10


def rank_of(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n sorted values."""
    return max(1, math.ceil(round(p * n, 9) / 100.0))


def tail_percentile(n_ops: int) -> float | None:
    """Highest grid percentile that leaves at least MIN_BEYOND of n_ops above it."""
    best = None
    for p in TAIL_GRID:
        if n_ops - rank_of(p, n_ops) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    s = sorted(values)
    return s[rank_of(p, len(s)) - 1]


def summary(values) -> dict:
    """Median and quartiles as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else math.inf
