"""Summary statistics used by the benchmark and its spread check."""

from __future__ import annotations

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(values, p: float) -> tuple[int, float]:
    """1-based nearest rank of percentile `p` and the value at it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return rank, ordered[rank - 1]


def tail(values) -> tuple[str, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns its label ("p90") and value. With fewer than 20 samples no
    percentile qualifies and the median is returned as "p50".
    """
    values = list(values)
    if not values:
        raise ValueError("tail of no samples")
    label, value = "p50", statistics.median(values)
    for p in LADDER[1:]:
        rank, v = nearest_rank(values, p)
        if len(values) - rank < MIN_BEYOND:
            break
        label, value = f"p{p:g}", v
    return label, value


def median_or_zero(values) -> float:
    """Median, or 0.0 for a quantity the workload never exercises."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
