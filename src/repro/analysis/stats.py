"""Summary statistics for experiment results."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (p in [0, 100])."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    # The a + (b-a)*t form is monotone in floating point, so the result
    # never escapes [min, max] (the naive lerp can, by an ulp).
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one flow hogs.

    Used by the congestion-control experiments to check that ECN-reactive
    senders converge to similar shares of the bottleneck.
    """
    if not values:
        raise ValueError("fairness of an empty allocation")
    if any(v < 0 for v in values):
        raise ValueError("allocations must be non-negative")
    total = sum(values)
    if total == 0:
        return 1.0
    squares = sum(v * v for v in values)
    return total * total / (len(values) * squares)

