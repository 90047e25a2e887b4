"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
from typing import Sequence

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer make the value a near-maximum, which repeats poorly.
MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated q-th percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def beyond(n: int, q: float) -> int:
    """Samples of an n-sample run that lie strictly above rank q percent."""
    return n - math.ceil(n * q / 100.0)


def tail_percentile(n: int, preferred: float) -> float:
    """The preferred tail percentile, lowered until MIN_BEYOND samples lie beyond it.

    Each workload fixes its preferred percentile from its usual op count,
    so the reported percentile does not flip between runs whose op counts
    differ slightly; a run with too few ops falls back to a lower one.
    """
    for q in TAIL_CANDIDATES:
        if q <= preferred and beyond(n, q) >= MIN_BEYOND:
            return q
    return 50.0

