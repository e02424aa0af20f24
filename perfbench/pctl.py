"""Order statistics for timing samples."""

from __future__ import annotations

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of ``n``
    samples ranked above it (nearest rank), or None when even the median
    has fewer."""
    best = None
    for p in TAIL_LADDER:
        if n - math.ceil(n * p / 100.0) >= MIN_BEYOND:
            best = p
    return best


def summary(values) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    xs = sorted(values)
    out = {"median": statistics.median(xs), "n": len(xs)}
    p = tail_percentile(len(xs))
    if p is not None:
        out["tail_pct"] = p
        out["tail"] = xs[math.ceil(len(xs) * p / 100.0) - 1]
    return out
