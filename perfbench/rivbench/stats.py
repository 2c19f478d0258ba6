"""Summary statistics shared by every workload.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it, always with the sample count, so a
p99 read off 200 samples is never passed off as a tail estimate.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _hundredths(q: float) -> int:
    return round(q * 100)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an already sorted sequence.

    The rank is computed in integer hundredths of a percent, so that
    exactly ``n * (1 - q/100)`` samples lie beyond it with no float drift.
    """
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-_hundredths(q) * len(sorted_values) // 10_000))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ``MIN_BEYOND`` samples above it.

    ``None`` when even the median lacks ten samples beyond it (n < 20).
    """
    for q in TAIL_PERCENTILES:
        if n * (10_000 - _hundredths(q)) >= MIN_BEYOND * 10_000:
            return q
    return None


def summarize(values: Sequence[float]) -> dict:
    """``{"n", "p50", "tail_q", "tail"}`` of a sample (tail may be None)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "p50": None, "tail_q": None, "tail": None}
    q = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(ordered, 50.0),
        "tail_q": q,
        "tail": percentile(ordered, q) if q is not None else None,
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values)
