"""Order statistics for benchmark reports.

A timing is reported as its median and its 90th percentile together
with the sample count.  A percentile is *resolved* only when at least
:data:`MIN_TAIL` samples lie beyond it, so a p90 needs 100 samples; the
report still prints an unresolved p90 but flags it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

#: Samples that must lie beyond a percentile before it counts as resolved.
MIN_TAIL = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_count(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-quantile rank."""
    return n - 1 - math.floor(q * (n - 1)) if n else 0


def resolved(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_TAIL` beyond ``q``."""
    return tail_count(n, q) >= MIN_TAIL


def timing(samples: Sequence[float]) -> Dict[str, float]:
    """Median, p90, sample count and whether the p90 is resolved."""
    return {
        "p50": percentile(samples, 0.5),
        "p90": percentile(samples, 0.9),
        "n": len(samples),
        "p90_resolved": resolved(len(samples), 0.9),
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0

