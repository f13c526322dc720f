"""Summary arithmetic of the benchmark: percentiles, ratios, interval cover.

Kept free of any ``repro`` import so the tests can check it on its own.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Tail percentiles tried, highest first; the first one the rule allows
#: is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, linear between closest ranks (NumPy's default)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def reportable(num_samples: int, q: float) -> bool:
    """Whether ``num_samples`` leave at least ten samples beyond the ``q``-th percentile."""
    # Rounded so that 1000 samples allow p99 despite 0.01 not being exact.
    beyond = round(num_samples * (100.0 - q) / 100.0, 9)
    return beyond >= MIN_SAMPLES_BEYOND


def tail_percentile(num_samples: int) -> float:
    """The highest percentile of :data:`TAIL_LADDER` the rule allows.

    Falls back to the median (50) when even p75 has too few samples
    beyond it.
    """
    for q in TAIL_LADDER:
        if reportable(num_samples, q):
            return q
    return 50.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 when nothing was attempted."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


def union_length(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped: List[Tuple[float, float]] = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    covered = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - union_length(children, start, end)
