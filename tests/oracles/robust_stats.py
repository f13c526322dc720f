"""List-based robust statistics: the IQR and MAD of the MMT detector
oracle (:mod:`tests.oracles.mmt_detection`).

The batched detectors in :mod:`repro.baselines.mmt.detection` compute
the same quantities over whole ``(W, M)`` history matrices; these are
the per-host formulas they are checked against.
"""

from __future__ import annotations

from typing import Sequence


def median(values: Sequence[float]) -> float:
    """Median; 0 for an empty sequence."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def interquartile_range(values: Sequence[float]) -> float:
    """IQR via the inclusive quartile method; 0 for fewer than 2 samples."""
    if len(values) < 2:
        return 0.0
    ordered = sorted(values)
    return _quantile(ordered, 0.75) - _quantile(ordered, 0.25)


def median_absolute_deviation(values: Sequence[float]) -> float:
    """MAD about the median; 0 for an empty sequence."""
    if not values:
        return 0.0
    center = median(values)
    return median([abs(v - center) for v in values])


def _quantile(ordered: Sequence[float], q: float) -> float:
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac
