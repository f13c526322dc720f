"""Per-host list-based MMT detectors: the oracle of the batched ones.

These are the historical scalar formulas of
:mod:`repro.baselines.mmt.detection`, one host's history (a list, oldest
first) at a time.  :class:`ScalarDetector` evaluates them with a batched
detector's parameters; :class:`ShadowDetector` serves a whole ``(W, M)``
history matrix column by column through them, so a scheduler can run on
the oracle in place of its batched detector.  Sums run left to right
(:func:`~tests.oracles.boltzmann.left_to_right_sum`), not through the
builtin float ``sum``, which Python 3.12 compensates.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from tests.oracles.boltzmann import left_to_right_sum
from tests.oracles.robust_stats import (
    interquartile_range,
    median_absolute_deviation,
)


def _least_squares_fit(ys: Sequence[float]) -> Tuple[float, float]:
    """Fit ``y = a + b x`` over ``x = 0..len-1``; returns ``(a, b)``."""
    n = len(ys)
    xs = range(n)
    mean_x = (n - 1) / 2.0
    mean_y = left_to_right_sum(ys) / n
    den = left_to_right_sum([(x - mean_x) ** 2 for x in xs])
    if den <= 0.0:
        return (mean_y, 0.0)
    num = left_to_right_sum(
        [(x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)]
    )
    slope = num / den
    return (mean_y - slope * mean_x, slope)


def _weighted_fit(
    ys: Sequence[float], weights: Sequence[float]
) -> Tuple[float, float]:
    """Weighted least squares ``y = a + b x`` over ``x = 0..len-1``."""
    total = left_to_right_sum(weights)
    if total <= 0.0:
        return _least_squares_fit(ys)
    xs = range(len(ys))
    mean_x = left_to_right_sum([w * x for w, x in zip(weights, xs)]) / total
    mean_y = left_to_right_sum([w * y for w, y in zip(weights, ys)]) / total
    den = left_to_right_sum(
        [w * (x - mean_x) ** 2 for w, x in zip(weights, xs)]
    )
    if den <= 0.0:
        return (mean_y, 0.0)
    num = left_to_right_sum(
        [w * (x - mean_x) * (y - mean_y) for w, x, y in zip(weights, xs, ys)]
    )
    slope = num / den
    return (mean_y - slope * mean_x, slope)


def _median_abs(values: Sequence[float]) -> float:
    ordered = sorted(abs(v) for v in values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _bisquare(u: float) -> float:
    if abs(u) >= 1.0:
        return 0.0
    return (1.0 - u * u) ** 2


class ScalarDetector:
    """One host at a time, with the parameters of a batched ``detector``."""

    def __init__(self, detector) -> None:
        self.detector = detector
        self.name = detector.name

    def threshold(self, history: Sequence[float]) -> float:
        d = self.detector
        if self.name == "THR":
            return d.utilization_threshold
        if self.name in ("LR", "LRR"):
            return d.fallback_threshold
        if len(history) < 3:
            return d.fallback_threshold
        dispersion = (
            interquartile_range(history)
            if self.name == "IQR"
            else median_absolute_deviation(history)
        )
        value = 1.0 - d.safety * dispersion
        return max(d.MIN_THRESHOLD, min(d.max_threshold, value))

    def predict_next(self, history: Sequence[float]) -> float:
        """LR / LRR extrapolation of the next sample."""
        intercept, slope = _least_squares_fit(history)
        if self.name == "LRR":
            for _ in range(self.detector.iterations):
                residuals = [
                    y - (intercept + slope * x)
                    for x, y in enumerate(history)
                ]
                scale = 6.0 * _median_abs(residuals)
                if scale <= 0.0:
                    break
                weights = [_bisquare(r / scale) for r in residuals]
                intercept, slope = _weighted_fit(history, weights)
        return intercept + slope * len(history)

    def is_overloaded(self, history: Sequence[float]) -> bool:
        d = self.detector
        if not history:
            return False
        if self.name in ("LR", "LRR"):
            if len(history) < d.min_history:
                return history[-1] > d.fallback_threshold
            return (
                d.safety * self.predict_next(history)
                >= d.trigger_utilization
            )
        return history[-1] > self.threshold(history)


class ShadowDetector:
    """A batched detector's interface, answered by the scalar oracle."""

    def __init__(self, detector) -> None:
        self.scalar = ScalarDetector(detector)
        self.name = detector.name

    def _columns(self, history: np.ndarray):
        return [column.tolist() for column in np.asarray(history).T]

    def is_overloaded(self, history: np.ndarray) -> np.ndarray:
        return np.array(
            [self.scalar.is_overloaded(c) for c in self._columns(history)],
            dtype=bool,
        )

    def threshold(self, history: np.ndarray) -> np.ndarray:
        return np.array(
            [self.scalar.threshold(c) for c in self._columns(history)],
            dtype=np.float64,
        )
