"""Host-overload detection policies of the MMT family.

Each detector decides whether a host is (about to be) overloaded from its
recent utilization history:

* **THR** — fixed utilization threshold;
* **IQR** — adaptive threshold ``1 - s * IQR(history)``;
* **MAD** — adaptive threshold ``1 - s * MAD(history)``;
* **LR** — local (least-squares) regression extrapolates the next
  utilization; overload if ``safety * prediction >= 1``;
* **LRR** — the same with iteratively re-weighted (bisquare) robust
  regression.

Parameters follow Beloglazov & Buyya's defaults (IQR s=1.5, MAD s=2.5,
LR/LRR safety=1.2, window of 10–12 samples).

Every detector judges all hosts at once: ``is_overloaded`` and
``threshold`` take the monitor's ``(W, M)`` host-utilization matrix
(oldest row first, one column per host) and return ``(M,)`` flags and
thresholds.  A 1-D history is one host's column and gets a scalar back.
Each column's result is bit-identical to the per-host scalar formula
(kept as the test oracle): sums accumulate over the rows in order, like
Python's ``sum`` and unlike ``np.sum``'s pairwise summation, and squares
go through ``np.float_power`` — libm ``pow``, as Python's ``** 2`` —
because ``x * x`` rounds differently in rare cases.
"""

from __future__ import annotations

from typing import Protocol, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: A ``(W, M)`` history matrix, or one host's ``(W,)`` history.
History = np.ndarray


class OverloadDetector(Protocol):
    """Decides host overload from utilization histories (oldest first)."""

    name: str

    def is_overloaded(self, history: History) -> np.ndarray:
        """``(M,)`` overload flags of the history matrix's hosts."""
        ...

    def threshold(self, history: History) -> np.ndarray:
        """``(M,)`` effective utilization thresholds implied by the history."""
        ...


def _columns(history: History) -> Tuple[np.ndarray, bool]:
    """``history`` as a ``(W, M)`` float matrix, and whether it was 1-D."""
    matrix = np.asarray(history, dtype=np.float64)
    if matrix.ndim == 1:
        return matrix[:, None], True
    return matrix, False


def _per_host(values: np.ndarray, single: bool):
    """``values`` as given, or one host's Python scalar for a 1-D history."""
    return values[0].item() if single else values


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """Column sums of ``terms``, accumulated row by row in order.

    Python's ``sum`` computes ``0 + t0``, then ``+= t1``, ``+= t2`` …;
    so does this, per column.  ``np.sum`` adds pairwise and rounds
    differently.
    """
    total = terms[0] + 0.0
    for row in terms[1:]:
        total += row
    return total


def _median(values: np.ndarray) -> np.ndarray:
    """Per-column median of a ``(W, M)`` matrix; zeros when ``W == 0``."""
    count = values.shape[0]
    if count == 0:
        return np.zeros(values.shape[1])
    ordered = np.sort(values, axis=0, kind="stable")
    mid = count // 2
    if count % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _quantile(ordered: np.ndarray, q: float) -> np.ndarray:
    """Inclusive per-column quantile of a column-sorted matrix."""
    position = q * (ordered.shape[0] - 1)
    low = int(position)
    high = min(low + 1, ordered.shape[0] - 1)
    frac = position - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def _square(values: np.ndarray) -> np.ndarray:
    """``values ** 2`` rounded like Python's float ``** 2`` (libm ``pow``)."""
    return np.float_power(values, np.full_like(values, 2.0))


class _Detector:
    """Dispatch of the 1-D / 2-D entry points to the per-matrix rules."""

    def _flags(self, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _thresholds(self, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def is_overloaded(self, history: History):
        matrix, single = _columns(history)
        return _per_host(self._flags(matrix), single)

    def threshold(self, history: History):
        matrix, single = _columns(history)
        return _per_host(self._thresholds(matrix), single)


class ThresholdDetector(_Detector):
    """THR: overload when current utilization exceeds a fixed threshold.

    The default matches the paper's beta = 70 % overload threshold so the
    detector fires exactly when SLA violations start accruing.
    """

    def __init__(self, utilization_threshold: float = 0.7) -> None:
        if not 0 < utilization_threshold <= 1:
            raise ConfigurationError("threshold must be in (0, 1]")
        self.utilization_threshold = utilization_threshold
        self.name = "THR"

    def _thresholds(self, matrix: np.ndarray) -> np.ndarray:
        return np.full(matrix.shape[1], self.utilization_threshold)

    def _flags(self, matrix: np.ndarray) -> np.ndarray:
        if matrix.shape[0] == 0:
            return np.zeros(matrix.shape[1], dtype=bool)
        return matrix[-1] > self.utilization_threshold


class _AdaptiveDetector(_Detector):
    """Shared shape of the IQR and MAD adaptive-threshold detectors.

    ``max_threshold`` caps the adaptive value: a detector that tolerates
    more utilization than the SLA's overload threshold would knowingly sit
    in the violation band, so the cap defaults to the paper's beta.
    """

    #: Never let the adaptive threshold collapse below this floor.
    MIN_THRESHOLD = 0.05

    def __init__(
        self,
        safety: float,
        fallback_threshold: float = 0.7,
        max_threshold: float = 0.7,
    ) -> None:
        if safety <= 0:
            raise ConfigurationError("safety parameter must be > 0")
        if not 0 < fallback_threshold <= 1:
            raise ConfigurationError("fallback threshold must be in (0, 1]")
        if not 0 < max_threshold <= 1:
            raise ConfigurationError("max threshold must be in (0, 1]")
        self.safety = safety
        self.fallback_threshold = fallback_threshold
        self.max_threshold = max_threshold

    def _dispersion(self, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _thresholds(self, matrix: np.ndarray) -> np.ndarray:
        if matrix.shape[0] < 3:
            return np.full(matrix.shape[1], self.fallback_threshold)
        value = 1.0 - self.safety * self._dispersion(matrix)
        return np.maximum(
            self.MIN_THRESHOLD, np.minimum(self.max_threshold, value)
        )

    def _flags(self, matrix: np.ndarray) -> np.ndarray:
        if matrix.shape[0] == 0:
            return np.zeros(matrix.shape[1], dtype=bool)
        return matrix[-1] > self._thresholds(matrix)


class IqrDetector(_AdaptiveDetector):
    """IQR: threshold ``1 - s * interquartile range`` (default s = 1.5)."""

    def __init__(
        self,
        safety: float = 1.5,
        fallback_threshold: float = 0.7,
        max_threshold: float = 0.7,
    ):
        super().__init__(safety, fallback_threshold, max_threshold)
        self.name = "IQR"

    def _dispersion(self, matrix: np.ndarray) -> np.ndarray:
        ordered = np.sort(matrix, axis=0, kind="stable")
        return _quantile(ordered, 0.75) - _quantile(ordered, 0.25)


class MadDetector(_AdaptiveDetector):
    """MAD: threshold ``1 - s * median absolute deviation`` (s = 2.5)."""

    def __init__(
        self,
        safety: float = 2.5,
        fallback_threshold: float = 0.7,
        max_threshold: float = 0.7,
    ):
        super().__init__(safety, fallback_threshold, max_threshold)
        self.name = "MAD"

    def _dispersion(self, matrix: np.ndarray) -> np.ndarray:
        return _median(np.abs(matrix - _median(matrix)))


def _least_squares_fit(ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column fit ``y = a + b x`` over ``x = 0..W-1``; ``(a, b)``."""
    n = ys.shape[0]
    mean_x = (n - 1) / 2.0
    mean_y = _row_sum(ys) / n
    den = sum((x - mean_x) ** 2 for x in range(n))
    if den <= 0.0:
        return mean_y, np.zeros_like(mean_y)
    offsets = np.arange(n, dtype=np.float64) - mean_x
    slope = _row_sum(offsets[:, None] * (ys - mean_y)) / den
    return mean_y - slope * mean_x, slope


def _weighted_fit(
    ys: np.ndarray,
    weights: np.ndarray,
    unweighted: Tuple[np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column weighted least squares ``y = a + b x``.

    A column whose weights sum to ``<= 0`` gets its ``unweighted`` fit;
    one whose weighted ``x`` spread is ``<= 0`` gets ``(mean_y, 0)``.
    """
    xs = np.arange(ys.shape[0], dtype=np.float64)[:, None]
    total = _row_sum(weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_x = _row_sum(weights * xs) / total
        mean_y = _row_sum(weights * ys) / total
        offsets = xs - mean_x
        den = _row_sum(weights * _square(offsets))
        slope = _row_sum(weights * offsets * (ys - mean_y)) / den
        intercept = mean_y - slope * mean_x
    flat = den <= 0.0
    intercept = np.where(flat, mean_y, intercept)
    slope = np.where(flat, 0.0, slope)
    empty = total <= 0.0
    return (
        np.where(empty, unweighted[0], intercept),
        np.where(empty, unweighted[1], slope),
    )


class LocalRegressionDetector(_Detector):
    """LR: linear extrapolation of the history predicts the next sample."""

    def __init__(
        self,
        safety: float = 1.2,
        fallback_threshold: float = 0.7,
        min_history: int = 4,
        trigger_utilization: float = 0.7,
    ) -> None:
        if safety <= 0:
            raise ConfigurationError("safety must be > 0")
        if min_history < 2:
            raise ConfigurationError("min_history must be >= 2")
        if not 0 < trigger_utilization <= 1:
            raise ConfigurationError("trigger utilization must be in (0, 1]")
        self.safety = safety
        self.fallback_threshold = fallback_threshold
        self.min_history = min_history
        self.trigger_utilization = trigger_utilization
        self.name = "LR"

    def _fit(self, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return _least_squares_fit(ys)

    def _predict_next(self, history: History):
        """Each host's extrapolated next sample (needs ``W >= 1``)."""
        ys, single = _columns(history)
        intercept, slope = self._fit(ys)
        return _per_host(intercept + slope * ys.shape[0], single)

    def _thresholds(self, matrix: np.ndarray) -> np.ndarray:
        return np.full(matrix.shape[1], self.fallback_threshold)

    def _flags(self, matrix: np.ndarray) -> np.ndarray:
        if matrix.shape[0] == 0:
            return np.zeros(matrix.shape[1], dtype=bool)
        if matrix.shape[0] < self.min_history:
            return matrix[-1] > self.fallback_threshold
        prediction = self._predict_next(matrix)
        return self.safety * prediction >= self.trigger_utilization


class RobustLocalRegressionDetector(LocalRegressionDetector):
    """LRR: iteratively re-weighted (bisquare) robust local regression."""

    def __init__(
        self,
        safety: float = 1.2,
        fallback_threshold: float = 0.7,
        min_history: int = 4,
        trigger_utilization: float = 0.7,
        iterations: int = 2,
    ) -> None:
        super().__init__(
            safety, fallback_threshold, min_history, trigger_utilization
        )
        if iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        self.iterations = iterations
        self.name = "LRR"

    def _fit(self, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        unweighted = _least_squares_fit(ys)
        intercept, slope = unweighted
        xs = np.arange(ys.shape[0], dtype=np.float64)[:, None]
        # A column stops re-weighting, at its current fit, the first
        # time its residual scale is not positive.
        live = np.ones(ys.shape[1], dtype=bool)
        for _ in range(self.iterations):
            residuals = ys - (intercept + slope * xs)
            scale = 6.0 * _median(np.abs(residuals))
            live &= ~(scale <= 0.0)
            if not live.any():
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                u = residuals / scale
                weights = np.where(
                    np.abs(u) >= 1.0, 0.0, _square(1.0 - u * u)
                )
            fitted = _weighted_fit(ys, weights, unweighted)
            intercept = np.where(live, fitted[0], intercept)
            slope = np.where(live, fitted[1], slope)
        return intercept, slope


#: The five detectors evaluated by the paper, by MMT-variant name.
DETECTOR_NAMES = ("THR", "IQR", "MAD", "LR", "LRR")


def make_detector(name: str, **kwargs) -> OverloadDetector:
    """Build a detector by its paper name (case-insensitive)."""
    registry = {
        "THR": ThresholdDetector,
        "IQR": IqrDetector,
        "MAD": MadDetector,
        "LR": LocalRegressionDetector,
        "LRR": RobustLocalRegressionDetector,
    }
    key = name.upper()
    if key not in registry:
        raise ConfigurationError(
            f"unknown detector {name!r}; choose from {sorted(registry)}"
        )
    return registry[key](**kwargs)
