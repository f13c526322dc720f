"""Host power models.

The paper (Table 1) uses SPECpower_ssj2008 measurements for two server
generations.  :class:`SpecPowerModel` interpolates linearly between the
published 10 %-granularity measurements, exactly as CloudSim's
``PowerModelSpecPower`` does.  :class:`LinearPowerModel` is the classic
idle + proportional model, useful for ablations and synthetic hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np

from repro.errors import ConfigurationError


class PowerModel(Protocol):
    """Maps a CPU utilization fraction in ``[0, 1]`` to power in watts.

    ``power_batch`` is the vectorized form the energy accounting and
    PABFD placement use: element for element it must return exactly
    what ``power`` returns, down to the last bit.
    """

    def power(self, utilization: float) -> float:
        """Return the instantaneous power draw at the given utilization."""
        ...

    def power_batch(self, utilizations: np.ndarray) -> np.ndarray:
        """Return ``power`` of each element, bit-identical to the scalar."""
        ...

    @property
    def max_power(self) -> float:
        """Power draw at 100 % utilization."""
        ...


def _clamp_unit(value: float) -> float:
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


@dataclass(frozen=True)
class SpecPowerModel:
    """Piecewise-linear interpolation of a SPECpower measurement row.

    Args:
        name: human-readable server model name.
        watts: power at 0 %, 10 %, ..., 100 % utilization (11 values).
    """

    name: str
    watts: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.watts) != 11:
            raise ConfigurationError(
                f"SpecPowerModel needs 11 measurements (0%..100%), "
                f"got {len(self.watts)}"
            )
        if any(w < 0 for w in self.watts):
            raise ConfigurationError("power measurements must be >= 0")

    def power(self, utilization: float) -> float:
        """Interpolate the SPEC table at ``utilization`` in ``[0, 1]``."""
        u = _clamp_unit(utilization) * 10.0
        low = int(u)
        if low >= 10:
            return self.watts[10]
        frac = u - low
        below, above = self.watts[low], self.watts[low + 1]
        watts = below * (1.0 - frac) + above * frac
        # Rounding can carry the blend an ulp past its segment (86 W at
        # 0 % gave 85.99999999999999 W at u = 6.7e-18): keep it inside.
        lo, hi = (below, above) if below <= above else (above, below)
        return lo if watts < lo else hi if watts > hi else watts

    @cached_property
    def _watts_array(self) -> np.ndarray:
        return np.asarray(self.watts, dtype=np.float64)

    def power_batch(self, utilizations: np.ndarray) -> np.ndarray:
        """Vectorized ``power``; bit-identical to the scalar formula.

        Same operation sequence as :meth:`power` — clamp, scale by 10,
        truncate, interpolate, hold inside the segment — applied
        elementwise, so each output equals the scalar call on the same
        input down to the last bit.
        At 100 % the segment is held at 9 with ``frac = 1``:
        ``watts[9] * 0.0 + watts[10] * 1.0`` is exactly ``watts[10]``,
        the scalar's saturated branch, without a masked second pass.
        """
        u = np.asarray(utilizations, dtype=np.float64)
        # Two ufuncs rather than ``np.clip``, whose Python-level dispatch
        # costs more than the clamp on the short vectors PABFD scores.
        # Later steps reuse this call's own temporaries in place, which
        # needs an input of at least one dimension.
        u = np.minimum(np.maximum(u, 0.0), 1.0)
        u *= 10.0
        low = u.astype(np.int64)
        np.minimum(low, 9, out=low)
        frac = u - low  # meghlint: ignore[MEGH012] -- power_array() mirrors the scalar power() operation order bit-for-bit; low holds truncated utilization levels in [0, 9], which are exact in float64, so the implicit upcast cannot change a single bit. Adding .astype() would diverge the code from the scalar reference it must match.
        below, above = self._watts_array[low], self._watts_array[low + 1]
        watts = below * (1.0 - frac)
        watts += above * frac
        lo = np.minimum(below, above, out=frac)
        hi = np.maximum(below, above, out=u)
        np.maximum(watts, lo, out=watts)
        return np.minimum(watts, hi, out=watts)

    @property
    def idle_power(self) -> float:
        """Power draw of an empty-but-awake host."""
        return self.watts[0]

    @property
    def max_power(self) -> float:
        return self.watts[10]


@dataclass(frozen=True)
class LinearPowerModel:
    """``P(u) = idle + (peak - idle) * u`` — the textbook linear model."""

    idle_watts: float
    peak_watts: float

    def __post_init__(self) -> None:
        if self.idle_watts < 0 or self.peak_watts < self.idle_watts:
            raise ConfigurationError(
                "need 0 <= idle_watts <= peak_watts for a linear power model"
            )

    def power(self, utilization: float) -> float:
        u = _clamp_unit(utilization)
        return self.idle_watts + (self.peak_watts - self.idle_watts) * u

    def power_batch(self, utilizations: np.ndarray) -> np.ndarray:
        """Vectorized ``power``; bit-identical to the scalar formula."""
        u = np.asarray(utilizations, dtype=np.float64)
        u = np.minimum(np.maximum(u, 0.0), 1.0)
        return self.idle_watts + (self.peak_watts - self.idle_watts) * u

    @property
    def idle_power(self) -> float:
        return self.idle_watts

    @property
    def max_power(self) -> float:
        return self.peak_watts


#: HP ProLiant ML110 G4 SPECpower row (Table 1 of the paper).
HP_PROLIANT_G4 = SpecPowerModel(
    name="HP ProLiant ML110 G4",
    watts=(86.0, 89.4, 92.6, 96.0, 99.5, 102.0, 106.0, 108.0, 112.0, 114.0, 117.0),
)

#: HP ProLiant ML110 G5 SPECpower row (Table 1 of the paper).
HP_PROLIANT_G5 = SpecPowerModel(
    name="HP ProLiant ML110 G5",
    watts=(93.7, 97.0, 101.0, 105.0, 110.0, 116.0, 121.0, 125.0, 129.0, 133.0, 135.0),
)


def energy_joules(
    power_model: PowerModel, utilization: float, duration_seconds: float
) -> float:
    """Energy consumed holding ``utilization`` for ``duration_seconds``."""
    if duration_seconds < 0:
        raise ConfigurationError("duration must be >= 0")
    return power_model.power(utilization) * duration_seconds
