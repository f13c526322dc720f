"""Q-table growth tracking (Figure 7).

The paper measures the number of non-zero elements stored by Megh — the
fill-in of the sparse inverse operator ``B`` — over time and across fleet
sizes, observing linear growth in time with a vertical shift roughly
``0.3 x`` linear in the number of PMs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.cloudsim.metrics import ordered_sum


@dataclass
class QTableTracker:
    """Records ``(step, nnz)`` samples during a run."""

    samples: List[Tuple[int, int]] = field(default_factory=list)

    def record(self, step: int, nonzeros: int) -> None:
        self.samples.append((step, nonzeros))

    @property
    def steps(self) -> List[int]:
        return [s for s, _ in self.samples]

    @property
    def nonzeros(self) -> List[int]:
        return [n for _, n in self.samples]

    def growth_rate(self) -> float:
        """Least-squares slope of nnz over steps (non-zeros per step)."""
        if len(self.samples) < 2:
            return 0.0
        xs, ys = self.steps, self.nonzeros
        n = len(xs)
        mean_x = ordered_sum(xs) / n
        mean_y = ordered_sum(ys) / n
        num = ordered_sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        )
        den = ordered_sum((x - mean_x) ** 2 for x in xs)
        if den == 0:
            return 0.0
        return num / den

    def intercept(self) -> float:
        """Least-squares intercept — the Figure-7 "vertical shift"."""
        if not self.samples:
            return 0.0
        xs, ys = self.steps, self.nonzeros
        mean_x = ordered_sum(xs) / len(xs)
        mean_y = ordered_sum(ys) / len(ys)
        return mean_y - self.growth_rate() * mean_x
