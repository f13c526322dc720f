"""Boltzmann exploration with decaying temperature (Algorithm 2).

Actions are weighted ``exp((-Q + Q_min) / Temp)``: the cheapest action
gets weight 1 and costlier ones exponentially less, so high temperatures
explore broadly while ``Temp -> 0`` recovers greedy selection.  The
temperature decays by ``exp(-epsilon)`` each step.

Sampling is segmented: :meth:`BoltzmannPolicy.select_rows` draws one
action for every row of a step's candidate plan in one array pass, the
same picks and the same RNG stream as one ``Generator.choice`` per row
(the per-row loop is the oracle ``tests/oracles/boltzmann.py``).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple, TypeVar

import numpy as np

from repro.errors import ConfigurationError

ActionT = TypeVar("ActionT")

#: ``Generator.choice``'s tolerance on ``|sum(p) - 1|``.
_SUM_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)


class BoltzmannPolicy:
    """Softmin action selection with per-step temperature decay.

    Args:
        initial_temperature: ``Temp_0`` (paper: 3).
        decay: ``epsilon``; temperature multiplies by ``exp(-epsilon)``
            at every :meth:`step`.
        min_temperature: decay floor keeping the softmax well defined.
        seed: RNG seed for sampling.
    """

    def __init__(
        self,
        initial_temperature: float = 3.0,
        decay: float = 0.01,
        min_temperature: float = 1e-3,
        seed: int = 0,
    ) -> None:
        if initial_temperature <= 0:
            raise ConfigurationError("Temp0 must be > 0")
        if decay < 0:
            raise ConfigurationError("epsilon must be >= 0")
        if min_temperature <= 0:
            raise ConfigurationError("min temperature must be > 0")
        self.temperature = initial_temperature
        self.decay = decay
        self.min_temperature = min_temperature
        self._rng = np.random.default_rng(seed)

    def step(self) -> None:
        """Apply one temperature-decay tick (line 2 of Algorithm 2)."""
        self.temperature = max(
            self.min_temperature, self.temperature * math.exp(-self.decay)
        )

    def weights(self, q_values: Sequence[float]) -> List[float]:
        """Unnormalised Boltzmann weights (line 8 of Algorithm 2).

        Accepts any float sequence, including a NumPy array from
        :meth:`repro.core.lstd.SparseLstd.q_values`.  The elementwise
        ``math.exp`` is deliberate: ``np.exp`` may round differently in
        the last place, and :meth:`select_rows` applies this same
        ``math.exp`` over a whole plan in one pass, so both produce the
        same floats.
        """
        if len(q_values) == 0:
            return []
        minimum = min(q_values)
        return [
            math.exp((-q + minimum) / self.temperature) for q in q_values
        ]

    def probabilities(self, q_values: Sequence[float]) -> List[float]:
        """Normalised selection probabilities.

        The minimum's weight is ``exp(0.0) = 1.0``, so for finite Q the
        total is at least 1 and never underflows.
        """
        weights = self.weights(q_values)
        total = sum(weights)
        return [w / total for w in weights]

    def select(
        self, actions: Sequence[ActionT], q_values: Sequence[float]
    ) -> Tuple[ActionT, int]:
        """Sample an action; returns ``(action, index)``.

        ``actions`` may be any indexable sequence — including a NumPy
        destination row — hence the explicit ``len()`` emptiness checks
        (ndarray truthiness is ambiguous).  This is :meth:`select_rows`
        over a single row, so list and array callers draw identical
        streams.
        """
        if len(actions) != len(q_values):
            raise ConfigurationError("actions and q_values lengths differ")
        if len(actions) == 0:
            raise ConfigurationError("cannot select from an empty action set")
        row = np.asarray(q_values, dtype=np.float64)
        index = int(self.select_rows(row, np.array([0, row.shape[0]]))[0])
        return actions[index], index

    def select_rows(
        self, q_values: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Sample one action per row of a segmented Q vector.

        Row ``r`` is ``q_values[offsets[r]:offsets[r + 1]]``; returns
        each row's chosen position within its row.  The picks and the
        RNG stream are those of one ``Generator.choice(len(row),
        p=probabilities(row))`` per row, bit for bit: the weights are
        the same ``math.exp`` values, row totals and CDFs are
        left-to-right cumulative sums (the scalar ``sum()`` and
        ``choice``'s ``cdf = p.cumsum(); cdf /= cdf[-1]``), one
        ``random(rows)`` draw yields the uniforms ``rows`` scalar draws
        would, and ``count(cdf <= u)`` is ``searchsorted(side="right")``.
        ``choice``'s checks are kept: ``ValueError`` on NaN, negative or
        not-summing-to-1 probabilities (the sum check reads the CDF's
        last entry, not ``choice``'s compensated sum; the two differ by
        orders of magnitude less than its ``sqrt(eps)`` tolerance).
        """
        q = np.asarray(q_values, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.diff(offsets)
        rows = lengths.shape[0]
        if rows == 0:
            return np.zeros(0, dtype=np.int64)
        if lengths.min() <= 0:
            raise ConfigurationError("cannot select from an empty action set")
        if offsets[0] != 0 or offsets[-1] != q.shape[0]:
            raise ConfigurationError("offsets must span q_values")
        starts = offsets[:-1]
        row_of = np.repeat(np.arange(rows, dtype=np.int64), lengths)
        minimum = np.minimum.reduceat(q, starts)[row_of]
        scaled = (-q + minimum) / self.temperature
        grid = np.zeros((rows, int(lengths.max())))
        column = np.arange(q.shape[0], dtype=np.int64) - starts[row_of]
        grid[row_of, column] = np.fromiter(
            map(math.exp, scaled.tolist()), np.float64, q.shape[0]
        )
        # Each row's minimum weighs exp(0.0) = 1.0, so a finite row's
        # total is at least 1; NaN Q makes it NaN, caught below.
        totals = np.cumsum(grid, axis=1)[:, -1]
        probabilities = grid / totals[:, None]
        cdf = np.cumsum(probabilities, axis=1)
        if np.isnan(cdf[:, -1]).any():
            raise ValueError("Probabilities contain NaN")
        if (probabilities < 0).any():
            raise ValueError("Probabilities are not non-negative")
        if (np.abs(cdf[:, -1] - 1.0) > _SUM_TOLERANCE).any():
            raise ValueError("Probabilities do not sum to 1")
        cdf /= cdf[:, -1:]
        uniforms = self._rng.random(rows)
        return np.count_nonzero(cdf <= uniforms[:, None], axis=1)

    def select_greedy(
        self, actions: Sequence[ActionT], q_values: Sequence[float]
    ) -> Tuple[ActionT, int]:
        """Pure exploitation — used once the temperature has decayed."""
        if len(actions) != len(q_values):
            raise ConfigurationError("actions and q_values lengths differ")
        if len(actions) == 0:
            raise ConfigurationError("cannot select from an empty action set")
        index = min(range(len(actions)), key=lambda i: q_values[i])
        return actions[index], index


class EpsilonGreedyPolicy:
    """Epsilon-greedy alternative to Boltzmann exploration (ablation).

    Interface-compatible with :class:`BoltzmannPolicy`: pick the min-Q
    action with probability ``1 - epsilon`` and a uniform random action
    otherwise; ``epsilon`` decays multiplicatively per :meth:`step`.
    The paper argues Boltzmann's cost-sensitivity beats this uniform
    exploration — the ablation bench quantifies it.
    """

    def __init__(
        self,
        epsilon: float = 0.3,
        decay: float = 0.01,
        min_epsilon: float = 0.01,
        seed: int = 0,
    ) -> None:
        if not 0 <= epsilon <= 1:
            raise ConfigurationError("epsilon must be in [0, 1]")
        if decay < 0:
            raise ConfigurationError("decay must be >= 0")
        if not 0 <= min_epsilon <= 1:
            raise ConfigurationError("min epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self.decay = decay
        self.min_epsilon = min_epsilon
        self._rng = np.random.default_rng(seed)

    #: BoltzmannPolicy interface parity — reported as a pseudo-temperature.
    @property
    def temperature(self) -> float:
        return self.epsilon

    def step(self) -> None:
        """Decay epsilon by ``exp(-decay)``, floored at ``min_epsilon``."""
        self.epsilon = max(
            self.min_epsilon, self.epsilon * math.exp(-self.decay)
        )

    def probabilities(self, q_values: Sequence[float]) -> List[float]:
        """Selection distribution: greedy mass plus uniform exploration."""
        if len(q_values) == 0:
            return []
        count = len(q_values)
        base = self.epsilon / count
        probabilities = [base] * count
        greedy = min(range(count), key=lambda i: q_values[i])
        probabilities[greedy] += 1.0 - self.epsilon
        return probabilities

    def select(
        self, actions: Sequence[ActionT], q_values: Sequence[float]
    ) -> Tuple[ActionT, int]:
        if len(actions) != len(q_values):
            raise ConfigurationError("actions and q_values lengths differ")
        if len(actions) == 0:
            raise ConfigurationError("cannot select from an empty action set")
        if self._rng.random() < self.epsilon:
            index = int(self._rng.integers(0, len(actions)))
        else:
            index = min(range(len(actions)), key=lambda i: q_values[i])
        return actions[index], index

    def select_rows(
        self, q_values: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """One :meth:`select` per row of a segmented Q vector.

        The draws are conditional (an integer is drawn only when a row
        explores), so rows cannot share one draw; this is the ablation's
        cold path.
        """
        q = np.asarray(q_values, dtype=np.float64)
        picks = np.empty(len(offsets) - 1, dtype=np.int64)
        for r in range(picks.shape[0]):
            row = q[int(offsets[r]) : int(offsets[r + 1])]
            picks[r] = self.select(row, row)[1]
        return picks

    def select_greedy(
        self, actions: Sequence[ActionT], q_values: Sequence[float]
    ) -> Tuple[ActionT, int]:
        if len(actions) != len(q_values):
            raise ConfigurationError("actions and q_values lengths differ")
        if len(actions) == 0:
            raise ConfigurationError("cannot select from an empty action set")
        index = min(range(len(actions)), key=lambda i: q_values[i])
        return actions[index], index
