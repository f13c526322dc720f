"""Learned-index retirement against the every-index oracle.

``SparseLstd.retire_actions`` visits only the retired indices that hold
learned state and invalidates only the theta rows it changed;
``tests/oracles/retirement.py`` visits every index and invalidates the
whole cache.  A Hypothesis state machine drives twin learners through
the same updates, external writes and retirements, and after every
rule the twins' ``B``, ``z`` and counters must agree bit for bit while
the fast twin's theta cache stays exact.  A small churn-service run
then checks the same agreement after every real slot departure.  Both
run with the deferred kernel (the default) and with ``REPRO_KERNEL=off``,
since the row clears and the snap stage through the kernel when it is on.
"""

import struct
from typing import List, Tuple

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import kern
from repro.core.agent import MeghScheduler
from repro.core.lstd import SparseLstd
from repro.core.sparse import SparseMatrix
from repro.service.builders import build_churn_service

from tests.oracles.retirement import retire_actions as oracle_retire

_NUM_PMS = 2
_NUM_SLOTS = 3
_DIMENSION = _NUM_PMS * _NUM_SLOTS

indices = st.integers(min_value=0, max_value=_DIMENSION - 1)
costs = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def b_state(lstd: SparseLstd) -> List[Tuple[int, int, bytes]]:
    """``B`` entry by entry, values as raw bits (NaN-safe, -0.0-aware)."""
    return [(i, j, _bits(value)) for i, j, value in lstd.B.items()]


def z_state(lstd: SparseLstd) -> List[Tuple[int, bytes]]:
    return sorted((key, _bits(value)) for key, value in lstd.z.items())


def assert_twins_equal(fast: SparseLstd, oracle: SparseLstd) -> None:
    assert b_state(fast) == b_state(oracle)
    assert z_state(fast) == z_state(oracle)
    assert fast.retirements_applied == oracle.retirements_applied
    assert fast.retirements_skipped == oracle.retirements_skipped
    assert fast.operator_entries() == oracle.operator_entries()


class TwinRetirement(RuleBasedStateMachine):
    """Fast and oracle learners fed the same operations."""

    #: ``B``'s kernel mode; ``None`` keeps the ``REPRO_KERNEL`` default.
    kernel = None

    @initialize(gamma=st.sampled_from([0.5, 0.9]))
    def build(self, gamma):
        self.fast = SparseLstd(_DIMENSION, gamma=gamma)
        self.oracle = SparseLstd(_DIMENSION, gamma=gamma)
        for lstd in (self.fast, self.oracle):
            if self.kernel is not None:
                lstd.B = SparseMatrix.identity(
                    _DIMENSION, scale=1.0 / lstd.delta, kernel=self.kernel
                )
            lstd.enable_operator_tracking()

    @rule(a=indices, a_next=indices, cost=costs)
    def update(self, a, a_next, cost):
        self.fast.update(a, a_next, cost)
        self.oracle.update(a, a_next, cost)

    @rule(batch=st.lists(indices, min_size=1, max_size=8))
    def q_values(self, batch):
        got = self.fast.q_values(batch)
        expected = self.oracle.q_values(batch)
        assert [_bits(v) for v in got.tolist()] == [
            _bits(v) for v in expected.tolist()
        ]

    @rule(slot=st.integers(min_value=0, max_value=_NUM_SLOTS - 1))
    def retire(self, slot):
        block = range(slot * _NUM_PMS, (slot + 1) * _NUM_PMS)
        assert self.fast.retire_actions(block) == oracle_retire(
            self.oracle, block
        )

    @rule(index=indices, value=costs)
    def write_z(self, index, value):
        """An external ``z`` write: a ``z`` entry with no tracked row."""
        self.fast.z[index] = value
        self.oracle.z[index] = value

    @rule(i=indices, j=indices, value=st.floats(min_value=-0.1, max_value=0.1))
    def write_b(self, i, j, value):
        """An external ``B`` write: a stored entry no update explains."""
        self.fast.B.set(i, j, value)
        self.oracle.B.set(i, j, value)

    @invariant()
    def twins_agree(self):
        if not hasattr(self, "fast"):
            return
        assert_twins_equal(self.fast, self.oracle)
        assert self.fast.verify_theta_cache() == []
        # Cache every row, so the next rule's missed invalidation, if
        # any, leaves a fresh row that ``verify_theta_cache`` catches.
        self.fast.q_values(range(_DIMENSION))


class EagerTwinRetirement(TwinRetirement):
    """The same machine with the deferred kernel off."""

    kernel = "off"


for _machine in (TwinRetirement, EagerTwinRetirement):
    _machine.TestCase.settings = settings(
        max_examples=60, stateful_step_count=30, deadline=None
    )
TestTwinRetirement = TwinRetirement.TestCase
TestEagerTwinRetirement = EagerTwinRetirement.TestCase


_HAS_COMPILER = kern._find_compiler() is not None

#: Every kernel mode runnable here; the compiled one needs a compiler.
KERNELS = [
    "off",
    pytest.param(
        "c",
        marks=pytest.mark.skipif(
            not _HAS_COMPILER, reason="no C compiler for the kernel"
        ),
    ),
]


def _spy_generic_clears(lstd: SparseLstd) -> List[int]:
    """Record the generic column clears ``retire_actions`` applies.

    Retirement reaches ``B.rank_one_update`` only through a column clear
    it could not fold into the snap, so the returned list grows by one
    element (the clear's right-factor width) per generic clear.
    """
    calls: List[int] = []
    apply = lstd.B.rank_one_update

    def spy(col, row, scale):
        calls.append(len(row))
        return apply(col, row, scale)

    lstd.B.rank_one_update = spy
    return calls


def _trained(*steps, kernel=None) -> SparseLstd:
    """A 12-index learner after ``update(a, a_next, cost)`` steps."""
    lstd = SparseLstd(12, gamma=0.5)
    if kernel is not None:
        lstd.B = SparseMatrix.identity(
            12, scale=1.0 / lstd.delta, kernel=kernel
        )
    lstd.enable_operator_tracking()
    for a, a_next, cost in steps:
        lstd.update(a, a_next, cost)
    return lstd


class TestInvalidatedRows:
    """Each part of the invalidated set, on a case only it covers.

    Every row is cached before the retirement of indices 0–2, so a
    changed row left out of the set shows up as a stale fresh row.
    """

    def _retire_block_zero(self, lstd: SparseLstd) -> None:
        lstd.q_values(range(12))
        lstd.retire_actions(range(3))
        assert lstd.verify_theta_cache() == []

    def test_rows_holding_a_retired_column_before_the_snap(self):
        # An external B entry (7, 1) no tracked update explains: only
        # the snap removes it, and row 7's theta loses 0.05 * z[1].
        lstd = _trained()
        lstd.B.set(7, 1, 0.05)
        lstd.z[1] = 2.0
        self._retire_block_zero(lstd)

    def test_left_factor_rows_of_a_column_clear(self):
        # T[7, 1] is cleared by a column clear whose left factor holds
        # row 7; the clear leaves no (7, 1) entry for the snap to see.
        lstd = _trained((7, 1, 2.0))
        lstd.z[1] = 3.0
        self._retire_block_zero(lstd)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_column_clear_with_off_diagonal_row_matches_oracle(self, kernel):
        # T[7, 1] leaves a column clear for index 1.  An external entry
        # (1, 5) puts an off-diagonal value in row 1, so the clear also
        # writes column 5, outside the snap's reach: it cannot fold.
        lstd = _trained((7, 1, 2.0), kernel=kernel)
        lstd.B.set(1, 5, 0.03)
        lstd.z[5] = 1.5
        twin = _twin_of(lstd)
        generic = _spy_generic_clears(lstd)
        lstd.q_values(range(12))
        assert lstd.retire_actions(range(3)) == oracle_retire(twin, range(3))
        assert generic == [2]
        assert_twins_equal(lstd, twin)
        assert lstd.verify_theta_cache() == []

    def test_pristine_indices_keep_the_prior(self):
        lstd = _trained((7, 1, 2.0), (4, 5, 1.0))
        before = list(lstd.B.items())
        lstd.retire_actions(range(9, 12))
        assert list(lstd.B.items()) == before
        assert lstd.retirements_applied == 1


def _twin_of(lstd: SparseLstd) -> SparseLstd:
    """An independent copy of ``lstd``'s learned state."""
    twin = SparseLstd(lstd.dimension, gamma=lstd.gamma, delta=lstd.delta)
    twin.enable_operator_tracking()
    twin.B = lstd.B.copy()
    twin.z = dict(lstd.z)
    twin.load_operator_entries(lstd.operator_entries())
    twin.retirements_applied = lstd.retirements_applied
    twin.retirements_skipped = lstd.retirements_skipped
    return twin


def _column_clears(lstd: SparseLstd, block: List[int]) -> int:
    """Retired columns left with tracked entries once the rows are cleared."""
    retired = set(block)
    return len(
        {
            j
            for i, j, _ in lstd.operator_entries()
            if j in retired and i not in retired
        }
    )


def _check_churn_departures() -> None:
    """Every departure of a real churn run retires as the oracle does.

    Every column clear of the run must also fold into the snap (its
    retired ``B`` row holds only the diagonal), which a spy on the
    generic path checks.
    """
    service = build_churn_service(seed=2, num_steps=60)
    agent = MeghScheduler.from_simulation(service, seed=2)
    lstd = agent.lstd
    fast_retire = lstd.retire_actions
    generic = _spy_generic_clears(lstd)
    checked = []
    column_clears = []

    def checked_retire(block):
        retired = list(block)
        twin = _twin_of(lstd)
        column_clears.append(_column_clears(lstd, retired))
        count = fast_retire(block)
        assert count == oracle_retire(twin, retired)
        assert_twins_equal(lstd, twin)
        assert lstd.verify_theta_cache() == []
        checked.append(retired)
        return count

    lstd.retire_actions = checked_retire
    service.run(agent)
    assert len(checked) == lstd.retirements_applied > 0
    assert sum(column_clears) > 0
    assert generic == []


def test_churn_service_retirements_match_oracle():
    _check_churn_departures()


def test_churn_service_retirements_match_oracle_eager(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "off")
    _check_churn_departures()
