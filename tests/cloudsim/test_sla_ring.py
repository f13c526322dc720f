"""The SLA accountant's ring-buffer windows against the deque oracle.

The accountant keeps each VM's billing window as a ring in a row of a
``(cap, W)`` matrix, with the slot of its next entry and a count of the
non-zero downtime entries.  Every path that writes a row — appends that wrap,
``reset_vm_window``, ``restore_vm_record`` and capacity growth — must
leave it reading exactly like a bounded deque, and a serialized
accountant must keep billing like the one it was taken from.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.sla import SlaAccountant
from repro.config import CostConfig
from repro.costs.sla_cost import SlaCostModel
from repro.engine.serialize import _sla_from_dict, _sla_to_dict

from tests.conftest import make_pm, make_vm
from tests.oracles.pipeline import VmRecord

#: A three-entry window, so a few dozen appends wrap it many times.
WINDOW_STEPS = 3

_seconds = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)
_downtime = st.one_of(st.just(0.0), _seconds)
_requested = st.one_of(
    st.just(0.0), st.floats(min_value=1.0, max_value=1e4, allow_nan=False)
)
# Small ids share rows; the large ones grow the accountant's capacity
# past its initial 16 rows while earlier rows hold wrapped rings.
_vm_ids = st.one_of(st.integers(0, 4), st.sampled_from([17, 40, 100]))
_entry = st.tuples(_downtime, _requested)

_actions = st.lists(
    st.one_of(
        st.tuples(st.just("record"), _vm_ids, _entry),
        st.tuples(st.just("record"), _vm_ids, _entry),
        st.tuples(st.just("record"), _vm_ids, _entry),
        st.tuples(st.just("reset"), _vm_ids),
        st.tuples(
            st.just("restore"),
            _vm_ids,
            st.tuples(_seconds, _seconds, _seconds),
            st.lists(_entry, max_size=2 * WINDOW_STEPS + 1),
        ),
    ),
    max_size=60,
)


def _apply(accountant, records, action):
    kind, vm_id = action[0], action[1]
    if kind == "record":
        downtime, requested = action[2]
        accountant.vm_record(vm_id).record_step(downtime, requested)
        records.setdefault(vm_id, VmRecord(WINDOW_STEPS)).record_step(
            downtime, requested
        )
    elif kind == "reset":
        accountant.reset_vm_window(vm_id)
        if vm_id in records:
            records[vm_id].window.clear()
    else:
        (requested, migration, overload), window = action[2], action[3]
        accountant.restore_vm_record(
            vm_id, requested, migration, overload, window=window
        )
        record = records.setdefault(vm_id, VmRecord(WINDOW_STEPS))
        record.requested_seconds = requested
        record.migration_downtime_seconds = migration
        record.overload_downtime_seconds = overload
        record.window.clear()
        for downtime, entry_requested in window:
            record.record_step(downtime, entry_requested)


def _assert_matches(accountant, records):
    assert list(accountant.vms) == list(records)
    for vm_id, expected in records.items():
        record = accountant.vms[vm_id]
        assert record.window_entries() == list(expected.window)
        assert record.downtime_fraction == expected.downtime_fraction
        assert (
            accountant._win_downtime_count[vm_id] == expected.downtime_entries
        )
        assert record.requested_seconds == expected.requested_seconds
    with_downtime = [
        vm_id for vm_id, expected in records.items()
        if expected.downtime_entries
    ]
    vm_ids, fractions = accountant.fractions_with_downtime()
    assert vm_ids.tolist() == with_downtime
    assert fractions.tolist() == [
        records[vm_id].downtime_fraction for vm_id in with_downtime
    ]


class TestRingMatchesDeque:
    @settings(max_examples=200, deadline=None)
    @given(actions=_actions)
    def test_every_action_keeps_rows_deque_equal(self, actions):
        accountant = SlaAccountant(
            window_seconds=WINDOW_STEPS * 300.0, interval_seconds=300.0
        )
        records = {}
        for action in actions:
            _apply(accountant, records, action)
            _assert_matches(accountant, records)

    def test_reset_and_growth_on_wrapped_rows(self):
        accountant = SlaAccountant(
            window_seconds=WINDOW_STEPS * 300.0, interval_seconds=300.0
        )
        records = {}
        script = [("record", 2, (float(k % 2), 300.0)) for k in range(8)]
        script += [("record", 3, (5.0, 300.0)) for _ in range(7)]
        script += [("record", 100, (1.0, 300.0))]  # grows the capacity
        script += [("reset", 3), ("record", 3, (0.0, 300.0))]
        script += [("restore", 2, (1.0, 2.0, 3.0), [(4.0, 300.0)] * 5)]
        for action in script:
            _apply(accountant, records, action)
            _assert_matches(accountant, records)
        assert accountant._win_next[2] != 0


def _overloading_fleet():
    """Two hosts; VM 0 overloads host 0 on two steps in three."""
    datacenter = Datacenter(
        [make_pm(0), make_pm(1)],
        [make_vm(0, mips=4000.0), make_vm(1), make_vm(2)],
    )
    datacenter.place(0, 0)
    datacenter.place(1, 1)
    datacenter.place(2, 1)
    return datacenter


def _step(datacenter, billed, step):
    """One interval observed and billed by every (accountant, model)."""
    datacenter.vm(0).set_demand(0.9 if step % 3 else 0.2)
    datacenter.vm(1).set_demand(0.5)
    migration = {2: 7.5} if step % 5 == 0 else {}
    costs = []
    for accountant, model in billed:
        accountant.observe_step(datacenter, 300.0, migration)
        costs.append(model.step_cost(accountant, 300.0))
    return costs


class TestSerializedRing:
    def test_wrapped_round_trip_bills_identically(self):
        datacenter = _overloading_fleet()
        accountant = SlaAccountant(beta=0.7)
        original = (accountant, SlaCostModel(CostConfig()))
        window = accountant.window_steps
        for step in range(3 * window + 5):
            _step(datacenter, [original], step)
        # Every row has wrapped and sits mid-ring.
        assert np.all(accountant._win_next[:3] != 0)

        restored = _sla_from_dict(_sla_to_dict(accountant))
        copy = (restored, SlaCostModel(CostConfig()))
        charged = 0
        for step in range(3 * window + 5, 6 * window):
            usd, restored_usd = _step(datacenter, [original, copy], step)
            assert usd == restored_usd
            charged += usd > 0.0
            for vm_id, record in accountant.vms.items():
                assert (
                    restored.vms[vm_id].window_entries()
                    == record.window_entries()
                )
        assert charged > 0
