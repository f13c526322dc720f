"""Slot-retirement edge cases, verified against a fresh dense solve.

Each scenario drives a real Megh agent over a live datacenter — the
struct-of-arrays one, or the object-model oracle with the oracle
monitor, state snapshot and candidate generator — then retires a slot
and checks the learner's incremental inverse ``B`` against the oracle
``inv(delta I + T_tracked)`` recomputed densely from the
forward-operator record.  The rank-1 clearing path is only correct if
the two agree to numerical noise.  A churn run under the compiled
kernel must also equal the same run with the kernel off, bit for bit.
"""

import struct

import numpy as np
import pytest

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.migration import Migration, MigrationEngine
from repro.cloudsim.monitor import UtilizationMonitor
from repro.core import kern
from repro.core.agent import MeghScheduler
from repro.errors import ConfigurationError
from repro.mdp.interfaces import Observation
from repro.mdp.state import observe_state
from repro.service.builders import build_churn_service

from tests.conftest import make_pm, make_vm
from tests.oracles import pipeline as oracle
from tests.oracles.megh_candidates import scalar_plan
from tests.oracles.reference_datacenter import ReferenceDatacenter

#: Datacenter and monitor of each backend.
BACKENDS = {
    "soa": (Datacenter, UtilizationMonitor),
    "reference": (ReferenceDatacenter, oracle.DequeMonitor),
}

_NUM_PMS = 3
_NUM_VMS = 4
_INTERVAL = 300.0


def _dense_oracle(lstd) -> np.ndarray:
    """``inv(T)`` recomputed from scratch off the tracked operator."""
    T = np.eye(lstd.dimension) * lstd.delta
    for i, j, value in lstd.operator_entries():
        T[i, j] += value
    return np.linalg.inv(T)


def _assert_matches_oracle(lstd) -> None:
    np.testing.assert_allclose(
        lstd.B.to_dense(), _dense_oracle(lstd), rtol=0.0, atol=1e-10
    )


@pytest.fixture(params=sorted(BACKENDS))
def scenario(request):
    """An agent trained for a few steps on the requested backend."""
    cls, monitor_cls = BACKENDS[request.param]
    pms = [make_pm(i, mips=3000.0) for i in range(_NUM_PMS)]
    vms = [make_vm(j, mips=2000.0, ram_mb=512.0) for j in range(_NUM_VMS)]
    datacenter = cls(pms, vms)
    for vm_id in range(_NUM_VMS):
        datacenter.place(vm_id, vm_id % 2)  # crowd PMs 0 and 1; PM 2 free
    engine = MigrationEngine(datacenter, overhead_fraction=0.10, alpha=0.30)
    agent = MeghScheduler(
        num_vms=_NUM_VMS, num_pms=_NUM_PMS, seed=9, dynamic_slots=True
    )
    if request.param == "reference":
        agent._plan = lambda observation: scalar_plan(agent, observation)
    monitor = monitor_cls(history_length=6)
    _drive(datacenter, engine, agent, monitor, steps=6)
    assert agent.lstd.updates_applied > 0
    return datacenter, engine, agent, monitor


def _drive(datacenter, engine, agent, monitor, steps, start=0):
    """A minimal per-step pipeline: demand, decide, migrate, advance."""
    rng = np.random.default_rng(17)
    snapshot = observe_state if isinstance(datacenter, Datacenter) else (
        oracle.observe_state
    )
    for step in range(start, start + steps):
        for vm in datacenter.vms:
            if vm.is_active:
                vm.set_demand(float(rng.uniform(0.75, 1.0)))
        monitor.observe(datacenter)
        observation = Observation(
            step=step,
            state=snapshot(datacenter, step),
            datacenter=datacenter,
            monitor=monitor,
            last_step_cost_usd=0.4,
            interval_seconds=_INTERVAL,
        )
        engine.start(agent.decide(observation))
        datacenter.share_cpu()
        engine.advance(_INTERVAL)


def _delete_vm(datacenter, engine, agent, slot):
    """The service loop's departure path, spelled out."""
    engine.cancel(slot)
    if datacenter.is_placed(slot):
        datacenter.remove(slot)
    datacenter.vm(slot).set_active(False)
    agent.retire_vm(slot)


class TestRetirementOracle:
    def test_retire_then_reuse(self, scenario):
        datacenter, engine, agent, monitor = scenario
        _delete_vm(datacenter, engine, agent, 1)
        _assert_matches_oracle(agent.lstd)
        # The retired block reverts to the never-observed state.
        num_pms = agent.action_space.num_pms
        for index in range(1 * num_pms, 2 * num_pms):
            assert agent.lstd.q_value(index) == 0.0
            assert index not in agent.lstd.z

        # A new tenant reuses slot 1 and learning continues cleanly.
        vm = datacenter.vm(1)
        vm.set_active(True)
        datacenter.place(1, 0)
        before = agent.lstd.updates_applied
        _drive(datacenter, engine, agent, monitor, steps=6, start=6)
        assert agent.lstd.updates_applied > before
        _assert_matches_oracle(agent.lstd)

    def test_retire_mid_migration(self, scenario):
        datacenter, engine, agent, monitor = scenario
        # Force a transfer involving slot 0, then delete mid-flight.
        if not engine.is_migrating(0):
            dest = (datacenter.host_of(0) + 1) % _NUM_PMS
            outcome = engine.start([Migration(vm_id=0, dest_pm_id=dest)])
            assert outcome.started
        _delete_vm(datacenter, engine, agent, 0)
        assert not engine.is_migrating(0)
        _assert_matches_oracle(agent.lstd)
        # The engine keeps advancing cleanly with the flight cancelled.
        _drive(datacenter, engine, agent, monitor, steps=3, start=6)
        _assert_matches_oracle(agent.lstd)

    def test_retire_last_vm_on_pm(self, scenario):
        datacenter, engine, agent, monitor = scenario
        # Gather every VM still on some PM onto others until one PM
        # hosts exactly one VM, then retire that VM.
        lone_pm = datacenter.host_of(2)
        for vm_id in range(_NUM_VMS):
            if vm_id != 2 and datacenter.host_of(vm_id) == lone_pm:
                engine.cancel(vm_id)
                datacenter.move(vm_id, (lone_pm + 1) % _NUM_PMS)
        assert datacenter.vms_on(lone_pm) == {2}
        _delete_vm(datacenter, engine, agent, 2)
        assert datacenter.vms_on(lone_pm) == set()
        slept = datacenter.sleep_idle_hosts()
        assert lone_pm in slept
        _assert_matches_oracle(agent.lstd)

    def test_retirement_requires_dynamic_slots(self, scenario):
        datacenter, _, _, _ = scenario
        del datacenter
        static_agent = MeghScheduler(
            num_vms=_NUM_VMS, num_pms=_NUM_PMS, seed=0
        )
        with pytest.raises(ConfigurationError):
            static_agent.lstd.retire_actions([0])

    def test_retire_out_of_range_slot(self, scenario):
        _, _, agent, _ = scenario
        with pytest.raises(ConfigurationError):
            agent.retire_vm(_NUM_VMS)


_HAS_COMPILER = kern._find_compiler() is not None


def _churn_run(monkeypatch, kernel):
    """A small churn run under ``kernel``; its result and final learner."""
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    service = build_churn_service(seed=3, num_steps=80)
    agent = MeghScheduler.from_simulation(service, seed=3)
    assert agent.lstd.B.kernel_name == kernel
    snapped = []
    reset = agent.lstd.B.reset_indices

    def spy(indices, value):
        snapped.append(len(indices))
        return reset(indices, value)

    agent.lstd.B.reset_indices = spy
    result = service.run(agent)
    assert sum(snapped) > 0, "no departure retired a learned index"
    return result, agent.lstd


@pytest.mark.skipif(not _HAS_COMPILER, reason="no C compiler for the kernel")
def test_service_kernel_matches_eager(monkeypatch):
    """Retirement through the deferred kernel changes no bit of a run."""
    staged, staged_lstd = _churn_run(monkeypatch, "c")
    eager, eager_lstd = _churn_run(monkeypatch, "off")
    assert staged.to_dict() == eager.to_dict()
    assert _bits_of(staged_lstd.B.items()) == _bits_of(eager_lstd.B.items())
    assert _bits_of(sorted(staged_lstd.z.items())) == _bits_of(
        sorted(eager_lstd.z.items())
    )
    assert staged_lstd.retirements_applied == eager_lstd.retirements_applied
    assert staged_lstd.retirements_skipped == eager_lstd.retirements_skipped


def _bits_of(entries):
    """Entries with each float as its raw bits (``-0.0`` and NaN aware)."""
    return [
        tuple(struct.pack("<d", x) if isinstance(x, float) else x for x in entry)
        for entry in entries
    ]
