"""The service's step-wise demand walks against the eager oracle trace.

Every live VM's ``vm_demand`` at every step must equal the element of
``tests/oracles/demand.demand_trace`` for its life so far, bit for bit —
on an uninterrupted run and on a run stopped mid-life and resumed from
its checkpoint, where the rebuilt walks catch up on their first step.
"""

import json

from repro.core.agent import MeghScheduler
from repro.core.checkpoint import load_service
from repro.service.builders import build_churn_service

from tests.oracles.demand import demand_trace

_SEED = 4
_STEPS = 48


def _record_demand(service, seen):
    """Check each step's written demand against the oracle trace."""
    apply_demand = service._apply_demand
    traces = {}

    def checked(runtime, step):
        apply_demand(runtime, step)
        demand = service.datacenter.arrays.vm_demand
        for record in runtime.live.values():
            trace = traces.get(record.uid)
            if trace is None:
                trace = demand_trace(
                    service.workload_seed,
                    record.uid,
                    record.created_step,
                    runtime.steps,
                )
                traces[record.uid] = trace
            assert demand[record.slot] == trace[step - record.created_step]
            seen.append((step, record.uid, record.created_step))

    service._apply_demand = checked


def _build():
    service = build_churn_service(seed=_SEED, num_steps=_STEPS)
    return service, MeghScheduler.from_simulation(service, seed=_SEED)


def test_uninterrupted_run_matches_oracle():
    service, agent = _build()
    seen = []
    _record_demand(service, seen)
    service.run(agent)
    assert len({uid for _, uid, _ in seen}) > service.capacity // 2
    assert len(seen) > _STEPS


def test_resumed_run_catches_up_mid_life(tmp_path):
    full_service, full_agent = _build()
    full = full_service.run(full_agent)

    cut = _STEPS // 2
    path = str(tmp_path / "walk.npz")
    service, agent = _build()
    first = []
    _record_demand(service, first)
    assert service.run(agent, checkpoint_path=path, stop_after_step=cut) is None

    resumed_service, resumed_agent = load_service(path)
    second = []
    _record_demand(resumed_service, second)
    resumed = resumed_service.run(resumed_agent)

    # Some VM was alive on both sides of the cut, so its rebuilt walk
    # had to catch up over the steps before the checkpoint.
    spanning = {uid for step, uid, _ in first if step == cut} & {
        uid for step, uid, created in second if created < cut
    }
    assert spanning
    assert json.dumps(full.to_dict(), sort_keys=True) == json.dumps(
        resumed.to_dict(), sort_keys=True
    )
