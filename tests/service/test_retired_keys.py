"""Checkpoints and cached results written with since-retired keys load.

Earlier layouts carried state for features that no longer exist: the
SLA accountant's ``bandwidth_threshold``, the migration engine's
``total_gb_hops`` counter, a sixth in-flight element (the pre-copy
stop-and-copy residue) and two bandwidth fields of
``DatacenterConfig``.  Readers ignore those keys instead of bumping a
format version, so a service resumed from such a checkpoint finishes
byte-identically and a cached result rebuilds equal.
"""

import json

import numpy as np

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.migration import Migration, MigrationEngine
from repro.cloudsim.simulation import SimulationResult
from repro.core.agent import MeghScheduler
from repro.core.checkpoint import load_service
from repro.harness.builders import build_planetlab_simulation
from repro.harness.runner import run_scheduler
from repro.service.builders import build_churn_service

from tests.conftest import make_pm, make_vm


def _key(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _add_retired_keys(state):
    """The service-state keys an older writer also stored."""
    state["sla"]["bandwidth_threshold"] = None
    state["engine"]["total_gb_hops"] = 0.0
    state["in_flight"] = [flight + [0.0] for flight in state["in_flight"]]


def test_service_resumes_byte_identically(tmp_path):
    steps, seed = 40, 3
    service = build_churn_service(seed=seed, num_steps=steps)
    full = service.run(MeghScheduler.from_simulation(service, seed=seed))

    path = str(tmp_path / "stop.npz")
    service = build_churn_service(seed=seed, num_steps=steps)
    agent = MeghScheduler.from_simulation(service, seed=seed)
    service.run(agent, checkpoint_path=path, stop_after_step=steps // 2)

    with np.load(path, allow_pickle=False) as data:
        payload = {key: data[key] for key in data.files}
    state = json.loads(str(payload["service_state"][()]))
    _add_retired_keys(state)
    payload["service_state"] = np.array(json.dumps(state), dtype=np.str_)
    legacy = str(tmp_path / "legacy.npz")
    np.savez_compressed(legacy, **payload)

    resumed_service, resumed_agent = load_service(legacy)
    assert _key(resumed_service.run(resumed_agent)) == _key(full)


def test_engine_restores_a_six_element_flight():
    """A real in-flight transfer saved with the residue element."""

    def slow_link_engine():
        pms = [make_pm(0, ram_mb=8192.0), make_pm(1, ram_mb=8192.0)]
        for pm in pms:
            pm.bandwidth_mbps = 10.0  # 4096 MB at 10 Mbps spans intervals
        datacenter = Datacenter(pms, [make_vm(0, ram_mb=4096.0)])
        datacenter.place(0, 0)
        return datacenter, MigrationEngine(datacenter)

    datacenter, engine = slow_link_engine()
    engine.start([Migration(0, 1)])
    datacenter.share_cpu()
    engine.advance(300.0)
    state = engine.state()
    assert state["in_flight"]

    legacy = {
        "in_flight": [flight + [0.0] for flight in state["in_flight"]],
        "total_migrations": state["total_migrations"],
        "total_gb_hops": 0.0,
    }
    other_dc, restored = slow_link_engine()
    other_dc.move(0, 1)
    restored.restore(legacy)
    assert restored.state() == state
    datacenter.share_cpu()
    other_dc.share_cpu()
    assert restored.advance(300.0) == engine.advance(300.0)


def test_cached_result_payload_rebuilds_equal():
    simulation = build_planetlab_simulation(
        num_pms=6, num_vms=8, num_steps=12, seed=0
    )
    result = run_scheduler(
        simulation, MeghScheduler.from_simulation(simulation, seed=0)
    )
    payload = result.to_dict()
    payload["sla"]["bandwidth_threshold"] = None
    payload["config"]["datacenter"]["bandwidth_aware"] = False
    payload["config"]["datacenter"]["bandwidth_overload_threshold"] = 0.70
    rebuilt = SimulationResult.from_dict(json.loads(json.dumps(payload)))
    assert _key(rebuilt) == _key(result)
