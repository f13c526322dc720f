"""The benchmark's three workloads and the layer patches of its traced run.

Every workload is a closed loop: the simulator starts each five-minute
step when the previous one returns, with no arrival schedule.  Inputs
come only from the seed handed to the builder.  Why each workload exists
is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

import repro.baselines.mmt.scheduler as mmt_scheduler_module
import repro.cloudsim.simulation as simulation_module
import repro.service.builders as service_builders
import repro.service.loop as service_loop
from repro.baselines.mmt.scheduler import MMTScheduler
from repro.cloudsim.migration import MigrationEngine
from repro.cloudsim.monitor import UtilizationMonitor
from repro.cloudsim.sla import SlaAccountant
from repro.config import SimulationConfig
from repro.core.agent import MeghScheduler
from repro.costs.model import OperationCostModel
from repro.harness.builders import build_simulation
from repro.service.builders import build_churn_service
from repro.workloads.planetlab import generate_planetlab_workload
from spans import Tracer

#: The seed used when none is given, and one kept back from tuning so a
#: later claim can be re-checked on inputs its author did not look at.
DEFAULT_SEED = 0
HELD_OUT_SEED = 20170605

#: The paper's PlanetLab fleet (Section 6) and 7-day horizon.
PAPER_PMS, PAPER_VMS, PAPER_STEPS = 800, 1052, 2016


@dataclass
class Built:
    """One set-up workload: the simulator and the scheduler it drives."""

    sim: Any
    scheduler: Any
    num_steps: int


def _megh(sim: Any, seed: int) -> MeghScheduler:
    return MeghScheduler.from_simulation(sim, seed=seed, contracts=False)


def _lrr_mmt(sim: Any, seed: int) -> MMTScheduler:
    del sim, seed  # LRR-MMT is deterministic and sized by what it observes
    return MMTScheduler("LRR")


def _planetlab(
    tracer: Tracer,
    seed: int,
    num_pms: int,
    num_vms: int,
    num_steps: int,
    make_scheduler: Callable[[Any, int], Any],
) -> Built:
    workload = tracer.wrap("setup.workload", generate_planetlab_workload)(
        num_vms=num_vms, num_steps=num_steps, seed=seed
    )
    sim = tracer.wrap("setup.fleet", build_simulation)(
        workload,
        num_pms=num_pms,
        num_vms=num_vms,
        config=SimulationConfig(num_steps=num_steps, seed=seed),
        placement="first-fit",
        fleet_seed=seed,
    )
    scheduler = tracer.wrap("setup.scheduler", make_scheduler)(sim, seed)
    return Built(sim, scheduler, num_steps)


def build_megh_planetlab(tracer: Tracer, seed: int, smoke: bool) -> Built:
    if smoke:
        return _planetlab(tracer, seed, 10, 14, 40, _megh)
    return _planetlab(
        tracer, seed, PAPER_PMS, PAPER_VMS, PAPER_STEPS, _megh
    )


def build_mmt_planetlab(tracer: Tracer, seed: int, smoke: bool) -> Built:
    # A quarter of the paper fleet at the paper's VM:PM ratio, so that a
    # run repeats the horizon often enough for per-step medians.  The
    # first 12 steps fill the detector windows; 40 steps leave ten
    # samples beyond the p75 step time of one horizon.
    if smoke:
        return _planetlab(tracer, seed, 10, 14, 40, _lrr_mmt)
    return _planetlab(
        tracer, seed, PAPER_PMS // 4, PAPER_VMS // 4, 40, _lrr_mmt
    )


def build_megh_churn(tracer: Tracer, seed: int, smoke: bool) -> Built:
    if smoke:
        params: Dict[str, Any] = dict(
            num_pms=8, capacity=12, num_steps=40, arrival_rate=0.8,
            mean_lifetime_steps=16.0, initial_vms=6,
        )
    else:
        params = dict(
            num_pms=120, capacity=180, num_steps=1008, arrival_rate=4.0,
            mean_lifetime_steps=48.0, initial_vms=90,
        )
    # The churn schedule is the workload; it is generated inside the
    # service builder, so its constructor is timed where it is called.
    tracer.patch(service_builders, "ChurnModel", "setup.workload")
    try:
        service = tracer.wrap("setup.fleet", build_churn_service)(
            seed=seed, **params
        )
    finally:
        tracer.restore()
    scheduler = tracer.wrap("setup.scheduler", _megh)(service, seed)
    return Built(service, scheduler, params["num_steps"])


WORKLOADS: Dict[str, Callable[[Tracer, int, bool], Built]] = {
    "megh-planetlab": build_megh_planetlab,
    "mmt-planetlab": build_mmt_planetlab,
    "megh-churn": build_megh_churn,
}


class Counts:
    """Event counts taken at the patched boundaries of a traced run."""

    def __init__(self) -> None:
        self.candidate_actions = 0
        self.place_calls = 0
        self.place_full = 0

    def plan(self, plan: Any, args: tuple) -> None:
        self.candidate_actions += plan.num_actions

    def place(self, placed: Any, args: tuple) -> None:
        # power_aware_best_fit(datacenter, vm_ids, ...) -> {vm_id: pm_id}
        self.place_calls += 1
        self.place_full += len(placed) == len(args[1])


def instrument(tracer: Tracer, built: Built, counts: Counts) -> None:
    """Patch every layer boundary the traced run records.

    Objects the driver builds itself during ``run`` (migration engine,
    SLA accountant, cost model, monitor) are patched on their classes;
    everything else on the objects of this run only.
    """
    sim, scheduler = built.sim, built.scheduler
    tracer.patch(scheduler, "decide", "decide")

    tracer.patch(UtilizationMonitor, "observe", "cloudsim.monitor")
    tracer.patch(MigrationEngine, "start", "cloudsim.migration")
    tracer.patch(MigrationEngine, "advance", "cloudsim.migration")
    tracer.patch(SlaAccountant, "observe_step", "cloudsim.sla")
    datacenter = sim.datacenter
    tracer.patch(datacenter, "share_cpu", "cloudsim.share_cpu")
    for attr in ("num_active_hosts", "sleep_idle_hosts", "overloaded_pm_ids"):
        tracer.patch(datacenter, attr, "cloudsim.host_scan")
    for module in (simulation_module, service_loop):
        tracer.patch(module, "observe_state", "mdp.observe_state")
    tracer.patch(OperationCostModel, "step_cost", "costs.step_cost")
    workload = getattr(sim, "workload", None)
    if workload is not None:
        tracer.patch(workload, "step_slice", "workloads.step_slice")

    if isinstance(scheduler, MeghScheduler):
        tracer.patch(
            scheduler.candidate_index, "plan", "core.candidates", counts.plan
        )
        tracer.patch(scheduler.lstd, "q_values", "core.q")
        tracer.patch(scheduler.lstd, "update", "core.update")
        tracer.patch(scheduler.lstd.B, "flush_rows", "core.flush")
        tracer.patch(scheduler.lstd.B, "flush_pending", "core.flush")
        tracer.patch(scheduler.policy, "select", "core.select")
        tracer.patch(scheduler, "retire_vm", "core.retire")
    if isinstance(scheduler, MMTScheduler):
        tracer.patch(scheduler.detector, "is_overloaded", "mmt.detect")
        tracer.patch(scheduler.detector, "threshold", "mmt.detect")
        tracer.patch(scheduler.selection, "select", "mmt.select")
        tracer.patch(
            mmt_scheduler_module,
            "power_aware_best_fit",
            "mmt.place",
            counts.place,
        )
