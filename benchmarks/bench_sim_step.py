"""End-to-end simulator-step throughput at paper scale (``BENCH_sim.json``).

Measures ``Simulation.run`` steps/second on the paper's PlanetLab scale
(N=1052 VMs on M=800 PMs, Section 6) with a no-migration scheduler so
the numbers isolate the *simulator* pipeline — workload application, CPU
sharing, SLA accounting, power/cost evaluation and per-step metrics —
from scheduler cost.  A probe wraps each pipeline stage with
``time.perf_counter`` so the per-phase breakdown is measured, not
estimated.  The pipeline runs on the struct-of-arrays
:class:`~repro.cloudsim.datacenter.Datacenter` only; its stages are held
bit-for-bit equal to their object-formula oracles by
``tests/cloudsim/test_pipeline_oracles.py``.  Usage::

    PYTHONPATH=src python benchmarks/bench_sim_step.py            # paper scale
    PYTHONPATH=src python benchmarks/bench_sim_step.py --fast     # CI smoke

Each run is repeated :data:`REPEATS` times back to back: the recorded
steps/s and per-phase times are the medians, with the min and max
beside them, because one run can read 1.6x slower than the next on the
same host.  The measurement is stored under the ``after`` key of the
``sim_step`` section, or of ``sim_step_fast`` for ``--fast``.  The
committed record holds both, so ``repro bench --check`` compares a fresh
``--fast`` run with a ``--fast`` reference.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ),
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from core_bench_util import (  # noqa: E402
    DEFAULT_OUTPUT,
    PAPER_NUM_PMS,
    PAPER_NUM_VMS,
    merge_section,
)

from repro.baselines.noop import NoMigrationScheduler  # noqa: E402
from repro.cloudsim.allocation import PLACEMENT_POLICIES  # noqa: E402
from repro.cloudsim.datacenter import Datacenter  # noqa: E402
from repro.cloudsim.migration import MigrationEngine  # noqa: E402
from repro.cloudsim.simulation import Simulation  # noqa: E402
from repro.cloudsim.sla import SlaAccountant  # noqa: E402
from repro.config import SimulationConfig  # noqa: E402
from repro.costs.energy import EnergyCostModel  # noqa: E402
from repro.costs.sla_cost import SlaCostModel  # noqa: E402
from repro.harness.builders import make_planetlab_fleet  # noqa: E402
from repro.workloads.planetlab import generate_planetlab_workload  # noqa: E402

DEFAULT_SIM_OUTPUT = os.path.join(
    os.path.dirname(DEFAULT_OUTPUT), "BENCH_sim.json"
)

#: Back-to-back runs per measurement.
REPEATS = 3

#: Pipeline stages instrumented by the probe, in execution order.
PHASES = (
    "workload",
    "monitor",
    "observe_state",
    "migration",
    "share_cpu",
    "sla",
    "power",
    "sla_cost",
    "metrics",
)


class PhaseProbe:
    """Wraps the per-step pipeline stages of one run with timers.

    Module- and class-level patches (``observe_state``, the utilization
    helper, MigrationEngine, SlaAccountant, cost models) are restored in
    :meth:`detach`; instance-level patches die with the simulation
    object.
    """

    def __init__(self, sim: Simulation) -> None:
        self.seconds: Dict[str, float] = {name: 0.0 for name in PHASES}
        self._restores: List[Tuple[object, str, object]] = []
        self._wrap(sim, "_apply_workload", "workload")
        self._wrap(sim.monitor, "observe", "monitor")
        import repro.cloudsim.simulation as sim_module

        self._wrap(sim_module, "observe_state", "observe_state")
        self._wrap(MigrationEngine, "start", "migration")
        self._wrap(MigrationEngine, "advance", "migration")
        self._wrap(sim.datacenter, "share_cpu", "share_cpu")
        self._wrap(SlaAccountant, "observe_step", "sla")
        self._wrap(EnergyCostModel, "step_cost", "power")
        self._wrap(SlaCostModel, "step_cost", "sla_cost")
        self._wrap(sim.datacenter, "num_active_hosts", "metrics")
        self._wrap(sim.datacenter, "sleep_idle_hosts", "metrics")
        self._wrap(sim.datacenter, "overloaded_pm_ids", "metrics")
        self._wrap(sim_module, "_mean_active_host_utilization", "metrics")

    def _wrap(self, target: object, attr: str, phase: str) -> None:
        original: Callable = getattr(target, attr)
        seconds = self.seconds

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[phase] += time.perf_counter() - started

        self._restores.append((target, attr, original))
        setattr(target, attr, timed)

    def detach(self) -> None:
        for target, attr, original in reversed(self._restores):
            setattr(target, attr, original)
        self._restores = []


def build_sim(
    num_pms: int, num_vms: int, num_steps: int, seed: int
) -> Simulation:
    """Paper-scale PlanetLab run."""
    pms, vms = make_planetlab_fleet(num_pms, num_vms, seed=seed)
    datacenter = Datacenter(pms, vms)
    PLACEMENT_POLICIES["first-fit"](datacenter)
    workload = generate_planetlab_workload(
        num_vms=num_vms, num_steps=num_steps, seed=seed
    )
    config = SimulationConfig(num_steps=num_steps, seed=seed)
    return Simulation(datacenter, workload, config)


def measure_once(
    num_pms: int, num_vms: int, num_steps: int, seed: int
) -> Dict:
    """Run the pipeline once under the probe; return its payload."""
    sim = build_sim(num_pms, num_vms, num_steps, seed)
    probe = PhaseProbe(sim)
    started = time.perf_counter()
    try:
        result = sim.run(NoMigrationScheduler(), validate_every_step=False)
    finally:
        probe.detach()
    total_seconds = time.perf_counter() - started
    scheduler_seconds = sum(
        step.scheduler_seconds for step in result.metrics.steps
    )
    sim_seconds = max(total_seconds - scheduler_seconds, 1e-12)
    phase_ms = {
        name: 1e3 * probe.seconds[name] / num_steps for name in PHASES
    }
    accounted = sum(probe.seconds.values()) + scheduler_seconds
    phase_ms["other"] = (
        1e3 * max(total_seconds - accounted, 0.0) / num_steps
    )
    return {
        "num_pms": num_pms,
        "num_vms": num_vms,
        "num_steps": num_steps,
        "steps_per_s_total": num_steps / total_seconds,
        "steps_per_s_non_scheduler": num_steps / sim_seconds,
        "sim_ms_per_step": 1e3 * sim_seconds / num_steps,
        "scheduler_ms_per_step": 1e3 * scheduler_seconds / num_steps,
        "phase_ms_per_step": phase_ms,
        "total_migrations": result.total_migrations,
        "total_cost_usd": result.total_cost_usd,
        "mean_active_hosts": result.mean_active_hosts,
    }


def measure(num_pms: int, num_vms: int, num_steps: int, seed: int) -> Dict:
    """:func:`measure_once` :data:`REPEATS` times: medians, min and max.

    The simulated outcome must not change between repeats; a run that
    does is a determinism bug, not noise, and raises.
    """
    runs = [
        measure_once(num_pms, num_vms, num_steps, seed)
        for _ in range(REPEATS)
    ]
    outcome = ("total_migrations", "total_cost_usd", "mean_active_hosts")
    first = runs[0]
    for run in runs[1:]:
        if any(run[key] != first[key] for key in outcome):
            raise RuntimeError("repeats of one seed gave different results")
    payload = {key: first[key] for key in ("num_pms", "num_vms", "num_steps")}
    payload["repeats"] = REPEATS
    for key in (
        "steps_per_s_total",
        "steps_per_s_non_scheduler",
        "sim_ms_per_step",
        "scheduler_ms_per_step",
    ):
        payload[key] = statistics.median(run[key] for run in runs)
    throughput = [run["steps_per_s_non_scheduler"] for run in runs]
    payload["steps_per_s_non_scheduler_min"] = min(throughput)
    payload["steps_per_s_non_scheduler_max"] = max(throughput)
    for suffix, reduce in (
        ("", statistics.median),
        ("_min", min),
        ("_max", max),
    ):
        payload["phase_ms_per_step" + suffix] = {
            name: reduce(run["phase_ms_per_step"][name] for run in runs)
            for name in first["phase_ms_per_step"]
        }
    payload.update({key: first[key] for key in outcome})
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="tiny sizes for the CI smoke job",
    )
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=DEFAULT_SIM_OUTPUT)
    args = parser.parse_args(argv)

    if args.fast:
        num_pms, num_vms = 40, 52
        num_steps = args.steps if args.steps is not None else 10
    else:
        num_pms, num_vms = PAPER_NUM_PMS, PAPER_NUM_VMS
        num_steps = args.steps if args.steps is not None else 60

    payload = measure(num_pms, num_vms, num_steps, args.seed)
    print(
        f"{payload['steps_per_s_non_scheduler']:8.2f} steps/s "
        f"(non-scheduler; median of {payload['repeats']}, "
        f"{payload['steps_per_s_non_scheduler_min']:.2f}-"
        f"{payload['steps_per_s_non_scheduler_max']:.2f}), "
        f"{payload['sim_ms_per_step']:7.2f} ms/step"
    )
    for name, value in payload["phase_ms_per_step"].items():
        print(
            f"  {name:>13}: {value:7.3f} ms/step "
            f"({payload['phase_ms_per_step_min'][name]:.3f}-"
            f"{payload['phase_ms_per_step_max'][name]:.3f})"
        )
    section = "sim_step_fast" if args.fast else "sim_step"
    merge_section(
        args.out, section, {"fast": bool(args.fast), "after": payload}
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
