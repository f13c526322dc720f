"""End-to-end simulator-step throughput at paper scale (``BENCH_sim.json``).

Measures ``Simulation.run`` steps/second on the paper's PlanetLab scale
(N=1052 VMs on M=800 PMs, Section 6) with a no-migration scheduler so
the numbers isolate the *simulator* pipeline — workload application, CPU
sharing, SLA accounting, power/cost evaluation and per-step metrics —
from scheduler cost.  A probe wraps each pipeline stage with
``time.perf_counter`` so the per-phase breakdown is measured, not
estimated, and the same probe runs unmodified against either datacenter
backend:

* ``soa`` — the struct-of-arrays :class:`~repro.cloudsim.datacenter
  .Datacenter` (the "after" numbers);
* ``reference`` — the retained pure-object
  :class:`~repro.cloudsim.reference.ReferenceDatacenter` (the "before"
  pipeline; on a pre-rewrite tree it falls back to the then-current
  ``Datacenter``, which is how the committed ``before`` numbers were
  recorded).

With ``--backend both`` the script additionally asserts the two
backends produce byte-identical ``SimulationResult.to_dict()`` payloads
— same migrations, SLA windows and step costs — before reporting any
speedup.  With ``--fast`` it also runs THR-MMT on both backends (array
PABFD vs the per-PM scan) and records whether those results are
byte-identical too.  Usage::

    PYTHONPATH=src python benchmarks/bench_sim_step.py            # both
    PYTHONPATH=src python benchmarks/bench_sim_step.py --fast     # CI smoke

``--record-before`` stores the reference measurement under the
``before`` key (done once, on the pre-rewrite tree); later runs update
``after``/``reference_backend`` without disturbing it.
"""

from __future__ import annotations

import argparse
import json
import os
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

from repro.baselines.mmt.scheduler import MMTScheduler  # noqa: E402
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


def _reference_datacenter_cls():
    """The pure-object backend; pre-rewrite trees have only Datacenter."""
    try:
        from repro.cloudsim.reference import ReferenceDatacenter

        return ReferenceDatacenter
    except ImportError:
        return Datacenter


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
    backend: str, num_pms: int, num_vms: int, num_steps: int, seed: int
) -> Simulation:
    """Paper-scale PlanetLab run on the requested datacenter backend."""
    cls = Datacenter if backend == "soa" else _reference_datacenter_cls()
    pms, vms = make_planetlab_fleet(num_pms, num_vms, seed=seed)
    datacenter = cls(pms, vms)
    PLACEMENT_POLICIES["first-fit"](datacenter)
    workload = generate_planetlab_workload(
        num_vms=num_vms, num_steps=num_steps, seed=seed
    )
    config = SimulationConfig(num_steps=num_steps, seed=seed)
    return Simulation(datacenter, workload, config)


def measure_backend(
    backend: str, num_pms: int, num_vms: int, num_steps: int, seed: int
) -> Tuple[Dict, str]:
    """Run one backend; return (payload, canonical result JSON)."""
    sim = build_sim(backend, num_pms, num_vms, num_steps, seed)
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
    payload = {
        "backend": backend,
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
    return payload, canonical_result(result)


def canonical_result(result) -> str:
    """Everything a run produced except the measured scheduler wall
    time, which is non-deterministic by nature and identical in no two
    runs."""
    result_dict = result.to_dict()
    for step in result_dict.get("steps", []):
        step.pop("scheduler_seconds", None)
    return json.dumps(result_dict, sort_keys=True)


def mmt_backends_identical(
    num_pms: int, num_vms: int, num_steps: int, seed: int
) -> bool:
    """THR-MMT on both backends gives byte-identical results.

    The SoA datacenter plans with the array PABFD and the reference
    backend with the per-PM scan, so this checks their bit-identity on
    a whole run rather than on single plans.
    """
    canonicals = [
        canonical_result(
            build_sim(backend, num_pms, num_vms, num_steps, seed).run(
                MMTScheduler("THR"), validate_every_step=False
            )
        )
        for backend in ("reference", "soa")
    ]
    return canonicals[0] == canonicals[1]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=("soa", "reference", "both"),
        default="both",
        help="datacenter backend(s) to measure (default: both)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="tiny sizes for the CI smoke job",
    )
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=DEFAULT_SIM_OUTPUT)
    parser.add_argument(
        "--record-before",
        action="store_true",
        help="store the reference measurement under the 'before' key",
    )
    args = parser.parse_args(argv)

    if args.fast:
        num_pms, num_vms = 40, 52
        num_steps = args.steps if args.steps is not None else 10
    else:
        num_pms, num_vms = PAPER_NUM_PMS, PAPER_NUM_VMS
        num_steps = args.steps if args.steps is not None else 60

    existing: Dict = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as handle:
            try:
                existing = json.load(handle).get("sim_step", {})
            except json.JSONDecodeError:
                existing = {}
    section: Dict = dict(existing) if isinstance(existing, dict) else {}
    section["fast"] = bool(args.fast)

    payloads: Dict[str, Dict] = {}
    canonicals: Dict[str, str] = {}
    for backend in ("reference", "soa"):
        if args.backend not in (backend, "both"):
            continue
        payload, canonical = measure_backend(
            backend, num_pms, num_vms, num_steps, args.seed
        )
        payloads[backend] = payload
        canonicals[backend] = canonical
        print(
            f"{backend:>9}: {payload['steps_per_s_non_scheduler']:8.2f} "
            f"steps/s (non-scheduler), "
            f"{payload['sim_ms_per_step']:7.2f} ms/step"
        )
        for name, value in payload["phase_ms_per_step"].items():
            print(f"           {name:>13}: {value:7.3f} ms/step")

    if "reference" in payloads:
        key = "before" if args.record_before else "reference_backend"
        section[key] = payloads["reference"]
    if "soa" in payloads:
        section["after"] = payloads["soa"]
    if len(canonicals) == 2:
        identical = canonicals["reference"] == canonicals["soa"]
        section["identical_results_soa_vs_reference"] = identical
        if not identical:
            print("ERROR: backends diverged — refusing to record a speedup")
            return 1
        if args.fast:
            identical = mmt_backends_identical(
                num_pms, num_vms, num_steps, args.seed
            )
            section["identical_results_mmt_soa_vs_reference"] = identical
            print(f"THR-MMT identical on both backends: {identical}")
            if not identical:
                print("ERROR: THR-MMT diverged between the backends")
                return 1
    before = section.get("before") or section.get("reference_backend")
    after = section.get("after")
    if before and after:
        section["speedup_non_scheduler"] = (
            after["steps_per_s_non_scheduler"]
            / before["steps_per_s_non_scheduler"]
        )
        print(f"speedup (non-scheduler): {section['speedup_non_scheduler']:.2f}x")
    merge_section(args.out, "sim_step", section)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
