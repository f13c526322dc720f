"""Differential oracle: SoA ``Datacenter`` vs ``ReferenceDatacenter``.

The struct-of-arrays rewrite claims *observable equivalence*: every
public query returns bit-for-bit the same value the pre-rewrite
pure-object implementation (:class:`tests.oracles.reference_datacenter
.ReferenceDatacenter`) returns, after any sequence of mutations.
Randomized operation sequences (place / remove / move / first-fit /
demand updates / ``share_cpu`` / migration overhead / sleep) are driven
from a seeded RNG against both backends in lockstep, and after every
operation a full snapshot of every query must compare equal — as must
the pipeline's array stages on the SoA backend against their
object-formula oracles (:mod:`tests.oracles.pipeline`) on the
reference.  Whole runs are checked stage by stage in
``tests/cloudsim/test_pipeline_oracles.py``.

Floats are compared with ``==`` on purpose: the contract is bit
equality, not tolerance.
"""

import numpy as np
import pytest

from repro.baselines.noop import NoMigrationScheduler
from repro.cloudsim.allocation import PLACEMENT_POLICIES
from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.simulation import (
    Simulation,
    _mean_active_host_utilization,
    first_fit_ram,
)
from repro.config import CostConfig, DatacenterConfig, SimulationConfig
from repro.costs.energy import EnergyCostModel
from repro.errors import CapacityError, UnknownEntityError
from repro.harness.builders import make_planetlab_fleet
from repro.mdp.state import observe_state
from repro.workloads.planetlab import generate_planetlab_workload

from tests.oracles import pipeline as oracle
from tests.oracles.reference_datacenter import ReferenceDatacenter

BETA = 0.70
BW_THRESHOLD = 0.65


def make_pair(num_pms, num_vms, seed, overhead=0.10):
    """Identical fleets on both backends (fresh entity objects each)."""
    ref_pms, ref_vms = make_planetlab_fleet(num_pms, num_vms, seed=seed)
    soa_pms, soa_vms = make_planetlab_fleet(num_pms, num_vms, seed=seed)
    reference = ReferenceDatacenter(
        ref_pms, ref_vms, migration_overhead_fraction=overhead
    )
    vectorized = Datacenter(
        soa_pms, soa_vms, migration_overhead_fraction=overhead
    )
    return reference, vectorized


def snapshot(dc):
    """Every public query, exactly as a caller would observe it."""
    per_pm = {}
    for pm in dc.pms:
        pm_id = pm.pm_id
        per_pm[pm_id] = {
            "ram_used_mb": dc.ram_used_mb(pm_id),
            "ram_free_mb": dc.ram_free_mb(pm_id),
            "demanded_mips": dc.demanded_mips(pm_id),
            "demanded_utilization": dc.demanded_utilization(pm_id),
            "delivered_utilization": dc.delivered_utilization(pm_id),
            "bandwidth_demanded_mbps": dc.bandwidth_demanded_mbps(pm_id),
            "bandwidth_demanded_utilization": (
                dc.bandwidth_demanded_utilization(pm_id)
            ),
            "is_overloaded": dc.is_overloaded(pm_id, BETA),
            "asleep": pm.asleep,
            "vms_on": sorted(dc.vms_on(pm_id)),
        }
    per_vm = {}
    for vm in dc.vms:
        vm_id = vm.vm_id
        per_vm[vm_id] = {
            "host_of": dc.host_of(vm_id),
            "is_placed": dc.is_placed(vm_id),
            "is_active": vm.is_active,
            "demanded_utilization": vm.demanded_utilization,
            "delivered_utilization": vm.delivered_utilization,
            "demanded_bandwidth_utilization": (
                vm.demanded_bandwidth_utilization
            ),
            "demanded_mips": vm.demanded_mips,
            "delivered_mips": vm.delivered_mips,
        }
    return {
        "pms": per_pm,
        "vms": per_vm,
        "placement": dc.placement(),
        "active_pm_ids": dc.active_pm_ids(),
        "num_active_hosts": dc.num_active_hosts(),
        "overloaded_cpu": dc.overloaded_pm_ids(BETA),
        "overloaded_multi": dc.overloaded_pm_ids(BETA, BW_THRESHOLD),
    }


def apply_op(dc, op, args):
    """Run one mutation, returning (result, exception-or-None)."""
    try:
        return getattr(dc, op)(*args), None
    except (CapacityError, UnknownEntityError) as exc:
        return None, exc


def assert_stages_match_oracles(reference, vectorized):
    """The pipeline's stateless array stages on the SoA backend equal
    their object-formula oracles on the reference."""
    assert observe_state(vectorized, 7) == oracle.observe_state(reference, 7)
    assert _mean_active_host_utilization(
        vectorized
    ) == oracle.mean_active_host_utilization(reference)
    energy = EnergyCostModel(CostConfig())
    energy.step_cost(vectorized, 1.0)
    assert energy.total_joules == oracle.total_watts(reference) * 1.0


def run_both(reference, vectorized, op, args):
    """Apply an op to both backends and require identical outcomes."""
    ref_result, ref_exc = apply_op(reference, op, args)
    soa_result, soa_exc = apply_op(vectorized, op, args)
    assert type(ref_exc) is type(soa_exc), (op, args, ref_exc, soa_exc)
    if ref_exc is not None:
        assert str(ref_exc) == str(soa_exc), (op, args)
    assert ref_result == soa_result, (op, args)


class TestRandomizedOperationSequences:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lockstep_queries_bit_identical(self, seed):
        num_pms, num_vms = 6, 14
        reference, vectorized = make_pair(num_pms, num_vms, seed=seed)
        rng = np.random.default_rng(seed)
        ops = (
            "place",
            "place",
            "first_fit",
            "remove",
            "move",
            "demand",
            "demand",
            "bandwidth",
            "activity",
            "share_cpu",
            "overhead",
            "sleep",
        )
        for _ in range(250):
            op = ops[int(rng.integers(len(ops)))]
            vm_id = int(rng.integers(num_vms))
            pm_id = int(rng.integers(num_pms))
            if op == "place":
                run_both(reference, vectorized, "place", (vm_id, pm_id))
            elif op == "first_fit":
                if not reference.is_placed(vm_id):
                    assert first_fit_ram(vectorized, vm_id) == (
                        oracle.first_fit_ram(reference, vm_id)
                    )
            elif op == "remove":
                run_both(reference, vectorized, "remove", (vm_id,))
            elif op == "move":
                run_both(reference, vectorized, "move", (vm_id, pm_id))
            elif op == "demand":
                value = float(rng.uniform(0.0, 1.0))
                reference.vm(vm_id).set_demand(value)
                vectorized.vm(vm_id).set_demand(value)
            elif op == "bandwidth":
                value = float(rng.uniform(0.0, 1.0))
                reference.vm(vm_id).set_bandwidth_demand(value)
                vectorized.vm(vm_id).set_bandwidth_demand(value)
            elif op == "activity":
                active = bool(rng.integers(2))
                reference.vm(vm_id).set_active(active)
                vectorized.vm(vm_id).set_active(active)
            elif op == "share_cpu":
                placed = sorted(reference.placement())
                k = int(rng.integers(len(placed) + 1))
                migrating = [
                    placed[i]
                    for i in rng.choice(
                        len(placed), size=min(k, len(placed)), replace=False
                    )
                ] if placed else []
                reference.share_cpu(migrating)
                vectorized.share_cpu(migrating)
            elif op == "overhead":
                fraction = (
                    None if rng.integers(2) else float(rng.uniform(0.0, 0.5))
                )
                subset = [
                    int(j)
                    for j in rng.choice(
                        num_vms, size=int(rng.integers(1, 4)), replace=False
                    )
                ]
                reference.apply_migration_overhead(subset, fraction)
                vectorized.apply_migration_overhead(subset, fraction)
            elif op == "sleep":
                run_both(reference, vectorized, "sleep_idle_hosts", ())
            assert snapshot(reference) == snapshot(vectorized), op
            assert_stages_match_oracles(reference, vectorized)


class TestMigrationOverheadFractionRegression:
    """Satellite fix: ``share_cpu(migrating)`` must honour the configured
    ``migration_overhead_fraction`` (historically hardcoded to 0.10)."""

    @pytest.mark.parametrize("backend", ["reference", "soa"])
    def test_share_cpu_uses_configured_fraction(self, backend):
        cls = ReferenceDatacenter if backend == "reference" else Datacenter
        pms, vms = make_planetlab_fleet(2, 2, seed=0)
        dc = cls(pms, vms, migration_overhead_fraction=0.25)
        dc.place(0, 0)
        dc.place(1, 1)
        dc.vm(0).set_demand(0.4)
        dc.vm(1).set_demand(0.4)
        dc.share_cpu(migrating_vm_ids=[0])
        # Uncontended host: scale is 1, so delivered = demand * (1 - f).
        assert dc.vm(0).delivered_utilization == 0.4 * (1.0 - 0.25)
        assert dc.vm(1).delivered_utilization == 0.4

    @pytest.mark.parametrize("backend", ["reference", "soa"])
    def test_explicit_fraction_still_wins(self, backend):
        cls = ReferenceDatacenter if backend == "reference" else Datacenter
        pms, vms = make_planetlab_fleet(1, 1, seed=0)
        dc = cls(pms, vms, migration_overhead_fraction=0.25)
        dc.place(0, 0)
        dc.vm(0).set_demand(0.5)
        dc.share_cpu()
        dc.apply_migration_overhead([0], overhead_fraction=0.5)
        assert dc.vm(0).delivered_utilization == 0.5 * 0.5

    def test_simulation_plumbs_configured_fraction(self):
        pms, vms = make_planetlab_fleet(2, 2, seed=0)
        dc = Datacenter(pms, vms)
        PLACEMENT_POLICIES["first-fit"](dc)
        workload = generate_planetlab_workload(
            num_vms=2, num_steps=3, seed=0
        )
        config = SimulationConfig(
            num_steps=3,
            seed=0,
            datacenter=DatacenterConfig(migration_overhead_fraction=0.33),
        )
        sim = Simulation(dc, workload, config)
        sim.run(NoMigrationScheduler(), validate_every_step=False)
        assert dc.migration_overhead_fraction == 0.33
