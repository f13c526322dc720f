"""Initial VM placement policies.

The paper's MadVM comparison starts from a uniform-random allocation "such
that there is no initial bias"; the full-scale experiments inherit
CloudSim's first-fit style initial allocation.  Both are provided, plus
round-robin and a load-balanced greedy for tests and examples.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.simulation import first_fit_ram
from repro.errors import CapacityError, PlacementError


def _placeable_pms(datacenter: Datacenter, vm_id: int) -> Sequence[int]:
    return [
        pm.pm_id
        for pm in datacenter.pms  # meghlint: ignore[MEGH009] -- cold path: initial placement, runs once per experiment
        if datacenter.vm(vm_id).ram_mb <= datacenter.ram_free_mb(pm.pm_id)
    ]


def place_first_fit(datacenter: Datacenter) -> None:
    """Place every unplaced VM on the first host with enough free RAM.

    One free-RAM vector query per VM (:func:`first_fit_ram`) instead of
    a ``place`` attempt per host.
    """
    for vm in datacenter.vms:  # meghlint: ignore[MEGH009] -- cold path: initial placement, runs once per experiment
        if datacenter.is_placed(vm.vm_id):
            continue
        if not first_fit_ram(datacenter, vm.vm_id):
            raise PlacementError(f"VM {vm.vm_id} fits on no host")


def place_round_robin(datacenter: Datacenter) -> None:
    """Place VMs cyclically across hosts, skipping full ones."""
    num_pms = datacenter.num_pms
    cursor = 0
    for vm in datacenter.vms:  # meghlint: ignore[MEGH009] -- cold path: initial placement, runs once per experiment
        if datacenter.is_placed(vm.vm_id):
            continue
        for offset in range(num_pms):
            pm_id = (cursor + offset) % num_pms
            try:
                datacenter.place(vm.vm_id, pm_id)
                cursor = (pm_id + 1) % num_pms
                break
            except CapacityError:
                continue
        else:
            raise PlacementError(f"VM {vm.vm_id} fits on no host")


def place_uniform_random(datacenter: Datacenter, seed: int = 0) -> None:
    """Place every VM on a uniformly random feasible host (MadVM setup)."""
    rng = random.Random(seed)
    for vm in datacenter.vms:  # meghlint: ignore[MEGH009] -- cold path: initial placement, runs once per experiment
        if datacenter.is_placed(vm.vm_id):
            continue
        candidates = _placeable_pms(datacenter, vm.vm_id)
        if not candidates:
            raise PlacementError(f"VM {vm.vm_id} fits on no host")
        datacenter.place(vm.vm_id, rng.choice(list(candidates)))


def place_balanced(datacenter: Datacenter) -> None:
    """Greedy balance: place each VM on the feasible host with most free RAM."""
    for vm in datacenter.vms:  # meghlint: ignore[MEGH009] -- cold path: initial placement, runs once per experiment
        if datacenter.is_placed(vm.vm_id):
            continue
        candidates = _placeable_pms(datacenter, vm.vm_id)
        if not candidates:
            raise PlacementError(f"VM {vm.vm_id} fits on no host")
        best = max(candidates, key=datacenter.ram_free_mb)
        datacenter.place(vm.vm_id, best)


#: Name -> policy map used by builders and the CLI.
PLACEMENT_POLICIES = {
    "first-fit": place_first_fit,
    "round-robin": place_round_robin,
    "random": place_uniform_random,
    "balanced": place_balanced,
}
