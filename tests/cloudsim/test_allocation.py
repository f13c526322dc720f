"""Unit tests for the initial placement policies."""

import numpy as np
import pytest

from repro.cloudsim.allocation import (
    PLACEMENT_POLICIES,
    place_balanced,
    place_first_fit,
    place_round_robin,
    place_uniform_random,
)
from repro.cloudsim.datacenter import Datacenter
from repro.errors import CapacityError, PlacementError

from tests.conftest import make_pm, make_vm


def fresh_dc(num_pms=4, num_vms=6, vm_ram=1024.0):
    pms = [make_pm(i) for i in range(num_pms)]
    vms = [make_vm(j, ram_mb=vm_ram) for j in range(num_vms)]
    return Datacenter(pms, vms)


class TestFirstFit:
    def test_packs_onto_early_hosts(self):
        dc = fresh_dc()
        place_first_fit(dc)
        # 4 x 1024 MB fit on host 0, the rest overflow to host 1.
        assert dc.vms_on(0) == {0, 1, 2, 3}
        assert dc.vms_on(1) == {4, 5}

    def test_all_placed(self):
        dc = fresh_dc()
        place_first_fit(dc)
        assert all(dc.is_placed(j) for j in range(dc.num_vms))

    def test_raises_when_impossible(self):
        dc = fresh_dc(num_pms=1, num_vms=5)
        with pytest.raises(PlacementError):
            place_first_fit(dc)

    def test_skips_already_placed(self):
        dc = fresh_dc()
        dc.place(0, 3)
        place_first_fit(dc)
        assert dc.host_of(0) == 3


def _scan_first_fit(datacenter: Datacenter) -> None:
    """The per-host scan: try ``place`` on every host in id order."""
    for vm in datacenter.vms:
        if datacenter.is_placed(vm.vm_id):
            continue
        for pm in datacenter.pms:
            try:
                datacenter.place(vm.vm_id, pm.pm_id)
                break
            except CapacityError:
                continue
        else:
            raise PlacementError(f"VM {vm.vm_id} fits on no host")


def _mixed_fleet(seed: int, impossible: bool = False):
    """A heterogeneous-RAM fleet, some VMs pre-placed; with
    ``impossible`` one VM is larger than every host."""
    rng = np.random.default_rng(seed)
    num_pms = int(rng.integers(1, 12))
    num_vms = int(rng.integers(1, 30))
    pm_ram = rng.choice([1024.0, 2048.0, 3072.5, 4096.0, 8192.0], num_pms)
    vm_ram = rng.choice([128.0, 512.0, 613.25, 1024.0, 1740.0], num_vms)
    if impossible:
        vm_ram[int(rng.integers(0, num_vms))] = float(pm_ram.max()) + 1.0
    datacenter = Datacenter(
        [make_pm(i, ram_mb=float(ram)) for i, ram in enumerate(pm_ram)],
        [make_vm(j, ram_mb=float(ram)) for j, ram in enumerate(vm_ram)],
    )
    for vm_id in rng.permutation(num_vms)[: int(rng.integers(0, 4))]:
        pm_id = int(rng.integers(0, num_pms))
        if vm_ram[vm_id] <= datacenter.ram_free_mb(pm_id):
            datacenter.place(int(vm_id), pm_id)
    return datacenter


def _outcome(policy, datacenter):
    try:
        policy(datacenter)
    except PlacementError as error:
        return str(error), datacenter.placement()
    return None, datacenter.placement()


@pytest.mark.parametrize("impossible", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_first_fit_matches_the_host_scan(seed, impossible):
    expected = _outcome(_scan_first_fit, _mixed_fleet(seed, impossible))
    assert _outcome(place_first_fit, _mixed_fleet(seed, impossible)) == (
        expected
    )
    if impossible:
        assert expected[0] is not None


class TestRoundRobin:
    def test_spreads_across_hosts(self):
        dc = fresh_dc()
        place_round_robin(dc)
        assert [dc.host_of(j) for j in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_skips_full_hosts(self):
        dc = fresh_dc(num_pms=2, num_vms=6)
        place_round_robin(dc)
        assert all(dc.is_placed(j) for j in range(6))
        assert len(dc.vms_on(0)) <= 4


class TestUniformRandom:
    def test_deterministic_given_seed(self):
        dc1, dc2 = fresh_dc(), fresh_dc()
        place_uniform_random(dc1, seed=5)
        place_uniform_random(dc2, seed=5)
        assert dc1.placement() == dc2.placement()

    def test_different_seeds_differ(self):
        dc1, dc2 = fresh_dc(num_pms=8, num_vms=12, vm_ram=256.0), fresh_dc(
            num_pms=8, num_vms=12, vm_ram=256.0
        )
        place_uniform_random(dc1, seed=1)
        place_uniform_random(dc2, seed=2)
        assert dc1.placement() != dc2.placement()

    def test_respects_capacity(self):
        dc = fresh_dc(num_pms=2, num_vms=8)
        place_uniform_random(dc, seed=0)
        for pm_id in range(2):
            assert dc.ram_used_mb(pm_id) <= dc.pm(pm_id).ram_mb


class TestBalanced:
    def test_prefers_emptiest_host(self):
        dc = fresh_dc()
        place_balanced(dc)
        sizes = [len(dc.vms_on(i)) for i in range(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_raises_when_impossible(self):
        dc = fresh_dc(num_pms=1, num_vms=5)
        with pytest.raises(PlacementError):
            place_balanced(dc)


def test_policy_registry_complete():
    assert set(PLACEMENT_POLICIES) == {
        "first-fit",
        "round-robin",
        "random",
        "balanced",
    }
