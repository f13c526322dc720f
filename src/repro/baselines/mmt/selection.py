"""VM selection: which VM to evict from an overloaded host.

The paper's contenders all use **Minimum Migration Time** selection: evict
the VM whose migration finishes fastest (``ram / bandwidth``), repeating
until the host drops below the threshold.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cloudsim.datacenter import Datacenter


class MinimumMigrationTimeSelection:
    """MMT: evict the VM with the smallest migration time first."""

    name = "MMT"

    def select(
        self, datacenter: Datacenter, vm_ids: Sequence[int]
    ) -> List[int]:
        return sorted(
            vm_ids,
            key=lambda vm_id: datacenter.vm(vm_id).migration_time_seconds(),
        )
