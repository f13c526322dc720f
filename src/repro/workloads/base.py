"""Workload-trace interfaces.

A workload is a matrix of demanded CPU-utilization fractions indexed by
``(vm_id, step)`` plus an activity mask (Google-style traces have VMs that
sit idle between tasks).  Both the simulator and the workload-statistics
helpers consume this interface only, so synthetic generators and real-trace
loaders are interchangeable.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import TraceError


@runtime_checkable
class Workload(Protocol):
    """Read-only view of a CPU-utilization trace for a fleet of VMs.

    ``step_slice`` is the member the simulation driver reads: it writes
    a whole interval's columns into the datacenter in one vector pass.
    Its values must lie in ``[0, 1]`` (implementations validate at
    construction; the driver does not re-check them).  The per-VM calls
    serve statistics and analysis code.
    """

    @property
    def num_vms(self) -> int:
        ...

    @property
    def num_steps(self) -> int:
        ...

    def utilization(self, vm_id: int, step: int) -> float:
        """Demanded CPU fraction of VM ``vm_id`` at step ``step``."""
        ...

    def is_active(self, vm_id: int, step: int) -> bool:
        """Whether the VM has a running workload at the step."""
        ...

    def step_slice(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """Whole per-step columns ``(active, utilization)`` (see
        :meth:`ArrayWorkload.step_slice`)."""
        ...


class ArrayWorkload:
    """Workload backed by a dense ``(num_vms, num_steps)`` array.

    Args:
        utilizations: demanded utilization fractions in ``[0, 1]``.
        active: optional boolean activity mask of the same shape; defaults
            to always-active.
        name: label used in reports.
    """

    def __init__(
        self,
        utilizations: np.ndarray,
        active: np.ndarray | None = None,
        name: str = "workload",
    ) -> None:
        matrix = np.asarray(utilizations, dtype=float)
        if matrix.ndim != 2:
            raise TraceError("utilizations must be a 2-D (vms, steps) array")
        if matrix.size == 0:
            raise TraceError("workload must contain at least one sample")
        # Written as "not inside" so NaN, which fails every comparison,
        # is rejected too.
        if not np.all((matrix >= 0.0) & (matrix <= 1.0)):
            raise TraceError("utilizations must lie in [0, 1]")
        self._matrix = matrix
        if active is None:
            self._active = np.ones(matrix.shape, dtype=bool)
        else:
            mask = np.asarray(active, dtype=bool)
            if mask.shape != matrix.shape:
                raise TraceError("activity mask must match utilizations shape")
            self._active = mask
        self.name = name

    @property
    def num_vms(self) -> int:
        return self._matrix.shape[0]

    @property
    def num_steps(self) -> int:
        return self._matrix.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The underlying (read-only) utilization matrix."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    @property
    def activity(self) -> np.ndarray:
        """The underlying (read-only) activity mask."""
        view = self._active.view()
        view.flags.writeable = False
        return view

    def _check(self, vm_id: int, step: int) -> None:
        if not 0 <= vm_id < self.num_vms:
            raise TraceError(f"vm_id {vm_id} out of range [0, {self.num_vms})")
        if not 0 <= step < self.num_steps:
            raise TraceError(f"step {step} out of range [0, {self.num_steps})")

    def utilization(self, vm_id: int, step: int) -> float:
        self._check(vm_id, step)
        if not self._active[vm_id, step]:
            return 0.0
        return float(self._matrix[vm_id, step])

    def is_active(self, vm_id: int, step: int) -> bool:
        self._check(vm_id, step)
        return bool(self._active[vm_id, step])

    def step_slice(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """Batched per-step view: ``(active, utilization)``.

        Both are read-only length-``num_vms`` columns (the same values
        the per-VM ``is_active``/``utilization`` calls return, except
        that ``utilization`` is not zero-masked — consumers apply the
        activity mask).  The simulation driver applies a whole
        interval's workload from it in one vector pass.
        """
        if not 0 <= step < self.num_steps:
            raise TraceError(f"step {step} out of range [0, {self.num_steps})")
        active = self._active[:, step].view()
        active.flags.writeable = False
        utilization = self._matrix[:, step].view()
        utilization.flags.writeable = False
        return active, utilization

    def slice_vms(self, vm_ids: Sequence[int]) -> "ArrayWorkload":
        """Restrict the workload to a subset of VMs (re-indexed densely)."""
        ids = list(vm_ids)
        if not ids:
            raise TraceError("cannot slice to zero VMs")
        return ArrayWorkload(
            self._matrix[ids, :],
            self._active[ids, :],
            name=f"{self.name}[{len(ids)} vms]",
        )

    def slice_steps(self, start: int, stop: int) -> "ArrayWorkload":
        """Restrict the workload to steps ``[start, stop)``."""
        if not 0 <= start < stop <= self.num_steps:
            raise TraceError("invalid step slice")
        return ArrayWorkload(
            self._matrix[:, start:stop],
            self._active[:, start:stop],
            name=f"{self.name}[{start}:{stop}]",
        )

    def repeat(self, times: int) -> "ArrayWorkload":
        """Tile the trace ``times`` times along the step axis."""
        if times < 1:
            raise TraceError("times must be >= 1")
        return ArrayWorkload(
            np.tile(self._matrix, (1, times)),
            np.tile(self._active, (1, times)),
            name=f"{self.name}x{times}",
        )


def concat_steps(workloads: Sequence["ArrayWorkload"]) -> "ArrayWorkload":
    """Chain workloads in time (same VM set, consecutive phases)."""
    if not workloads:
        raise TraceError("need at least one workload to concatenate")
    vms = workloads[0].num_vms
    for workload in workloads:
        if workload.num_vms != vms:
            raise TraceError("all workloads must cover the same VMs")
    return ArrayWorkload(
        np.concatenate([np.asarray(w.matrix) for w in workloads], axis=1),
        np.concatenate([np.asarray(w.activity) for w in workloads], axis=1),
        name="+".join(w.name for w in workloads),
    )


def stack_vms(workloads: Sequence["ArrayWorkload"]) -> "ArrayWorkload":
    """Merge workloads into one fleet (disjoint VM sets, same steps)."""
    if not workloads:
        raise TraceError("need at least one workload to stack")
    steps = workloads[0].num_steps
    for workload in workloads:
        if workload.num_steps != steps:
            raise TraceError("all workloads must cover the same steps")
    return ArrayWorkload(
        np.concatenate([np.asarray(w.matrix) for w in workloads], axis=0),
        np.concatenate([np.asarray(w.activity) for w in workloads], axis=0),
        name="|".join(w.name for w in workloads),
    )
