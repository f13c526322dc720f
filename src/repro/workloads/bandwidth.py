"""Bandwidth-dimension workloads (multi-resource extension).

Section 3.1 acknowledges bandwidth as a first-class resource and claims
cost models for it "can be added as additional modules ... without
modifying Megh algorithmically"; Section 7 repeats that network sharing
fits seamlessly.  This module adds the data side of that claim: a
workload wrapper that carries a per-VM *network* utilization stream next
to the CPU one.  The simulator (see ``DatacenterConfig.bandwidth_aware``)
then treats network saturation on a host as overload, and every
scheduler sees the consequences through the ordinary cost signal.

``derive_bandwidth_workload`` synthesizes the network stream as a noisy
affine function of the CPU stream — the empirical pattern for
request-serving workloads (traffic moves with compute).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.workloads.base import ArrayWorkload, Workload


class BandwidthWorkload:
    """A CPU workload paired with a bandwidth-utilization matrix.

    Delegates the :class:`~repro.workloads.base.Workload` protocol to the
    CPU trace and adds the bandwidth column to :meth:`step_slice`, which
    the simulation driver feeds into the data center.
    """

    def __init__(
        self, cpu: ArrayWorkload, bandwidth: np.ndarray, name: str | None = None
    ) -> None:
        matrix = np.asarray(bandwidth, dtype=float)
        if matrix.shape != (cpu.num_vms, cpu.num_steps):
            raise TraceError(
                "bandwidth matrix must match the CPU workload's shape"
            )
        # "not inside" also rejects NaN, which fails every comparison.
        if not np.all((matrix >= 0.0) & (matrix <= 1.0)):
            raise TraceError("bandwidth utilizations must lie in [0, 1]")
        self._cpu = cpu
        self._bandwidth = matrix
        self.name = name or f"{cpu.name}+bandwidth"

    @property
    def num_vms(self) -> int:
        return self._cpu.num_vms

    @property
    def num_steps(self) -> int:
        return self._cpu.num_steps

    @property
    def cpu(self) -> ArrayWorkload:
        return self._cpu

    @property
    def bandwidth_matrix(self) -> np.ndarray:
        view = self._bandwidth.view()
        view.flags.writeable = False
        return view

    def utilization(self, vm_id: int, step: int) -> float:
        return self._cpu.utilization(vm_id, step)

    def is_active(self, vm_id: int, step: int) -> bool:
        return self._cpu.is_active(vm_id, step)

    def step_slice(
        self, step: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Batched per-step view with the bandwidth column attached."""
        active, utilization, _ = self._cpu.step_slice(step)
        bandwidth = self._bandwidth[:, step].view()
        bandwidth.flags.writeable = False
        return active, utilization, bandwidth


def derive_bandwidth_workload(
    cpu: Workload,
    correlation: float = 0.7,
    base_level: float = 0.05,
    noise_std: float = 0.05,
    seed: int = 0,
) -> BandwidthWorkload:
    """Synthesize a bandwidth stream correlated with the CPU stream.

    ``bw = clip(base + correlation * cpu + noise, 0, 1)`` — request-bound
    services move traffic with compute; ``correlation = 0`` gives
    CPU-independent traffic.
    """
    if not 0.0 <= correlation <= 1.0:
        raise ConfigurationError("correlation must be in [0, 1]")
    if not 0.0 <= base_level <= 1.0:
        raise ConfigurationError("base level must be in [0, 1]")
    if noise_std < 0.0:
        raise ConfigurationError("noise std must be >= 0")
    if not isinstance(cpu, ArrayWorkload):
        matrix = np.array(
            [
                [cpu.utilization(v, s) for s in range(cpu.num_steps)]
                for v in range(cpu.num_vms)
            ]
        )
        active = np.array(
            [
                [cpu.is_active(v, s) for s in range(cpu.num_steps)]
                for v in range(cpu.num_vms)
            ]
        )
        cpu = ArrayWorkload(matrix, active, name="adapted")
    rng = np.random.default_rng(seed)
    cpu_matrix = np.asarray(cpu.matrix)
    noise = rng.normal(0.0, noise_std, size=cpu_matrix.shape)
    bandwidth = np.clip(
        base_level + correlation * cpu_matrix + noise, 0.0, 1.0
    )
    bandwidth = np.where(np.asarray(cpu.activity), bandwidth, 0.0)
    return BandwidthWorkload(cpu, bandwidth)
