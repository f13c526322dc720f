"""Workload traces: synthetic PlanetLab / Google Cluster generators and loaders."""

from repro.workloads.base import (
    ArrayWorkload,
    Workload,
    concat_steps,
    stack_vms,
)
from repro.workloads.planetlab import (
    PlanetLabWorkloadConfig,
    generate_planetlab_workload,
    load_planetlab_directory,
)
from repro.workloads.google_trace import (
    GoogleTraceInterval,
    load_google_task_events,
    parse_task_events,
)
from repro.workloads.google import (
    GoogleClusterWorkloadConfig,
    GoogleTask,
    generate_google_workload,
)
from repro.workloads.synthetic import (
    constant_workload,
    periodic_workload,
    random_walk_workload,
    spike_workload,
)
from repro.workloads.queueing import (
    QueueingWorkloadConfig,
    expected_busy_fraction,
    generate_queueing_workload,
)
from repro.workloads.traces import (
    export_task_events,
    load_task_events,
    load_workload_csv,
    load_workload_npz,
    read_task_events,
    save_workload_csv,
    save_workload_npz,
)
from repro.workloads.statistics import (
    WorkloadStatistics,
    cullen_frey_coordinates,
    duration_histogram,
    summarize_workload,
)

__all__ = [
    "Workload",
    "ArrayWorkload",
    "concat_steps",
    "stack_vms",
    "PlanetLabWorkloadConfig",
    "generate_planetlab_workload",
    "load_planetlab_directory",
    "GoogleClusterWorkloadConfig",
    "GoogleTraceInterval",
    "load_google_task_events",
    "parse_task_events",
    "GoogleTask",
    "generate_google_workload",
    "constant_workload",
    "periodic_workload",
    "random_walk_workload",
    "spike_workload",
    "QueueingWorkloadConfig",
    "generate_queueing_workload",
    "expected_busy_fraction",
    "save_workload_npz",
    "load_workload_npz",
    "save_workload_csv",
    "load_workload_csv",
    "export_task_events",
    "read_task_events",
    "load_task_events",
    "WorkloadStatistics",
    "summarize_workload",
    "cullen_frey_coordinates",
    "duration_histogram",
]
