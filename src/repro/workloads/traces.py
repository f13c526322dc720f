"""Trace persistence and interchange.

Round-trips :class:`~repro.workloads.base.ArrayWorkload` through NPZ
(compact, lossless) and CSV (interoperable), and imports Google-cluster
style task-event CSVs (``vm_id,start_step,duration_steps,utilization``)
into workloads — the format ``export_task_events`` writes.
"""

from __future__ import annotations

import csv
import os
from typing import Iterable, List

import numpy as np

from repro.errors import TraceError
from repro.workloads.base import ArrayWorkload
from repro.workloads.google import GoogleTask


def save_workload_npz(workload: ArrayWorkload, path: str) -> None:
    """Save a workload (matrix + activity mask + name) to ``.npz``."""
    np.savez_compressed(
        path,
        matrix=np.asarray(workload.matrix),
        activity=np.asarray(workload.activity),
        name=np.array(workload.name),
    )


def load_workload_npz(path: str) -> ArrayWorkload:
    """Load a workload previously saved by :func:`save_workload_npz`.

    Members are decompressed inside the guarded block (``np.load`` is
    lazy), so a corrupt archive raises :class:`TraceError`, never a bare
    ``zlib.error``.
    """
    if not os.path.exists(path):
        raise TraceError(f"no such trace file: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            data = {key: archive[key] for key in archive.files}
    except Exception as exc:  # zipfile/zlib/format errors
        raise TraceError(f"cannot read NPZ trace {path}: {exc}") from exc
    if "matrix" not in data:
        raise TraceError(f"{path} is not a workload NPZ (no 'matrix')")
    matrix = data["matrix"]
    activity = data["activity"] if "activity" in data else None
    name = str(data["name"]) if "name" in data else os.path.basename(path)
    return ArrayWorkload(matrix, activity, name=name)


def save_workload_csv(workload: ArrayWorkload, path: str) -> None:
    """Save a workload as CSV: one row per VM, one column per step.

    Inactive samples are written as empty cells so activity round-trips.
    """
    matrix = np.asarray(workload.matrix)
    activity = np.asarray(workload.activity)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["vm_id", *[f"step_{s}" for s in range(workload.num_steps)]]
        )
        for vm_id in range(workload.num_vms):
            row: List[str] = [str(vm_id)]
            for step in range(workload.num_steps):
                if activity[vm_id, step]:
                    row.append(f"{matrix[vm_id, step]:.6f}")
                else:
                    row.append("")
            writer.writerow(row)


def load_workload_csv(path: str, name: str | None = None) -> ArrayWorkload:
    """Load a workload written by :func:`save_workload_csv`."""
    if not os.path.exists(path):
        raise TraceError(f"no such trace file: {path}")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"{path} is empty") from None
        if not header or header[0] != "vm_id":
            raise TraceError(f"{path} lacks the workload CSV header")
        num_steps = len(header) - 1
        rows: List[List[str]] = [row for row in reader if row]
    if not rows:
        raise TraceError(f"{path} contains no VM rows")
    matrix = np.zeros((len(rows), num_steps))
    activity = np.zeros((len(rows), num_steps), dtype=bool)
    for index, row in enumerate(rows):
        if len(row) != num_steps + 1:
            raise TraceError(
                f"{path}: row {index} has {len(row) - 1} samples, "
                f"expected {num_steps}"
            )
        for step, cell in enumerate(row[1:]):
            if cell == "":
                continue
            try:
                value = float(cell)
            except ValueError:
                raise TraceError(
                    f"{path}: row {index} step {step}: not a number: {cell!r}"
                ) from None
            matrix[index, step] = value
            activity[index, step] = True
    return ArrayWorkload(
        matrix, activity, name=name or os.path.basename(path)
    )


def export_task_events(tasks: Iterable[GoogleTask], path: str) -> None:
    """Write tasks as a Google-cluster-style event CSV."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["vm_id", "start_step", "duration_steps", "utilization"]
        )
        for task in tasks:
            writer.writerow(
                [
                    task.vm_id,
                    task.start_step,
                    task.duration_steps,
                    f"{task.utilization:.6f}",
                ]
            )


def load_task_events(
    path: str, num_vms: int | None = None, num_steps: int | None = None
) -> ArrayWorkload:
    """Build a workload from a task-event CSV.

    ``num_vms`` / ``num_steps`` default to the smallest matrix that fits
    every event; pass them explicitly to pad or validate.
    """
    tasks = read_task_events(path)
    if not tasks:
        raise TraceError(f"{path} contains no task events")
    max_vm = max(task.vm_id for task in tasks)
    max_step = max(task.end_step for task in tasks)
    vms = num_vms if num_vms is not None else max_vm + 1
    steps = num_steps if num_steps is not None else max_step
    if max_vm >= vms:
        raise TraceError(
            f"{path} references vm {max_vm} but num_vms={vms}"
        )
    if max_step > steps:
        raise TraceError(
            f"{path} has events ending at step {max_step} but "
            f"num_steps={steps}"
        )
    matrix = np.zeros((vms, steps))
    activity = np.zeros((vms, steps), dtype=bool)
    for task in tasks:
        matrix[task.vm_id, task.start_step : task.end_step] = task.utilization
        activity[task.vm_id, task.start_step : task.end_step] = True
    return ArrayWorkload(matrix, activity, name=os.path.basename(path))


def read_task_events(path: str) -> List[GoogleTask]:
    """Parse a task-event CSV into :class:`GoogleTask` records."""
    if not os.path.exists(path):
        raise TraceError(f"no such trace file: {path}")
    tasks: List[GoogleTask] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"vm_id", "start_step", "duration_steps", "utilization"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise TraceError(
                f"{path} lacks task-event columns {sorted(required)}"
            )
        for line, row in enumerate(reader, start=2):
            try:
                task = GoogleTask(
                    vm_id=int(row["vm_id"]),
                    start_step=int(row["start_step"]),
                    duration_steps=int(row["duration_steps"]),
                    utilization=float(row["utilization"]),
                )
            except (TypeError, ValueError) as exc:
                raise TraceError(f"{path}:{line}: bad task event: {exc}") from exc
            if task.duration_steps < 1 or task.start_step < 0:
                raise TraceError(f"{path}:{line}: non-positive task extent")
            if not 0.0 <= task.utilization <= 1.0:
                raise TraceError(f"{path}:{line}: utilization out of [0, 1]")
            tasks.append(task)
    return tasks
