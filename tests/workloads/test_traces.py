"""Tests for trace persistence (NPZ/CSV/task events)."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.workloads.base import ArrayWorkload
from repro.workloads.google import GoogleTask, generate_google_workload
from repro.workloads.planetlab import generate_planetlab_workload
from repro.workloads.traces import (
    export_task_events,
    load_task_events,
    load_workload_csv,
    load_workload_npz,
    read_task_events,
    save_workload_csv,
    save_workload_npz,
)


@pytest.fixture
def masked_workload():
    matrix = np.array([[0.25, 0.5, 0.0], [0.75, 0.0, 1.0]])
    activity = np.array([[True, True, False], [True, False, True]])
    return ArrayWorkload(matrix, activity, name="masked")


class TestNpzRoundTrip:
    def test_matrix_and_mask_preserved(self, masked_workload, tmp_path):
        path = str(tmp_path / "trace.npz")
        save_workload_npz(masked_workload, path)
        loaded = load_workload_npz(path)
        assert np.array_equal(loaded.matrix, masked_workload.matrix)
        assert np.array_equal(loaded.activity, masked_workload.activity)
        assert loaded.name == "masked"

    def test_planetlab_roundtrip(self, tmp_path):
        workload = generate_planetlab_workload(num_vms=6, num_steps=20, seed=1)
        path = str(tmp_path / "pl.npz")
        save_workload_npz(workload, path)
        loaded = load_workload_npz(path)
        assert np.allclose(loaded.matrix, workload.matrix)

    def test_missing_file(self):
        with pytest.raises(TraceError):
            load_workload_npz("/nonexistent.npz")

    def test_wrong_npz(self, tmp_path):
        path = str(tmp_path / "other.npz")
        np.savez(path, other=np.zeros(3))
        with pytest.raises(TraceError):
            load_workload_npz(path)

    def test_nan_sample_rejected(self, tmp_path):
        path = str(tmp_path / "nan.npz")
        matrix = np.full((2, 3), 0.5)
        matrix[1, 2] = np.nan
        np.savez(path, matrix=matrix, activity=np.ones((2, 3), dtype=bool))
        with pytest.raises(TraceError, match=r"\[0, 1\]"):
            load_workload_npz(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip")
        with pytest.raises(TraceError):
            load_workload_npz(str(path))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_flipped_bytes_are_detected_or_harmless(self, data):
        workload = generate_planetlab_workload(num_vms=6, num_steps=20, seed=1)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "trace.npz")
            save_workload_npz(workload, path)
            with open(path, "rb") as handle:
                corrupted = bytearray(handle.read())
            start = data.draw(
                st.integers(0, len(corrupted) - 1), label="start"
            )
            length = data.draw(st.integers(1, 40), label="length")
            mask = data.draw(st.integers(1, 255), label="xor mask")
            for offset in range(start, min(start + length, len(corrupted))):
                corrupted[offset] ^= mask
            with open(path, "wb") as handle:
                handle.write(bytes(corrupted))
            try:
                loaded = load_workload_npz(path)
            except TraceError:
                return
        # Corruption outside every checksummed member is harmless.
        assert np.array_equal(loaded.matrix, workload.matrix)
        assert np.array_equal(loaded.activity, workload.activity)


class TestCsvRoundTrip:
    def test_roundtrip_with_mask(self, masked_workload, tmp_path):
        path = str(tmp_path / "trace.csv")
        save_workload_csv(masked_workload, path)
        loaded = load_workload_csv(path)
        assert np.allclose(loaded.matrix * loaded.activity,
                           np.asarray(masked_workload.matrix)
                           * np.asarray(masked_workload.activity))
        assert np.array_equal(loaded.activity, masked_workload.activity)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TraceError):
            load_workload_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceError):
            load_workload_csv(str(path))

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("vm_id,step_0,step_1\n0,0.5\n")
        with pytest.raises(TraceError):
            load_workload_csv(str(path))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("vm_id,step_0\n0,abc\n")
        with pytest.raises(TraceError):
            load_workload_csv(str(path))

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-0.1"])
    def test_out_of_range_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "range.csv"
        path.write_text(f"vm_id,step_0,step_1\n0,0.5,{cell}\n")
        with pytest.raises(TraceError, match=r"\[0, 1\]"):
            load_workload_csv(str(path))

    def test_no_rows(self, tmp_path):
        path = tmp_path / "norows.csv"
        path.write_text("vm_id,step_0\n")
        with pytest.raises(TraceError):
            load_workload_csv(str(path))


class TestTaskEvents:
    def _tasks(self):
        return [
            GoogleTask(vm_id=0, start_step=0, duration_steps=3, utilization=0.4),
            GoogleTask(vm_id=1, start_step=2, duration_steps=2, utilization=0.8),
        ]

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "events.csv")
        export_task_events(self._tasks(), path)
        loaded = read_task_events(path)
        assert loaded == self._tasks()

    def test_build_workload_from_events(self, tmp_path):
        path = str(tmp_path / "events.csv")
        export_task_events(self._tasks(), path)
        workload = load_task_events(path)
        assert workload.num_vms == 2
        assert workload.num_steps == 4
        assert workload.utilization(0, 1) == pytest.approx(0.4)
        assert workload.utilization(1, 3) == pytest.approx(0.8)
        assert not workload.is_active(1, 0)

    def test_generated_tasks_roundtrip(self, tmp_path):
        workload, tasks = generate_google_workload(
            num_vms=5, num_steps=30, seed=0, return_tasks=True
        )
        path = str(tmp_path / "google.csv")
        export_task_events(tasks, path)
        rebuilt = load_task_events(path, num_vms=5, num_steps=30)
        # Activity masks must agree exactly; utilizations agree up to the
        # per-step noise the generator adds on top of the task level.
        assert np.array_equal(rebuilt.activity, workload.activity)

    def test_explicit_dims_validated(self, tmp_path):
        path = str(tmp_path / "events.csv")
        export_task_events(self._tasks(), path)
        with pytest.raises(TraceError):
            load_task_events(path, num_vms=1)
        with pytest.raises(TraceError):
            load_task_events(path, num_steps=2)

    def test_bad_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(TraceError):
            read_task_events(str(path))

    def test_bad_values(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "vm_id,start_step,duration_steps,utilization\n0,0,0,0.5\n"
        )
        with pytest.raises(TraceError):
            read_task_events(str(path))

    def test_utilization_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "vm_id,start_step,duration_steps,utilization\n0,0,1,1.5\n"
        )
        with pytest.raises(TraceError):
            read_task_events(str(path))

    def test_empty_events(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("vm_id,start_step,duration_steps,utilization\n")
        with pytest.raises(TraceError):
            load_task_events(str(path))
