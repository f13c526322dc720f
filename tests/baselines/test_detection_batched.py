"""Batched detectors ≡ the per-host scalar oracle, bit for bit.

Every detector judges a whole ``(W, M)`` history matrix at once; each
column's flag, threshold and (LR / LRR) prediction must equal the
historical list-based formula on that column to the last bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.mmt.detection import make_detector
from repro.cloudsim.monitor import UtilizationMonitor
from repro.cloudsim.datacenter import Datacenter

from tests.conftest import make_pm, make_vm
from tests.oracles.mmt_detection import ScalarDetector
from tests.oracles.pipeline import DequeMonitor

DETECTORS = [
    ("THR", {}),
    ("THR", {"utilization_threshold": 0.5}),
    ("IQR", {}),
    ("IQR", {"safety": 0.5, "max_threshold": 1.0}),
    ("MAD", {}),
    ("MAD", {"safety": 1.0, "max_threshold": 1.0}),
    ("LR", {}),
    ("LR", {"min_history": 2, "safety": 1.0}),
    ("LRR", {}),
    ("LRR", {"min_history": 2, "iterations": 4}),
]

#: Grid values: shared by many samples, so ties and exact medians are
#: common; 1.0 and above are saturated or overloaded hosts.
GRID = (0.0, 0.125, 0.25, 0.3, 0.5, 0.7, 0.75, 1.0, 1.25)


@st.composite
def columns(draw, length):
    """One host's history of ``length`` samples."""
    kind = draw(
        st.sampled_from(("random", "grid", "constant", "near", "high"))
    )
    if kind == "random":
        values = draw(
            st.lists(
                st.floats(0.0, 1.5, allow_nan=False),
                min_size=length,
                max_size=length,
            )
        )
    elif kind == "grid":
        values = draw(
            st.lists(
                st.sampled_from(GRID), min_size=length, max_size=length
            )
        )
    elif kind == "high":
        values = draw(
            st.lists(
                st.floats(1.0, 3.0, allow_nan=False),
                min_size=length,
                max_size=length,
            )
        )
    else:
        level = draw(st.sampled_from(GRID) | st.floats(0.0, 1.5))
        values = [level] * length
        if kind == "near" and length:
            # One sample off by an ulp-scale nudge: the residual scale
            # sits at or just above zero.
            index = draw(st.integers(0, length - 1))
            values[index] = np.nextafter(
                level, draw(st.sampled_from((-np.inf, np.inf)))
            ).item()
    return values


@st.composite
def matrices(draw):
    length = draw(st.integers(0, 12))
    width = draw(st.integers(1, 6))
    cols = [draw(columns(length)) for _ in range(width)]
    return np.array(cols, dtype=np.float64).reshape(width, length).T


def same_bits(batched, scalar):
    expected = np.asarray(scalar, dtype=np.float64)
    return np.array_equal(
        np.asarray(batched, dtype=np.float64).view(np.int64),
        expected.view(np.int64),
    )


class TestBatchedMatchesScalar:
    @pytest.mark.parametrize("name, kwargs", DETECTORS)
    @settings(max_examples=150, deadline=None)
    @given(matrix=matrices())
    def test_flags_thresholds_predictions(self, name, kwargs, matrix):
        detector = make_detector(name, **kwargs)
        oracle = ScalarDetector(detector)
        histories = [column.tolist() for column in matrix.T]
        flags = detector.is_overloaded(matrix)
        assert flags.dtype == bool
        assert flags.tolist() == [oracle.is_overloaded(h) for h in histories]
        assert same_bits(
            detector.threshold(matrix),
            [oracle.threshold(h) for h in histories],
        )
        if name in ("LR", "LRR") and matrix.shape[0] >= 1:
            assert same_bits(
                detector._predict_next(matrix),
                [oracle.predict_next(h) for h in histories],
            )

    @pytest.mark.parametrize("name", ["LR", "LRR"])
    def test_wide_seeded_matrix(self, name):
        # Thousands of columns reach the rare weights whose square
        # rounds differently as ``w * w`` than as Python's ``w ** 2``.
        rng = np.random.default_rng(2016)
        matrix = np.concatenate(
            [rng.random((12, 3000)) * 1.5, rng.integers(0, 9, (12, 1000)) / 8],
            axis=1,
        )
        detector = make_detector(name)
        oracle = ScalarDetector(detector)
        histories = [column.tolist() for column in matrix.T]
        assert same_bits(
            detector._predict_next(matrix),
            [oracle.predict_next(h) for h in histories],
        )
        assert detector.is_overloaded(matrix).tolist() == [
            oracle.is_overloaded(h) for h in histories
        ]

    @pytest.mark.parametrize("name, kwargs", DETECTORS)
    def test_one_dimensional_history_is_one_column(self, name, kwargs):
        detector = make_detector(name, **kwargs)
        history = [0.4, 0.9, 0.2, 0.65, 0.8, 0.1, 0.75]
        flag = detector.is_overloaded(history)
        assert isinstance(flag, bool)
        assert flag == ScalarDetector(detector).is_overloaded(history)
        assert detector.threshold(history) == detector.threshold(
            np.array([history]).T
        )[0]


class TestHostMatrix:
    def test_ring_matches_host_histories(self, placed_datacenter):
        monitor = UtilizationMonitor(history_length=3)
        for step in range(5):
            placed_datacenter.vm(0).set_demand(step / 10.0)
            monitor.observe(placed_datacenter)
        matrix = monitor.host_matrix()
        assert matrix.shape == (3, placed_datacenter.num_pms)
        for pm_id in range(placed_datacenter.num_pms):
            assert matrix[:, pm_id].tolist() == monitor.host_history(pm_id)

    def test_deque_storage_matches_host_histories(self):
        # The ring's matrix equals the per-host deque oracle's, wrapped.
        pms = [make_pm(i) for i in range(3)]
        vms = [make_vm(j) for j in range(4)]
        datacenter = Datacenter(pms, vms)
        for vm_id, pm_id in enumerate((0, 0, 1, 2)):
            datacenter.place(vm_id, pm_id)
        monitor = UtilizationMonitor(history_length=4)
        oracle = DequeMonitor(history_length=4)
        for step in range(6):
            datacenter.vm(step % 4).set_demand(step / 8.0)
            monitor.observe(datacenter)
            oracle.observe(datacenter)
        matrix = monitor.host_matrix()
        assert matrix.shape == (4, 3)
        for pm_id in range(3):
            assert matrix[:, pm_id].tolist() == oracle.host_history(pm_id)

    def test_empty_before_first_observation(self):
        assert UtilizationMonitor().host_matrix().shape == (0, 0)
