"""Corrupt or incomplete checkpoints fail with ConfigurationError.

A checkpoint is an NPZ archive whose members decompress lazily, so
both properties below exercise the loader end to end: a dropped field
must be named, and flipped bytes must either be detected or be
harmless — never escape as ``KeyError``, ``zlib.error`` or
``BadZipFile``.
"""

import functools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import MeghScheduler
from repro.core.checkpoint import load_agent, save_agent
from repro.errors import ConfigurationError
from repro.service.builders import build_churn_service

#: Every field a version-2 operator-tracking checkpoint must carry
#: (``config_repr`` is informational; ``policy_rng_state`` is optional).
_REQUIRED_FIELDS = (
    "version",
    "num_vms",
    "num_pms",
    "beta",
    "b_rows",
    "b_cols",
    "b_values",
    "z_indices",
    "z_values",
    "temperature",
    "steps_seen",
    "cost_running_mean",
    "costs_seen",
    "gamma",
    "agent_rng_state",
    "prev_action_indices",
    "has_last_normalized_cost",
    "last_normalized_cost",
    "dynamic_slots",
    "updates_applied",
    "updates_skipped",
    "retirements_applied",
    "retirements_skipped",
    "qtable_steps",
    "qtable_nnz",
    "operator_tracking",
    "op_rows",
    "op_cols",
    "op_values",
)


@functools.lru_cache(maxsize=None)
def _trained_checkpoint():
    """(agent, archive bytes) for a dynamic-slot agent after 25 steps."""
    service = build_churn_service(seed=2, num_steps=25)
    agent = MeghScheduler.from_simulation(service, seed=2)
    service.run(agent)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "agent.npz")
        save_agent(agent, path)
        with open(path, "rb") as handle:
            return agent, handle.read()


class TestDroppedField:
    @pytest.mark.parametrize("field", _REQUIRED_FIELDS)
    def test_missing_field_is_a_configuration_error(self, tmp_path, field):
        _, archive = _trained_checkpoint()
        source = tmp_path / "full.npz"
        source.write_bytes(archive)
        with np.load(source) as data:
            payload = {key: data[key] for key in data.files if key != field}
        path = str(tmp_path / "partial.npz")
        np.savez_compressed(path, **payload)
        with pytest.raises(ConfigurationError):
            load_agent(path)


class TestByteCorruption:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_flipped_bytes_are_detected_or_harmless(self, data):
        agent, archive = _trained_checkpoint()
        start = data.draw(st.integers(0, len(archive) - 1), label="start")
        length = data.draw(st.integers(1, 40), label="length")
        mask = data.draw(st.integers(1, 255), label="xor mask")
        corrupted = bytearray(archive)
        for offset in range(start, min(start + length, len(archive))):
            corrupted[offset] ^= mask
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "corrupt.npz")
            with open(path, "wb") as handle:
                handle.write(bytes(corrupted))
            try:
                restored = load_agent(path)
            except ConfigurationError:
                return
        # Corruption outside every checksummed member (zip timestamps,
        # padding) must leave the learned state untouched.
        assert sorted(restored.lstd.B.items()) == sorted(agent.lstd.B.items())
        assert restored.lstd.z == agent.lstd.z
