"""Exact round-trip tests for SimulationResult serialization."""

import pytest

from repro.baselines.random_policy import RandomScheduler
from repro.engine.serialize import (
    RESULT_SCHEMA_VERSION,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.errors import SerializationError
from repro.harness.builders import build_planetlab_simulation


@pytest.fixture(scope="module")
def result():
    simulation = build_planetlab_simulation(
        num_pms=4, num_vms=6, num_steps=12, seed=0
    )
    # RandomScheduler triggers migrations, SLA accrual, and host sleeps,
    # populating every serialized substructure.
    return simulation.run(RandomScheduler(migrations_per_step=1, seed=0))


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self, result):
        payload = result_to_dict(result)
        rebuilt = result_from_dict(payload)
        assert result_to_dict(rebuilt) == payload

    def test_json_round_trip_is_exact(self, result):
        text = result_to_json(result)
        rebuilt = result_from_json(text)
        assert result_to_json(rebuilt) == text

    def test_scalar_metrics_bit_identical(self, result):
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.scheduler_name == result.scheduler_name
        assert rebuilt.total_cost_usd == result.total_cost_usd
        assert rebuilt.total_migrations == result.total_migrations
        assert rebuilt.mean_active_hosts == result.mean_active_hosts
        assert rebuilt.mean_scheduler_ms == result.mean_scheduler_ms
        assert rebuilt.num_pms == result.num_pms
        assert rebuilt.num_vms == result.num_vms

    def test_series_bit_identical(self, result):
        rebuilt = result_from_dict(result_to_dict(result))
        assert (
            rebuilt.metrics.per_step_cost_series()
            == result.metrics.per_step_cost_series()
        )
        assert (
            rebuilt.metrics.active_host_series()
            == result.metrics.active_host_series()
        )

    def test_sla_state_preserved(self, result):
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.sla.beta == result.sla.beta
        assert rebuilt.sla.overall_sla_violation() == (
            result.sla.overall_sla_violation()
        )
        for vm_id, record in result.sla.vms.items():
            assert (
                rebuilt.sla.vms[vm_id].window_entries()
                == record.window_entries()
            )

    def test_config_preserved(self, result):
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.config == result.config

    def test_result_methods_delegate(self, result):
        # The SimulationResult.to_dict/from_dict satellite API.
        payload = result.to_dict()
        rebuilt = type(result).from_dict(payload)
        assert rebuilt.to_dict() == payload


class TestErrors:
    def test_schema_version_checked(self, result):
        payload = result_to_dict(result)
        payload["schema"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(SerializationError):
            result_from_dict(payload)

    def test_malformed_payload_rejected(self):
        with pytest.raises(SerializationError):
            result_from_dict({"schema": RESULT_SCHEMA_VERSION})

    def test_malformed_json_rejected(self):
        with pytest.raises(SerializationError):
            result_from_json("{not json")
