"""Tests for the configuration dataclasses and their validation."""

import pytest

from repro.config import (
    CostConfig,
    DatacenterConfig,
    MeghConfig,
    SimulationConfig,
)
from repro.errors import ConfigurationError


class TestCostConfig:
    def test_paper_defaults(self):
        config = CostConfig()
        assert config.energy_price_usd_per_kwh == pytest.approx(0.18675)
        assert config.vm_price_usd_per_hour == pytest.approx(1.2)
        assert config.payback_minor == pytest.approx(0.167)
        assert config.payback_major == pytest.approx(0.333)
        assert config.minor_downtime_threshold == pytest.approx(0.0005)
        assert config.major_downtime_threshold == pytest.approx(0.001)

    def test_watt_second_conversion(self):
        config = CostConfig(energy_price_usd_per_kwh=3.6)
        # 3.6 USD/kWh = 3.6 / (1000 * 3600) USD per watt-second = 1e-6.
        assert config.energy_price_usd_per_watt_second == pytest.approx(1e-6)

    def test_billing_window_default(self):
        assert CostConfig().sla_billing_window_seconds == pytest.approx(7200.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"energy_price_usd_per_kwh": -1.0},
            {"vm_price_usd_per_hour": -0.1},
            # A -0.0 refund factor would make a refund term -0.0.
            {"vm_price_usd_per_hour": -0.0},
            {"payback_minor": -0.0},
            {"payback_minor": -0.0, "payback_major": -0.0},
            {"payback_minor": 0.5, "payback_major": 0.2},
            {"minor_downtime_threshold": 0.01, "major_downtime_threshold": 0.001},
            {"sla_billing_window_seconds": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            CostConfig(**kwargs)


class TestDatacenterConfig:
    def test_paper_defaults(self):
        config = DatacenterConfig()
        assert config.overload_threshold == pytest.approx(0.70)
        assert config.migration_cpu_threshold == pytest.approx(0.30)
        assert config.sleep_idle_hosts
        assert config.migration_overhead_fraction == pytest.approx(0.10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"overload_threshold": 0.0},
            {"overload_threshold": 1.5},
            {"migration_cpu_threshold": -0.1},
            {"migration_overhead_fraction": 1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            DatacenterConfig(**kwargs)


class TestMeghConfig:
    def test_paper_defaults(self):
        config = MeghConfig()
        assert config.gamma == pytest.approx(0.5)
        assert config.initial_temperature == pytest.approx(3.0)
        assert config.temperature_decay == pytest.approx(0.01)
        assert config.max_migration_fraction == pytest.approx(0.02)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 1.0},
            {"initial_temperature": 0.0},
            {"temperature_decay": -0.1},
            {"min_temperature": 0.0},
            {"delta": 0.0},
            {"max_migration_fraction": 0.0},
            {"cost_scale": 0.0},
            {"underload_threshold": 1.5},
            {"candidate_destinations": -1},
            {"max_candidate_vms": -1},
            {"migration_margin": -0.1},
            {"destination_headroom": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            MeghConfig(**kwargs)

    def test_delta_none_allowed(self):
        assert MeghConfig(delta=None).delta is None

    def test_cost_scale_none_allowed(self):
        assert MeghConfig(cost_scale=None).cost_scale is None


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.interval_seconds == pytest.approx(300.0)
        assert config.num_steps == 288

    def test_total_seconds(self):
        config = SimulationConfig(interval_seconds=300.0, num_steps=10)
        assert config.total_seconds == pytest.approx(3000.0)

    def test_nested_configs_default(self):
        config = SimulationConfig()
        assert isinstance(config.costs, CostConfig)
        assert isinstance(config.datacenter, DatacenterConfig)

    @pytest.mark.parametrize(
        "kwargs",
        [{"interval_seconds": 0.0}, {"num_steps": 0}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**kwargs)

    def test_frozen(self):
        config = SimulationConfig()
        with pytest.raises(Exception):
            config.num_steps = 5
