"""Tests for the energy, SLA, and aggregate operation-cost models."""

import math

import pytest

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.sla import SlaAccountant
from repro.config import CostConfig
from repro.costs.energy import EnergyCostModel
from repro.costs.model import OperationCostModel, StepCost
from repro.costs.sla_cost import SlaCostModel
from repro.errors import ConfigurationError

from tests.conftest import make_pm, make_vm


@pytest.fixture
def dc():
    datacenter = Datacenter([make_pm(0), make_pm(1)], [make_vm(0)])
    datacenter.place(0, 0)
    return datacenter


class TestEnergyCost:
    def test_idle_fleet_cost(self, dc):
        config = CostConfig()
        model = EnergyCostModel(config)
        dc.share_cpu()
        cost = model.step_cost(dc, 300.0)
        # Host 0 (G4 idle 86 W) + host 1 (G5 idle 93.7 W) for 300 s.
        expected = (86.0 + 93.7) * 300.0 * config.energy_price_usd_per_watt_second
        assert cost == pytest.approx(expected)
        assert model.total_usd == pytest.approx(expected)
        assert model.total_joules == pytest.approx((86.0 + 93.7) * 300.0)

    def test_sleeping_host_free(self, dc):
        model = EnergyCostModel(CostConfig())
        dc.pm(1).sleep()
        dc.share_cpu()
        cost_awake = (
            86.0 * 300.0 * CostConfig().energy_price_usd_per_watt_second
        )
        assert model.step_cost(dc, 300.0) == pytest.approx(cost_awake)

    def test_utilization_raises_cost(self, dc):
        low = EnergyCostModel(CostConfig())
        high = EnergyCostModel(CostConfig())
        dc.share_cpu()
        low_cost = low.step_cost(dc, 300.0)
        dc.vm(0).set_demand(1.0)
        dc.share_cpu()
        high_cost = high.step_cost(dc, 300.0)
        assert high_cost > low_cost

    def test_accumulates(self, dc):
        model = EnergyCostModel(CostConfig())
        dc.share_cpu()
        first = model.step_cost(dc, 300.0)
        model.step_cost(dc, 300.0)
        assert model.total_usd == pytest.approx(2 * first)

    def test_invalid_interval(self, dc):
        model = EnergyCostModel(CostConfig())
        with pytest.raises(ConfigurationError):
            model.step_cost(dc, 0.0)


class TestSlaCost:
    def test_payback_tiers(self):
        model = SlaCostModel(CostConfig())
        assert model.payback_rate(0.0) == 0.0
        assert model.payback_rate(0.0004) == 0.0
        assert model.payback_rate(0.0007) == pytest.approx(0.167)
        assert model.payback_rate(0.002) == pytest.approx(0.333)

    def test_tier_boundaries(self):
        model = SlaCostModel(CostConfig())
        # Exactly at a threshold: the lower tier applies ("(x, y]" bands).
        assert model.payback_rate(0.0005) == 0.0
        assert model.payback_rate(0.001) == pytest.approx(0.167)

    def test_step_cost_charges_violating_vms(self, dc):
        accountant = SlaAccountant(beta=0.7)
        record = accountant.vm_record(0)
        record.record_step(downtime=30.0, requested=300.0)  # 10 % down
        model = SlaCostModel(CostConfig())
        cost = model.step_cost(accountant, 300.0)
        expected = 0.333 * 1.2 * (300.0 / 3600.0)
        assert cost == pytest.approx(expected)

    def test_no_violation_no_cost(self, dc):
        accountant = SlaAccountant()
        accountant.vm_record(0).record_step(0.0, 300.0)
        model = SlaCostModel(CostConfig())
        assert model.step_cost(accountant, 300.0) == 0.0

    @pytest.mark.parametrize("downtime", [0.0, 0.1])
    def test_step_without_violation_returns_positive_zero(self, downtime):
        # VM 1's downtime (if any) sits below the minor tier.
        accountant = SlaAccountant()
        accountant.vm_record(0).record_step(0.0, 300.0)
        accountant.vm_record(1).record_step(downtime, 300.0)
        model = SlaCostModel(CostConfig())
        for _ in range(3):
            cost = model.step_cost(accountant, 300.0)
            assert type(cost) is float
            assert math.copysign(1.0, cost) == 1.0 and cost == 0.0
        assert math.copysign(1.0, model.total_usd) == 1.0

    def test_only_vms_with_downtime_are_read(self):
        accountant = SlaAccountant()
        for vm_id in (5, 2, 9, 0):
            accountant.vm_record(vm_id).record_step(0.0, 300.0)
        accountant.vm_record(9).record_step(30.0, 300.0)
        accountant.vm_record(2).record_step(300.0, 300.0)
        vm_ids, fractions = accountant.fractions_with_downtime()
        # First-seen order, not id order.
        assert vm_ids.tolist() == [2, 9]
        assert fractions.tolist() == [
            accountant.downtime_fraction(2), accountant.downtime_fraction(9)
        ]

    def test_invalid_interval(self):
        model = SlaCostModel(CostConfig())
        with pytest.raises(ConfigurationError):
            model.step_cost(SlaAccountant(), -1.0)


class TestOperationCost:
    def test_step_cost_combines(self, dc):
        model = OperationCostModel(CostConfig())
        accountant = SlaAccountant()
        accountant.vm_record(0).record_step(300.0, 300.0)  # total violation
        dc.share_cpu()
        step = model.step_cost(dc, accountant, 300.0)
        assert isinstance(step, StepCost)
        assert step.energy_usd > 0.0
        assert step.sla_usd > 0.0
        assert step.total_usd == pytest.approx(step.energy_usd + step.sla_usd)
        assert model.total_usd == pytest.approx(step.total_usd)

    def test_nonnegative_per_stage_cost(self, dc):
        # Eq. (6) discussion: Delta C_p > 0 and Delta C_v >= 0 always.
        model = OperationCostModel(CostConfig())
        accountant = SlaAccountant()
        dc.share_cpu()
        for _ in range(5):
            step = model.step_cost(dc, accountant, 300.0)
            assert step.energy_usd > 0.0
            assert step.sla_usd >= 0.0
