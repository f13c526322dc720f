"""Tests for multi-seed aggregation."""

import pytest

from repro.engine.registry import BuilderSpec, SchedulerSpec
from repro.errors import ConfigurationError
from repro.harness.multiseed import (
    MetricSummary,
    cheapest_algorithm,
    run_multi_seed,
    render_aggregates,
)


builder = BuilderSpec.create("planetlab", num_pms=4, num_vms=6, num_steps=15)

FACTORIES = {
    "NoMig": SchedulerSpec.create("noop"),
    "Random": SchedulerSpec.create("random", migrations_per_step=1, seed=0),
}


class TestMetricSummary:
    def test_mean_std(self):
        summary = MetricSummary((1.0, 2.0, 3.0))
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.min == 1.0
        assert summary.max == 3.0

    def test_single_value_zero_std(self):
        assert MetricSummary((5.0,)).std == 0.0

    def test_str_format(self):
        assert "±" in str(MetricSummary((1.0, 2.0)))


class TestRunMultiSeed:
    @pytest.fixture(scope="class")
    def aggregates(self):
        return run_multi_seed(builder, FACTORIES, seeds=[0, 1, 2])

    def test_all_algorithms_present(self, aggregates):
        assert set(aggregates) == {"NoMig", "Random"}

    def test_per_seed_values_collected(self, aggregates):
        assert len(aggregates["NoMig"].total_cost_usd.values) == 3
        assert len(aggregates["NoMig"].results) == 3

    def test_wins_sum_to_seed_count(self, aggregates):
        assert sum(a.wins for a in aggregates.values()) == 3

    def test_migrations_aggregate(self, aggregates):
        assert aggregates["NoMig"].total_migrations.mean == 0.0
        assert aggregates["Random"].total_migrations.mean > 0.0

    def test_seed_variation_reflected(self, aggregates):
        # Different seeds give different workloads, so cost varies.
        assert aggregates["NoMig"].total_cost_usd.std > 0.0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            run_multi_seed(builder, FACTORIES, seeds=[])

    def test_empty_factories_rejected(self):
        with pytest.raises(ConfigurationError):
            run_multi_seed(builder, {}, seeds=[0])

    def test_equal_cost_tie_broken_by_name(self):
        # Two factories producing *identical* runs (same scheduler, same
        # seed) tie exactly on total cost; the win must go to the
        # lexicographically smaller name regardless of insertion order.
        noop = SchedulerSpec.create("noop")
        forward = run_multi_seed(
            builder, {"Alpha": noop, "Beta": noop}, seeds=[0]
        )
        reverse = run_multi_seed(
            builder, {"Beta": noop, "Alpha": noop}, seeds=[0]
        )
        assert (
            forward["Alpha"].total_cost_usd.values
            == forward["Beta"].total_cost_usd.values
        )
        assert forward["Alpha"].wins == 1 and forward["Beta"].wins == 0
        assert reverse["Alpha"].wins == 1 and reverse["Beta"].wins == 0

    def test_cheapest_algorithm_prefers_lower_cost(self, aggregates):
        results = {
            name: aggregate.results[0]
            for name, aggregate in aggregates.items()
        }
        winner = cheapest_algorithm(results)
        assert results[winner].total_cost_usd == min(
            r.total_cost_usd for r in results.values()
        )

    def test_render(self, aggregates):
        text = render_aggregates(aggregates, title="sweep")
        assert text.startswith("sweep")
        assert "NoMig" in text
        assert "±" in text
        assert "wins" in text
