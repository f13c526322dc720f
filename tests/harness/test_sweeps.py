"""Tests for the generic Megh parameter-sweep engine."""

import pytest

from repro.config import MeghConfig
from repro.engine.registry import BuilderSpec
from repro.errors import ConfigurationError
from repro.harness.sweeps import render_sweep, sweep_megh

builder = BuilderSpec.create("planetlab", num_pms=4, num_vms=6, num_steps=12)


class TestSweep:
    @pytest.fixture(scope="class")
    def cells(self):
        return sweep_megh(
            builder,
            grid={
                "gamma": [0.3, 0.7],
                "initial_temperature": [1.0, 3.0],
            },
            seeds=[0],
        )

    def test_full_grid_covered(self, cells):
        assert len(cells) == 4
        combos = {
            (cell.parameter_dict()["gamma"],
             cell.parameter_dict()["initial_temperature"])
            for cell in cells
        }
        assert combos == {(0.3, 1.0), (0.3, 3.0), (0.7, 1.0), (0.7, 3.0)}

    def test_quantiles_ordered(self, cells):
        for cell in cells:
            assert cell.p10_step_cost <= cell.median_step_cost
            assert cell.median_step_cost <= cell.p90_step_cost

    def test_repeats_recorded(self, cells):
        assert all(cell.repeats == 1 for cell in cells)

    def test_multi_seed_pooling(self):
        cells = sweep_megh(
            builder, grid={"gamma": [0.5]}, seeds=[0, 1]
        )
        assert cells[0].repeats == 2

    def test_base_config_respected(self):
        base = MeghConfig(max_migration_fraction=0.5)
        cells = sweep_megh(
            builder, grid={"gamma": [0.5]}, base_config=base, seeds=[0]
        )
        # No crash and one cell: the override path composed with base.
        assert len(cells) == 1

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_megh(builder, grid={"not_a_field": [1]})

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_megh(builder, grid={})

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_megh(builder, grid={"gamma": [0.5]}, seeds=[])

    def test_plain_builder_rejected(self):
        with pytest.raises(ConfigurationError, match="registry-backed"):
            sweep_megh(lambda seed: None, grid={"gamma": [0.5]})


class TestHelpers:
    def test_render(self):
        cells = sweep_megh(builder, grid={"gamma": [0.5]}, seeds=[0])
        text = render_sweep(cells, title="sweep")
        assert text.startswith("sweep")
        assert "gamma=0.5" in text
        assert "median/step=" in text
