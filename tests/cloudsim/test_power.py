"""Unit tests for the power models (Table 1 of the paper)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cloudsim.power import (
    HP_PROLIANT_G4,
    HP_PROLIANT_G5,
    LinearPowerModel,
    SpecPowerModel,
    average_power,
    energy_joules,
)
from repro.errors import ConfigurationError


class TestSpecPowerModel:
    def test_table1_g4_measurement_points(self):
        # Exact Table-1 values at the measurement grid.
        assert HP_PROLIANT_G4.power(0.0) == 86.0
        assert HP_PROLIANT_G4.power(0.5) == 102.0
        assert HP_PROLIANT_G4.power(1.0) == 117.0

    def test_table1_g5_measurement_points(self):
        assert HP_PROLIANT_G5.power(0.0) == 93.7
        assert HP_PROLIANT_G5.power(0.3) == 105.0
        assert HP_PROLIANT_G5.power(1.0) == 135.0

    def test_interpolation_midpoint(self):
        # Between 0% (86) and 10% (89.4): 5% -> 87.7.
        assert HP_PROLIANT_G4.power(0.05) == pytest.approx(87.7)

    def test_clamps_below_zero(self):
        assert HP_PROLIANT_G4.power(-0.5) == 86.0

    def test_clamps_above_one(self):
        assert HP_PROLIANT_G4.power(1.5) == 117.0

    def test_g5_draws_more_than_g4_everywhere(self):
        for i in range(11):
            u = i / 10.0
            assert HP_PROLIANT_G5.power(u) > HP_PROLIANT_G4.power(u)

    def test_idle_and_max_power(self):
        assert HP_PROLIANT_G4.idle_power == 86.0
        assert HP_PROLIANT_G4.max_power == 117.0

    def test_requires_eleven_measurements(self):
        with pytest.raises(ConfigurationError):
            SpecPowerModel(name="bad", watts=(1.0, 2.0))

    def test_rejects_negative_measurements(self):
        with pytest.raises(ConfigurationError):
            SpecPowerModel(name="bad", watts=tuple([-1.0] + [1.0] * 10))

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_nondecreasing(self, u):
        # SPEC curves are monotone; interpolation must preserve that.
        assert HP_PROLIANT_G4.power(u) <= HP_PROLIANT_G4.power(min(1.0, u + 0.05)) + 1e-9

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_within_idle_max_band(self, u):
        power = HP_PROLIANT_G5.power(u)
        assert HP_PROLIANT_G5.idle_power <= power <= HP_PROLIANT_G5.max_power


class TestLinearPowerModel:
    def test_endpoints(self):
        model = LinearPowerModel(idle_watts=50.0, peak_watts=150.0)
        assert model.power(0.0) == 50.0
        assert model.power(1.0) == 150.0

    def test_midpoint(self):
        model = LinearPowerModel(idle_watts=50.0, peak_watts=150.0)
        assert model.power(0.5) == pytest.approx(100.0)

    def test_rejects_peak_below_idle(self):
        with pytest.raises(ConfigurationError):
            LinearPowerModel(idle_watts=100.0, peak_watts=50.0)

    def test_rejects_negative_idle(self):
        with pytest.raises(ConfigurationError):
            LinearPowerModel(idle_watts=-1.0, peak_watts=50.0)

    def test_clamping(self):
        model = LinearPowerModel(idle_watts=10.0, peak_watts=20.0)
        assert model.power(2.0) == 20.0
        assert model.power(-1.0) == 10.0


class TestEnergyHelpers:
    def test_energy_joules(self):
        model = LinearPowerModel(idle_watts=100.0, peak_watts=200.0)
        assert energy_joules(model, 0.0, 10.0) == pytest.approx(1000.0)

    def test_energy_rejects_negative_duration(self):
        model = LinearPowerModel(idle_watts=100.0, peak_watts=200.0)
        with pytest.raises(ConfigurationError):
            energy_joules(model, 0.5, -1.0)

    def test_average_power_empty(self):
        assert average_power(HP_PROLIANT_G4, []) == 0.0

    def test_average_power(self):
        model = LinearPowerModel(idle_watts=0.0, peak_watts=100.0)
        assert average_power(model, [0.0, 1.0]) == pytest.approx(50.0)


class TestPowerBatch:
    """``power_batch`` returns exactly what ``power`` returns, per element."""

    GRID = [i / 10.0 for i in range(11)] + [-0.5, -0.0, 1.0, 1.5, 2.0]

    @pytest.mark.parametrize(
        "model",
        [HP_PROLIANT_G4, HP_PROLIANT_G5, LinearPowerModel(90.0, 130.0)],
    )
    @given(
        st.lists(
            st.floats(-0.5, 1.5, allow_nan=False)
            | st.sampled_from(GRID),
            max_size=40,
        )
    )
    def test_bit_identical_to_scalar(self, model, utilizations):
        batch = model.power_batch(np.asarray(utilizations, dtype=np.float64))
        assert batch.tolist() == [model.power(u) for u in utilizations]

