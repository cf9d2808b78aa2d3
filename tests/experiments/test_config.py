"""Unit tests for the scenario configuration."""

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.registry import apply_overrides
from repro.experiments.serialization import ScenarioFormatError, scenario_from_dict

FLOAT_FIELDS = ("duration_s", "area_km2", "gateway_range_m", "device_range_m")


class TestScenarioConfig:
    def test_defaults_are_paper_scale(self):
        config = ScenarioConfig()
        assert config.area_km2 == 600.0
        assert config.gateway_range_m == 1000.0
        assert config.device.message_interval_s == 180.0

    def test_scaled_preserves_gateway_and_bus_densities(self):
        full = ScenarioConfig()
        scaled = full.scaled(0.1)
        assert scaled.area_km2 == pytest.approx(60.0)
        full_gw_density = full.num_gateways / full.area_km2
        scaled_gw_density = scaled.num_gateways / scaled.area_km2
        assert scaled_gw_density == pytest.approx(full_gw_density, rel=0.2)
        full_fleet_density = full.num_routes * full.trips_per_route / full.area_km2
        scaled_fleet_density = scaled.num_routes * scaled.trips_per_route / scaled.area_km2
        assert scaled_fleet_density == pytest.approx(full_fleet_density, rel=0.2)

    def test_scaled_validates_factor(self):
        with pytest.raises(ValueError):
            ScenarioConfig().scaled(0.0)
        with pytest.raises(ValueError):
            ScenarioConfig().scaled(2.0)

    def test_with_helpers_return_modified_copies(self):
        base = ScenarioConfig()
        assert base.with_scheme("robc").scheme == "robc"
        assert base.with_gateways(77).num_gateways == 77
        assert base.with_device_range(1000.0).device_range_m == 1000.0
        assert base.with_seed(5).seed == 5
        # The original is untouched (frozen dataclass semantics).
        assert base.scheme == "no-routing"

    def test_mobility_config_matches_duration(self):
        config = ScenarioConfig(duration_s=4 * 3600.0)
        mobility = config.mobility_config()
        assert mobility.horizon_s == pytest.approx(4 * 3600.0)
        assert mobility.day_end_s <= mobility.horizon_s

    def test_mobility_config_full_day_keeps_default_window(self):
        mobility = ScenarioConfig(duration_s=24 * 3600.0).mobility_config()
        assert mobility.day_start_s == pytest.approx(5.5 * 3600.0)
        assert mobility.day_end_s == pytest.approx(22.0 * 3600.0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(num_gateways=0)
        with pytest.raises(ValueError):
            ScenarioConfig(gateway_placement="hexagon")
        with pytest.raises(ValueError):
            ScenarioConfig(min_block_repeats=3, max_block_repeats=1)

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_rejected_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**{name: value})
        with pytest.raises(ScenarioFormatError, match=name):
            scenario_from_dict({name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, value):
        with pytest.raises(ValueError, match="scale"):
            ScenarioConfig().scaled(value)
        with pytest.raises(ValueError, match="scale"):
            apply_overrides(ScenarioConfig(), scale=value)
