"""Unit tests for the scenario configuration."""

import dataclasses

import numpy as np
import pytest

from repro.config_fields import field_table, replace_fields
from repro.engine.config import EngineConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import RunSpec, config_digest
from repro.experiments.registry import apply_overrides
from repro.experiments.serialization import ScenarioFormatError, scenario_from_dict
from repro.mac.device import DeviceConfig
from repro.mobility.config import MobilityConfig
from repro.radio.config import RadioConfig
from repro.routing.config import BufferConfig, RoutingConfig

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


# --------------------------------------------------------------------- #
# Numeric field types: one configuration, one cache key
# --------------------------------------------------------------------- #
#: (section class, float field, int field) per configuration section.
SECTION_NUMBERS = [
    (ScenarioConfig, "duration_s", "num_gateways"),
    (DeviceConfig, "message_interval_s", "max_queue_size"),
    (RadioConfig, None, "num_channels"),
    (MobilityConfig, "grid_spacing_m", "num_nodes"),
    (RoutingConfig, "rgq_phi_max", "max_handover_messages"),
    (BufferConfig, None, "capacity"),
    (EngineConfig, "tick_s", None),
]


def _sections(cls=ScenarioConfig):
    yield cls
    for section in field_table(cls).sections.values():
        yield from _sections(section)


#: (section class, float field) for every float field of every section.
FLOAT_SECTION_FIELDS = [
    (cls, name) for cls in _sections() for name in field_table(cls).floats
]


class TestNumericFieldTypes:
    """The Python API types numbers the way scenario files already do."""

    def test_int_for_float_is_the_same_configuration_and_cache_key(self):
        as_int = dataclasses.replace(ScenarioConfig(), duration_s=1800)
        as_float = dataclasses.replace(ScenarioConfig(), duration_s=1800.0)
        assert type(as_int.duration_s) is float
        assert config_digest(as_int) == config_digest(as_float)
        assert RunSpec(config=as_int).cache_key() == RunSpec(config=as_float).cache_key()

    def test_helpers_promote_ints_too(self):
        config = replace_fields(ScenarioConfig().with_device_range(1000), {"engine.tick_s": 60})
        assert type(config.device_range_m) is float
        assert type(config.engine.tick_s) is float
        assert config_digest(config) == config_digest(
            ScenarioConfig().with_device_range(1000.0)
        )

    @pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "2"])
    def test_int_fields_reject_bools_and_non_integers(self, value):
        with pytest.raises(ValueError, match="num_gateways must be an integer"):
            ScenarioConfig(num_gateways=value)

    @pytest.mark.parametrize("value", [True, "1800", None])
    def test_float_fields_reject_bools_and_non_numbers(self, value):
        with pytest.raises(ValueError, match="duration_s must be a number"):
            ScenarioConfig(duration_s=value)

    def test_numpy_numbers_become_python_numbers(self):
        config = ScenarioConfig(num_gateways=np.int64(3), area_km2=np.float32(0.5))
        assert type(config.num_gateways) is int and config.num_gateways == 3
        assert type(config.area_km2) is float and config.area_km2 == 0.5
        assert config_digest(config) == config_digest(
            ScenarioConfig(num_gateways=3, area_km2=0.5)
        )

    @pytest.mark.parametrize("cls, float_field, int_field", SECTION_NUMBERS)
    def test_every_section_normalises_its_numbers(self, cls, float_field, int_field):
        if float_field is not None:
            value = getattr(cls(), float_field)
            promoted = cls(**{float_field: int(value)})
            assert type(getattr(promoted, float_field)) is float
        if int_field is not None:
            value = getattr(cls(), int_field)
            for bad in (True, float(value)):
                with pytest.raises(ValueError, match=f"{int_field} must be an integer"):
                    cls(**{int_field: bad})

    @pytest.mark.parametrize(
        "cls, name", FLOAT_SECTION_FIELDS,
        ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_SECTION_FIELDS],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_every_float_field_rejects_non_finite_values(self, cls, name, value):
        # NaN slips past every ``<=``/``<`` range check; one rule in the
        # shared normaliser covers each section's float fields.
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, 5.0])
    def test_ewma_alpha_outside_unit_interval_is_rejected(self, alpha):
        with pytest.raises(ValueError, match="ewma_alpha"):
            DeviceConfig(ewma_alpha=alpha)
        assert DeviceConfig(ewma_alpha=1.0).ewma_alpha == 1.0

    def test_scenario_files_and_the_api_agree(self):
        from_file = scenario_from_dict({"duration_s": 1800, "routing": {"rgq_phi_max": 10}})
        from_api = ScenarioConfig(duration_s=1800, routing=RoutingConfig(rgq_phi_max=10))
        assert from_file == from_api
        assert config_digest(from_file) == config_digest(from_api)
