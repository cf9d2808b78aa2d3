"""Round-trip tests for scenario serialization (JSON and TOML).

The contract: a serialized-and-reloaded ScenarioConfig compares equal to the
original *and* keeps the exact SHA-256 configuration digest, so file-shipped
scenarios hit the same SweepExecutor cache entries as their in-process
originals.
"""

import dataclasses
import json

import pytest

from repro.engine.config import EngineConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import RunSpec, config_digest
from repro.experiments.registry import iter_presets
from repro.experiments.serialization import (
    SCENARIO_SCHEMA_VERSION,
    ScenarioFormatError,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_from_json,
    scenario_from_toml,
    scenario_to_dict,
    scenario_to_json,
    scenario_to_toml,
)
from repro.mac.device import DeviceConfig
from repro.routing.config import BufferConfig, RoutingConfig

#: A configuration with every field moved off its default, including the
#: nested device and routing tables (with the doubly-nested buffer
#: sub-table), awkward floats and the boolean.
FULLY_CUSTOM = ScenarioConfig(
    name="custom — scénario \U0001F68C \"quoted\\path\"\ttab\x7fdel",
    seed=987654321,
    duration_s=12345.6789,
    area_km2=3.0000000001,
    num_gateways=13,
    gateway_placement="random",
    gateway_range_m=1234.5,
    device_range_m=0.125,
    num_routes=3,
    trips_per_route=2,
    stops_per_route=4,
    min_block_repeats=2,
    max_block_repeats=3,
    shadowing=True,
    device=DeviceConfig(
        message_interval_s=7.5,
        message_size_bytes=21,
        max_messages_per_packet=5,
        max_retransmissions=0,
        max_queue_size=9,
        duty_cycle=0.015,
        ewma_alpha=0.123456789012345,
    ),
    scheme="epidemic",
    routing=RoutingConfig(
        max_handover_messages=5,
        spray_initial_copies=7,
        rgq_phi_min=0.0001,
        rgq_phi_max=9.5,
        prophet_p_init=0.6,
        prophet_beta=0.3,
        prophet_gamma=0.9999,
        buffer=BufferConfig(policy="ttl-expiry", capacity=11, ttl_s=333.25),
    ),
    device_class="queue-based-class-a",
)


class TestRoundTrip:
    @pytest.mark.parametrize("config", [ScenarioConfig(), FULLY_CUSTOM])
    def test_json_round_trip_equal_and_digest_stable(self, config):
        restored = scenario_from_json(scenario_to_json(config))
        assert restored == config
        assert config_digest(restored) == config_digest(config)

    @pytest.mark.parametrize("config", [ScenarioConfig(), FULLY_CUSTOM])
    def test_toml_round_trip_equal_and_digest_stable(self, config):
        restored = scenario_from_toml(scenario_to_toml(config))
        assert restored == config
        assert config_digest(restored) == config_digest(config)

    def test_every_registered_preset_round_trips(self):
        for preset in iter_presets():
            for loads, dumps in (
                (scenario_from_json, scenario_to_json),
                (scenario_from_toml, scenario_to_toml),
            ):
                restored = loads(dumps(preset.config))
                assert restored == preset.config, preset.name
                assert config_digest(restored) == config_digest(preset.config)

    def test_every_preset_exports_its_asdict_fields(self):
        # The shallow flattener behind the exports equals the deep-copying
        # dataclasses.asdict, value types included (compared as JSON text,
        # since == conflates 1 and 1.0).
        for preset in iter_presets():
            reference = {"schema_version": SCENARIO_SCHEMA_VERSION}
            reference.update(dataclasses.asdict(preset.config))
            data = scenario_to_dict(preset.config)
            assert data == reference, preset.name
            assert json.dumps(data) == json.dumps(reference), preset.name

    def test_round_trip_preserves_cache_key(self):
        spec = RunSpec(config=FULLY_CUSTOM, nominal_gateways=70)
        restored = RunSpec(
            config=scenario_from_toml(scenario_to_toml(FULLY_CUSTOM)),
            nominal_gateways=70,
        )
        assert restored.cache_key() == spec.cache_key()

    def test_routing_buffer_emitted_as_dotted_toml_subtable(self):
        text = scenario_to_toml(FULLY_CUSTOM)
        assert "[routing]" in text
        assert "[routing.buffer]" in text
        assert 'policy = "ttl-expiry"' in text

    def test_toml_table_order_is_stable(self):
        # Exported files stay byte-identical across releases: the sections
        # keep their historical order, not the dataclass field order.
        headers = [
            line for line in scenario_to_toml(FULLY_CUSTOM).splitlines()
            if line.startswith("[")
        ]
        assert headers == [
            "[device]", "[radio]", "[mobility]", "[routing]", "[routing.buffer]", "[engine]"
        ]

    def test_partial_routing_table_uses_defaults(self):
        restored = scenario_from_dict(
            {"name": "partial", "routing": {"spray_initial_copies": 8}}
        )
        assert restored.routing.spray_initial_copies == 8
        assert restored.routing.max_handover_messages == 12
        assert restored.routing.buffer == BufferConfig()

    def test_unknown_buffer_field_rejected(self):
        with pytest.raises(ScenarioFormatError, match="routing.buffer"):
            scenario_from_dict(
                {"name": "bad", "routing": {"buffer": {"not_a_field": 1}}}
            )

    def test_non_table_buffer_rejected(self):
        with pytest.raises(ScenarioFormatError, match="table"):
            scenario_from_dict({"name": "bad", "routing": {"buffer": 3}})

    def test_float_fields_restored_as_floats(self):
        # TOML/JSON writers elsewhere may render 1800.0 as 1800; the loader
        # must promote ints back to float so asdict() — and the digest — match.
        data = scenario_to_dict(ScenarioConfig())
        data["duration_s"] = 1800  # int on purpose
        restored = scenario_from_dict(data)
        assert isinstance(restored.duration_s, float)
        reference = dataclasses.replace(ScenarioConfig(), duration_s=1800.0)
        assert config_digest(restored) == config_digest(reference)


class TestFiles:
    @pytest.mark.parametrize("suffix", [".json", ".toml"])
    def test_save_and_load(self, tmp_path, suffix):
        path = tmp_path / f"scenario{suffix}"
        save_scenario(FULLY_CUSTOM, path)
        assert load_scenario(path) == FULLY_CUSTOM

    def test_unsupported_suffix_rejected(self, tmp_path):
        with pytest.raises(ScenarioFormatError, match="suffix"):
            save_scenario(ScenarioConfig(), tmp_path / "scenario.yaml")
        with pytest.raises(ScenarioFormatError, match="suffix"):
            load_scenario(tmp_path / "scenario.txt")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ScenarioFormatError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")


class TestValidation:
    def test_partial_mapping_uses_defaults(self):
        restored = scenario_from_dict({"name": "partial", "num_gateways": 5})
        assert restored == dataclasses.replace(
            ScenarioConfig(), name="partial", num_gateways=5
        )

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioFormatError, match="unknown scenario field"):
            scenario_from_dict({"num_gatewayz": 5})

    def test_unknown_device_field_rejected(self):
        with pytest.raises(ScenarioFormatError, match="unknown device field"):
            scenario_from_dict({"device": {"duty": 0.01}})

    def test_wrong_types_rejected(self):
        with pytest.raises(ScenarioFormatError, match="must be an integer"):
            scenario_from_dict({"num_gateways": 5.5})
        with pytest.raises(ScenarioFormatError, match="must be an integer"):
            scenario_from_dict({"num_gateways": True})
        with pytest.raises(ScenarioFormatError, match="must be a string"):
            scenario_from_dict({"scheme": 3})
        with pytest.raises(ScenarioFormatError, match="must be a boolean"):
            scenario_from_dict({"shadowing": 1})
        with pytest.raises(ScenarioFormatError, match="must be a number"):
            scenario_from_dict({"duration_s": "long"})

    def test_domain_validation_still_applies(self):
        with pytest.raises(ScenarioFormatError, match="invalid scenario"):
            scenario_from_dict({"gateway_placement": "hexagon"})

    def test_future_schema_version_rejected(self):
        data = scenario_to_dict(ScenarioConfig())
        data["schema_version"] = SCENARIO_SCHEMA_VERSION + 1
        with pytest.raises(ScenarioFormatError, match="schema_version"):
            scenario_from_dict(data)

    def test_invalid_text_rejected(self):
        with pytest.raises(ScenarioFormatError, match="JSON"):
            scenario_from_json("{not json")
        with pytest.raises(ScenarioFormatError, match="TOML"):
            scenario_from_toml("= broken")
        with pytest.raises(ScenarioFormatError, match="mapping"):
            scenario_from_json("[1, 2]")


class TestRemovedStrictEquivalence:
    """Files exported before relaxed mode was removed carry
    ``engine.strict_equivalence``: ``true`` loads as if absent, ``false``
    (the removed mode) is refused."""

    CONFIG = ScenarioConfig(engine=EngineConfig("array", tick_s=7.0))

    def _write(self, tmp_path, suffix, value):
        path = tmp_path / f"exported{suffix}"
        if suffix == ".json":
            data = scenario_to_dict(self.CONFIG)
            data["engine"]["strict_equivalence"] = value
            path.write_text(json.dumps(data), encoding="utf-8")
        else:
            flag = "true" if value else "false"
            text = scenario_to_toml(self.CONFIG).replace(
                "[engine]\n", f"[engine]\nstrict_equivalence = {flag}\n"
            )
            assert "strict_equivalence" in text
            path.write_text(text, encoding="utf-8")
        return path

    @pytest.mark.parametrize("suffix", [".json", ".toml"])
    def test_true_loads_as_if_absent(self, tmp_path, suffix):
        loaded = load_scenario(self._write(tmp_path, suffix, True))
        assert loaded == self.CONFIG
        assert RunSpec(config=loaded).cache_key() == RunSpec(config=self.CONFIG).cache_key()

    @pytest.mark.parametrize("suffix", [".json", ".toml"])
    def test_false_is_rejected_naming_the_field(self, tmp_path, suffix):
        with pytest.raises(ScenarioFormatError, match="strict_equivalence.*removed"):
            load_scenario(self._write(tmp_path, suffix, False))

    @pytest.mark.parametrize("value", [1, "true", None], ids=["one", "string", "null"])
    def test_only_boolean_true_is_dropped(self, value):
        # Only the literal ``true`` older exports wrote is accepted; a truthy
        # stand-in is not silently read as it.
        data = scenario_to_dict(self.CONFIG)
        data["engine"]["strict_equivalence"] = value
        with pytest.raises(ScenarioFormatError, match="strict_equivalence"):
            scenario_from_dict(data)
