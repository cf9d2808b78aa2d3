"""The engine configuration section: selection, digests, serialization.

The ``engine`` section is never part of the configuration digest: both
engines produce identical RunMetrics, so a result stored by one is a cache
hit for the other.  Engine selection layers the ``REPRO_ENGINE`` environment
override (the CI matrix) beneath an explicit per-configuration choice (the
``megacity-10k`` preset).
"""

import dataclasses

import pytest

from repro.config_fields import replace_fields
from repro.engine import ENGINE_ENV_VAR, ENGINES, EngineConfig, resolve_engine_name
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import config_digest
from repro.experiments.serialization import (
    scenario_from_json,
    scenario_from_toml,
    scenario_to_json,
    scenario_to_toml,
)


class TestEngineConfig:
    def test_registry_and_validation(self):
        assert ENGINES == ("object", "array")
        with pytest.raises(ValueError):
            EngineConfig(engine="gpu")
        with pytest.raises(ValueError):
            EngineConfig(tick_s=0.0)

    @pytest.mark.parametrize("tick_s", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_tick_is_rejected(self, tick_s):
        # An infinite tick once put a whole run in one tick and silently
        # delivered nothing on the array engine; NaN crashed the prefilter.
        with pytest.raises(ValueError, match="tick_s"):
            EngineConfig(tick_s=tick_s)

    def test_engine_fields_compose(self):
        config = replace_fields(
            ScenarioConfig(), {"engine.engine": "array", "engine.tick_s": 7.0}
        )
        assert config.engine == EngineConfig(engine="array", tick_s=7.0)
        assert replace_fields(config, {"engine.tick_s": 5.0}).engine == EngineConfig("array", 5.0)


class TestDigestTransparency:
    def test_explicit_default_engine_is_digest_transparent(self):
        base = ScenarioConfig()
        explicit = dataclasses.replace(base, engine=EngineConfig())
        assert config_digest(explicit) == config_digest(base)

    def test_engine_section_is_never_digested(self):
        base = ScenarioConfig()
        digests = {
            config_digest(base),
            config_digest(replace_fields(base, {"engine.engine": "array"})),
            config_digest(replace_fields(base, {"engine.tick_s": 5.0})),
            config_digest(ScenarioConfig(engine=EngineConfig("array", tick_s=7.0))),
        }
        assert digests == {config_digest(base)}


class TestSerialization:
    def test_engine_section_round_trips(self):
        config = ScenarioConfig(engine=EngineConfig("array", tick_s=7.5))
        assert scenario_from_json(scenario_to_json(config)) == config
        assert scenario_from_toml(scenario_to_toml(config)) == config

    @pytest.mark.parametrize("literal", ["Infinity", "NaN"])
    def test_non_finite_tick_in_file_is_rejected(self, literal):
        text = scenario_to_json(ScenarioConfig(engine=EngineConfig(tick_s=7.5)))
        text = text.replace("7.5", literal)
        with pytest.raises(ValueError, match="tick_s"):
            scenario_from_json(text)

    def test_unknown_engine_in_file_is_rejected(self):
        text = scenario_to_json(ScenarioConfig()).replace('"object"', '"warp"')
        with pytest.raises(ValueError):
            scenario_from_json(text)


class TestResolution:
    def test_default_resolves_to_object(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert resolve_engine_name(ScenarioConfig()) == "object"

    def test_env_overrides_default_only(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "array")
        assert resolve_engine_name(ScenarioConfig()) == "array"
        # An explicit choice (e.g. the megacity-10k preset) beats the env.
        pinned = ScenarioConfig(engine=EngineConfig("array", tick_s=5.0))
        monkeypatch.setenv(ENGINE_ENV_VAR, "object")
        assert resolve_engine_name(pinned) == "array"

    def test_invalid_env_value_is_an_error(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "warp")
        with pytest.raises(ValueError):
            resolve_engine_name(ScenarioConfig())
