"""Differential harness: the array engine against the object-graph oracle.

The array engine (:class:`repro.engine.array_engine.ArrayMLoRaSimulation`)
reimplements the event loop over NumPy prefilters, per-(channel, SF) buckets
and a disconnected fast path; its contract is *bit-identical*
:class:`~repro.analysis.metrics.RunMetrics` with the untouched oracle
(:class:`repro.experiments.runner.MLoRaSimulation`) on every configuration.
Three layers enforce that contract:

* a Hypothesis property over randomly drawn scenario configurations —
  schemes, radio plans, mobility models, buffer policies, device classes,
  seeds;
* a deterministic stress matrix covering every subsystem dimension the
  property could under-sample;
* pinned golden fingerprints for every pre-existing preset (scaled for test
  runtime) run through ``run_scenario`` with ``engine = "array"`` — the
  goldens were recorded from the *object* engine, so a pass means the
  dispatcher picked the array engine and the array engine matched the oracle.

Both engines mutate scenario state, so every comparison builds the scenario
twice.  RunMetrics is a plain dataclass: ``==`` compares every raw field
(per-message delays, per-device transmissions and energy), which is exactly
the bit-identity the contract demands.
"""

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config_fields import replace_fields
from repro.engine.array_engine import ArrayMLoRaSimulation
from repro.experiments.config import ScenarioConfig
from repro.experiments.registry import apply_overrides, get_preset
from repro.experiments.runner import MLoRaSimulation, run_scenario
from repro.experiments.scenario import build_scenario
from repro.mac.device import DeviceConfig


def _run_object(config: ScenarioConfig):
    return MLoRaSimulation(build_scenario(config)).run()


def _run_array(config: ScenarioConfig):
    return ArrayMLoRaSimulation(build_scenario(config)).run()


def _fingerprint(metrics) -> str:
    payload = {
        "scheme": metrics.scheme,
        "messages_generated": metrics.messages_generated,
        "messages_delivered": metrics.messages_delivered,
        "delays_s": metrics.delays_s,
        "hop_counts": metrics.hop_counts,
        "delivery_times_s": metrics.delivery_times_s,
        "transmissions_per_device": metrics.transmissions_per_device,
        "energy_joules_per_device": metrics.energy_joules_per_device,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    ).hexdigest()


#: The familiar SMALL scenario of the radio/routing equivalence suites, at a
#: shorter horizon so the full matrix stays inside the tier-1 budget.
BASE = ScenarioConfig(
    duration_s=1200.0,
    area_km2=20.0,
    num_gateways=3,
    num_routes=4,
    trips_per_route=2,
    stops_per_route=5,
    min_block_repeats=1,
    max_block_repeats=2,
    device_range_m=1000.0,
    seed=11,
)

#: Deterministic stress matrix: one case per subsystem dimension.
STRESS_CASES = {
    "no-routing": BASE,
    "rca-etx": BASE.with_scheme("rca-etx"),
    "robc": BASE.with_scheme("robc"),
    "epidemic": BASE.with_scheme("epidemic"),
    "spray-and-wait": BASE.with_scheme("spray-and-wait"),
    # Small and dense enough that spray-and-wait's copies meet carriers that
    # already hold them, and that wait-phase messages queue ahead of
    # sprayable ones.
    "spray-rwp": replace_fields(get_preset("urban-smoke").config, {
        "scheme": "spray-and-wait", "mobility.model": "random-waypoint",
        "mobility.num_nodes": 40, "area_km2": 1.0,
    }),
    "prophet": BASE.with_scheme("prophet"),
    "multichannel": replace_fields(BASE, {"scheme": "robc", "radio.num_channels": 3}),
    "random-sf": replace_fields(
        BASE, {"scheme": "robc", "radio.num_channels": 8, "radio.sf_policy": "random"}
    ),
    "distance-sf": replace_fields(BASE, {"radio.sf_policy": "distance-based"}),
    "class-a": replace(BASE, device_class="class-a"),
    "queue-class-a": replace(BASE, device_class="queue-based-class-a"),
    "shadowing": replace(BASE, shadowing=True),
    "shadowing-robc": replace(BASE.with_scheme("robc"), shadowing=True),
    "rwp": replace_fields(BASE, {"mobility.model": "random-waypoint", "mobility.num_nodes": 8}),
    "manhattan": replace_fields(
        BASE, {"mobility.model": "grid-manhattan", "mobility.num_nodes": 8}
    ),
    "buffer-drop-oldest": replace_fields(BASE, {
        "scheme": "robc", "routing.buffer.policy": "drop-oldest", "routing.buffer.capacity": 4,
    }),
    "buffer-ttl": replace_fields(
        BASE, {"routing.buffer.policy": "ttl-expiry", "routing.buffer.ttl_s": 300.0}
    ),
    "buffer-priority": replace_fields(BASE, {
        "scheme": "epidemic", "routing.buffer.policy": "priority-age",
        "routing.buffer.capacity": 8,
    }),
    "tick-7s": replace_fields(BASE, {"scheme": "robc", "engine.tick_s": 7.0}),
    # Movers at 30–40 m/s, faster than any bus: the object topology's
    # neighbour prefilter must pad its cached positions by the traces' own
    # speed, not by an assumed bus speed.
    "fast-rwp": replace_fields(get_preset("urban-smoke").config, {
        "scheme": "epidemic", "mobility.model": "random-waypoint",
        "mobility.num_nodes": 80, "area_km2": 2.0,
        "mobility.min_speed_mps": 30.0, "mobility.max_speed_mps": 40.0,
    }),
}


class TestStressMatrix:
    @pytest.mark.parametrize("case", sorted(STRESS_CASES))
    def test_array_engine_matches_oracle(self, case):
        config = STRESS_CASES[case]
        assert _run_array(config) == _run_object(config), (
            f"array engine diverged from the object oracle on {case!r}"
        )


@st.composite
def scenario_configs(draw) -> ScenarioConfig:
    config = ScenarioConfig(
        duration_s=float(draw(st.sampled_from([600, 1200]))),
        area_km2=float(draw(st.sampled_from([10, 20]))),
        num_gateways=draw(st.integers(1, 3)),
        num_routes=draw(st.integers(1, 4)),
        trips_per_route=draw(st.integers(1, 2)),
        stops_per_route=5,
        min_block_repeats=1,
        max_block_repeats=2,
        device_range_m=1000.0,
        shadowing=draw(st.booleans()),
        seed=draw(st.integers(0, 2**31 - 1)),
        scheme=draw(
            st.sampled_from(
                ["no-routing", "rca-etx", "robc", "epidemic", "spray-and-wait", "prophet"]
            )
        ),
        device_class=draw(
            st.sampled_from(["modified-class-c", "class-a", "queue-based-class-a"])
        ),
    )
    # Short intervals, a full duty cycle (retry at the completion) and small
    # retry limits put retry chains on their generation and limit boundaries.
    config = replace(
        config,
        device=DeviceConfig(
            message_interval_s=float(draw(st.sampled_from([30, 60, 180]))),
            duty_cycle=draw(st.sampled_from([0.01, 0.1, 1.0])),
            max_retransmissions=draw(st.sampled_from([0, 1, 8])),
        ),
    )
    changes = {
        "radio.num_channels": draw(st.sampled_from([1, 3])),
        "radio.sf_policy": draw(st.sampled_from(["fixed-sf7", "random", "distance-based"])),
        "engine.tick_s": float(draw(st.sampled_from([7, 30, 120]))),
    }
    policy = draw(st.sampled_from(["drop-new", "drop-oldest", "ttl-expiry"]))
    if policy == "ttl-expiry":
        changes.update({"routing.buffer.policy": policy, "routing.buffer.ttl_s": 300.0})
    elif policy != "drop-new":
        changes.update({"routing.buffer.policy": policy, "routing.buffer.capacity": 8})
    return replace_fields(config, changes)


class TestHypothesisDifferential:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(config=scenario_configs())
    def test_random_scenarios_are_engine_invariant(self, config):
        assert _run_array(config) == _run_object(config)


# --------------------------------------------------------------------- #
# Per-preset goldens under engine = "array"
# --------------------------------------------------------------------- #
def preset_golden_config(name: str) -> ScenarioConfig:
    """The preset's configuration shrunk to golden-test size, on the array
    engine.  Deterministic in the preset definition: roughly three routes,
    a 900 s horizon, density-preserving spatial scale."""
    config = get_preset(name).config
    config = config.scaled(min(1.0, 3.0 / config.num_routes))
    return replace_fields(config, {"duration_s": 900.0, "engine.engine": "array"})


#: Array-engine RunMetrics fingerprints for every pre-existing preset,
#: recorded from the OBJECT engine on the same configurations.
GOLDEN_ARRAY_FINGERPRINTS = {
    "dense-gateways": "a6b721a05e69992083076e338eb6c23ea1adee2d0ac26fdb1bcdd9458f194cba",
    "epidemic-urban": "837a499fe879c9ce5d594b93d339924d34340c64ed2ea0bc5021718a3cbe83b7",
    "mega-fleet": "99c4833c19169c24694a9ae2cf4339f10d9cc073cea3dbfdd16a9ec6d627b700",
    "quickstart": "d59058e84bed8b4d449c88b9f6b819ea54de4c008f8d9841ee1a3c3c58c2535d",
    "rural": "0a1cf97ca76664ab74126d4155fb7ad59e5faf56cef25fbee6fdb7faf60bf05a",
    "rural-full": "0a1cf97ca76664ab74126d4155fb7ad59e5faf56cef25fbee6fdb7faf60bf05a",
    "rural-smoke": "159d4f042f57f3a1344ce244c8bd5d2263f1e215e3e352b9f85fdd1bc05c1480",
    "sparse-gateways": "e60db6e6750d32a7464cac52e9220f7c2d5b5a0fde0da2ef780c251fa2195b16",
    "spray-and-wait-urban": "553853252087e7ca7628c44686f1d4edcd0219f3117d675c1df08cb123ab8fe0",
    "urban": "0a1cf97ca76664ab74126d4155fb7ad59e5faf56cef25fbee6fdb7faf60bf05a",
    "urban-buffer-pressure": "0a1cf97ca76664ab74126d4155fb7ad59e5faf56cef25fbee6fdb7faf60bf05a",
    "urban-class-a": "8ebd61c003be0b2a2715de40d78b4ef8788ac987e2cbe0873177a81370f7c432",
    "urban-full": "0a1cf97ca76664ab74126d4155fb7ad59e5faf56cef25fbee6fdb7faf60bf05a",
    "urban-manhattan": "af9f5f89566851b02e397715a5caee2375c00cdba7c43ecea0216c6dbab04807",
    "urban-multisf": "1abbd21a417ed76593f59c2b35328e59ac5ad23ee386727cc23026eb3074d7e1",
    "urban-prophet": "2c8e32fa485b9aa13f58ddef5077917f36fbf6be268dbc6c13b389e09d9e4d45",
    "urban-random-placement": "4a9b79e0d5878fae9e974dea320d1c044b94b020a3aff6b0123be4cfc6de73d9",
    "urban-rwp": "5088d439416d26fd0a1636f6f4b676e2307c6bcde2120d392bc31f2111068333",
    "urban-smoke": "159d4f042f57f3a1344ce244c8bd5d2263f1e215e3e352b9f85fdd1bc05c1480",
}


class TestPresetGoldens:
    @pytest.mark.parametrize("preset_name", sorted(GOLDEN_ARRAY_FINGERPRINTS))
    def test_array_engine_reproduces_oracle_golden(self, preset_name):
        metrics = run_scenario(preset_golden_config(preset_name))
        assert _fingerprint(metrics) == GOLDEN_ARRAY_FINGERPRINTS[preset_name], (
            f"the array engine diverged from the oracle-recorded golden for "
            f"preset {preset_name!r}"
        )

    @pytest.mark.parametrize("preset_name", ["urban", "rural-smoke", "urban-prophet"])
    def test_goldens_are_oracle_derived(self, preset_name):
        """Spot-check: the object engine reproduces the same goldens, so the
        pins really are cross-engine, not array-self-consistency."""
        config = preset_golden_config(preset_name)
        metrics = MLoRaSimulation(build_scenario(config)).run()
        assert _fingerprint(metrics) == GOLDEN_ARRAY_FINGERPRINTS[preset_name]


# --------------------------------------------------------------------- #
# megacity-10k: an oracle pin for the array engine's target scenario
# --------------------------------------------------------------------- #
#: RunMetrics fingerprint of megacity-10k at scale 0.05 over 900 s, recorded
#: from the OBJECT engine.  Most of its slots are disconnected, so on the
#: array engine most of them run as inline retry chains.
MEGACITY_SMALL_FINGERPRINT = (
    "60b68030b845ceaf7c9af3f42ad1d87f6133dcf233f63f43a596fd5f297ad748"
)


def megacity_small_config() -> ScenarioConfig:
    config = apply_overrides(get_preset("megacity-10k").config, scale=0.05)
    return replace(config, duration_s=900.0)


class TestMegacityPin:
    def test_array_engine_reproduces_the_oracle_pin(self):
        config = megacity_small_config()
        assert config.engine.engine == "array"
        assert _fingerprint(run_scenario(config)) == MEGACITY_SMALL_FINGERPRINT

    def test_pin_is_oracle_derived(self):
        metrics = MLoRaSimulation(build_scenario(megacity_small_config())).run()
        assert _fingerprint(metrics) == MEGACITY_SMALL_FINGERPRINT
