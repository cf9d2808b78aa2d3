"""Seed-equivalence of the RadioMedium engine with the pre-refactor engine.

The radio refactor (pluggable ``repro.radio`` subsystem) must not change a
single bit of any default-radio result: the golden fingerprints below were
produced by the *pre-refactor* engine (commit a88476c, where airtime,
collision registration, capture and reception were inlined in
``experiments/runner.py``) and the refactored engine must keep reproducing
them exactly.  The config digests are pinned the same way, so archived
SweepExecutor caches stay valid across the refactor and "same digest → same
RunMetrics" holds.

If a legitimate behaviour change ever invalidates these values, regenerate
them *and* bump ``repro.experiments.parallel.CACHE_SCHEMA_VERSION`` in the
same commit.
"""

import hashlib
import json

import pytest

from repro.config_fields import replace_fields
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import RunSpec, SweepExecutor, config_digest
from repro.experiments.registry import get_preset
from repro.experiments.runner import run_scenario
from repro.radio.config import RadioConfig


def metrics_fingerprint(metrics) -> str:
    """A SHA-256 over every raw field of a RunMetrics (order-independent)."""
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


#: The `small_scenario_config` fixture's scenario, spelled out so the goldens
#: cannot drift with the fixture.
SMALL = ScenarioConfig(
    duration_s=1800.0,
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

#: RunMetrics fingerprints recorded from the pre-refactor engine.
GOLDEN_FINGERPRINTS = {
    "no-routing": "df5d4575617e6dd47a626b6644ec8977a329dbcd8c82b6d56b33c25dae5c14c0",
    "rca-etx": "82951fea1663915f31fb49154f557fa7aafe83aab7694a5d0de613e75b34647c",
    "robc": "1b207745bbad074517f143276f4a0ac23e97d8a2fe25b41d965ac89812d50d75",
    "epidemic": "1e28b904831117e221e649251fe9f153bb876c4ad7b40cdede6477e56269c8ac",
}

#: Config digests recorded from the pre-refactor engine (no radio field).
GOLDEN_DIGESTS = {
    "default": "bf3ee5ffa125909543e1792724f7d62d7765871dd7e211e1fa63da50c3414ede",
    "small": "5885d6d11626d8b29e0fecf8cf8545027b96408403f19a25e8d2fc35ece6e8ee",
    "urban-smoke": "8bcfec0f40ee69d06a3fce4e434b171cc8dddb1920e47d3241e233ce163060c9",
}


class TestDigestStability:
    def test_default_radio_keeps_pre_refactor_digests(self):
        assert config_digest(ScenarioConfig()) == GOLDEN_DIGESTS["default"]
        assert config_digest(SMALL) == GOLDEN_DIGESTS["small"]
        assert (
            config_digest(get_preset("urban-smoke").config)
            == GOLDEN_DIGESTS["urban-smoke"]
        )

    def test_non_default_radio_changes_the_digest(self):
        # Non-default radio settings change behaviour, so they must change
        # the cache key; every variant gets its own digest.
        digests = {
            config_digest(SMALL),
            config_digest(replace_fields(SMALL, {"radio.num_channels": 3})),
            config_digest(replace_fields(SMALL, {"radio.sf_policy": "distance-based"})),
            config_digest(replace_fields(
                SMALL, {"radio.num_channels": 3, "radio.sf_policy": "distance-based"}
            )),
        }
        assert len(digests) == 4

    def test_explicit_default_radio_is_digest_transparent(self):
        from dataclasses import replace

        explicit = replace(SMALL, radio=RadioConfig(num_channels=1, sf_policy="fixed-sf7"))
        assert config_digest(explicit) == config_digest(SMALL)


class TestSeedEquivalence:
    @pytest.mark.parametrize("scheme", sorted(GOLDEN_FINGERPRINTS))
    def test_default_radio_reproduces_pre_refactor_metrics(self, scheme):
        metrics = run_scenario(SMALL.with_scheme(scheme))
        assert metrics_fingerprint(metrics) == GOLDEN_FINGERPRINTS[scheme], (
            f"the {scheme} run diverged from the pre-refactor engine; "
            "if intentional, regenerate the goldens and bump CACHE_SCHEMA_VERSION"
        )

    def test_same_digest_same_metrics_through_executor_cache(self, tmp_path):
        """A cache entry written under one spelling of the default config is
        served for another spelling with the same digest."""
        from dataclasses import replace

        config = SMALL.with_scheme("robc")
        explicit = replace(config, radio=RadioConfig())
        assert config_digest(config) == config_digest(explicit)

        executor = SweepExecutor(cache_dir=tmp_path)
        first = executor.run([RunSpec(config=config)])[0]
        assert not first.from_cache
        second = executor.run([RunSpec(config=explicit)])[0]
        assert second.from_cache
        assert metrics_fingerprint(second.metrics) == metrics_fingerprint(first.metrics)


class TestMultiSfScenarios:
    """The opened-up radio layer runs end-to-end and actually differs."""

    def test_multichannel_distance_based_runs_and_diverges(self):
        multi = replace_fields(SMALL, {
            "scheme": "robc", "radio.num_channels": 3, "radio.sf_policy": "distance-based",
        })
        metrics = run_scenario(multi)
        assert metrics.messages_generated > 0
        baseline = run_scenario(SMALL.with_scheme("robc"))
        # Distance-based SFs change airtimes and collisions, so the runs
        # cannot be bit-identical.
        assert metrics_fingerprint(metrics) != metrics_fingerprint(baseline)

    def test_random_sf_policy_is_seed_deterministic(self):
        config = replace_fields(
            SMALL, {"scheme": "robc", "radio.num_channels": 8, "radio.sf_policy": "random"}
        )
        first = run_scenario(config)
        second = run_scenario(config)
        assert metrics_fingerprint(first) == metrics_fingerprint(second)

    def test_overhearing_is_confined_to_the_senders_channel_and_sf(self):
        """A single-radio neighbour cannot overhear across channels.

        With eight channels and eight devices, round-robin channel assignment
        puts every device on its own channel, so device-to-device forwarding
        has no one to talk to — while the same scenario on one shared channel
        does hand messages over.
        """
        from repro.experiments.runner import MLoRaSimulation
        from repro.experiments.scenario import build_scenario

        shared = MLoRaSimulation(build_scenario(SMALL.with_scheme("robc")))
        shared.run()
        assert shared.handover_count > 0

        isolated = MLoRaSimulation(
            build_scenario(replace_fields(SMALL, {"scheme": "robc", "radio.num_channels": 8}))
        )
        isolated.run()
        channels = {
            d.channel for d in isolated.scenario.devices.values()
        }
        assert len(channels) == len(isolated.scenario.devices)
        assert isolated.handover_count == 0

    def test_multisf_sweep_preset_runs_through_cached_executor(self, tmp_path):
        from repro.experiments.figures import SMOKE_SCALE
        from repro.experiments.registry import get_sweep

        executor = SweepExecutor(cache_dir=tmp_path)
        artifact = get_sweep("multisf").runner(SMOKE_SCALE, executor)
        assert artifact.rows, "multisf sweep produced no rows"
        channel_counts = {row["num_channels"] for row in artifact.rows}
        assert channel_counts == {1, 3, 8}
        # A second execution is served entirely from the on-disk cache.
        again = get_sweep("multisf").runner(SMOKE_SCALE, executor)
        assert again.rows == artifact.rows
