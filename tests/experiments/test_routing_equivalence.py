"""Seed-equivalence of the pluggable routing subsystem with the old engine.

The routing refactor (frozen ``RoutingConfig`` on ``ScenarioConfig``, the
scheme factory registry in :mod:`repro.routing.registry`, and the
``BufferPolicy`` strategy behind :class:`~repro.mac.queueing.DataQueue`) must
not change a single bit of any default-routing result: the golden values
below were produced by the *pre-refactor* engine (commit 59666dd, where
``experiments/scenario.py`` constructed schemes inline with hardcoded
parameters and the queue was a plain FIFO tail-drop) and the refactored
engine must keep reproducing them exactly.  Config digests are pinned for
*every* pre-existing preset — the digest omits a default routing section —
so archived SweepExecutor caches stay valid across the refactor.

If a legitimate behaviour change ever invalidates these values, regenerate
them *and* bump ``repro.experiments.parallel.CACHE_SCHEMA_VERSION`` in the
same commit (or, when only one scheme's results move, that scheme's entry in
``SCHEME_CACHE_VERSIONS``).
"""

import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.config_fields import replace_fields
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import RunSpec, SweepExecutor, config_digest
from repro.experiments.registry import get_preset
from repro.experiments.runner import run_engine, run_scenario
from repro.experiments.scenario import build_scenario
from repro.routing.config import BufferConfig, RoutingConfig
from repro.routing.spray_and_wait import get_tickets


def metrics_fingerprint(metrics) -> str:
    """A SHA-256 over every pre-refactor raw field of a RunMetrics."""
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


#: The scenario of `test_radio_equivalence.SMALL`, restated so these goldens
#: cannot drift with that module.
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

#: RunMetrics fingerprints of SMALL under every pre-existing scheme,
#: recorded from the pre-refactor engine (inline scheme construction);
#: spray-and-wait's was re-recorded once its copies split tickets.
GOLDEN_FINGERPRINTS = {
    "no-routing": "df5d4575617e6dd47a626b6644ec8977a329dbcd8c82b6d56b33c25dae5c14c0",
    "rca-etx": "82951fea1663915f31fb49154f557fa7aafe83aab7694a5d0de613e75b34647c",
    "robc": "1b207745bbad074517f143276f4a0ac23e97d8a2fe25b41d965ac89812d50d75",
    "epidemic": "1e28b904831117e221e649251fe9f153bb876c4ad7b40cdede6477e56269c8ac",
    "spray-and-wait": "c33c68a9631ab719c251b5b01e8a90c5f87c464fd6526b7ad54eb4f8910f1ccc",
}

#: Config digests of every preset that existed before the routing refactor,
#: recorded from the pre-refactor engine (no routing field on the config).
GOLDEN_PRESET_DIGESTS = {
    "dense-gateways": "58a0e4f839e9d6937ba41c2e2726de8412f53c84b758f970fa21488887501206",
    "epidemic-urban": "053d0f7a3e797e2c5331125adc73bb6bd695868e44ae2e953c7888fd3a1ff53a",
    "mega-fleet": "5ab88e9ec77d7eab7add6de9f089967fac581b426d7f2a22249008a9da1978d1",
    "quickstart": "84e783aac68387821d5afa9357f61048c9adec48090fc1d1fc6b117331a8e6c1",
    "rural": "094417b0973dbab7f9abdd2ea9a67d9ee070ad5a710d84f07853080b592af50e",
    "rural-full": "e9e69c296db1fbefa5083d4539373d828636f78f55f5ed179f3f1e9ea53f62ed",
    "rural-smoke": "41767ee01d0a9ce0a34e1e2efbc2ce4edf2d19be47f04b1a2744000e8ec21ee2",
    "sparse-gateways": "bcb805ab14148c40c575618078d1fcfe968d0ec9ed9d0ad1b26a36cae0f70850",
    "spray-and-wait-urban": "ace3e7a590fc8e9b003ca4acee90d802ad383e3b5be59598098ba092de118e09",
    "urban": "df1af1e3c5b272f04e810ac0ae1d3dc410beae790b8084a2257adf05fe327d44",
    "urban-class-a": "30c1237edc1c2461762e89006573ad4f6e28de4ed5e14d083bd60d876c95bc3d",
    "urban-full": "d6d56080154cf87c1f8934bffab26203fd02fdc131c35fb71b5b7b239dc3f4b5",
    "urban-manhattan": "4497eb0098a91e0d109a375d2248e05ed8d62c0fd1cdce7d8592b50474058a7c",
    "urban-multisf": "1076cfc638cd8e244813f0399a4a0a0bad7a4143941983563c8438c15f930d6d",
    "urban-random-placement": "7c5596cb6e6a97c8d57fa23861623746306849fbb1377bcbefeaa7a502707d53",
    "urban-rwp": "7d0c299df2f64fdc4692ba0ad08a3190c118dc4cb5e65562b2e833b4fc898b6a",
    "urban-smoke": "8bcfec0f40ee69d06a3fce4e434b171cc8dddb1920e47d3241e233ce163060c9",
}


class TestDigestStability:
    @pytest.mark.parametrize("preset_name", sorted(GOLDEN_PRESET_DIGESTS))
    def test_every_pre_existing_preset_keeps_its_digest(self, preset_name):
        assert (
            config_digest(get_preset(preset_name).config)
            == GOLDEN_PRESET_DIGESTS[preset_name]
        ), (
            f"preset {preset_name} changed its config digest across the "
            "routing refactor; archived sweep caches would go stale"
        )

    def test_explicit_default_routing_is_digest_transparent(self):
        explicit = replace(SMALL, routing=RoutingConfig())
        assert config_digest(explicit) == config_digest(SMALL)
        # is_default is the user-facing spelling of that transparency.
        assert RoutingConfig().is_default and BufferConfig().is_default
        assert not RoutingConfig(max_handover_messages=6).is_default
        assert not BufferConfig(policy="drop-oldest").is_default

    def test_non_default_routing_changes_the_digest(self):
        digests = {
            config_digest(SMALL),
            config_digest(replace_fields(SMALL, {"routing.spray_initial_copies": 8})),
            config_digest(replace_fields(SMALL, {"routing.max_handover_messages": 6})),
            config_digest(replace_fields(SMALL, {"routing.buffer.policy": "drop-oldest"})),
            config_digest(replace_fields(SMALL, {"routing.buffer.capacity": 8})),
            config_digest(replace_fields(
                SMALL, {"routing.buffer.policy": "ttl-expiry", "routing.buffer.ttl_s": 600.0}
            )),
        }
        assert len(digests) == 6

    def test_same_digest_same_metrics_through_executor_cache(self, tmp_path):
        config = SMALL.with_scheme("no-routing")
        explicit = replace(config, routing=RoutingConfig())
        assert config_digest(config) == config_digest(explicit)
        executor = SweepExecutor(cache_dir=tmp_path)
        first = executor.run([RunSpec(config=config)])[0]
        assert not first.from_cache
        second = executor.run([RunSpec(config=explicit)])[0]
        assert second.from_cache


class TestSeedEquivalence:
    @pytest.mark.parametrize("scheme", sorted(GOLDEN_FINGERPRINTS))
    def test_default_routing_reproduces_pre_refactor_metrics(self, scheme):
        metrics = run_scenario(SMALL.with_scheme(scheme))
        assert metrics_fingerprint(metrics) == GOLDEN_FINGERPRINTS[scheme], (
            f"the {scheme} run diverged from the pre-refactor engine; "
            "if intentional, regenerate the goldens and bump CACHE_SCHEMA_VERSION"
        )

    def test_registry_built_scheme_matches_inline_construction(self):
        """build_scheme with a default RoutingConfig == the scheme's own ctor."""
        from repro.routing import (
            EpidemicScheme,
            ProphetScheme,
            RCAETXScheme,
            ROBCScheme,
            SprayAndWaitScheme,
            build_scheme,
        )

        constructors = {
            "rca-etx": RCAETXScheme,
            "robc": ROBCScheme,
            "epidemic": EpidemicScheme,
            "spray-and-wait": SprayAndWaitScheme,
            "prophet": ProphetScheme,
        }
        for name, scheme_class in constructors.items():
            built, inline = build_scheme(name), scheme_class()
            assert built.max_handover_messages == inline.max_handover_messages, name
        assert build_scheme("spray-and-wait").initial_copies == 4
        assert build_scheme("robc").rgq == ROBCScheme().rgq
        prophet, inline = build_scheme("prophet"), ProphetScheme()
        assert (prophet.p_init, prophet.beta, prophet.gamma) == (
            inline.p_init, inline.beta, inline.gamma
        )


class TestRoutingParameters:
    """The opened-up routing layer runs end-to-end and actually differs."""

    def test_spray_copies_change_results(self):
        # A single ticket puts every carrier straight into the wait phase
        # (deliver-to-gateway only); the default four tickets spray, halving
        # a message's tickets at each copy until its carriers hold one each.
        base = run_scenario(SMALL.with_scheme("spray-and-wait"))
        wait_only = run_scenario(
            replace_fields(SMALL, {"scheme": "spray-and-wait", "routing.spray_initial_copies": 1})
        )
        assert metrics_fingerprint(base) != metrics_fingerprint(wait_only)

    def test_handover_cap_changes_results(self):
        base = run_scenario(SMALL.with_scheme("robc"))
        tight = run_scenario(
            replace_fields(SMALL, {"scheme": "robc", "routing.max_handover_messages": 1})
        )
        assert metrics_fingerprint(base) != metrics_fingerprint(tight)

    def test_buffer_pressure_counts_capacity_drops(self):
        pressured = run_scenario(
            replace_fields(SMALL, {
                "scheme": "robc",
                "routing.buffer.policy": "drop-oldest",
                "routing.buffer.capacity": 2,
            })
        )
        assert pressured.messages_dropped_full > 0
        relaxed = run_scenario(SMALL.with_scheme("robc"))
        assert relaxed.messages_dropped_full == 0

    def test_replication_dedup_is_not_loss(self):
        # Epidemic replication re-offers carried copies; the receiving queue
        # refuses duplicates and the refusal must not count as a drop.
        metrics = run_scenario(SMALL.with_scheme("epidemic"))
        assert metrics.messages_rejected_duplicate > 0
        assert metrics.messages_dropped_full == 0

    def test_ttl_expiry_removes_stale_messages(self):
        metrics = run_scenario(
            replace_fields(SMALL, {
                "scheme": "no-routing",
                "routing.buffer.policy": "ttl-expiry",
                "routing.buffer.ttl_s": 60.0,
            })
        )
        assert metrics.messages_expired_ttl > 0

    def test_invalid_routing_sections_rejected(self):
        with pytest.raises(ValueError):
            RoutingConfig(max_handover_messages=0)
        with pytest.raises(ValueError):
            BufferConfig(policy="not-a-policy")
        with pytest.raises(ValueError):
            BufferConfig(policy="ttl-expiry")  # needs ttl_s > 0
        with pytest.raises(ValueError):
            BufferConfig(policy="drop-new", ttl_s=10.0)
        with pytest.raises(ValueError, match="not_a_param"):
            replace_fields(SMALL, {"routing.not_a_param": 3})


class TestSprayTicketBudget:
    """Binary spray-and-wait bounds each message's copies by its tickets.

    A replicating handover splits a message's tickets between the carrier
    and each copy the taker stores, so after a run the tickets of one
    message id, summed over every queue, never exceed ``initial_copies``.
    """

    #: Small and dense enough that messages meet many carriers.
    CONFIG = replace_fields(get_preset("urban-smoke").config, {
        "scheme": "spray-and-wait",
        "mobility.model": "random-waypoint",
        "mobility.num_nodes": 40,
        "area_km2": 1.0,
    })

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_ticket_sum_per_message_within_initial_copies(self, engine):
        scenario = build_scenario(self.CONFIG)
        metrics = run_engine(scenario, engine)
        initial = self.CONFIG.routing.spray_initial_copies
        tickets = Counter()
        for device in scenario.devices.values():
            for message in device.queue.peek_all():
                tickets[message.message_id] += get_tickets(message, initial)
        assert metrics.messages_delivered > 0 and tickets
        assert max(tickets.values()) <= initial


class TestProphet:
    def test_prophet_preset_runs_and_diverges(self):
        config = SMALL.with_scheme("prophet")
        metrics = run_scenario(config)
        assert metrics.messages_generated > 0
        for scheme, golden in GOLDEN_FINGERPRINTS.items():
            assert metrics_fingerprint(metrics) != golden, scheme

    def test_prophet_is_seed_deterministic(self):
        config = SMALL.with_scheme("prophet")
        assert metrics_fingerprint(run_scenario(config)) == metrics_fingerprint(
            run_scenario(config)
        )

    def test_prophet_parameters_change_results(self):
        base = run_scenario(SMALL.with_scheme("prophet"))
        eager = run_scenario(
            replace_fields(SMALL, {
                "scheme": "prophet", "routing.prophet_beta": 1.0, "routing.prophet_gamma": 1.0,
            })
        )
        assert metrics_fingerprint(base) != metrics_fingerprint(eager)

    def test_cli_prophet_preset_matches_api(self):
        """`repro run urban-prophet` (shrunk for test speed) == the API run."""
        from repro.experiments.cli import run_target

        outcome = run_target("urban-prophet", scale=0.5, duration_s=1800.0)
        expected = run_scenario(
            replace(get_preset("urban-prophet").config.scaled(0.5), duration_s=1800.0)
        )
        assert outcome.metrics == expected


class TestRoutingSweep:
    def test_routing_sweep_runs_through_cached_executor(self, tmp_path):
        from repro.experiments.figures import SMOKE_SCALE
        from repro.experiments.registry import get_sweep

        executor = SweepExecutor(cache_dir=tmp_path)
        artifact = get_sweep("routing").runner(SMOKE_SCALE, executor)
        assert artifact.rows, "routing sweep produced no rows"
        policies = {row["buffer_policy"] for row in artifact.rows}
        assert policies == {"drop-new", "drop-oldest", "priority-age"}
        capacities = {row["buffer_capacity"] for row in artifact.rows}
        assert capacities == {8, 64}
        # A second execution is served entirely from the on-disk cache.
        again = get_sweep("routing").runner(SMOKE_SCALE, executor)
        assert again.rows == artifact.rows

    def test_cli_buffer_overrides_match_api(self):
        from repro.experiments.cli import run_target

        outcome = run_target(
            "urban-smoke", buffer="drop-oldest", buffer_capacity=4
        )
        expected = run_scenario(
            replace_fields(get_preset("urban-smoke").config, {
                "routing.buffer.policy": "drop-oldest", "routing.buffer.capacity": 4,
            })
        )
        assert outcome.metrics == expected

    def test_cli_scheme_param_override_matches_api(self):
        from repro.experiments.cli import parse_scheme_params, run_target

        params = parse_scheme_params(["max_handover_messages=3"])
        assert params == {"max_handover_messages": 3}
        outcome = run_target("urban-smoke", scheme_params=params)
        expected = run_scenario(
            replace_fields(get_preset("urban-smoke").config, {"routing.max_handover_messages": 3})
        )
        assert outcome.metrics == expected
