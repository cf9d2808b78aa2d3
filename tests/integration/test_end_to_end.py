"""Integration tests: full simulations exercising every layer together."""

from dataclasses import replace

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import MLoRaSimulation, run_scenario
from repro.experiments.scenario import build_scenario


@pytest.fixture(scope="module")
def dense_config():
    """A scenario dense enough that forwarding actually happens."""
    return ScenarioConfig(
        duration_s=3600.0,
        area_km2=30.0,
        num_gateways=3,
        num_routes=6,
        trips_per_route=4,
        stops_per_route=8,
        min_block_repeats=2,
        max_block_repeats=4,
        device_range_m=1000.0,
        seed=5,
    )


@pytest.fixture(scope="module")
def scheme_runs(dense_config):
    return {
        scheme: run_scenario(dense_config.with_scheme(scheme))
        for scheme in ("no-routing", "rca-etx", "robc")
    }


class TestSchemeComparison:
    def test_all_schemes_deliver_messages(self, scheme_runs):
        for scheme, metrics in scheme_runs.items():
            assert metrics.messages_delivered > 0, scheme

    def test_generated_workload_identical_across_schemes(self, scheme_runs):
        generated = {metrics.messages_generated for metrics in scheme_runs.values()}
        assert len(generated) == 1

    def test_forwarding_never_reduces_unique_deliveries_below_half_baseline(self, scheme_runs):
        baseline = scheme_runs["no-routing"].messages_delivered
        for scheme in ("rca-etx", "robc"):
            assert scheme_runs[scheme].messages_delivered >= 0.5 * baseline

    def test_no_routing_strictly_single_hop(self, scheme_runs):
        assert set(scheme_runs["no-routing"].hop_counts) == {1}

    def test_forwarding_schemes_send_at_least_as_many_frames(self, scheme_runs):
        baseline = scheme_runs["no-routing"].mean_messages_sent_per_node
        for scheme in ("rca-etx", "robc"):
            assert scheme_runs[scheme].mean_messages_sent_per_node >= baseline * 0.95

    def test_delays_non_negative_and_bounded_by_duration(self, scheme_runs, dense_config):
        for metrics in scheme_runs.values():
            assert all(0.0 <= d <= dense_config.duration_s for d in metrics.delays_s)


class TestForwardingMechanics:
    def test_forwarding_scheme_produces_handovers_in_dense_scenario(self, dense_config):
        scenario = build_scenario(dense_config.with_scheme("rca-etx"))
        simulation = MLoRaSimulation(scenario)
        simulation.run()
        received = sum(
            d.stats.messages_received_from_peers for d in scenario.devices.values()
        )
        assert simulation.handover_count >= 0
        assert received == simulation.handed_over_messages

    def test_message_conservation(self, dense_config):
        """Every generated message is delivered, still queued, or was dropped."""
        scenario = build_scenario(dense_config.with_scheme("robc"))
        simulation = MLoRaSimulation(scenario)
        metrics = simulation.run()
        queued = sum(len(d.queue) for d in scenario.devices.values())
        dropped = sum(d.queue.dropped_full for d in scenario.devices.values())
        total = metrics.messages_delivered + queued + dropped
        assert total >= metrics.messages_generated

    def test_gateway_frame_counts_match_server_frames(self, dense_config):
        scenario = build_scenario(dense_config)
        simulation = MLoRaSimulation(scenario)
        simulation.run()
        gateway_frames = sum(g.frames_received for g in scenario.gateways.values())
        assert gateway_frames == simulation.server.frames_processed


class TestDeviceClassesEndToEnd:
    def test_queue_based_class_a_uses_less_energy_than_modified_class_c(self, dense_config):
        modified_c = run_scenario(
            replace(dense_config, scheme="robc", device_class="modified-class-c")
        )
        queue_a = run_scenario(
            replace(dense_config, scheme="robc", device_class="queue-based-class-a")
        )
        assert queue_a.mean_energy_joules < modified_c.mean_energy_joules

    def test_queue_based_class_a_still_delivers(self, dense_config):
        queue_a = run_scenario(
            replace(dense_config, scheme="robc", device_class="queue-based-class-a")
        )
        assert queue_a.messages_delivered > 0


class TestGatewayDensityEffect:
    def test_more_gateways_means_more_throughput_and_less_delay(self, dense_config):
        sparse = run_scenario(replace(dense_config, num_gateways=1))
        dense = run_scenario(replace(dense_config, num_gateways=8))
        assert dense.messages_delivered > sparse.messages_delivered
        assert dense.mean_delay_s <= sparse.mean_delay_s or sparse.messages_delivered == 0
