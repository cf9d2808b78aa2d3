"""Unit/functional tests for the simulation engine."""

import pytest

from repro.engine import ENGINE_ENV_VAR
from repro.engine.array_engine import ArrayMLoRaSimulation
from repro.experiments.runner import MLoRaSimulation, run_engine, run_scenario
from repro.experiments.scenario import build_scenario

#: Each engine class paired with the class ``run_engine`` must not touch.
_ENGINE_CLASSES = {"object": MLoRaSimulation, "array": ArrayMLoRaSimulation}


class TestRunEngine:
    @pytest.mark.parametrize("name", sorted(_ENGINE_CLASSES))
    def test_named_engine_wins_over_the_environment(
        self, small_scenario_config, monkeypatch, name
    ):
        # A bench timing one engine against the other must get the engine
        # it named even when REPRO_ENGINE pushes everything to the other.
        other = "array" if name == "object" else "object"
        monkeypatch.setenv(ENGINE_ENV_VAR, other)

        def refuse(self):
            raise AssertionError(f"run_engine({name!r}) ran the {other} engine")

        monkeypatch.setattr(_ENGINE_CLASSES[other], "run", refuse)
        metrics = run_engine(build_scenario(small_scenario_config), name)
        assert metrics.messages_generated > 0

    def test_unknown_engine_is_rejected(self, small_scenario_config):
        scenario = build_scenario(small_scenario_config)
        with pytest.raises(ValueError, match="unknown engine 'gpu'.*'array'"):
            run_engine(scenario, "gpu")


class TestRunScenario:
    def test_run_produces_consistent_metrics(self, small_scenario_config):
        metrics = run_scenario(small_scenario_config)
        assert metrics.messages_generated > 0
        assert 0 <= metrics.messages_delivered <= metrics.messages_generated
        assert len(metrics.delays_s) == metrics.messages_delivered
        assert len(metrics.hop_counts) == metrics.messages_delivered
        assert all(delay >= 0 for delay in metrics.delays_s)
        assert metrics.scheme == "no-routing"

    def test_no_routing_always_single_hop(self, small_scenario_config):
        metrics = run_scenario(small_scenario_config)
        assert all(h == 1 for h in metrics.hop_counts)

    def test_same_seed_is_deterministic(self, small_scenario_config):
        first = run_scenario(small_scenario_config.with_scheme("robc"))
        second = run_scenario(small_scenario_config.with_scheme("robc"))
        assert first.messages_delivered == second.messages_delivered
        assert first.delays_s == second.delays_s
        assert first.transmissions_per_device == second.transmissions_per_device

    def test_forwarding_scheme_can_produce_multi_hop_deliveries(self, small_scenario_config):
        metrics = run_scenario(small_scenario_config.with_scheme("rca-etx"))
        assert all(h >= 1 for h in metrics.hop_counts)

    def test_duty_cycle_respected_for_every_device(self, small_scenario_config):
        scenario = build_scenario(small_scenario_config.with_scheme("robc"))
        simulation = MLoRaSimulation(scenario)
        simulation.run()
        for device in scenario.devices.values():
            utilisation = device.duty_cycle.total_airtime_s / small_scenario_config.duration_s
            assert utilisation <= small_scenario_config.device.duty_cycle + 1e-6

    def test_delivered_messages_within_simulation_window(self, small_scenario_config):
        metrics = run_scenario(small_scenario_config)
        assert all(0 <= t <= small_scenario_config.duration_s for t in metrics.delivery_times_s)

    def test_energy_accounted_for_every_device(self, small_scenario_config):
        metrics = run_scenario(small_scenario_config)
        assert len(metrics.energy_joules_per_device) == (
            small_scenario_config.num_routes * small_scenario_config.trips_per_route
        )
        assert all(e >= 0.0 for e in metrics.energy_joules_per_device.values())

    def test_handover_counters_zero_without_forwarding(self, small_scenario_config):
        scenario = build_scenario(small_scenario_config)
        simulation = MLoRaSimulation(scenario)
        simulation.run()
        assert simulation.handover_count == 0
        assert simulation.handed_over_messages == 0

    def test_retransmissions_recorded_when_uplinks_fail(self, small_scenario_config):
        from dataclasses import replace

        # A single, far-away gateway guarantees failures for most devices.
        sparse = replace(small_scenario_config, num_gateways=1, area_km2=80.0)
        scenario = build_scenario(sparse)
        MLoRaSimulation(scenario).run()
        assert sum(d.stats.retransmissions for d in scenario.devices.values()) > 0
