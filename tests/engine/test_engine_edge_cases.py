"""Edge-case regressions for the engine pair.

Boundary conditions the differential property suite is unlikely to sample:
empty fleets, devices that never reach a gateway, duty-cycle denials landing
exactly on the array engine's prefilter tick boundary, the end-of-run
clock landing when the array engine's heap drains before ``duration_s``, and
static nodes exactly at range, where the squared-distance prefilter must
still admit what the oracle's ``math.hypot`` disc admits.
``ScenarioConfig`` validation requires at least one route, so these scenarios
are assembled by hand through the ``manual_scenario`` factory.
"""

import math

import pytest

from repro.config_fields import replace_fields
from repro.engine.array_engine import ArrayMLoRaSimulation
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import MLoRaSimulation
from repro.mobility.geometry import Point


def _config(**overrides) -> ScenarioConfig:
    defaults = dict(duration_s=1200.0, num_routes=1, trips_per_route=1, seed=5)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _run_pair(manual_scenario, config, devices, gateways):
    """Both engines on independently built copies of the same hand scenario."""
    object_sim = MLoRaSimulation(manual_scenario(config, devices, gateways))
    array_sim = ArrayMLoRaSimulation(manual_scenario(config, devices, gateways))
    return object_sim, array_sim


class TestZeroDevices:
    def test_empty_fleet_runs_to_completion_on_both_engines(self, manual_scenario):
        config = _config()
        object_sim, array_sim = _run_pair(
            manual_scenario, config, {}, {"gw-000": Point(0.0, 0.0)}
        )
        object_metrics = object_sim.run()
        array_metrics = array_sim.run()
        assert object_metrics == array_metrics
        assert array_metrics.messages_generated == 0
        assert array_metrics.messages_delivered == 0
        assert array_sim.now == config.duration_s


class TestNoGatewayInRange:
    def test_out_of_range_device_retries_and_never_delivers(self, manual_scenario):
        # 100 km from the only gateway: every uplink fails, the retry chain
        # runs against the duty cycle for the whole window.
        config = _config()
        devices = {"bus-000": Point(0.0, 0.0)}
        gateways = {"gw-000": Point(100_000.0, 0.0)}
        object_sim, array_sim = _run_pair(manual_scenario, config, devices, gateways)
        object_metrics = object_sim.run()
        array_metrics = array_sim.run()
        assert object_metrics == array_metrics
        assert array_metrics.messages_delivered == 0
        assert array_metrics.messages_generated > 0
        device = array_sim.scenario.devices["bus-000"]
        assert device.stats.uplink_transmissions > 1  # the chain did retry


class TestDutyCycleAtTickBoundary:
    def test_duty_denial_exactly_on_prefilter_tick(self, manual_scenario):
        # Generation every 5 s with tick_s = 5 s puts every generation-time
        # attempt exactly on an array-prefilter tick boundary, and the ~6 s
        # duty-cycle off-time after each frame means many of those attempts
        # are denied at the boundary and rescheduled mid-tick.
        config = replace_fields(
            _config(duration_s=300.0),
            {"device.message_interval_s": 5.0, "engine.tick_s": 5.0},
        )
        devices = {"bus-000": Point(0.0, 0.0)}
        gateways = {"gw-000": Point(50.0, 0.0)}
        object_sim, array_sim = _run_pair(manual_scenario, config, devices, gateways)
        object_metrics = object_sim.run()
        array_metrics = array_sim.run()
        assert object_metrics == array_metrics
        assert array_metrics.messages_generated == 60
        assert array_metrics.messages_delivered > 0
        device = array_sim.scenario.devices["bus-000"]
        # The duty cycle actually bit: fewer frames than messages.
        assert 0 < device.stats.uplink_transmissions < 60


class TestClockLandsOnUntil:
    def test_array_engine_lands_on_duration_after_draining_early(
        self, manual_scenario
    ):
        # One message at t = 0, delivered within a frame's airtime; the heap
        # is empty long before duration_s.  Idle-energy accounting depends on
        # the final clock, so both engines must land exactly on `until`.
        config = _config(duration_s=150.0)
        devices = {"bus-000": Point(0.0, 0.0)}
        gateways = {"gw-000": Point(50.0, 0.0)}
        object_sim, array_sim = _run_pair(manual_scenario, config, devices, gateways)
        object_metrics = object_sim.run()
        array_metrics = array_sim.run()
        assert object_metrics == array_metrics
        assert array_metrics.messages_delivered == 1
        assert array_sim.now == pytest.approx(config.duration_s, abs=0.0)
        assert object_sim.simulator.now == pytest.approx(config.duration_s, abs=0.0)


#: ``math.hypot`` of this offset is exactly 1000.0, but ``x*x + y*y`` rounds
#: above 1000.0**2: a squared-distance test without slack rejects a pair the
#: oracle's disc query accepts.  Halving it (exact in binary floating point)
#: gives the same situation at 500 m.
_BOUNDARY_OFFSET = (516.9236669530741, -856.0314962335133)


class TestStaticNodeExactlyAtRange:
    def test_offset_sits_on_the_rounding_edge(self):
        x, y = _BOUNDARY_OFFSET
        assert math.hypot(x, y) == 1000.0
        assert x * x + y * y > 1000.0 * 1000.0
        assert math.hypot(x / 2, y / 2) == 500.0
        assert (x / 2) * (x / 2) + (y / 2) * (y / 2) > 500.0 * 500.0

    def test_gateway_at_range_delivers_on_both_engines(self, manual_scenario):
        # A static device has a zero speed margin, so only the slack keeps
        # the gateway a candidate.
        config = ScenarioConfig(duration_s=3600)
        assert config.gateway_range_m == 1000.0
        devices = {"bus-000": Point(*_BOUNDARY_OFFSET)}
        gateways = {"gw-000": Point(0.0, 0.0)}
        object_sim, array_sim = _run_pair(manual_scenario, config, devices, gateways)
        object_metrics = object_sim.run()
        array_metrics = array_sim.run()
        assert object_metrics.messages_delivered == 20
        assert array_metrics == object_metrics

    def test_overhear_candidates_match_neighbours_at_range(self, manual_scenario):
        config = ScenarioConfig(duration_s=600, scheme="robc")
        assert config.device_range_m == 500.0
        x, y = _BOUNDARY_OFFSET
        devices = {"bus-000": Point(0.0, 0.0), "bus-001": Point(x / 2, y / 2)}
        # No gateway in reach, so only the device-to-device link matters.
        gateways = {"gw-000": Point(100_000.0, 0.0)}
        scenario = manual_scenario(config, devices, gateways)
        sim = ArrayMLoRaSimulation(scenario)
        expected = [
            (neighbour_id, link.rssi_dbm)
            for neighbour_id, link in scenario.topology.neighbours("bus-000", 0.0)
        ]
        assert [neighbour_id for neighbour_id, _ in expected] == ["bus-001"]
        rssi_by_receiver = {}
        overhearers = {}
        sim._collect_overhearers(
            0,
            scenario.devices["bus-000"],
            0.0,
            (0.0, 0.0),
            rssi_by_receiver,
            overhearers,
        )
        assert list(overhearers.items()) == expected
        assert rssi_by_receiver == overhearers
