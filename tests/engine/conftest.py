"""Shared fixtures for the engine differential test suite.

The tests in this package compare the object-graph oracle
(:class:`repro.experiments.runner.MLoRaSimulation`) against the array engine
(:class:`repro.engine.array_engine.ArrayMLoRaSimulation`) on the *same*
configuration, so every helper here builds scenarios fresh per engine —
engines mutate device and queue state, a built scenario cannot be reused.

``manual_scenario`` assembles a :class:`BuiltScenario` by hand from explicit
device/gateway positions.  ``ScenarioConfig`` validation (``num_routes > 0``)
makes zero-device and single-device edge cases impossible to express through
``build_scenario``; the factory sidesteps the mobility model entirely with
static traces.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Tuple

import pytest

from repro.engine.array_engine import ArrayMLoRaSimulation
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import MLoRaSimulation
from repro.experiments.scenario import BuiltScenario, build_scenario, make_device_class
from repro.mac.device import EndDevice
from repro.mac.gateway import Gateway
from repro.mac.queueing import make_buffer_policy
from repro.mobility.geometry import BoundingBox, Point
from repro.mobility.trace import MobilityTrace
from repro.network.node import DeviceNode, SinkNode
from repro.network.topology import TimeVaryingTopology, TopologyConfig
from repro.phy.link import LinkCapacityModel
from repro.phy.pathloss import LogDistancePathLoss
from repro.radio.sf_policy import RadioAssignment
from repro.routing import build_scheme
from repro.sim.randomness import RandomStreams


def build_manual_scenario(
    config: ScenarioConfig,
    device_positions: Mapping[str, Point],
    gateway_positions: Mapping[str, Point],
    trace_windows: Optional[Mapping[str, Tuple[float, float]]] = None,
    moving: Optional[Mapping[str, MobilityTrace]] = None,
) -> BuiltScenario:
    """A BuiltScenario with hand-placed static devices and gateways.

    ``trace_windows`` bounds a device's in-service interval; devices without
    an entry are in service for the whole run (open-ended static trace).
    ``moving`` gives a device an explicit trace instead; its position in
    ``device_positions`` is then only used for the bounding box.
    """
    streams = RandomStreams(config.seed)
    windows = dict(trace_windows or {})
    moving = dict(moving or {})
    traces: Dict[str, MobilityTrace] = {}
    for device_id, position in device_positions.items():
        if device_id in moving:
            traces[device_id] = moving[device_id]
            continue
        start, end = windows.get(device_id, (0.0, math.inf))
        traces[device_id] = MobilityTrace.static(
            position, start=start, end=end, node_id=device_id
        )
    buffer = config.routing.buffer
    devices = {
        device_id: EndDevice(
            device_id,
            config=config.device,
            device_class=make_device_class(config.device_class),
            queue_policy=make_buffer_policy(buffer.policy, buffer.ttl_s),
            queue_capacity=buffer.capacity if buffer.capacity > 0 else None,
        )
        for device_id in traces
    }
    gateways = {
        gateway_id: Gateway(gateway_id, position)
        for gateway_id, position in gateway_positions.items()
    }
    points = list(device_positions.values()) + list(gateway_positions.values())
    margin = 1000.0
    box = BoundingBox(
        min(p.x for p in points) - margin,
        min(p.y for p in points) - margin,
        max(p.x for p in points) + margin,
        max(p.y for p in points) + margin,
    )
    capacity_model = LinkCapacityModel.for_spreading_factor()
    topology = TimeVaryingTopology(
        devices=[DeviceNode(device_id, trace) for device_id, trace in traces.items()],
        sinks=[SinkNode(gid, gw.position) for gid, gw in gateways.items()],
        config=TopologyConfig(
            gateway_range_m=config.gateway_range_m,
            device_range_m=config.device_range_m,
            shadowing_enabled=config.shadowing,
        ),
        path_loss=LogDistancePathLoss(),
        capacity_model=capacity_model,
        rng=streams.stream("shadowing"),
    )
    return BuiltScenario(
        config=config,
        streams=streams,
        bounding_box=box,
        traces=traces,
        devices=devices,
        gateways=gateways,
        topology=topology,
        scheme=build_scheme(config.scheme, config.routing),
        capacity_model=capacity_model,
        radio_assignments={device_id: RadioAssignment() for device_id in traces},
    )


@pytest.fixture
def manual_scenario():
    """Factory fixture: hand-built scenarios for edge-case tests."""
    return build_manual_scenario


@pytest.fixture
def run_both():
    """Run both engines on ``config`` (fresh scenario each) and return their
    RunMetrics as an ``(object, array)`` pair."""

    def _run(config: ScenarioConfig):
        object_metrics = MLoRaSimulation(build_scenario(config)).run()
        array_metrics = ArrayMLoRaSimulation(build_scenario(config)).run()
        return object_metrics, array_metrics

    return _run
