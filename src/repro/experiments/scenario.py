"""Scenario construction: from a :class:`ScenarioConfig` to simulation objects.

Builds the mobility traces (through the pluggable model registry of
:mod:`repro.mobility.models`; the paper's synthetic London bus network by
default), one :class:`EndDevice` per mobile node, the gateway deployment
(uniform grid as in the paper, or uniform-random for the placement ablation),
and the time-varying topology they all live in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Type

import numpy as np

from repro.experiments.config import ScenarioConfig
from repro.mac.device import EndDevice
from repro.mac.device_classes import (
    ClassADevice,
    ClassCDevice,
    DeviceClass,
    ModifiedClassC,
    QueueBasedClassA,
)
from repro.mac.gateway import Gateway
from repro.mobility.geometry import BoundingBox, Point, grid_positions
from repro.mobility.models import build_mobility
from repro.mobility.trace import MobilityTrace
from repro.network.node import DeviceNode, SinkNode
from repro.network.topology import TimeVaryingTopology, TopologyConfig
from repro.phy.link import LinkCapacityModel
from repro.phy.pathloss import LogDistancePathLoss
from repro.mac.queueing import make_buffer_policy
from repro.radio.sf_policy import RadioAssignment, allocate_radio
from repro.routing import ForwardingScheme, build_scheme
from repro.sim.randomness import RandomStreams

_DEVICE_CLASS_REGISTRY = {
    "class-a": ClassADevice,
    "class-c": ClassCDevice,
    "modified-class-c": ModifiedClassC,
    "queue-based-class-a": QueueBasedClassA,
}


def device_class_names() -> List[str]:
    """The registered device-class names (sorted)."""
    return sorted(_DEVICE_CLASS_REGISTRY)


def device_class_type(name: str) -> Type[DeviceClass]:
    """The device class registered under ``name``; unknown names are a ValueError."""
    try:
        return _DEVICE_CLASS_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown device class {name!r}; available: {sorted(_DEVICE_CLASS_REGISTRY)}"
        ) from None


def make_device_class(name: str) -> DeviceClass:
    """Instantiate a device class by name."""
    return device_class_type(name)()


@dataclass
class BuiltScenario:
    """Everything the runner needs for one simulation."""

    config: ScenarioConfig
    streams: RandomStreams
    bounding_box: BoundingBox
    traces: Dict[str, MobilityTrace]
    devices: Dict[str, EndDevice]
    gateways: Dict[str, Gateway]
    topology: TimeVaryingTopology
    scheme: ForwardingScheme
    capacity_model: LinkCapacityModel
    radio_assignments: Dict[str, RadioAssignment]

    @property
    def num_devices(self) -> int:
        """Number of end-devices (buses) in the scenario."""
        return len(self.devices)


def _gateway_positions(
    config: ScenarioConfig, box: BoundingBox, rng: np.random.Generator
) -> List[Point]:
    if config.gateway_placement == "grid":
        return grid_positions(box, config.num_gateways)
    return [
        Point(
            float(rng.uniform(box.min_x, box.max_x)),
            float(rng.uniform(box.min_y, box.max_y)),
        )
        for _ in range(config.num_gateways)
    ]


def build_scenario(config: ScenarioConfig) -> BuiltScenario:
    """Construct mobility, devices, gateways and topology for ``config``."""
    streams = RandomStreams(config.seed)

    # Mobility: whichever model the scenario names (london-bus by default).
    mobility_build = build_mobility(config.mobility_spec(), streams.stream("mobility"))
    box = mobility_build.bounding_box
    traces: Dict[str, MobilityTrace] = mobility_build.traces
    device_nodes: List[DeviceNode] = [
        DeviceNode(device_id, trace) for device_id, trace in traces.items()
    ]

    # Gateways.
    gateway_rng = streams.stream("gateway-placement")
    gateway_positions = _gateway_positions(config, box, gateway_rng)
    gateways: Dict[str, Gateway] = {}
    sink_nodes: List[SinkNode] = []
    for index, position in enumerate(gateway_positions):
        gateway_id = f"gw-{index:03d}"
        gateways[gateway_id] = Gateway(gateway_id, position)
        sink_nodes.append(SinkNode(gateway_id, position))

    # Radio plan: one (SF, channel) assignment per device.  The default
    # fixed-sf7 policy touches neither positions nor randomness, so both are
    # only materialised for the policy that needs them.
    radio_assignments = allocate_radio(
        config.radio,
        device_ids=list(traces),
        device_positions=(
            {
                device_id: trace.position_at(trace.start_time)
                for device_id, trace in traces.items()
            }
            if config.radio.sf_policy == "distance-based"
            else None
        ),
        gateway_positions=gateway_positions,
        gateway_range_m=config.gateway_range_m,
        rng=(
            streams.stream("sf-allocation")
            if config.radio.sf_policy == "random"
            else None
        ),
    )
    # Buffer management: every device gets its own policy instance (policies
    # may hold state) and the routing section's capacity override, if any.
    buffer = config.routing.buffer
    devices: Dict[str, EndDevice] = {
        device_id: EndDevice(
            device_id,
            config=config.device,
            device_class=make_device_class(config.device_class),
            spreading_factor=radio_assignments[device_id].spreading_factor,
            channel=radio_assignments[device_id].channel,
            queue_policy=make_buffer_policy(buffer.policy, buffer.ttl_s),
            queue_capacity=buffer.capacity if buffer.capacity > 0 else None,
        )
        for device_id in traces
    }

    # Radio models and topology.
    capacity_model = LinkCapacityModel.for_spreading_factor()
    topology = TimeVaryingTopology(
        devices=device_nodes,
        sinks=sink_nodes,
        config=TopologyConfig(
            gateway_range_m=config.gateway_range_m,
            device_range_m=config.device_range_m,
            shadowing_enabled=config.shadowing,
        ),
        path_loss=LogDistancePathLoss(),
        capacity_model=capacity_model,
        rng=streams.stream("shadowing"),
        sf_by_node={
            device_id: assignment.spreading_factor
            for device_id, assignment in radio_assignments.items()
        },
    )

    scheme = build_scheme(config.scheme, config.routing)
    return BuiltScenario(
        config=config,
        streams=streams,
        bounding_box=box,
        traces=traces,
        devices=devices,
        gateways=gateways,
        topology=topology,
        scheme=scheme,
        capacity_model=capacity_model,
        radio_assignments=radio_assignments,
    )
