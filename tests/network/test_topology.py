"""Unit tests for the time-varying topology G(N, L, C(t))."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.geometry import Point
from repro.mobility.trace import MobilityTrace, TracePoint
from repro.network.node import DeviceNode, SinkNode
from repro.network.topology import TimeVaryingTopology, TopologyConfig
from repro.phy.link import LinkCapacityModel
from repro.phy.pathloss import DiscPathLoss


def _moving_device(device_id, start_xy, end_xy, duration=1000.0):
    trace = MobilityTrace(
        [TracePoint(0.0, Point(*start_xy)), TracePoint(duration, Point(*end_xy))],
        node_id=device_id,
    )
    return DeviceNode(device_id, trace)


def _static_device(device_id, xy, start=0.0, end=1000.0):
    return DeviceNode(device_id, MobilityTrace.static(Point(*xy), start=start, end=end))


def _topology(devices, sinks, device_range=500.0, gateway_range=1000.0):
    return TimeVaryingTopology(
        devices=devices,
        sinks=sinks,
        config=TopologyConfig(
            gateway_range_m=gateway_range, device_range_m=device_range
        ),
        path_loss=DiscPathLoss(radius_m=10_000.0, in_range_rssi_dbm=-90.0),
        capacity_model=LinkCapacityModel(
            max_capacity_bps=100.0, rssi_min_dbm=-120.0, rssi_max_dbm=-80.0
        ),
        position_cache_window_s=0.0,
    )


def _cached_topology(devices):
    """A topology whose neighbour queries go through 15 s cached positions."""
    return TimeVaryingTopology(
        devices=devices,
        sinks=[SinkNode("gw", Point(10_000, 10_000))],
        config=TopologyConfig(gateway_range_m=1000.0, device_range_m=500.0),
        path_loss=DiscPathLoss(radius_m=10_000.0, in_range_rssi_dbm=-90.0),
        capacity_model=LinkCapacityModel(
            max_capacity_bps=100.0, rssi_min_dbm=-120.0, rssi_max_dbm=-80.0
        ),
        position_cache_window_s=15.0,
    )


@st.composite
def _passing_trace(draw):
    """A straight pass at up to 40 m/s whose closest approach to the origin,
    at some instant of ``[0, 240]`` s, lies within 400 m."""
    speed = draw(st.floats(0.0, 40.0))
    heading = draw(st.floats(0.0, 2.0 * math.pi))
    closest_time = draw(st.floats(0.0, 240.0))
    x = draw(st.floats(-400.0, 400.0)) - speed * closest_time * math.cos(heading)
    y = draw(st.floats(-400.0, 400.0)) - speed * closest_time * math.sin(heading)
    end_x = x + speed * 240.0 * math.cos(heading)
    end_y = y + speed * 240.0 * math.sin(heading)
    return MobilityTrace.from_samples([0.0, 240.0], [x, end_x], [y, end_y])


class TestConstruction:
    def test_requires_at_least_one_sink(self):
        with pytest.raises(ValueError):
            _topology([_static_device("d1", (0, 0))], [])

    def test_duplicate_device_ids_rejected(self):
        devices = [_static_device("d1", (0, 0)), _static_device("d1", (5, 5))]
        with pytest.raises(ValueError):
            _topology(devices, [SinkNode("gw", Point(0, 0))])

    def test_device_and_sink_id_overlap_rejected(self):
        with pytest.raises(ValueError):
            _topology([_static_device("x", (0, 0))], [SinkNode("x", Point(0, 0))])


class TestLinks:
    def test_device_link_connected_within_range(self):
        topology = _topology(
            [_static_device("a", (0, 0)), _static_device("b", (300, 0))],
            [SinkNode("gw", Point(10_000, 10_000))],
            device_range=500.0,
        )
        state = topology.device_link("a", "b", 10.0)
        assert state.connected
        assert state.distance_m == pytest.approx(300.0)

    def test_device_link_disconnected_beyond_range(self):
        topology = _topology(
            [_static_device("a", (0, 0)), _static_device("b", (600, 0))],
            [SinkNode("gw", Point(10_000, 10_000))],
            device_range=500.0,
        )
        assert not topology.device_link("a", "b", 10.0).connected

    def test_device_link_to_inactive_device_disconnected(self):
        topology = _topology(
            [_static_device("a", (0, 0)), _static_device("b", (100, 0), start=0.0, end=50.0)],
            [SinkNode("gw", Point(10_000, 10_000))],
        )
        assert topology.device_link("a", "b", 60.0).connected is False

    def test_in_contact_symmetry(self):
        topology = _topology(
            [_static_device("a", (0, 0)), _static_device("b", (100, 0))],
            [SinkNode("gw", Point(10_000, 10_000))],
        )
        assert topology.in_contact("a", "b", 1.0) == topology.in_contact("b", "a", 1.0)

    def test_unknown_device_raises(self):
        topology = _topology([_static_device("a", (0, 0))], [SinkNode("gw", Point(0, 0))])
        with pytest.raises(KeyError):
            topology.device_position("nope", 0.0)


class TestGatewayLinks:
    def test_best_gateway_is_the_closest_in_range(self):
        topology = _topology(
            [_static_device("a", (0, 0))],
            [SinkNode("gw-near", Point(200, 0)), SinkNode("gw-far", Point(900, 0))],
        )
        best_id, state = topology.best_gateway("a", 10.0)
        assert best_id == "gw-near"
        assert state.connected

    def test_no_gateway_in_range_returns_none(self):
        topology = _topology(
            [_static_device("a", (0, 0))],
            [SinkNode("gw", Point(5000, 0))],
            gateway_range=1000.0,
        )
        best_id, state = topology.best_gateway("a", 10.0)
        assert best_id is None
        assert not state.connected
        assert topology.sink_capacity("a", 10.0) == 0.0

    def test_gateways_in_range_lists_all_reachable(self):
        topology = _topology(
            [_static_device("a", (0, 0))],
            [SinkNode("gw1", Point(100, 0)), SinkNode("gw2", Point(0, 800)),
             SinkNode("gw3", Point(3000, 0))],
        )
        in_range = {gateway_id for gateway_id, _ in topology.gateways_in_range("a", 0.0)}
        assert in_range == {"gw1", "gw2"}

    def test_device_regains_gateway_contact_as_it_moves(self):
        device = _moving_device("a", (5000, 0), (0, 0), duration=1000.0)
        topology = _topology([device], [SinkNode("gw", Point(0, 0))])
        assert topology.sink_capacity("a", 0.0) == 0.0
        assert topology.sink_capacity("a", 1000.0) > 0.0


class TestNeighbourhoods:
    def test_neighbours_only_within_device_range(self):
        topology = _topology(
            [
                _static_device("a", (0, 0)),
                _static_device("near", (200, 0)),
                _static_device("far", (2000, 0)),
            ],
            [SinkNode("gw", Point(10_000, 10_000))],
            device_range=500.0,
        )
        neighbours = {n for n, _ in topology.neighbours("a", 10.0)}
        assert neighbours == {"near"}

    def test_neighbours_with_cache_match_exact_computation(self):
        devices = [
            _moving_device("a", (0, 0), (50, 0)),
            _moving_device("b", (300, 0), (350, 0)),
            _moving_device("c", (5000, 0), (5050, 0)),
        ]
        sinks = [SinkNode("gw", Point(10_000, 10_000))]
        exact = _topology(devices, sinks)
        cached = TimeVaryingTopology(
            devices=devices,
            sinks=sinks,
            config=TopologyConfig(gateway_range_m=1000.0, device_range_m=500.0),
            path_loss=DiscPathLoss(radius_m=10_000.0, in_range_rssi_dbm=-90.0),
            capacity_model=LinkCapacityModel(
                max_capacity_bps=100.0, rssi_min_dbm=-120.0, rssi_max_dbm=-80.0
            ),
            position_cache_window_s=30.0,
        )
        for time in (0.0, 100.0, 500.0, 999.0):
            assert {n for n, _ in exact.neighbours("a", time)} == {
                n for n, _ in cached.neighbours("a", time)
            }

    def test_cached_neighbours_find_a_mover_faster_than_a_bus(self):
        # "b" closes 560 m in the first 14 s of a 15 s cache window: its
        # cached position is 1000 m away, its position at t = 14 s is 440 m.
        devices = [
            _static_device("a", (0, 0)),
            DeviceNode("b", MobilityTrace.from_samples([0.0, 25.0], [1000.0, 0.0], [0.0, 0.0])),
        ]
        topology = _cached_topology(devices)
        assert [n for n, _ in topology.neighbours("a", 14.0)] == ["b"]

    @settings(max_examples=150, deadline=None)
    @given(movers=st.lists(_passing_trace(), min_size=1, max_size=3))
    def test_cached_neighbours_equal_a_brute_force_scan(self, movers):
        devices = [_static_device("origin", (0, 0), end=240.0)] + [
            DeviceNode(f"m{i}", trace) for i, trace in enumerate(movers)
        ]
        topology = _cached_topology(devices)
        for time in range(241):
            for device_id in topology.devices:
                expected = [
                    other
                    for other in topology.devices
                    if other != device_id
                    and topology.device_link(device_id, other, time).connected
                ]
                assert [n for n, _ in topology.neighbours(device_id, time)] == expected

    def test_active_devices_excludes_finished_trips(self):
        topology = _topology(
            [_static_device("a", (0, 0), end=100.0), _static_device("b", (0, 0), end=1000.0)],
            [SinkNode("gw", Point(0, 0))],
        )
        assert topology.active_devices(500.0) == ["b"]

    def test_connectivity_matrix_symmetric(self):
        topology = _topology(
            [_static_device("a", (0, 0)), _static_device("b", (100, 0)),
             _static_device("c", (5000, 5000))],
            [SinkNode("gw", Point(10_000, 10_000))],
        )
        matrix = topology.connectivity_matrix(10.0)
        assert matrix["a"]["b"] == matrix["b"]["a"]
        assert "c" not in matrix
