"""The array engine's static gateway grid, speed margins and tick tables.

``GatewayGrid.candidates`` replaces a dense ``(n_devices, n_gateways)``
squared-distance mask, so it must give exactly that mask's rows, in gateway
insertion order, on any layout.  ``max_segment_speeds`` and
``tick_positions`` replace per-trace loops and must give their values
exactly.  The per-tick overhear candidacy must hold every neighbour the
oracle's range query can report at any instant of the tick.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config_fields import replace_fields
from repro.engine.array_engine import (
    ArrayMLoRaSimulation,
    GatewayGrid,
    tick_positions,
)
from repro.experiments.registry import get_preset
from repro.experiments.scenario import build_scenario
from repro.mobility.geometry import Point
from repro.mobility.trace import MobilityTrace, max_segment_speeds
from repro.network.spatial import RANGE_MASK_SLACK_M


def dense_rows(gx, gy, px, py, reach_sq):
    """Candidate gateways per device from the full device × gateway mask."""
    dx = px[:, None] - gx[None, :]
    dy = py[:, None] - gy[None, :]
    mask = (dx * dx + dy * dy) <= reach_sq[:, None]
    return [np.flatnonzero(row).tolist() for row in mask]


def csr_rows(ptr, gw):
    return [gw[ptr[i] : ptr[i + 1]].tolist() for i in range(ptr.size - 1)]


@st.composite
def grid_cases(draw):
    max_reach = draw(st.floats(1.0, 5_000.0))
    cell = GatewayGrid(np.empty(0), np.empty(0), max_reach).cell_m
    # A 10 m spread with a reach of up to 5 km gives a reach larger than
    # the whole layout.
    spread = draw(st.sampled_from([10.0, 2_000.0, 100_000.0]))
    free = st.floats(-spread, spread)
    on_edge = st.integers(-25, 25).map(lambda k: k * cell)
    coord = free | on_edge
    n_gateways = draw(st.just(0) | st.just(1) | st.integers(2, 60))
    gateways = draw(
        st.lists(st.tuples(coord, coord), min_size=n_gateways, max_size=n_gateways)
    )
    far = st.floats(1e6, 1e7) | st.floats(-1e7, -1e6)
    devices = draw(st.lists(st.tuples(coord | far, coord | far), min_size=1, max_size=40))
    # Devices exactly one reach east of, and one cell north of, a gateway.
    for gx, gy in gateways[:5]:
        devices.append((gx + max_reach, gy))
        devices.append((gx, gy + cell))
    reach = draw(
        st.lists(
            st.just(max_reach) | st.floats(0.0, max_reach),
            min_size=len(devices),
            max_size=len(devices),
        )
    )
    return max_reach, gateways, devices, reach


def _xy(points):
    array = np.asarray(points, dtype=float).reshape(-1, 2)
    return array[:, 0].copy(), array[:, 1].copy()


class TestGatewayGrid:
    @settings(max_examples=300, deadline=None)
    @given(grid_cases())
    def test_candidates_equal_the_dense_mask(self, case):
        max_reach, gateways, devices, reach = case
        gx, gy = _xy(gateways)
        px, py = _xy(devices)
        reach = np.asarray(reach, dtype=float)
        reach_sq = reach * reach
        grid = GatewayGrid(gx, gy, max_reach)
        ptr, gw = grid.candidates(px, py, reach_sq)
        assert ptr.shape == (len(devices) + 1,)
        assert csr_rows(ptr, gw) == dense_rows(gx, gy, px, py, reach_sq)

    @settings(max_examples=300, deadline=None)
    @given(grid_cases())
    def test_block_pairs_hold_every_pair_within_the_grid_reach_once(self, case):
        max_reach, gateways, devices, _ = case
        gx, gy = _xy(gateways)
        px, py = _xy(devices)
        grid = GatewayGrid(gx, gy, max_reach)
        dev, gw = grid.block_pairs(px, py)
        pairs = list(zip(dev.tolist(), gw.tolist()))
        assert len(set(pairs)) == len(pairs)
        in_reach = dense_rows(gx, gy, px, py, np.full(px.size, max_reach * max_reach))
        assert {(i, g) for i, row in enumerate(in_reach) for g in row} <= set(pairs)

    def test_zero_gateways_give_no_candidates(self):
        grid = GatewayGrid(np.empty(0), np.empty(0), 1000.0)
        ptr, gw = grid.candidates(
            np.array([0.0, 5.0]), np.array([0.0, -5.0]), np.full(2, 1e6)
        )
        assert ptr.tolist() == [0, 0, 0]
        assert gw.size == 0

    def test_only_the_three_by_three_block_is_tested(self):
        # Two gateways share a cell far from the third; a device next to the
        # pair never sees the distant one, in reach or not.
        gx = np.array([10.0, 20.0, 50_000.0])
        gy = np.array([0.0, 0.0, 0.0])
        grid = GatewayGrid(gx, gy, 100.0)
        ptr, gw = grid.candidates(np.array([15.0]), np.array([0.0]), np.array([1e4]))
        assert csr_rows(ptr, gw) == [[0, 1]]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_a_non_positive_reach(self, bad):
        with pytest.raises(ValueError, match="max_reach_m"):
            GatewayGrid(np.zeros(1), np.zeros(1), bad)


class TestEngineTickCandidacy:
    def test_every_tick_matches_the_dense_mask(self):
        config = get_preset("urban-smoke").config
        scenario = build_scenario(config)
        sim = ArrayMLoRaSimulation(scenario)
        sinks = [scenario.topology.sinks[g] for g in scenario.gateways]
        gx = np.asarray([s.position.x for s in sinks])
        gy = np.asarray([s.position.y for s in sinks])
        n_ticks = int(config.duration_s // config.engine.tick_s) + 1
        for tick in range(n_ticks):
            sim._refresh_tick(tick)
            expected = dense_rows(
                gx, gy, sim._tick_x[tick], sim._tick_y[tick], sim._reach_sq
            )
            ptr = sim._tick_gw_ptr
            rows = [sim._tick_gw[ptr[i] : ptr[i + 1]] for i in range(len(ptr) - 1)]
            assert rows == expected

    def test_reach_is_range_plus_speed_margin_plus_slack(self):
        config = get_preset("urban-smoke").config
        scenario = build_scenario(config)
        sim = ArrayMLoRaSimulation(scenario)
        speeds = max_segment_speeds(sim._traces)
        reach = config.gateway_range_m + speeds * config.engine.tick_s + RANGE_MASK_SLACK_M
        assert np.array_equal(sim._reach_sq, reach * reach)


def _loop_max_speed(trace: MobilityTrace) -> float:
    """The per-trace loop ``max_segment_speeds`` replaced."""
    times = trace._times_array
    if times.size < 2:
        return 0.0
    steps = np.hypot(np.diff(trace._xs_array), np.diff(trace._ys_array))
    return float(np.max(steps / np.diff(times)))


@st.composite
def traces(draw):
    n = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.floats(0.01, 100.0), min_size=n - 1, max_size=n - 1))
    start = draw(st.floats(0.0, 1000.0))
    times = np.cumsum([start] + gaps)
    coord = st.floats(-1e5, 1e5)
    xs = draw(st.lists(coord, min_size=n, max_size=n))
    ys = draw(st.lists(coord, min_size=n, max_size=n))
    return MobilityTrace.from_samples(times, xs, ys)


class TestMaxSegmentSpeeds:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(traces(), min_size=1, max_size=12), st.integers(1, 40))
    def test_equals_the_per_trace_loop_for_any_block_size(self, fleet, chunk):
        expected = [_loop_max_speed(trace) for trace in fleet]
        assert max_segment_speeds(fleet, chunk).tolist() == expected


def _loop_tick_positions(fleet, tick_times):
    """The per-trace loop ``tick_positions`` replaced."""
    tick_x = np.empty((tick_times.size, len(fleet)))
    tick_y = np.empty((tick_times.size, len(fleet)))
    for i, trace in enumerate(fleet):
        clamped = np.clip(tick_times, trace.start_time, trace.end_time)
        positions = trace.positions_at(clamped)
        tick_x[:, i] = positions[:, 0]
        tick_y[:, i] = positions[:, 1]
    return tick_x, tick_y


@st.composite
def static_traces(draw):
    coord = st.floats(-1e5, 1e5)
    start = draw(st.floats(0.0, 1000.0))
    end = draw(st.just(math.inf) | st.floats(start + 0.01, start + 2000.0))
    return MobilityTrace.static(Point(draw(coord), draw(coord)), start=start, end=end)


class TestTickPositions:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(traces() | static_traces(), min_size=1, max_size=12),
        st.integers(1, 40),
        st.integers(1, 30),
        st.sampled_from([0.5, 7.0, 30.0, 250.0]),
    )
    def test_equals_the_per_trace_loop_bit_for_bit(self, fleet, chunk, n_ticks, tick_s):
        tick_times = np.arange(n_ticks, dtype=float) * tick_s
        tick_x, tick_y = tick_positions(fleet, tick_times, chunk)
        expected_x, expected_y = _loop_tick_positions(fleet, tick_times)
        assert tick_x.tobytes() == expected_x.tobytes()
        assert tick_y.tobytes() == expected_y.tobytes()


class TestOverhearCandidacy:
    @pytest.mark.parametrize(
        "preset, changes",
        [
            ("urban-smoke", {}),
            (
                "urban",
                {"duration_s": 900.0, "radio.num_channels": 2, "radio.sf_policy": "random"},
            ),
        ],
    )
    def test_every_neighbour_at_any_instant_is_a_candidate(self, preset, changes):
        config = replace_fields(get_preset(preset).config, changes)
        scenario = build_scenario(config)
        topology = scenario.topology
        sim = ArrayMLoRaSimulation(scenario)
        devices = sim._devices
        index_of = sim._index_of
        tick_s = config.engine.tick_s
        rng = np.random.default_rng(5)
        n_ticks = int(config.duration_s // tick_s) + 1
        checked = 0
        for tick in range(n_ticks):
            sim._refresh_tick(tick)
            ptr = sim._tick_rx_ptr
            for now in tick * tick_s + rng.uniform(0.0, tick_s, size=3):
                for i, device in enumerate(devices):
                    if not sim._trace_start[i] <= now <= sim._trace_end[i]:
                        continue
                    candidates = set(sim._tick_rx[ptr[i] : ptr[i + 1]])
                    for neighbour_id, _ in topology.neighbours(device.device_id, now):
                        neighbour = scenario.devices[neighbour_id]
                        if not (
                            neighbour.channel == device.channel
                            and neighbour.spreading_factor == device.spreading_factor
                            and neighbour.device_class.overhears_devices
                        ):
                            continue
                        assert index_of[neighbour_id] in candidates
                        checked += 1
        assert checked > 0
