"""Disconnected retry chains on the array engine against the oracle.

In a run without forwarding, the array engine runs a disconnected device's
retry chain inline: fast completion, retry at the duty-cycle release time,
next slot, until the first event that must go through the heap.  These
cases put that first event exactly on each boundary of the chain: the
device's next generation, the end of the run, the end of its trace, the
retransmission limit and a tick with a gateway candidate.  The times are
computed with the engine's own float arithmetic, so the ties are exact.

Every case must give equal RunMetrics on both engines, and equal per-device
MAC state after the run (the retransmission counter is not in RunMetrics).
"""

import math
from dataclasses import replace

import pytest

from repro.config_fields import replace_fields
from repro.engine.array_engine import ArrayMLoRaSimulation
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import MLoRaSimulation
from repro.mac.device import DeviceConfig
from repro.mac.frames import METRIC_FIELD_BYTES, PACKET_OVERHEAD_BYTES
from repro.mobility.geometry import Point
from repro.mobility.trace import MobilityTrace
from repro.radio.medium import RadioMedium
from repro.routing.no_routing import NoRoutingScheme

#: One static device 100 km from the only gateway: every slot is disconnected.
FAR_DEVICE = {"bus-000": Point(0.0, 0.0)}
FAR_GATEWAY = {"gw-000": Point(100_000.0, 0.0)}


def _config(duration_s=1200.0, **device) -> ScenarioConfig:
    config = ScenarioConfig(
        duration_s=duration_s, num_routes=1, trips_per_route=1, seed=11
    )
    return replace(config, device=DeviceConfig(**device))


def _slots(config: ScenarioConfig, count: int):
    """``(start, end)`` of a lone disconnected device's first ``count`` slots.

    The device generates at 0 and retries at each duty-cycle release with one
    message queued; this is the engines' own arithmetic.
    """
    airtime = RadioMedium(config.radio, reception_rng=None).airtime_s(
        PACKET_OVERHEAD_BYTES + METRIC_FIELD_BYTES + config.device.message_size_bytes
    )
    off_time = airtime * (1.0 / config.device.duty_cycle - 1.0)
    slots = []
    start = 0.0
    for _ in range(count):
        slots.append((start, start + airtime))
        start = start + airtime + off_time
    return slots


def _device_state(sim):
    return [
        (
            device.stats,
            device.retransmission_count,
            device.last_uplink_end,
            device.duty_cycle.next_allowed_time_on(device.channel),
            dict(device.energy._seconds),
            device.rca_etx.sink_metric(),
        )
        for device in sim.scenario.devices.values()
    ]


def _assert_engines_agree(
    manual_scenario,
    config,
    devices=FAR_DEVICE,
    gateways=FAR_GATEWAY,
    chain=True,
    **kwargs,
):
    object_sim = MLoRaSimulation(manual_scenario(config, devices, gateways, **kwargs))
    array_sim = ArrayMLoRaSimulation(
        manual_scenario(config, devices, gateways, **kwargs)
    )
    assert array_sim._chain_ok is chain
    object_metrics = object_sim.run()
    array_metrics = array_sim.run()
    assert array_metrics == object_metrics
    assert _device_state(array_sim) == _device_state(object_sim)
    return array_sim


class TestGenerationBoundary:
    @pytest.mark.parametrize("k", [0, 2])
    def test_completion_exactly_at_next_generation(self, manual_scenario, k):
        # Completions sort before generations: the completion runs first.
        end = _slots(_config(), k + 1)[k][1]
        config = _config(message_interval_s=end, max_retransmissions=k)
        _assert_engines_agree(manual_scenario, config)

    @pytest.mark.parametrize("k", [0, 2])
    def test_completion_just_after_next_generation(self, manual_scenario, k):
        # The generation resets the retransmission counter before the
        # completion counts against it; the run ends before the next
        # generation, so the counter the device ends with shows the order.
        end = _slots(_config(), k + 1)[k][1]
        config = _config(
            duration_s=1.5 * end,
            message_interval_s=math.nextafter(end, 0.0),
            max_retransmissions=k,
        )
        _assert_engines_agree(manual_scenario, config)

    @pytest.mark.parametrize("k", [1, 3])
    def test_retry_exactly_at_next_generation(self, manual_scenario, k):
        # The generation was pushed first, so it wins the tie and the retry
        # finds a two-message bundle.
        start = _slots(_config(), k + 1)[k][0]
        _assert_engines_agree(manual_scenario, _config(message_interval_s=start))

    @pytest.mark.parametrize("k", [1, 3])
    def test_retry_just_before_next_generation(self, manual_scenario, k):
        start = _slots(_config(), k + 1)[k][0]
        config = _config(message_interval_s=math.nextafter(start, math.inf))
        _assert_engines_agree(manual_scenario, config)


class TestRunAndTraceEnd:
    @pytest.mark.parametrize("nudge", [0.0, -math.inf, math.inf])
    def test_retry_at_or_around_duration(self, manual_scenario, nudge):
        start = _slots(_config(), 4)[3][0]
        duration = start if nudge == 0.0 else math.nextafter(start, nudge)
        _assert_engines_agree(manual_scenario, _config(duration_s=duration))

    def test_completion_exactly_at_duration(self, manual_scenario):
        end = _slots(_config(), 4)[3][1]
        _assert_engines_agree(manual_scenario, _config(duration_s=end))

    @pytest.mark.parametrize("nudge", [0.0, -math.inf])
    def test_trace_ends_mid_chain(self, manual_scenario, nudge):
        start = _slots(_config(), 4)[3][0]
        trace_end = start if nudge == 0.0 else math.nextafter(start, nudge)
        sim = _assert_engines_agree(
            manual_scenario, _config(), trace_windows={"bus-000": (0.0, trace_end)}
        )
        expected = 4 if nudge == 0.0 else 3
        assert sim.scenario.devices["bus-000"].stats.uplink_transmissions == expected


class TestRetransmissionLimit:
    @pytest.mark.parametrize("max_retransmissions", [0, 1, 3])
    def test_limit_exhausted_inside_a_chain(self, manual_scenario, max_retransmissions):
        config = _config(max_retransmissions=max_retransmissions)
        sim = _assert_engines_agree(manual_scenario, config)
        device = sim.scenario.devices["bus-000"]
        generated = device.stats.messages_generated
        # Every generation's chain ran to the limit and stopped there.
        limit = max_retransmissions + 1
        assert device.stats.uplink_transmissions >= generated * limit


class TestCandidateTick:
    """A mover that reaches a gateway's tick candidacy mid-chain."""

    def _mover(self, closest_m: float) -> MobilityTrace:
        # 6 km out at t=0, ``closest_m`` from the gateway at t=40 s, then
        # parked: the speed margin puts tick 1 in candidacy with tick_s = 5.
        return MobilityTrace.from_samples(
            [0.0, 40.0, 600.0],
            [6000.0, closest_m, closest_m],
            [0.0, 0.0, 0.0],
            "bus-000",
        )

    @pytest.mark.parametrize("closest_m", [1500.0, 900.0])
    def test_chain_stops_at_candidate_tick(self, manual_scenario, closest_m):
        # 1500 m stays outside the exact 1 km range (a margin false
        # positive); 900 m connects and delivers.
        config = replace_fields(_config(duration_s=600.0), {"engine.tick_s": 5.0})
        sim = _assert_engines_agree(
            manual_scenario,
            config,
            devices={"bus-000": Point(3000.0, 0.0)},
            gateways={"gw-000": Point(0.0, 0.0)},
            moving={"bus-000": self._mover(closest_m)},
        )
        device = sim.scenario.devices["bus-000"]
        assert device.stats.uplink_transmissions > 1
        assert (device.stats.messages_acked > 0) is (closest_m < 1000.0)


class _ObservingScheme(NoRoutingScheme):
    """Plain LoRaWAN that records every transmission slot it observes."""

    def __init__(self) -> None:
        super().__init__()
        self.slots = []

    def observe_transmission_slot(self, device_id, connected, now):
        self.slots.append((device_id, connected, now))


class TestFallbacks:
    def test_ttl_expiry_buffer_takes_the_heap_path(self, manual_scenario):
        config = replace_fields(
            _config(message_interval_s=60.0),
            {"routing.buffer.policy": "ttl-expiry", "routing.buffer.ttl_s": 100.0},
        )
        _assert_engines_agree(manual_scenario, config, chain=False)

    def test_shadowing_takes_the_heap_path(self, manual_scenario):
        config = replace(_config(), shadowing=True)
        _assert_engines_agree(manual_scenario, config, chain=False)

    def test_observe_hook_takes_the_heap_path(self, manual_scenario):
        config = _config()
        scenarios = [
            replace(
                manual_scenario(config, FAR_DEVICE, FAR_GATEWAY),
                scheme=_ObservingScheme(),
            )
            for _ in range(2)
        ]
        object_sim = MLoRaSimulation(scenarios[0])
        array_sim = ArrayMLoRaSimulation(scenarios[1])
        assert array_sim._chain_ok is False
        assert array_sim.run() == object_sim.run()
        assert scenarios[1].scheme.slots == scenarios[0].scheme.slots
        assert len(scenarios[1].scheme.slots) > 1


class TestCrossDeviceTie:
    def test_lockstep_devices_keep_the_oracle_order(self, manual_scenario):
        # Both devices generate at 0 with the same airtime, so every slot,
        # completion and retry of the two ties exactly.  bus-000 sits in
        # range of gw-000 and retries through the heap after a lost frame;
        # bus-001 starts disconnected and reaches gw-001 at its first retry.
        # There both frames are heard, their completions tie, and the order
        # of the two reception draws is the order of the two retries, which
        # the oracle fixes when the first completions pop.  A chain started
        # at t=0 would push bus-001's retry ahead of bus-000's.
        config = replace_fields(_config(duration_s=300.0), {"seed": 26, "engine.tick_s": 5.0})
        mover = MobilityTrace.from_samples(
            [0.0, 4.0, 300.0],
            [55_000.0, 50_950.0, 50_950.0],
            [0.0, 0.0, 0.0],
            "bus-001",
        )
        _assert_engines_agree(
            manual_scenario,
            config,
            devices={"bus-000": Point(950.0, 0.0), "bus-001": Point(52_000.0, 0.0)},
            gateways={"gw-000": Point(0.0, 0.0), "gw-001": Point(50_000.0, 0.0)},
            moving={"bus-001": mover},
        )
