"""Idle-energy accounting at the end of the simulated window.

``account_idle_energy`` charges each device for its in-window non-transmit
time as ``active - tx_time``.  When the *last* frame straddles the end of the
window (transmission starts before ``duration_s``, ends after), its full
airtime is recorded as TX time but only the in-window part overlaps the
active interval — so the straddling tail used to be subtracted from idle time
twice.  Only the final frame can straddle: the mandatory duty-cycle off-time
after any frame is ~99 airtimes, far longer than the frame itself, so a
device's own frames never overlap.

The discriminating scenario: one static device, one gateway far out of range
(every uplink fails), default 1 % duty cycle.  Frame 1 occupies ``[0, A]``
(A = airtime of a one-message bundle), the retry fires at the duty-cycle
boundary ``100 A``; a run of ``100.5 A`` cuts that second frame in half.
Idle time must be ``99 A`` (the gap between the frames, ``t2 - A``), not the
``98.5 A`` the double-count produced.
"""

import pytest

from repro.engine import ENGINES
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_engine
from repro.mac.frames import METRIC_FIELD_BYTES, PACKET_OVERHEAD_BYTES
from repro.mobility.geometry import Point
from repro.phy.constants import SpreadingFactor
from repro.phy.energy import RadioState
from repro.radio.medium import RadioMedium

from repro.experiments.runner import account_idle_energy  # noqa: F401  (unit under test)

#: Airtime of a single-message uplink: 13 B overhead + 4 B RCA metric + 20 B.
BUNDLE_BYTES = PACKET_OVERHEAD_BYTES + METRIC_FIELD_BYTES + 20
AIRTIME = RadioMedium().airtime_s(BUNDLE_BYTES, SpreadingFactor.SF7)


def _out_of_range_scenario(manual_scenario, duration_s: float):
    config = ScenarioConfig(
        duration_s=duration_s,
        num_routes=1,
        trips_per_route=1,
        seed=3,
    )
    return manual_scenario(
        config,
        {"bus-000": Point(0.0, 0.0)},
        {"gw-000": Point(100_000.0, 0.0)},  # 100 km: never in range
    )


def _idle_seconds(device) -> float:
    return device.energy.seconds_in(RadioState.RX) + device.energy.seconds_in(
        RadioState.SLEEP
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestFinalPartialFrame:
    def test_straddling_final_frame_counts_once(self, manual_scenario, engine):
        # Frame 1 at [0, A]; retry at the duty-cycle boundary 100 A runs past
        # the end of the window at 100.5 A.
        scenario = _out_of_range_scenario(manual_scenario, 100.5 * AIRTIME)
        run_engine(scenario, engine)
        device = scenario.devices["bus-000"]
        assert device.stats.uplink_transmissions == 2
        assert device.energy.seconds_in(RadioState.TX) == pytest.approx(
            2 * AIRTIME, rel=1e-9
        )
        assert device.last_uplink_end > scenario.config.duration_s
        # The idle time is exactly the silence between the two frames.
        assert _idle_seconds(device) == pytest.approx(99 * AIRTIME, rel=1e-9)

    def test_fully_contained_frames_unchanged(self, manual_scenario, engine):
        # Same scenario but the window closes after frame 2 completes: no
        # overshoot, idle is the plain active - tx_time difference.
        scenario = _out_of_range_scenario(manual_scenario, 101.5 * AIRTIME)
        run_engine(scenario, engine)
        device = scenario.devices["bus-000"]
        assert device.stats.uplink_transmissions == 2
        assert device.last_uplink_end < scenario.config.duration_s
        assert _idle_seconds(device) == pytest.approx(99.5 * AIRTIME, rel=1e-9)
