"""RadioMedium: per-SF airtime/sensitivity, orthogonality, capture, pruning."""

import numpy as np
import pytest

from repro.phy.airtime import AirtimeCalculator, LoRaTransmissionParameters
from repro.phy.constants import SENSITIVITY_DBM, SpreadingFactor
from repro.radio.config import RadioConfig
from repro.radio.medium import RadioMedium


def make_medium(**kwargs) -> RadioMedium:
    return RadioMedium(config=RadioConfig(num_channels=3), **kwargs)


class TestPerSfAirtime:
    def test_sf7_matches_the_plain_calculator(self):
        medium = make_medium()
        reference = AirtimeCalculator(LoRaTransmissionParameters())
        for payload in (0, 20, 100, 255):
            assert medium.airtime_s(payload) == reference.time_on_air_s(payload)

    def test_airtime_grows_with_spreading_factor(self):
        medium = make_medium()
        airtimes = [
            medium.airtime_s(51, sf) for sf in SpreadingFactor
        ]
        assert airtimes == sorted(airtimes)
        # SF12 frames are one and a half orders of magnitude longer than SF7.
        assert airtimes[-1] > 20 * airtimes[0]

    def test_payload_clamped_to_lora_maximum(self):
        medium = make_medium()
        assert medium.airtime_s(10_000) == medium.airtime_s(255)

    def test_ldro_engaged_for_sf11_and_sf12(self):
        medium = make_medium()
        for sf in SpreadingFactor:
            parameters = medium.airtime_calculator(sf).parameters
            expected = sf in (SpreadingFactor.SF11, SpreadingFactor.SF12)
            assert parameters.low_data_rate_optimize is expected, sf

    def test_calculators_are_cached(self):
        medium = make_medium()
        assert medium.airtime_calculator(SpreadingFactor.SF9) is (
            medium.airtime_calculator(SpreadingFactor.SF9)
        )


class TestPerSfSensitivity:
    def test_link_quality_uses_each_sfs_sensitivity(self):
        medium = make_medium()
        for sf in SpreadingFactor:
            assert medium.link_quality(sf).sensitivity_dbm == SENSITIVITY_DBM[sf]

    def test_slower_sf_decodes_weaker_frames(self):
        medium = make_medium()
        rssi = -130.0  # below SF7 sensitivity, above SF12's
        sf7 = medium.transmit("a", 0.0, 20, {"gw": rssi}, SpreadingFactor.SF7, 0)
        sf12 = medium.transmit("b", 100.0, 20, {"gw": rssi}, SpreadingFactor.SF12, 0)
        assert medium.resolve_gateway_reception(sf7, {"gw"}) is None
        # Probability 1 region for SF12 (sensitivity -137, margin 10 → sure
        # above -127)?  -130 is inside the ramp, so force the deterministic
        # threshold path (no RNG → p >= 0.5 decides).
        assert medium.resolve_gateway_reception(sf12, {"gw"}) == "gw"


class TestOrthogonality:
    def overlapping_pair(self, medium, channel_a, channel_b, sf_a, sf_b):
        first = medium.transmit("a", 0.0, 100, {"gw": -60.0}, sf_a, channel_a)
        second = medium.transmit("b", 0.0, 100, {"gw": -60.0}, sf_b, channel_b)
        return first, second

    def test_same_channel_same_sf_collides(self):
        medium = make_medium()
        first, second = self.overlapping_pair(
            medium, 0, 0, SpreadingFactor.SF7, SpreadingFactor.SF7
        )
        assert not medium.is_decodable(first, "gw")
        assert not medium.is_decodable(second, "gw")

    def test_cross_channel_frames_do_not_collide(self):
        medium = make_medium()
        first, second = self.overlapping_pair(
            medium, 0, 1, SpreadingFactor.SF7, SpreadingFactor.SF7
        )
        assert medium.is_decodable(first, "gw")
        assert medium.is_decodable(second, "gw")

    def test_cross_sf_frames_do_not_collide(self):
        medium = make_medium()
        first, second = self.overlapping_pair(
            medium, 0, 0, SpreadingFactor.SF7, SpreadingFactor.SF9
        )
        assert medium.is_decodable(first, "gw")
        assert medium.is_decodable(second, "gw")

    def test_capture_still_applies_within_a_channel(self):
        medium = make_medium()
        strong = medium.transmit("a", 0.0, 100, {"gw": -50.0}, SpreadingFactor.SF7, 2)
        weak = medium.transmit("b", 0.0, 100, {"gw": -80.0}, SpreadingFactor.SF7, 2)
        assert medium.is_decodable(strong, "gw")
        assert not medium.is_decodable(weak, "gw")


class TestGatewayResolution:
    def test_best_rssi_gateway_wins(self):
        medium = make_medium()
        transmission = medium.transmit(
            "a", 0.0, 20, {"gw-0": -90.0, "gw-1": -60.0, "not-a-gw": -10.0}
        )
        winner = medium.resolve_gateway_reception(transmission, {"gw-0", "gw-1"})
        assert winner == "gw-1"

    def test_collided_gateway_skipped_for_the_next_best(self):
        medium = make_medium()
        # A same-channel interferer audible only at gw-1 kills the best
        # candidate; resolution falls through to gw-0.
        transmission = medium.transmit("a", 0.0, 20, {"gw-0": -90.0, "gw-1": -60.0})
        medium.transmit("b", 0.0, 20, {"gw-1": -58.0})
        winner = medium.resolve_gateway_reception(transmission, {"gw-0", "gw-1"})
        assert winner == "gw-0"

    def test_no_gateway_decodes_returns_none(self):
        medium = make_medium()
        transmission = medium.transmit("a", 0.0, 20, {"gw-0": -200.0})
        assert medium.resolve_gateway_reception(transmission, {"gw-0"}) is None

    def test_reception_draw_uses_the_given_stream(self):
        rng = np.random.default_rng(3)
        medium = make_medium(reception_rng=rng)
        # RSSI inside the success ramp: outcomes must follow the stream, i.e.
        # be reproducible with an identically seeded medium.
        outcomes = []
        for start in range(0, 40):
            t = medium.transmit("a", float(start * 10), 20, {"gw": -115.0})
            outcomes.append(medium.resolve_gateway_reception(t, {"gw"}))
        rng2 = np.random.default_rng(3)
        medium2 = make_medium(reception_rng=rng2)
        outcomes2 = []
        for start in range(0, 40):
            t = medium2.transmit("a", float(start * 10), 20, {"gw": -115.0})
            outcomes2.append(medium2.resolve_gateway_reception(t, {"gw"}))
        assert outcomes == outcomes2
        assert len(set(outcomes)) == 2  # both success and failure occur


class TestRegistryPruning:
    def test_frame_dropped_only_once_it_can_no_longer_overlap(self):
        medium = make_medium()
        short = medium.transmit("short", 0.0, 20, {"gw": -60.0})
        longest = medium.transmit("long", 0.0, 255, {"gw": -60.0})
        horizon = longest.duration
        # A frame ending at ``now`` may have started ``horizon`` earlier, so
        # ``short`` is kept until its end falls that far behind...
        medium.prune(now=short.end_time + horizon - 1e-6)
        assert len(medium) == 2
        # ...and dropped once it does.
        medium.prune(now=short.end_time + horizon)
        assert len(medium) == 1
        medium.prune(now=longest.end_time + horizon)
        assert len(medium) == 0

    def test_live_transmissions_survive_a_prune(self):
        medium = make_medium()
        for i in range(100):
            medium.transmit(f"old-{i}", 0.0, 20, {"gw": -60.0})
        fresh = medium.transmit("fresh", 1000.0, 20, {"gw": -60.0})
        medium.prune(now=fresh.end_time)
        assert len(medium) == 1
        assert medium.is_decodable(fresh, "gw")

    def test_horizon_is_per_bucket(self):
        medium = make_medium()
        medium.transmit("slow", 0.0, 255, {"gw": -60.0}, SpreadingFactor.SF12)
        fast = medium.transmit("fast", 0.0, 20, {"gw": -60.0}, SpreadingFactor.SF7)
        # An SF12 frame lasts seconds; it holds back only its own bucket.
        medium.prune(now=2 * fast.duration)
        assert len(medium) == 1

    def test_unheard_frames_are_not_registered(self):
        medium = make_medium()
        transmission = medium.transmit("a", 0.0, 20, {})
        assert len(medium) == 0
        assert not medium.is_decodable(transmission, "gw")
        assert medium.resolve_gateway_reception(transmission, {"gw"}) is None

    def test_long_frame_keeps_its_interferers_until_it_ends(self):
        # At 62.5 kHz a full SF12 frame lasts 18.04 s, longer than any fixed
        # retention window sized for 125 kHz frames.
        medium = RadioMedium(
            parameters=LoRaTransmissionParameters(bandwidth_hz=62500.0)
        )
        frame = medium.transmit("long", 0.0, 255, {"gw": -60.0}, SpreadingFactor.SF12)
        assert frame.end_time == pytest.approx(18.04, abs=0.01)
        interferer = medium.transmit(
            "short", 0.5, 10, {"gw": -60.0}, SpreadingFactor.SF12
        )
        assert interferer.end_time == pytest.approx(2.48, abs=0.01)
        for i in range(65):
            medium.transmit(
                f"sf7-{i}", 0.01 * i, 20, {"gw": -60.0}, SpreadingFactor.SF7, 1
            )
        assert not medium.is_decodable(frame, "gw")
        # Still on air ten seconds after the interferer ended: the verdict
        # must not change.
        medium.prune(now=12.98)
        assert not medium.is_decodable(frame, "gw")
