"""Unit tests for the collision/capture model."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.collision import BUCKET_COMPACT_THRESHOLD, CollisionModel, Transmission
from repro.phy.constants import SpreadingFactor

NEG_INF = float("-inf")


def _tx(sender, start, duration, rssi, channel=0, sf=SpreadingFactor.SF7):
    return Transmission(
        sender=sender,
        start_time=start,
        duration=duration,
        channel=channel,
        spreading_factor=sf,
        rssi_by_receiver=dict(rssi),
    )


class TestTransmission:
    def test_end_time(self):
        assert _tx("a", 10.0, 2.0, {}).end_time == 12.0

    def test_overlap_in_time_same_channel(self):
        a = _tx("a", 0.0, 2.0, {})
        b = _tx("b", 1.0, 2.0, {})
        assert a.overlaps(b) and b.overlaps(a)

    def test_no_overlap_when_disjoint_in_time(self):
        a = _tx("a", 0.0, 1.0, {})
        b = _tx("b", 2.0, 1.0, {})
        assert not a.overlaps(b)

    def test_back_to_back_frames_do_not_overlap(self):
        a = _tx("a", 0.0, 1.0, {})
        b = _tx("b", 1.0, 1.0, {})
        assert not a.overlaps(b)

    def test_different_channels_do_not_overlap(self):
        a = _tx("a", 0.0, 2.0, {}, channel=0)
        b = _tx("b", 0.0, 2.0, {}, channel=1)
        assert not a.overlaps(b)

    def test_different_spreading_factors_are_orthogonal(self):
        a = _tx("a", 0.0, 2.0, {}, sf=SpreadingFactor.SF7)
        b = _tx("b", 0.0, 2.0, {}, sf=SpreadingFactor.SF8)
        assert not a.overlaps(b)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            _tx("a", 0.0, 0.0, {})


class TestCollisionModel:
    def test_lone_transmission_received_when_heard(self):
        model = CollisionModel()
        tx = _tx("a", 0.0, 1.0, {"gw": -100.0})
        model.add(tx)
        assert model.is_received(tx, "gw")

    def test_unheard_receiver_not_received(self):
        model = CollisionModel()
        tx = _tx("a", 0.0, 1.0, {"gw": -100.0})
        model.add(tx)
        assert not model.is_received(tx, "other-gw")

    def test_collision_without_capture_destroys_both(self):
        model = CollisionModel(capture_threshold_db=6.0)
        a = _tx("a", 0.0, 1.0, {"gw": -100.0})
        b = _tx("b", 0.5, 1.0, {"gw": -101.0})
        model.add(a)
        model.add(b)
        assert not model.is_received(a, "gw")
        assert not model.is_received(b, "gw")

    def test_stronger_frame_captures(self):
        model = CollisionModel(capture_threshold_db=6.0)
        strong = _tx("a", 0.0, 1.0, {"gw": -90.0})
        weak = _tx("b", 0.5, 1.0, {"gw": -100.0})
        model.add(strong)
        model.add(weak)
        assert model.is_received(strong, "gw")
        assert not model.is_received(weak, "gw")

    def test_collision_is_resolved_per_receiver(self):
        model = CollisionModel()
        a = _tx("a", 0.0, 1.0, {"gw1": -90.0, "gw2": -100.0})
        b = _tx("b", 0.2, 1.0, {"gw2": -95.0})
        model.add(a)
        model.add(b)
        # gw1 never hears b, so a survives there; at gw2 the margin is < 6 dB.
        assert model.is_received(a, "gw1")
        assert not model.is_received(a, "gw2")

    def test_interferer_that_is_not_heard_does_not_collide(self):
        model = CollisionModel()
        a = _tx("a", 0.0, 1.0, {"gw": -90.0})
        b = _tx("b", 0.2, 1.0, {"other": -95.0})
        model.add(a)
        model.add(b)
        assert model.is_received(a, "gw")

    def test_prune_drops_frames_past_the_bucket_horizon(self):
        model = CollisionModel()
        model.add(_tx("a", 0.0, 1.0, {"gw": -90.0}))
        model.add(_tx("b", 5.0, 1.0, {"gw": -90.0}))
        # The longest frame lasts 1 s: at now=2 a frame still to be resolved
        # starts at or after 1, where ``a`` has ended.
        model.prune(2.0)
        assert len(model) == 1
        model.prune(1.9)
        assert len(model) == 1

    def test_back_to_back_frames_do_not_collide(self):
        model = CollisionModel()
        a = _tx("a", 0.0, 1.0, {"gw": -90.0})
        b = _tx("b", 1.0, 1.0, {"gw": -90.0})
        model.add(a)
        model.add(b)
        assert model.is_received(a, "gw")
        assert model.is_received(b, "gw")

    def test_query_after_an_overlapping_add_rescans(self):
        model = CollisionModel()
        a = _tx("a", 0.0, 2.0, {"gw": -90.0})
        model.add(a)
        assert model.is_received(a, "gw")
        model.add(_tx("b", 1.0, 2.0, {"gw": -91.0}))
        assert not model.is_received(a, "gw")

    def test_buckets_compact_without_losing_live_frames(self):
        model = CollisionModel()
        count = 2 * BUCKET_COMPACT_THRESHOLD
        for i in range(count):
            model.add(_tx(f"d{i}", float(i), 1.0, {"gw": -90.0}))
        last = _tx("last", float(count), 1.0, {"gw": -90.0})
        model.add(last)
        model.prune(last.end_time)
        assert len(model) == 1
        assert model.is_received(last, "gw")

    def test_negative_capture_threshold_rejected(self):
        with pytest.raises(ValueError):
            CollisionModel(capture_threshold_db=-1.0)


def _reference_is_received(registered, transmission, receiver, threshold):
    """Brute-force capture verdict: a linear scan of every frame ever added."""
    rssi = transmission.rssi_by_receiver.get(receiver)
    if rssi is None or rssi == NEG_INF:
        return False
    for other in registered:
        if other is transmission or not other.overlaps(transmission):
            continue
        other_rssi = other.rssi_by_receiver.get(receiver)
        if other_rssi is None or other_rssi == NEG_INF:
            continue
        if rssi - other_rssi < threshold:
            return False
    return True


RECEIVERS = ("r0", "r1", "r2")

_frames = st.lists(
    st.tuples(
        st.integers(0, 40).map(lambda q: q / 2),  # start, on a 0.5 s grid
        st.integers(1, 50).map(lambda q: q / 2),  # duration, up to 25 s
        st.integers(0, 2),  # channel
        st.sampled_from(list(SpreadingFactor)),
        st.dictionaries(
            st.sampled_from(RECEIVERS),
            st.one_of(st.integers(-130, -60).map(float), st.just(NEG_INF)),
        ),
    ),
    max_size=40,
)


class TestRegistryMatchesLinearScan:
    @settings(max_examples=200, deadline=None)
    @given(frames=_frames, threshold=st.sampled_from([0.0, 6.0]))
    def test_every_verdict_matches_the_reference(self, frames, threshold):
        """Replay frames as the engines do and check every verdict.

        Frames are added at their start and resolved at their end (a
        completion sorts before an add at the same time), with a prune after
        each resolution.  At every add, a live frame is queried before it, so
        its scan is shared, and every frame not yet ended before ``now`` is
        queried after it, so the new frame must invalidate that scan.
        """
        transmissions = [
            _tx(f"d{i}", start, duration, rssi, channel=channel, sf=sf)
            for i, (start, duration, channel, sf, rssi) in enumerate(
                sorted(frames, key=lambda frame: frame[0])
            )
        ]
        events = []
        for order, t in enumerate(transmissions):
            events.append((t.start_time, 1, order, t))
            events.append((t.end_time, 0, order, t))
        heapq.heapify(events)
        model = CollisionModel(capture_threshold_db=threshold)
        registered = []
        live = []

        def check(transmission):
            for receiver in RECEIVERS + ("absent",):
                assert model.is_received(transmission, receiver) == (
                    _reference_is_received(registered, transmission, receiver, threshold)
                ), (transmission, receiver)

        while events:
            now, kind, _, transmission = heapq.heappop(events)
            if kind == 0:  # completion
                check(transmission)
                live.remove(transmission)
                model.prune(now)
                continue
            if live:
                check(live[0])
            model.add(transmission)
            registered.append(transmission)
            live.append(transmission)
            for other in registered:
                if other.end_time >= now:
                    check(other)
