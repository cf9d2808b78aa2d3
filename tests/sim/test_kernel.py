"""Unit tests for the simulator kernel."""

import math

import pytest

import repro.sim
from repro.sim.kernel import ATTEMPT_PRIORITY, COMPLETION_PRIORITY, Simulator


def _noop(_payload):
    pass


class TestFiringOrder:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        for time in (5.0, 1.0, 3.0):
            sim.schedule(time, fired.append, payload=time)
        sim.run(until=10.0)
        assert fired == [1.0, 3.0, 5.0]

    def test_equal_times_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, payload="first")
        sim.schedule(2.0, fired.append, payload="second")
        sim.run(until=10.0)
        assert fired == ["first", "second"]

    def test_priority_breaks_ties_before_insertion_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, payload="low", priority=5)
        sim.schedule(2.0, fired.append, payload="high", priority=1)
        sim.run(until=10.0)
        assert fired == ["high", "low"]

    def test_negative_priority_fires_before_the_default(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, payload="default")
        sim.schedule(2.0, fired.append, payload="urgent", priority=-1)
        sim.run(until=10.0)
        assert fired == ["urgent", "default"]

    def test_completion_fires_before_attempt_at_the_same_instant(self):
        sim = Simulator()
        fired = []
        sim.schedule(7.0, fired.append, payload="attempt", priority=ATTEMPT_PRIORITY)
        sim.schedule(7.0, fired.append, payload="completion", priority=COMPLETION_PRIORITY)
        sim.run(until=10.0)
        assert fired == ["completion", "attempt"]

    def test_ties_never_compare_callbacks_or_payloads(self):
        # Neither plain objects nor dicts support `<`; a heap entry that fell
        # through to its callback or payload would raise TypeError.
        class Recorder:
            def __init__(self, fired):
                self.fired = fired

            def __call__(self, payload):
                self.fired.append(payload)

        sim = Simulator()
        fired = []
        payloads = [{"n": 0}, {"n": 1}, {"n": 2}]
        for payload in payloads:
            sim.schedule(1.0, Recorder(fired), payload=payload)
        sim.run(until=1.0)
        assert fired == payloads

    def test_callback_scheduling_at_now_fires_after_queued_ties(self):
        sim = Simulator()
        fired = []

        def first(_payload):
            fired.append("first")
            sim.schedule(sim.now, fired.append, payload="spawned")

        sim.schedule(3.0, first)
        sim.schedule(3.0, fired.append, payload="queued")
        sim.run(until=3.0)
        assert fired == ["first", "queued", "spawned"]

    def test_callback_scheduling_a_lower_priority_at_now_jumps_the_queue(self):
        sim = Simulator()
        fired = []

        def attempt(_payload):
            fired.append("attempt")
            sim.schedule(sim.now, fired.append, payload="completion",
                         priority=COMPLETION_PRIORITY)

        sim.schedule(3.0, attempt, priority=ATTEMPT_PRIORITY)
        sim.schedule(3.0, fired.append, payload="next attempt", priority=ATTEMPT_PRIORITY)
        sim.run(until=3.0)
        assert fired == ["attempt", "completion", "next attempt"]

    def test_same_callback_fires_once_per_schedule(self):
        sim = Simulator()
        fired = []
        for payload in ("a", "b", "a"):
            sim.schedule(1.0, fired.append, payload=payload)
        assert sim.run(until=1.0) == 3
        assert fired == ["a", "b", "a"]


class TestSimulatorScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_reads_event_time_inside_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda _p: seen.append(sim.now))
        sim.run(until=10.0)
        assert seen == [3.5]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, payload="a")
        sim.schedule(10.0, fired.append, payload="b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0

    def test_events_at_exactly_until_still_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, payload="edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule(2.0, _noop)
        sim.run(until=2.0)
        with pytest.raises(ValueError):
            sim.schedule(1.0, _noop)

    def test_scheduling_at_now_is_allowed(self):
        sim = Simulator()
        sim.run(until=4.0)
        fired = []
        sim.schedule(4.0, fired.append, payload="now")
        sim.run(until=4.0)
        assert fired == ["now"]

    def test_payload_defaults_to_none(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append)
        sim.run(until=1.0)
        assert fired == [None]

    def test_refused_event_is_not_queued(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(ValueError, match="past"):
            sim.schedule(1.0, _noop)
        assert sim.run(until=10.0) == 0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, _noop)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(math.nan, _noop)

    def test_run_returns_number_of_fired_events(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, _noop)
        assert sim.run(until=3.0) == 3


class TestRunUntilClock:
    """The clock must land exactly on ``until`` once the run has fired
    everything scheduled up to it — including early queue drains — and must
    never pass it."""

    def test_clock_lands_on_until_when_queue_drains_early(self):
        sim = Simulator()
        sim.schedule(1.0, _noop)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_clock_lands_on_until_with_empty_queue(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_clock_never_passes_until(self):
        sim = Simulator()
        sim.schedule(4.0, _noop)
        sim.schedule(11.0, _noop)
        sim.run(until=5.0)
        assert sim.now == 5.0
        sim.run(until=12.0)
        assert sim.now == 12.0

    def test_empty_run_fires_nothing(self):
        assert Simulator().run(until=10.0) == 0

    def test_each_run_counts_only_its_own_events(self):
        sim = Simulator()
        for t in (1.0, 2.0, 6.0, 7.0, 8.0):
            sim.schedule(t, _noop)
        assert sim.run(until=5.0) == 2
        assert sim.run(until=10.0) == 3

    def test_event_scheduled_beyond_until_waits_for_the_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda _p: sim.schedule(8.0, fired.append, payload="late"))
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run(until=10.0)
        assert fired == ["late"]

    def test_clock_never_moves_backwards(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.run(until=5.0) == 0
        assert sim.now == 10.0

    def test_landed_clock_refuses_times_before_until(self):
        sim = Simulator()
        sim.schedule(1.0, _noop)
        sim.run(until=10.0)
        with pytest.raises(ValueError):
            sim.schedule(5.0, _noop)


class TestPublicSurface:
    def test_package_exports_the_kernel_and_streams_only(self):
        assert sorted(repro.sim.__all__) == [
            "ATTEMPT_PRIORITY", "COMPLETION_PRIORITY", "RandomStreams", "Simulator",
        ]
        assert repro.sim.Simulator is Simulator

    def test_simulator_schedules_and_runs_only(self):
        public = {name for name in vars(Simulator) if not name.startswith("_")}
        assert public == {"schedule", "run"}
        assert Simulator().now == 0.0
