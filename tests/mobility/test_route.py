"""Unit tests for routes, trips and timetables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.geometry import Point
from repro.mobility.route import BusRoute, Timetable, Trip, build_trip_trace


@pytest.fixture
def straight_route():
    return BusRoute(
        route_id="r1",
        stops=[Point(0, 0), Point(1000, 0), Point(2000, 0)],
    )


class TestBusRoute:
    def test_length(self, straight_route):
        assert straight_route.length_m() == pytest.approx(2000.0)

    def test_round_trip_doubles_length(self):
        route = BusRoute("r2", [Point(0, 0), Point(1000, 0)], round_trip=True)
        assert route.length_m() == pytest.approx(2000.0)

    def test_round_trip_waypoints_return_to_start(self):
        route = BusRoute("r2", [Point(0, 0), Point(1000, 0), Point(2000, 0)], round_trip=True)
        assert route.waypoints[0] == route.waypoints[-1]

    def test_too_few_stops_rejected(self):
        with pytest.raises(ValueError):
            BusRoute("bad", [Point(0, 0)])


class TestTrip:
    def test_duration_includes_driving_and_dwell(self, straight_route):
        trip = Trip("t1", straight_route, start_time=0.0, speed_mps=10.0, dwell_time_s=30.0)
        # 2000 m at 10 m/s plus one intermediate stop dwell.
        assert trip.duration_s() == pytest.approx(230.0)

    def test_repeats_extend_duration(self, straight_route):
        single = Trip("t1", straight_route, 0.0, 10.0, dwell_time_s=0.0, repeats=1)
        triple = Trip("t3", straight_route, 0.0, 10.0, dwell_time_s=0.0, repeats=3)
        assert triple.duration_s() > 2.5 * single.duration_s()

    def test_invalid_parameters_rejected(self, straight_route):
        with pytest.raises(ValueError):
            Trip("t", straight_route, start_time=-1.0, speed_mps=10.0)
        with pytest.raises(ValueError):
            Trip("t", straight_route, start_time=0.0, speed_mps=0.0)
        with pytest.raises(ValueError):
            Trip("t", straight_route, start_time=0.0, speed_mps=1.0, repeats=0)


class TestTripTrace:
    def test_trace_starts_and_ends_at_route_extremes(self, straight_route):
        trip = Trip("t1", straight_route, start_time=50.0, speed_mps=10.0, dwell_time_s=0.0)
        trace = build_trip_trace(trip)
        assert trace.start_time == 50.0
        assert trace.position_at(50.0) == Point(0, 0)
        assert trace.position_at(trace.end_time) == Point(2000, 0)

    def test_trace_duration_matches_trip_duration(self, straight_route):
        trip = Trip("t1", straight_route, start_time=0.0, speed_mps=10.0, dwell_time_s=30.0)
        trace = build_trip_trace(trip)
        assert trace.end_time == pytest.approx(trip.duration_s())

    def test_bus_stationary_during_dwell(self, straight_route):
        trip = Trip("t1", straight_route, start_time=0.0, speed_mps=10.0, dwell_time_s=30.0)
        trace = build_trip_trace(trip)
        # The first leg takes 100 s, then the bus dwells for 30 s at x=1000.
        assert trace.position_at(110.0) == Point(1000, 0)
        assert trace.position_at(125.0) == Point(1000, 0)

    def test_round_trip_with_repeats_returns_to_start_each_cycle(self):
        route = BusRoute("r", [Point(0, 0), Point(1000, 0)], round_trip=True)
        trip = Trip("t", route, start_time=0.0, speed_mps=10.0, dwell_time_s=0.0, repeats=2)
        trace = build_trip_trace(trip)
        assert trace.position_at(200.0) == Point(0, 0)
        assert trace.position_at(300.0) == Point(1000, 0)

    def test_trace_node_id_defaults_to_trip_id(self, straight_route):
        trip = Trip("trip-42", straight_route, 0.0, 10.0)
        assert build_trip_trace(trip).node_id == "trip-42"


def scalar_trip_samples(trip):
    """The per-sample trip walk the array builder replaced: the test oracle."""
    waypoints = trip._waypoints()
    time = trip.start_time
    samples = [(time, waypoints[0].x, waypoints[0].y)]
    for index, (origin, destination) in enumerate(zip(waypoints, waypoints[1:])):
        leg_time = origin.distance_to(destination) / trip.speed_mps
        if leg_time <= 0:
            continue
        time += leg_time
        samples.append((time, destination.x, destination.y))
        is_last_leg = index == len(waypoints) - 2
        if not is_last_leg and trip.dwell_time_s > 0:
            time += trip.dwell_time_s
            samples.append((time, destination.x, destination.y))
    return samples


coordinates = st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False)


@st.composite
def trips(draw):
    """A random trip whose route may repeat a stop back-to-back (zero-length legs)."""
    stops = [Point(draw(coordinates), draw(coordinates))]
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if draw(st.booleans()):
            stops.append(stops[-1])
        else:
            stops.append(Point(draw(coordinates), draw(coordinates)))
    route = BusRoute("r", stops, round_trip=draw(st.booleans()))
    return Trip(
        "t",
        route,
        start_time=draw(st.floats(min_value=0.0, max_value=86400.0)),
        speed_mps=draw(st.floats(min_value=0.5, max_value=30.0)),
        dwell_time_s=draw(st.sampled_from([0.0, 0.5, 20.0, 45.25])),
        repeats=draw(st.integers(min_value=1, max_value=4)),
    )


class TestTripTraceMatchesScalarBuilder:
    @given(trip=trips())
    @settings(max_examples=300, deadline=None)
    def test_samples_are_identical(self, trip):
        expected = scalar_trip_samples(trip)
        times = [sample[0] for sample in expected]
        if any(later <= earlier for earlier, later in zip(times, times[1:])):
            # A leg too short to advance the clock: the scalar builder's trace
            # rejected the duplicate timestamp, and so must this one.
            with pytest.raises(ValueError):
                build_trip_trace(trip)
            return
        trace = build_trip_trace(trip)
        assert [(p.time, p.position.x, p.position.y) for p in trace.points] == expected

    def test_leg_length_rounds_like_math_hypot(self):
        # np.hypot gives 4068.045839201481 for this leg, one ulp below
        # math.hypot (and Point.distance_to).
        route = BusRoute("r", [Point(0.0, 0.0), Point(-2577.288453082914, 3147.472188828674)])
        trip = Trip("t", route, start_time=0.0, speed_mps=7.0, dwell_time_s=0.0)
        assert build_trip_trace(trip).end_time == 4068.0458392014816 / 7.0
        assert scalar_trip_samples(trip)[-1][0] == 4068.0458392014816 / 7.0

    def test_repeated_last_stop_adds_no_sample_or_dwell(self):
        route = BusRoute("r", [Point(0, 0), Point(100, 0), Point(100, 0)])
        trip = Trip("t", route, start_time=5.0, speed_mps=10.0, dwell_time_s=20.0)
        assert scalar_trip_samples(trip) == [(5.0, 0, 0), (15.0, 100, 0), (35.0, 100, 0)]
        trace = build_trip_trace(trip)
        assert [(p.time, p.position.x, p.position.y) for p in trace.points] == [
            (5.0, 0.0, 0.0), (15.0, 100.0, 0.0), (35.0, 100.0, 0.0)
        ]


class TestTimetable:
    def _timetable(self, straight_route):
        timetable = Timetable()
        timetable.add(Trip("a", straight_route, start_time=0.0, speed_mps=10.0, dwell_time_s=0.0))
        timetable.add(Trip("b", straight_route, start_time=300.0, speed_mps=10.0, dwell_time_s=0.0))
        return timetable

    def test_traces_one_per_trip(self, straight_route):
        assert len(self._timetable(straight_route).traces()) == 2

    def test_active_bus_profile_counts_overlapping_trips(self, straight_route):
        profile = self._timetable(straight_route).active_bus_profile(100.0, 600.0)
        assert len(profile) == 6
        assert max(profile) >= 1
        assert profile[4] == 1  # only trip "b" active around t=450

    def test_active_durations(self, straight_route):
        durations = self._timetable(straight_route).active_durations()
        assert len(durations) == 2
        assert all(d == pytest.approx(200.0) for d in durations)

    def test_invalid_profile_parameters_rejected(self, straight_route):
        with pytest.raises(ValueError):
            self._timetable(straight_route).active_bus_profile(0.0, 100.0)
