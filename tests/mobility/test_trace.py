"""Unit tests for mobility traces."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.geometry import Point
from repro.mobility.trace import MobilityTrace, TracePoint, active_count_at


class TestMobilityTrace:
    def _trace(self):
        return MobilityTrace(
            [
                TracePoint(0.0, Point(0, 0)),
                TracePoint(100.0, Point(100, 0)),
                TracePoint(200.0, Point(100, 100)),
            ],
            node_id="bus",
        )

    def test_interpolates_between_samples(self):
        trace = self._trace()
        assert trace.position_at(50.0) == Point(50, 0)
        assert trace.position_at(150.0) == Point(100, 50)

    def test_exact_sample_times(self):
        trace = self._trace()
        assert trace.position_at(0.0) == Point(0, 0)
        assert trace.position_at(200.0) == Point(100, 100)

    def test_outside_active_window_returns_none(self):
        trace = self._trace()
        assert trace.position_at(-1.0) is None
        assert trace.position_at(201.0) is None

    def test_is_active(self):
        trace = self._trace()
        assert trace.is_active(100.0)
        assert not trace.is_active(500.0)

    def test_total_distance_and_speed(self):
        trace = self._trace()
        assert trace.total_distance() == pytest.approx(200.0)
        assert trace.average_speed() == pytest.approx(1.0)

    def test_points_sorted_even_if_given_unsorted(self):
        trace = MobilityTrace(
            [TracePoint(100.0, Point(1, 1)), TracePoint(0.0, Point(0, 0))]
        )
        assert trace.start_time == 0.0
        assert trace.end_time == 100.0

    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(ValueError):
            MobilityTrace([TracePoint(1.0, Point(0, 0)), TracePoint(1.0, Point(1, 1))])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            MobilityTrace([])

    def test_static_trace_with_finite_window(self):
        trace = MobilityTrace.static(Point(5, 5), start=10.0, end=20.0)
        assert trace.position_at(15.0) == Point(5, 5)
        assert trace.position_at(25.0) is None

    def test_static_trace_open_ended(self):
        trace = MobilityTrace.static(Point(5, 5))
        assert trace.is_active(1e9)
        assert trace.position_at(1e9) == Point(5, 5)

    def test_static_trace_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            MobilityTrace.static(Point(0, 0), start=10.0, end=5.0)


class TestPositionsAt:
    def _trace(self):
        return MobilityTrace(
            [
                TracePoint(10.0, Point(0, 0)),
                TracePoint(110.0, Point(100, 0)),
                TracePoint(210.0, Point(100, 100)),
            ],
            node_id="bus",
        )

    def test_matches_scalar_queries_including_boundaries(self):
        trace = self._trace()
        times = [9.999, 10.0, 10.001, 60.0, 110.0, 160.0, 209.999, 210.0, 210.001]
        batch = trace.positions_at(times)
        for time, row in zip(times, batch):
            scalar = trace.position_at(time)
            if scalar is None:
                assert np.isnan(row).all()
            else:
                assert (scalar.x, scalar.y) == (row[0], row[1])

    def test_inactive_rows_are_nan(self):
        trace = self._trace()
        batch = trace.positions_at([0.0, 9.0, 211.0, 1e6])
        assert np.isnan(batch).all()
        assert batch.shape == (4, 2)

    def test_single_point_trace(self):
        trace = MobilityTrace([TracePoint(5.0, Point(3, 4))])
        batch = trace.positions_at([4.0, 5.0, 6.0])
        assert np.isnan(batch[0]).all()
        assert tuple(batch[1]) == (3.0, 4.0)
        assert np.isnan(batch[2]).all()

    def test_open_ended_static_trace(self):
        trace = MobilityTrace.static(Point(7, -2), start=10.0)
        batch = trace.positions_at([0.0, 10.0, 1e9])
        assert np.isnan(batch[0]).all()
        assert tuple(batch[1]) == (7.0, -2.0)
        assert tuple(batch[2]) == (7.0, -2.0)

    def test_empty_query_gives_empty_result(self):
        assert self._trace().positions_at([]).shape == (0, 2)

    def test_rejects_multidimensional_queries(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            self._trace().positions_at(np.zeros((2, 2)))

    def test_points_in_span_bisects_inclusive_boundaries(self):
        trace = self._trace()
        assert [p.time for p in trace.points_in_span(10.0, 210.0)] == [10.0, 110.0, 210.0]
        assert [p.time for p in trace.points_in_span(10.001, 110.0)] == [110.0]
        assert trace.points_in_span(111.0, 112.0) == []
        assert trace.points_in_span(300.0, 400.0) == []

    def test_interpolation_holds_position_through_dwell(self):
        # Two samples at the same place (a dwell) keep the node stationary.
        trace = MobilityTrace(
            [
                TracePoint(0.0, Point(0, 0)),
                TracePoint(10.0, Point(10, 0)),
                TracePoint(20.0, Point(10, 0)),
                TracePoint(30.0, Point(20, 0)),
            ]
        )
        batch = trace.positions_at([12.0, 15.0, 20.0])
        assert [tuple(row) for row in batch] == [(10.0, 0.0)] * 3


coordinates = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


@st.composite
def samples(draw):
    """1–12 samples with unique, sorted, non-negative times."""
    times = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=12, unique=True
    )))
    xs = [draw(coordinates) for _ in times]
    ys = [draw(coordinates) for _ in times]
    return times, xs, ys


class TestFromSamples:
    @given(data=samples(), probes=st.lists(st.floats(min_value=-10.0, max_value=1.1e5),
                                           max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_points_constructor(self, data, probes):
        times, xs, ys = data
        from_points = MobilityTrace(
            [TracePoint(t, Point(x, y)) for t, x, y in reversed(list(zip(times, xs, ys)))]
        )
        from_samples = MobilityTrace.from_samples(times, xs, ys)
        probes = probes + times
        for time in probes:
            assert from_samples.position_at(time) == from_points.position_at(time)
        np.testing.assert_array_equal(
            from_samples.positions_at(probes), from_points.positions_at(probes)
        )
        assert from_samples.points == from_points.points
        assert [(p.time, p.position.x, p.position.y) for p in from_samples.points] == list(
            zip(times, xs, ys)
        )
        lo, hi = sorted(probes[:2]) if len(probes) > 1 else (times[0], times[-1])
        assert from_samples.points_in_span(lo, hi) == from_points.points_in_span(lo, hi)
        assert from_samples.total_distance() == from_points.total_distance()
        assert from_samples.average_speed() == from_points.average_speed()

    def test_points_are_plain_floats(self):
        trace = MobilityTrace.from_samples(np.array([0.0, 1.0]), [np.float64(2.0), 3], [0, 0])
        for point in trace.points:
            assert {type(point.time), type(point.position.x), type(point.position.y)} == {float}

    def test_is_independent_of_the_caller_arrays(self):
        times = np.array([0.0, 10.0])
        xs = np.array([0.0, 10.0])
        trace = MobilityTrace.from_samples(times, xs, [0.0, 0.0])
        times[1] = 5.0
        xs[1] = -1.0
        assert trace.end_time == 10.0
        assert trace.position_at(10.0) == Point(10.0, 0.0)

    @pytest.mark.parametrize(
        "times, xs, ys",
        [
            ([], [], []),
            ([-1.0, 2.0], [0.0, 0.0], [0.0, 0.0]),
            ([1.0, 1.0], [0.0, 1.0], [0.0, 0.0]),
            ([2.0, 1.0], [0.0, 1.0], [0.0, 0.0]),
            ([0.0, float("nan")], [0.0, 1.0], [0.0, 0.0]),
            ([0.0, float("inf")], [0.0, 1.0], [0.0, 0.0]),
            ([0.0, 1.0], [0.0, float("nan")], [0.0, 0.0]),
            ([0.0, 1.0], [0.0, 1.0], [float("-inf"), 0.0]),
            ([0.0, 1.0], [0.0], [0.0, 0.0]),
            ([[0.0, 1.0]], [[0.0, 1.0]], [[0.0, 1.0]]),
        ],
        ids=["empty", "negative", "duplicate", "decreasing", "nan-time", "inf-time",
             "nan-x", "inf-y", "ragged", "two-dimensional"],
    )
    def test_rejects_invalid_samples(self, times, xs, ys):
        with pytest.raises(ValueError):
            MobilityTrace.from_samples(times, xs, ys)

    def test_points_constructor_rejects_non_finite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            MobilityTrace([TracePoint(0.0, Point(0, 0)), TracePoint(1.0, Point(float("nan"), 0))])

    def test_pickle_round_trip(self):
        trace = MobilityTrace.static(Point(1.5, -2.0), start=3.0, node_id="gw")
        copy = pickle.loads(pickle.dumps(trace))
        assert copy.node_id == "gw"
        assert copy.end_time == float("inf")
        assert copy.points == trace.points
        assert copy.position_at(1e6) == Point(1.5, -2.0)


class TestActiveCount:
    def test_counts_active_traces_at_time(self):
        a = MobilityTrace.static(Point(0, 0), start=0.0, end=100.0)
        b = MobilityTrace.static(Point(1, 1), start=50.0, end=150.0)
        assert active_count_at([a, b], 25.0) == 1
        assert active_count_at([a, b], 75.0) == 2
        assert active_count_at([a, b], 140.0) == 1
