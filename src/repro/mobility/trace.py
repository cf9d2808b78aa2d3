"""Mobility traces: positions over time with piecewise-linear interpolation.

A :class:`MobilityTrace` is the common currency between the mobility layer and
the network layer: every mobile node exposes one, and the time-varying
topology queries it for a position at an arbitrary simulation time.  Nodes are
considered *inactive* (off the road, radio off) outside the trace's time span,
which is how buses entering and leaving service are modelled.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.geometry import Point


@dataclass(frozen=True)
class TracePoint:
    """A time-stamped position sample."""

    time: float
    position: Point

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"trace time must be non-negative, got {self.time}")


class MobilityTrace:
    """A node's position samples: strictly increasing times with x and y.

    The samples are stored as three read-only float arrays, often views of
    one block shared by a whole fleet (:meth:`from_block`);
    :class:`TracePoint` objects are built only when :attr:`points` or
    :meth:`points_in_span` asks for them.  Positions between samples are
    linearly interpolated.  Queries before the first sample or after the
    last return ``None`` — the node is not active.
    """

    def __init__(self, points: Sequence[TracePoint], node_id: str = "") -> None:
        # Sorted here; duplicate timestamps are rejected by _store.
        ordered = sorted(points, key=lambda p: p.time)
        self._store(
            [p.time for p in ordered],
            [p.position.x for p in ordered],
            [p.position.y for p in ordered],
            node_id,
        )

    @classmethod
    def from_block(
        cls,
        times: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
        ends: Sequence[int],
        node_ids: Sequence[str],
    ) -> List["MobilityTrace"]:
        """Many traces from one block of concatenated samples.

        Trace ``i`` holds the samples from ``ends[i - 1]`` (0 for the first)
        up to ``ends[i]``, in time order, and is named ``node_ids[i]``.  The
        block is copied and validated once — every sample finite, each
        trace's first time non-negative and its times strictly increasing —
        and each trace keeps read-only views of it.
        """
        block, ends = _frozen_block(times, xs, ys, ends, node_ids)
        traces = []
        start = 0
        for end, node_id in zip(ends, node_ids):
            trace = cls.__new__(cls)
            trace._adopt(block, start, end, node_id)
            traces.append(trace)
            start = end
        return traces

    @classmethod
    def from_samples(
        cls,
        times: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
        node_id: str = "",
    ) -> "MobilityTrace":
        """A trace straight from its sample arrays, already in time order."""
        trace = cls.__new__(cls)
        trace._store(times, xs, ys, node_id)
        return trace

    def _store(
        self,
        times: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
        node_id: str,
    ) -> None:
        """Validate and keep one trace's samples: a block of one trace."""
        block, ends = _frozen_block(times, xs, ys, None, [node_id])
        self._adopt(block, 0, ends[0], node_id)

    def _adopt(self, block: "_Block", start: int, end: int, node_id: str) -> None:
        """Keep samples ``start:end`` of a block from :func:`_frozen_block`.

        The arrays serve the vectorized paths; the float-sequence views of
        the same memory serve the scalar ones: bisect and indexing yield
        plain Python floats, with no per-sample objects kept alive.
        """
        times, xs, ys, time_view, x_view, y_view = block
        self._times_array, self._xs_array, self._ys_array = (
            times[start:end], xs[start:end], ys[start:end]
        )
        self._times, self._xs, self._ys = (
            time_view[start:end], x_view[start:end], y_view[start:end]
        )
        self._end_time = self._times[-1]
        self.node_id = node_id

    def __getstate__(self):
        return (self._times_array, self._xs_array, self._ys_array,
                self.node_id, self._end_time)

    def __setstate__(self, state) -> None:
        times, xs, ys, node_id, end_time = state
        self._store(times, xs, ys, node_id)
        self._end_time = end_time

    @classmethod
    def static(cls, position: Point, start: float = 0.0, end: float = float("inf"),
               node_id: str = "") -> "MobilityTrace":
        """A trace for a node that never moves and is active on ``[start, end]``."""
        if end <= start:
            raise ValueError("end must be after start")
        times = [start] if end == float("inf") else [start, end]
        trace = cls.from_samples(
            times, [position.x] * len(times), [position.y] * len(times), node_id
        )
        trace._end_time = end
        return trace

    def _sample_points(self, lo: int, hi: int) -> List[TracePoint]:
        return [
            TracePoint(t, Point(x, y))
            for t, x, y in zip(self._times[lo:hi], self._xs[lo:hi], self._ys[lo:hi])
        ]

    @property
    def points(self) -> List[TracePoint]:
        """The samples as :class:`TracePoint` objects (built on each call)."""
        return self._sample_points(0, len(self._times))

    def points_in_span(self, start: float, end: float) -> List[TracePoint]:
        """The samples with ``start <= time <= end``, bisected — no full scan."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        return self._sample_points(lo, hi)

    @property
    def start_time(self) -> float:
        """Time of the first sample."""
        return self._times[0]

    @property
    def end_time(self) -> float:
        """Time of the last sample (or +inf for open-ended static traces)."""
        return self._end_time

    @property
    def duration(self) -> float:
        """Active duration in seconds."""
        return self.end_time - self.start_time

    def is_active(self, time: float) -> bool:
        """True when the node is on the road / powered at ``time``."""
        return self._times[0] <= time <= self._end_time

    def position_at(self, time: float) -> Optional[Point]:
        """Interpolated position at ``time``, or ``None`` when inactive.

        Same arithmetic as :meth:`Point.interpolate` between the two
        enclosing samples, including its ``[0, 1]`` clamp.
        """
        times, xs, ys = self._times, self._xs, self._ys
        if not times[0] <= time <= self._end_time:
            return None
        if time >= times[-1]:
            return Point(xs[-1], ys[-1])
        if time <= times[0]:
            return Point(xs[0], ys[0])
        index = bisect.bisect_right(times, time)
        t0 = times[index - 1]
        f = min(max((time - t0) / (times[index] - t0), 0.0), 1.0)
        x0 = xs[index - 1]
        y0 = ys[index - 1]
        return Point(x0 + (xs[index] - x0) * f, y0 + (ys[index] - y0) * f)

    def positions_at(self, times: Sequence[float]) -> np.ndarray:
        """Interpolated positions for a whole batch of query times at once.

        Returns an ``(len(times), 2)`` float array of ``(x, y)`` rows; rows
        where the node is inactive hold ``NaN``.  Bit-identical to calling
        :meth:`position_at` per time (same interpolation arithmetic, in the
        same operation order), just NumPy-batched — the contact-extraction
        pipeline samples tens of thousands of grid times per trace pair and
        is two orders of magnitude faster on this path.
        """
        query = np.asarray(times, dtype=float)
        if query.ndim != 1:
            raise ValueError(f"times must be one-dimensional, got shape {query.shape}")
        out = np.full((query.size, 2), np.nan)
        active = (query >= self.start_time) & (query <= self.end_time)
        if not active.any():
            return out
        t = query[active]
        ts, xs, ys = self._times_array, self._xs_array, self._ys_array
        x = np.empty(t.size)
        y = np.empty(t.size)
        if ts.size == 1:
            x[:] = xs[-1]
            y[:] = ys[-1]
        else:
            # Mirror position_at exactly: clamp to the end samples, then
            # interpolate with bisect_right semantics between the rest.
            last = t >= ts[-1]
            first = t <= ts[0]
            x[last], y[last] = xs[-1], ys[-1]
            x[first], y[first] = xs[0], ys[0]
            mid = ~(last | first)
            if mid.any():
                index = np.searchsorted(ts, t[mid], side="right")
                before = index - 1
                fraction = (t[mid] - ts[before]) / (ts[index] - ts[before])
                x[mid] = xs[before] + (xs[index] - xs[before]) * fraction
                y[mid] = ys[before] + (ys[index] - ys[before]) * fraction
        out[active, 0] = x
        out[active, 1] = y
        return out

    def total_distance(self) -> float:
        """Path length travelled over the whole trace, in metres."""
        xs, ys = self._xs_array, self._ys_array
        return sum(map(math.hypot, (xs[:-1] - xs[1:]).tolist(), (ys[:-1] - ys[1:]).tolist()))

    def average_speed(self) -> float:
        """Mean speed over the active span in m/s (0 for static/instantaneous traces)."""
        span = self._times[-1] - self._times[0]
        if span <= 0:
            return 0.0
        return self.total_distance() / span


#: A validated block: read-only times, xs and ys, then a memoryview of each.
_Block = Tuple[np.ndarray, np.ndarray, np.ndarray, memoryview, memoryview, memoryview]


def _frozen_block(
    times: Sequence[float],
    xs: Sequence[float],
    ys: Sequence[float],
    ends: Optional[Sequence[int]],
    node_ids: Sequence[str],
) -> Tuple[_Block, List[int]]:
    """Copy, validate and freeze a block of traces' samples.

    ``ends`` splits the samples into traces as in
    :meth:`MobilityTrace.from_block`; ``None`` makes the block one trace.
    The one validation path of every trace: a failing trace is named by its
    node id when it has one.  Returns the block and its end offsets.
    """
    arrays = [np.array(values, dtype=float) for values in (times, xs, ys)]
    t = arrays[0]
    if any(a.ndim != 1 or a.shape != t.shape for a in arrays):
        raise ValueError("times, xs and ys must be one-dimensional and equally long")
    ends = np.array([t.size] if ends is None else ends, dtype=np.int64)
    if ends.ndim != 1 or ends.size != len(node_ids):
        raise ValueError("a block needs one end offset and one node id per trace")
    starts = np.concatenate(([0], ends[:-1]))
    if not ends.size or ends[-1] != t.size or (ends < starts).any():
        raise ValueError("block end offsets must split the samples in order")
    if (ends == starts).any():
        raise ValueError("a mobility trace needs at least one point")
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("trace samples must be finite")

    def named(index: int) -> str:
        node_id = node_ids[index]
        return f"node {node_id!r}: " if node_id else ""

    negative = np.flatnonzero(t[starts] < 0)
    if negative.size:
        i = int(negative[0])
        raise ValueError(f"{named(i)}trace time must be non-negative, got {t[starts[i]]}")
    backwards = t[1:] <= t[:-1]
    backwards[ends[:-1] - 1] = False  # a trace's last sample against the next's first
    backwards = np.flatnonzero(backwards)
    if backwards.size:
        i = int(backwards[0])
        raise ValueError(
            f"{named(int(np.searchsorted(ends, i, side='right')))}trace times must "
            f"be strictly increasing (no duplicate timestamps), got {t[i + 1]} "
            f"after {t[i]}"
        )
    for a in arrays:
        a.flags.writeable = False
    return (*arrays, *map(memoryview, arrays)), ends.tolist()


def active_count_at(traces: Sequence[MobilityTrace], time: float) -> int:
    """Number of traces active at ``time`` (used for the Fig. 7a diurnal profile)."""
    return sum(1 for trace in traces if trace.is_active(time))


#: Samples per block in fleet-wide passes over trace samples
#: (:func:`max_segment_speeds`, the array engine's ``tick_positions``): bounds
#: their transient arrays at a few MB however many samples the traces hold.
TRACE_CHUNK_SAMPLES = 1 << 14


def max_segment_speeds(
    traces: Sequence[MobilityTrace], chunk_samples: int = TRACE_CHUNK_SAMPLES
) -> np.ndarray:
    """Each trace's maximum segment speed ``max(hypot(dx, dy) / dt)``.

    One vectorized pass over the traces' concatenated samples, in blocks of
    whole traces of about ``chunk_samples`` samples.  In a block the
    pseudo-segment from one trace's last sample to the next trace's first is
    zeroed, which also gives single-sample traces a speed of 0; segment
    speeds are non-negative, so ``np.maximum.reduceat`` over each trace's
    slice is exactly its own maximum.
    """
    lengths = np.fromiter(
        (t._times_array.size for t in traces), dtype=np.int64, count=len(traces)
    )
    ends = np.cumsum(lengths)
    speeds_out = np.empty(len(traces), dtype=float)
    start = 0
    while start < len(traces):
        first_sample = ends[start] - lengths[start]
        stop = int(np.searchsorted(ends, first_sample + chunk_samples, side="right"))
        stop = max(stop, start + 1)
        block = traces[start:stop]
        block_ends = ends[start:stop] - first_sample
        times = np.concatenate([t._times_array for t in block])
        dx = np.diff(np.concatenate([t._xs_array for t in block]))
        dy = np.diff(np.concatenate([t._ys_array for t in block]))
        np.hypot(dx, dy, out=dx)
        speeds = np.zeros(times.size, dtype=float)
        # Only the cross-trace pseudo-segments, zeroed below, divide badly.
        with np.errstate(all="ignore"):
            np.divide(dx, np.diff(times), out=speeds[:-1])
        speeds[block_ends - 1] = 0.0
        speeds_out[start:stop] = np.maximum.reduceat(
            speeds, block_ends - lengths[start:stop]
        )
        start = stop
    return speeds_out
