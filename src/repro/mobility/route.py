"""Bus routes, trips and timetable-to-trace conversion.

A :class:`BusRoute` is an ordered list of stops (waypoints) on the plane.  A
:class:`Trip` is one vehicle serving that route starting at a given time with
a given cruising speed and per-stop dwell time — the synthetic counterpart of
one row of a TFL timetable.  :func:`build_trip_traces` converts trips into the
piecewise-linear :class:`~repro.mobility.trace.MobilityTrace` objects the
network layer consumes, a block of trips per array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.geometry import Point
from repro.mobility.trace import MobilityTrace

#: Padded steps per block of trips in :func:`build_trip_traces`, which bounds
#: the block's transients.  Its sample arrays stay alive with its traces
#: until the run ends, so they are kept to small heap allocations (32 KB per
#: array): with 16,384 steps, eight megacity-10k runs at scale 0.25 in one
#: process reached a peak RSS 2.4 MB higher.
TRIP_BLOCK_STEPS = 1 << 12


@dataclass(frozen=True)
class BusRoute:
    """A named, ordered sequence of stops."""

    route_id: str
    stops: Sequence[Point]
    round_trip: bool = False

    def __post_init__(self) -> None:
        if len(self.stops) < 2:
            raise ValueError(f"route {self.route_id!r} needs at least two stops")

    @property
    def waypoints(self) -> List[Point]:
        """Stops in travel order; a round trip appends the reverse leg."""
        points = list(self.stops)
        if self.round_trip:
            points += list(reversed(points[:-1]))
        return points

    @property
    def repeat_start(self) -> int:
        """Index of the first waypoint a repeated service run adds.

        1 when the route ends where it starts (round trips and closed
        orbitals), so the joining waypoint is not duplicated; else 0.
        """
        waypoints = self.waypoints
        return 1 if waypoints[-1].distance_to(waypoints[0]) < 1e-9 else 0

    def length_m(self) -> float:
        """Total path length of one service run in metres."""
        waypoints = self.waypoints
        return sum(a.distance_to(b) for a, b in zip(waypoints, waypoints[1:]))


@dataclass(frozen=True)
class Trip:
    """One vehicle's service block on a route.

    ``repeats`` models a real bus block: the vehicle traverses the route
    ``repeats`` times back-to-back (out-and-back for round-trip routes, loop
    after loop for orbitals), which is what produces the multi-hour active
    durations of Fig. 7b.
    """

    trip_id: str
    route: BusRoute
    start_time: float
    speed_mps: float
    dwell_time_s: float = 20.0
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError("trip start_time must be non-negative")
        if self.speed_mps <= 0:
            raise ValueError(f"speed must be positive, got {self.speed_mps}")
        if self.dwell_time_s < 0:
            raise ValueError("dwell time must be non-negative")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")

    def _waypoints(self) -> List[Point]:
        """Waypoints of the whole service block (route repeated ``repeats`` times)."""
        return _runs(self.route.waypoints, self.route.repeat_start, self.repeats)

    def duration_s(self) -> float:
        """Total service duration: driving time plus dwell at intermediate stops."""
        waypoints = self._waypoints()
        driving = sum(
            a.distance_to(b) for a, b in zip(waypoints, waypoints[1:])
        ) / self.speed_mps
        intermediate_stops = max(len(waypoints) - 2, 0)
        return driving + intermediate_stops * self.dwell_time_s


def _runs(run: List, again: int, repeats: int) -> List:
    """``repeats`` back-to-back service runs of one run's items.

    Every run after the first starts at item ``again``
    (:attr:`BusRoute.repeat_start`).
    """
    return run + run[again:] * (repeats - 1)


def _route_table(routes: Dict[int, Tuple[BusRoute, int]]) -> Tuple[
    Dict[int, Tuple[int, int, int]], np.ndarray, np.ndarray, np.ndarray
]:
    """Every route's waypoints and leg lengths, laid out for its longest block.

    ``routes`` maps a key to a route and its most repeats.  Returns, per
    key, the route's first table row, the legs of one run and the waypoints
    each further run adds; then the table's x, y and leg lengths, where leg
    w leaves waypoint w.
    """
    layout: Dict[int, Tuple[int, int, int]] = {}
    # Each route's single run once, then the table as indices into it.
    xs: List[float] = []
    ys: List[float] = []
    leaving: List[float] = []
    table: List[int] = []
    for key, (route, most) in routes.items():
        waypoints = route.waypoints
        again = route.repeat_start
        layout[key] = (len(table), len(waypoints) - 1, len(waypoints) - again)
        first = len(xs)
        run_x = [float(p.x) for p in waypoints]
        run_y = [float(p.y) for p in waypoints]
        # The leg leaving each waypoint (as Point.distance_to); the last
        # one's joins the next run, so the legs repeat with the waypoints.
        leaving += [
            math.hypot(x - next_x, y - next_y)
            for x, y, next_x, next_y in zip(
                run_x, run_y, run_x[1:] + [run_x[again]], run_y[1:] + [run_y[again]]
            )
        ]
        xs += run_x
        ys += run_y
        table += _runs(list(range(first, len(xs))), again, most)
    rows = np.array(table)
    return layout, np.array(xs)[rows], np.array(ys)[rows], np.array(leaving)[rows]


def build_trip_traces(
    trips: Sequence[Trip],
    node_ids: Optional[Sequence[str]] = None,
) -> List[MobilityTrace]:
    """Convert trips into :class:`MobilityTrace` objects, in trip order.

    Each bus departs its first stop at ``trip.start_time``, drives each leg
    at constant ``speed_mps`` and dwells ``dwell_time_s`` at every
    intermediate stop.  Dwells are represented by a pair of samples at the
    same position so interpolation keeps the bus stationary during the
    dwell.  Zero-length legs (repeated stops) add no sample.  Trace ``i`` is
    named ``node_ids[i]`` (default: the trip id).

    The traces are built in whole-block array passes, bit-identical to the
    scalar walk ``time += leg; time += dwell`` of each trip:

    * each route's waypoints and leg lengths (``math.hypot``, as in
      :meth:`Point.distance_to`) are laid out once, up to its longest block — a shorter block's
      waypoints are a prefix of them;
    * each trip is a row ``[start, leg, dwell, leg, dwell, …, leg]`` of a
      padded step matrix whose absent steps (zero-length legs, no dwell,
      padding) are exact ``0.0`` no-ops, so ``np.cumsum(axis=1)`` adds in
      the scalar order and a mask keeps the samples that exist;
    * rows, sorted by leg count, are grouped into blocks of about
      ``TRIP_BLOCK_STEPS`` padded steps, and each block becomes traces at once
      through :meth:`MobilityTrace.from_block`.
    """
    if node_ids is None:
        node_ids = [trip.trip_id for trip in trips]
    if len(node_ids) != len(trips):
        raise ValueError("build_trip_traces needs one node id per trip")
    if not trips:
        return []
    routes: Dict[int, Tuple[BusRoute, int]] = {}
    for trip in trips:
        route, most = routes.get(id(trip.route), (trip.route, 0))
        routes[id(trip.route)] = (route, max(most, trip.repeats))
    layout, table_x, table_y, leg_lengths = _route_table(routes)
    first = np.empty(len(trips), dtype=np.int64)
    legs = np.empty(len(trips), dtype=np.int64)
    for index, trip in enumerate(trips):
        offset, single_legs, period = layout[id(trip.route)]
        first[index] = offset
        legs[index] = single_legs + (trip.repeats - 1) * period
    starts = np.array([trip.start_time for trip in trips], dtype=float)
    speeds = np.array([trip.speed_mps for trip in trips], dtype=float)
    dwells = np.array([trip.dwell_time_s for trip in trips], dtype=float)

    # Blocks of trips with similar leg counts pad least; the traces go back
    # to trip order at the end.
    order = np.argsort(legs, kind="stable")
    traces: List[MobilityTrace] = [None] * len(trips)  # type: ignore[list-item]
    lo = 0
    while lo < len(trips):
        # legs[order] ascends: the block's width is its last trip's.
        hi = lo + 1
        while hi < len(trips) and (hi + 1 - lo) * 2 * legs[order[hi]] <= TRIP_BLOCK_STEPS:
            hi += 1
        rows = order[lo:hi]
        width = int(legs[rows[-1]])
        column = np.arange(width)
        has_leg = column < legs[rows, None]
        leg_index = np.where(has_leg, first[rows, None] + column, 0)
        leg_times = np.where(has_leg, leg_lengths[leg_index], 0.0) / speeds[rows, None]
        # Row layout: [start, leg 0, dwell 0, leg 1, …, dwell width-2, leg
        # width-1]; no dwell follows a trip's last leg.
        arrives = leg_times > 0
        dwell_after = arrives & (dwells[rows, None] > 0)
        dwell_after[np.arange(rows.size), legs[rows] - 1] = False
        steps = np.empty((rows.size, 2 * width))
        steps[:, 0] = starts[rows]
        steps[:, 1::2] = leg_times
        steps[:, 2::2] = np.where(dwell_after[:, :-1], dwells[rows, None], 0.0)
        keep = np.empty(steps.shape, dtype=bool)
        keep[:, 0] = True
        keep[:, 1::2] = arrives
        keep[:, 2::2] = dwell_after[:, :-1]
        np.cumsum(steps, axis=1, out=steps)
        # Step c of a row sits at waypoint (c + 1) // 2 of its trip.
        waypoint = (first[rows, None] + (np.arange(2 * width) + 1) // 2)[keep]
        block = MobilityTrace.from_block(
            steps[keep], table_x[waypoint], table_y[waypoint],
            np.cumsum(keep.sum(axis=1)), [node_ids[row] for row in rows.tolist()],
        )
        for row, trace in zip(rows.tolist(), block):
            traces[row] = trace
        lo = hi
    return traces


def build_trip_trace(trip: Trip, node_id: str = "") -> MobilityTrace:
    """One trip's trace: :func:`build_trip_traces` of a single trip."""
    return build_trip_traces([trip], [node_id or trip.trip_id])[0]


@dataclass
class Timetable:
    """A collection of trips over one or more routes (one synthetic TFL day)."""

    trips: List[Trip] = field(default_factory=list)

    def add(self, trip: Trip) -> None:
        """Append a trip to the timetable."""
        self.trips.append(trip)

    def __len__(self) -> int:
        return len(self.trips)

    def traces(self) -> List[MobilityTrace]:
        """Build one mobility trace per trip."""
        return build_trip_traces(self.trips)

    def active_bus_profile(self, bin_width_s: float, horizon_s: float) -> List[int]:
        """Number of active buses in each ``bin_width_s`` window (Fig. 7a)."""
        if bin_width_s <= 0 or horizon_s <= 0:
            raise ValueError("bin width and horizon must be positive")
        traces = self.traces()
        profile: List[int] = []
        time = 0.0
        while time < horizon_s:
            mid = time + bin_width_s / 2.0
            profile.append(sum(1 for trace in traces if trace.is_active(mid)))
            time += bin_width_s
        return profile

    def active_durations(self) -> List[float]:
        """Per-trip active durations in seconds (Fig. 7b)."""
        return [trip.duration_s() for trip in self.trips]
