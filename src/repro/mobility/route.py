"""Bus routes, trips and timetable-to-trace conversion.

A :class:`BusRoute` is an ordered list of stops (waypoints) on the plane.  A
:class:`Trip` is one vehicle serving that route starting at a given time with
a given cruising speed and per-stop dwell time — the synthetic counterpart of
one row of a TFL timetable.  :func:`build_trip_trace` converts a trip into the
piecewise-linear :class:`~repro.mobility.trace.MobilityTrace` the network
layer consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.mobility.geometry import Point
from repro.mobility.trace import MobilityTrace


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
        single = self.route.waypoints
        waypoints = list(single)
        for _ in range(self.repeats - 1):
            # Skip the duplicated joining waypoint when the route ends where
            # it started (round trips and closed orbitals).
            start_index = 1 if single[-1].distance_to(single[0]) < 1e-9 else 0
            waypoints += single[start_index:]
        return waypoints

    def duration_s(self) -> float:
        """Total service duration: driving time plus dwell at intermediate stops."""
        waypoints = self._waypoints()
        driving = sum(
            a.distance_to(b) for a, b in zip(waypoints, waypoints[1:])
        ) / self.speed_mps
        intermediate_stops = max(len(waypoints) - 2, 0)
        return driving + intermediate_stops * self.dwell_time_s


def build_trip_trace(trip: Trip, node_id: str = "") -> MobilityTrace:
    """Convert a :class:`Trip` into a :class:`MobilityTrace`.

    The bus departs the first stop at ``trip.start_time``, drives each leg at
    constant ``speed_mps`` and dwells ``dwell_time_s`` at every intermediate
    stop.  Dwells are represented by a pair of samples at the same position so
    interpolation keeps the bus stationary during the dwell.  Zero-length legs
    (repeated stops) add no sample.

    The samples are built as arrays, bit-identical to the scalar walk
    ``time += leg; time += dwell``: leg lengths come from ``math.hypot`` as in
    :meth:`Point.distance_to`, and ``np.cumsum`` adds in the same order.
    """
    waypoints = trip._waypoints()
    stop_x = np.array([p.x for p in waypoints], dtype=float)
    stop_y = np.array([p.y for p in waypoints], dtype=float)
    lengths = np.array(list(map(
        math.hypot, (stop_x[:-1] - stop_x[1:]).tolist(), (stop_y[:-1] - stop_y[1:]).tolist()
    )))
    leg_times = lengths / trip.speed_mps
    # Each leg contributes up to two samples, arrival then dwell, in that
    # order; the masks pick which exist.  No dwell follows the last leg.
    arrives = leg_times > 0
    dwells = arrives & (trip.dwell_time_s > 0)
    dwells[-1] = False
    keep = np.column_stack((arrives, dwells)).ravel()
    steps = np.column_stack((leg_times, np.full(leg_times.size, trip.dwell_time_s)))
    times = np.cumsum(np.concatenate(([trip.start_time], steps.ravel()[keep])))
    stops = np.concatenate(([0], np.repeat(np.arange(1, len(waypoints)), 2)[keep]))
    return MobilityTrace.from_samples(
        times, stop_x[stops], stop_y[stops], node_id=node_id or trip.trip_id
    )


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
        return [build_trip_trace(trip) for trip in self.trips]

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
