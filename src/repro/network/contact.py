"""Contact extraction: when can two nodes talk, and for how long?

The forwarding protocols never see these intervals directly (they only learn
about contacts through overheard packets), but the analysis layer and several
tests need ground-truth contact structure — e.g. to check that RCA-ETX's
estimated service time tracks the true time-to-next-gateway-contact.

Contacts are defined on a fixed sample grid: ``time_k = start + k * step``
for ``k = 0, 1, …`` up to the last grid point at or before ``end`` (with a
relative tolerance of one part per billion of a step for float drift).  Consecutive in-range samples merge into one
:class:`ContactInterval` spanning the first through the last connected
sample.  Two edge cases of that definition are deliberate and pinned by
``tests/network/test_contact.py``:

* a contact seen in exactly **one** sample yields a zero-duration (point)
  interval — it is still a contact, the grid just cannot resolve its width;
* :func:`inter_contact_times` only reports **non-negative** gaps; overlapping
  intervals (possible when aggregating contacts of different pairs) produce
  no entry rather than a negative one.

There are two implementations of every extractor.  The production path
(:func:`extract_contacts`, :func:`extract_sink_contacts`,
:func:`extract_contact_graph`) samples whole grids at once through
:meth:`~repro.mobility.trace.MobilityTrace.positions_at` and, for the
all-pairs graph, prunes pairs that can never meet with a
:class:`~repro.network.spatial.UniformGridIndex` over coarse time windows.
The scalar scan (:func:`extract_contacts_scalar`,
:func:`extract_sink_contacts_scalar`) is the brute-force reference oracle;
``tests/network/test_contact_pipeline.py`` property-checks that both paths
return *identical* intervals, and
``benchmarks/test_bench_contact_extraction.py`` pins the vectorized path at
≥5× the oracle's speed.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mobility.geometry import Point
from repro.mobility.trace import MobilityTrace
from repro.network.spatial import UniformGridIndex


@dataclass(frozen=True)
class ContactInterval:
    """A maximal interval during which two nodes stay within range.

    ``start == end`` is legal and means a *point contact*: the pair was in
    range at exactly one sample of the extraction grid.
    """

    node_a: str
    node_b: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("contact end must not precede start")

    @property
    def duration(self) -> float:
        """Contact duration in seconds (0 for single-sample point contacts)."""
        return self.end - self.start

    def contains(self, time: float) -> bool:
        """True when ``time`` falls inside the contact."""
        return self.start <= time <= self.end


# --------------------------------------------------------------------- #
# The sample grid
# --------------------------------------------------------------------- #
def _sample_count(start: float, end: float, step: float) -> int:
    """Number of grid samples ``start + k * step`` with ``k*step <= end-start``.

    The ``1e-9`` is *relative* — one part per billion of a step (10 ns at the
    default 10 s step) — and keeps a grid whose last step lands a
    float-rounding hair past ``end`` from losing its final sample.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if end <= start:
        return 0
    if math.isinf(end):
        raise ValueError(
            "cannot grid-sample an open-ended interval; bound the trace "
            "(e.g. MobilityTrace.static(..., end=horizon))"
        )
    return int(math.floor((end - start) / step + 1e-9)) + 1


def sample_times(start: float, end: float, step: float) -> np.ndarray:
    """The extraction grid over ``[start, end]`` as a float array.

    Both the vectorized pipeline and the scalar oracle sample exactly these
    times (computed as ``start + k * step``, never by accumulation, so the
    two paths agree bit-for-bit).
    """
    count = _sample_count(start, end, step)
    return start + step * np.arange(count)


# --------------------------------------------------------------------- #
# Scalar reference scan (the oracle)
# --------------------------------------------------------------------- #
def _scan_contacts(
    node_a: str,
    node_b: str,
    in_range: Callable[[float], Optional[bool]],
    start: float,
    end: float,
    step: float,
) -> List[ContactInterval]:
    """Sample ``in_range`` on the grid and merge consecutive in-range samples.

    A run of connected samples ``i..j`` becomes the interval
    ``[start + i*step, start + j*step]``; a run of length one therefore
    becomes a zero-duration point contact (see the module docstring).  The
    final sample may overshoot ``end`` by the grid tolerance, so a trailing
    contact is clipped back to ``end``.
    """
    contacts: List[ContactInterval] = []
    contact_start: Optional[float] = None
    last_connected = start
    for k in range(_sample_count(start, end, step)):
        time = start + k * step
        connected = in_range(time)
        if connected:
            if contact_start is None:
                contact_start = time
            last_connected = time
        elif contact_start is not None:
            contacts.append(ContactInterval(node_a, node_b, contact_start, last_connected))
            contact_start = None
    if contact_start is not None:
        contacts.append(
            ContactInterval(node_a, node_b, contact_start, min(last_connected, end))
        )
    return contacts


def extract_contacts_scalar(
    trace_a: MobilityTrace,
    trace_b: MobilityTrace,
    range_m: float,
    step_s: float = 10.0,
) -> List[ContactInterval]:
    """Brute-force reference for :func:`extract_contacts` (one
    :meth:`~repro.mobility.trace.MobilityTrace.position_at` call per trace
    per grid sample).  Kept as the oracle the property tests compare the
    vectorized pipeline against."""
    if range_m <= 0:
        raise ValueError("range_m must be positive")
    start = max(trace_a.start_time, trace_b.start_time)
    end = min(trace_a.end_time, trace_b.end_time)

    def in_range(time: float) -> bool:
        pos_a = trace_a.position_at(time)
        pos_b = trace_b.position_at(time)
        if pos_a is None or pos_b is None:
            return False
        return pos_a.distance_to(pos_b) <= range_m

    return _scan_contacts(
        trace_a.node_id or "a", trace_b.node_id or "b", in_range, start, end, step_s
    )


def extract_sink_contacts_scalar(
    trace: MobilityTrace,
    sink_positions: Sequence[Point],
    range_m: float,
    step_s: float = 10.0,
) -> List[ContactInterval]:
    """Brute-force reference for :func:`extract_sink_contacts`."""
    if range_m <= 0:
        raise ValueError("range_m must be positive")
    if not sink_positions:
        return []

    def in_range(time: float) -> bool:
        position = trace.position_at(time)
        if position is None:
            return False
        return any(position.distance_to(sink) <= range_m for sink in sink_positions)

    return _scan_contacts(
        trace.node_id or "device", "sinks", in_range, trace.start_time, trace.end_time, step_s
    )


# --------------------------------------------------------------------- #
# Vectorized pipeline
# --------------------------------------------------------------------- #
def _intervals_from_mask(
    node_a: str,
    node_b: str,
    start: float,
    end: float,
    step: float,
    connected: np.ndarray,
) -> List[ContactInterval]:
    """Merge a boolean per-sample mask into contact intervals.

    Reproduces :func:`_scan_contacts` exactly: run ``i..j`` of ``True``
    samples → interval ``[start + i*step, start + j*step]``, with a trailing
    run clipped to ``end``.
    """
    if connected.size == 0 or not connected.any():
        return []
    edges = np.diff(np.concatenate(([False], connected, [False])).astype(np.int8))
    run_starts = np.flatnonzero(edges == 1)
    run_ends = np.flatnonzero(edges == -1) - 1  # inclusive sample index
    last_index = connected.size - 1
    intervals: List[ContactInterval] = []
    for i, j in zip(run_starts, run_ends):
        interval_start = start + int(i) * step
        interval_end = start + int(j) * step
        if j == last_index:
            interval_end = min(interval_end, end)
        intervals.append(ContactInterval(node_a, node_b, interval_start, interval_end))
    return intervals


def extract_contacts(
    trace_a: MobilityTrace,
    trace_b: MobilityTrace,
    range_m: float,
    step_s: float = 10.0,
) -> List[ContactInterval]:
    """Contact intervals between two mobile traces, sampled every ``step_s``
    seconds.

    Vectorized: both traces are sampled over the whole grid in one
    :meth:`~repro.mobility.trace.MobilityTrace.positions_at` call each, and
    the in-range mask is merged into intervals with array ops.  Returns
    exactly what :func:`extract_contacts_scalar` returns.
    """
    if range_m <= 0:
        raise ValueError("range_m must be positive")
    start = max(trace_a.start_time, trace_b.start_time)
    end = min(trace_a.end_time, trace_b.end_time)
    if end <= start:
        return []
    times = sample_times(start, end, step_s)
    positions_a = trace_a.positions_at(times)
    positions_b = trace_b.positions_at(times)
    distances = np.hypot(
        positions_a[:, 0] - positions_b[:, 0], positions_a[:, 1] - positions_b[:, 1]
    )
    connected = distances <= range_m  # NaN (inactive) compares False
    return _intervals_from_mask(
        trace_a.node_id or "a", trace_b.node_id or "b", start, end, step_s, connected
    )


def extract_sink_contacts(
    trace: MobilityTrace,
    sink_positions: Sequence[Point],
    range_m: float,
    step_s: float = 10.0,
) -> List[ContactInterval]:
    """Contact intervals between a mobile trace and the *set* of sinks.

    A device is "in contact with S" whenever at least one gateway is within
    ``range_m`` — exactly the virtual link (x, S) of the system model; the
    per-sink in-range masks are OR-ed, so overlapping coverage of several
    gateways unions into one interval.  Vectorized like
    :func:`extract_contacts`; bit-identical to
    :func:`extract_sink_contacts_scalar`.
    """
    if range_m <= 0:
        raise ValueError("range_m must be positive")
    if not sink_positions:
        return []
    start, end = trace.start_time, trace.end_time
    if end <= start:
        return []
    times = sample_times(start, end, step_s)
    positions = trace.positions_at(times)
    connected = np.zeros(times.size, dtype=bool)
    for sink in sink_positions:
        distances = np.hypot(positions[:, 0] - sink.x, positions[:, 1] - sink.y)
        connected |= distances <= range_m
    return _intervals_from_mask(
        trace.node_id or "device", "sinks", start, end, step_s, connected
    )


# --------------------------------------------------------------------- #
# All-pairs contact graph with spatial pair pruning
# --------------------------------------------------------------------- #
def _window_boxes(
    traces: Sequence[MobilityTrace], window_start: float, window_end: float
) -> List[Optional[Tuple[float, float, float, float]]]:
    """Per-trace axis-aligned bounding box of the path inside one time window.

    Built from the trace's own waypoints inside the window plus the
    interpolated positions at the window boundaries, so it encloses every
    point of the *continuous* path — and therefore every possible grid
    sample, whatever grid anchor a pair ends up with.  ``None`` marks a trace
    inactive throughout the window.
    """
    boxes: List[Optional[Tuple[float, float, float, float]]] = []
    for trace in traces:
        lo = max(window_start, trace.start_time)
        hi = min(window_end, trace.end_time)
        if hi < lo:
            boxes.append(None)
            continue
        xs: List[float] = []
        ys: List[float] = []
        for boundary in (lo, hi):
            position = trace.position_at(boundary)
            if position is not None:
                xs.append(position.x)
                ys.append(position.y)
        first = bisect_left(trace._times, lo)
        last = bisect_right(trace._times, hi)
        if first < last:
            span_xs = trace._xs_array[first:last]
            span_ys = trace._ys_array[first:last]
            xs += [float(span_xs.min()), float(span_xs.max())]
            ys += [float(span_ys.min()), float(span_ys.max())]
        if not xs:
            boxes.append(None)
            continue
        boxes.append((min(xs), min(ys), max(xs), max(ys)))
    return boxes


def _candidate_pairs(
    traces: Sequence[MobilityTrace], range_m: float, window_s: float
) -> Set[Tuple[int, int]]:
    """Index pairs that *may* share an in-range sample (conservative superset).

    For each coarse time window, every active trace's path bounding box goes
    into a :class:`UniformGridIndex` by its centre; a pair survives when, in
    at least one window, the gap between the two boxes is within ``range_m``.
    A pair connected at some sample time has both positions inside its boxes
    for that window, so the box gap bounds the true distance from below —
    pruned pairs provably have no contact.
    """
    starts = [trace.start_time for trace in traces]
    ends = [trace.end_time for trace in traces]
    global_start, global_end = min(starts), max(ends)
    if math.isinf(global_end):
        raise ValueError(
            "extract_contact_graph needs bounded traces; give static traces "
            "an explicit end time"
        )
    candidates: Set[Tuple[int, int]] = set()
    num_windows = max(1, math.ceil((global_end - global_start) / window_s))
    for window in range(num_windows):
        window_start = global_start + window * window_s
        window_end = min(global_start + (window + 1) * window_s, global_end)
        boxes = _window_boxes(traces, window_start, window_end)
        live = [index for index, box in enumerate(boxes) if box is not None]
        if len(live) < 2:
            continue
        index_grid = UniformGridIndex(cell_size_m=max(range_m, 1e-9))
        half_extents: dict = {}
        max_half_diagonal = 0.0
        for trace_index in live:
            min_x, min_y, max_x, max_y = boxes[trace_index]
            half_w = (max_x - min_x) / 2.0
            half_h = (max_y - min_y) / 2.0
            centre = Point(min_x + half_w, min_y + half_h)
            half_extents[trace_index] = (centre, half_w, half_h)
            max_half_diagonal = max(max_half_diagonal, math.hypot(half_w, half_h))
            index_grid.insert(str(trace_index), centre)
        for trace_index in live:
            centre, half_w, half_h = half_extents[trace_index]
            radius = range_m + math.hypot(half_w, half_h) + max_half_diagonal
            for other_id in index_grid.candidates_in_disc(centre, radius):
                other = int(other_id)
                if other <= trace_index:
                    continue
                pair = (trace_index, other)
                if pair in candidates:
                    continue
                other_centre, other_w, other_h = half_extents[other]
                gap_x = max(0.0, abs(centre.x - other_centre.x) - (half_w + other_w))
                gap_y = max(0.0, abs(centre.y - other_centre.y) - (half_h + other_h))
                if math.hypot(gap_x, gap_y) <= range_m:
                    candidates.add(pair)
    return candidates


def extract_contact_graph(
    traces: Sequence[MobilityTrace],
    range_m: float,
    step_s: float = 10.0,
    window_s: float = 900.0,
) -> List[ContactInterval]:
    """Contact intervals between every pair of ``traces``.

    Equivalent to running :func:`extract_contacts` over all N·(N−1)/2 pairs
    — same intervals, same order (pairs in input order with ``i < j``,
    time-sorted within a pair) — but pairs that provably never meet are
    pruned first with a uniform-grid spatial index over ``window_s``-wide
    time windows (see :func:`_candidate_pairs`), mirroring how the PR-1
    spatial index prunes the topology's neighbour scans.
    """
    if range_m <= 0:
        raise ValueError("range_m must be positive")
    trace_list = list(traces)
    if len(trace_list) < 2:
        return []
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    candidates = _candidate_pairs(trace_list, range_m, window_s)
    contacts: List[ContactInterval] = []
    for first, second in sorted(candidates):
        contacts.extend(
            extract_contacts(trace_list[first], trace_list[second], range_m, step_s)
        )
    return contacts


# --------------------------------------------------------------------- #
# Aggregates
# --------------------------------------------------------------------- #
def total_contact_time(contacts: Sequence[ContactInterval]) -> float:
    """Sum of contact durations in seconds."""
    return sum(contact.duration for contact in contacts)


def inter_contact_times(contacts: Sequence[ContactInterval]) -> List[float]:
    """Gaps between consecutive contacts (the quantity RPST has to estimate).

    Contacts are ordered by start time and each consecutive pair contributes
    ``later.start - earlier.end``.  Touching intervals contribute a gap of
    exactly ``0.0``; an **overlapping** pair (possible when the input mixes
    contacts of different node pairs, whose intervals need not be disjoint)
    would yield a negative gap and is skipped instead — the result only ever
    holds non-negative waiting times.
    """
    ordered = sorted(contacts, key=lambda c: c.start)
    gaps: List[float] = []
    for earlier, later in zip(ordered, ordered[1:]):
        gap = later.start - earlier.end
        if gap >= 0:
            gaps.append(gap)
    return gaps
