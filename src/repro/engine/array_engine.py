"""The batched array-native simulation engine.

:class:`ArrayMLoRaSimulation` runs the same scenario the event-driven object
engine (:class:`~repro.experiments.runner.MLoRaSimulation`) runs, and is
required to produce **bit-identical** :class:`~repro.analysis.metrics.RunMetrics`.
The object engine stays the oracle; this engine restructures the hot loops
around array-shaped state:

* **Static gateway grid.**  Gateways never move, so they are binned once
  per run into a uniform grid whose cell is at least the largest gateway
  prune radius.  Device positions at every tick of the ``engine.tick_s``
  grid are precomputed for the whole fleet at once (struct-of-arrays:
  ``(n_ticks, n_devices)`` x and y tables plus per-device activity spans
  and speed-derived safety margins).  Each tick, a device's candidate
  gateways come from the 3×3 cell block around its tick position, filtered
  by the squared-distance test against its reach; no ``(n_devices,
  n_gateways)`` array is ever built.  Only devices with at least one
  candidate pay for an exact position interpolation and link computation,
  which repeats the arithmetic of the oracle's
  :meth:`~repro.network.topology.TimeVaryingTopology._link_state` (same
  ``math.hypot`` distance, same mean path loss, same capacity call), so
  connectivity decisions and RSSI values are identical.  The reach adds
  the trace's maximum segment speed times ``tick_s`` and
  :data:`~repro.network.spatial.RANGE_MASK_SLACK_M` to the range, so the
  candidacy is a superset of the oracle's ``math.hypot`` disc query.
* **Cached trace segments.**  Event times only grow, so each device keeps
  the trace segment its last exact position came from; a bisect runs once
  per segment instead of once per position query.
* **Disconnected retry chains.**  In non-forwarding scenarios a slot with no
  connected gateway cannot be observed by anything: the frame reaches no
  receiver, the reception resolution draws no randomness, and the queue
  keeps its messages.  The fast path skips packet construction and medium
  registration entirely and accounts only the device's own effects (duty
  cycle, energy, RCA-ETX observation, retransmission counter).  Without a
  scheme slot hook or queue expiry it then runs the device's whole retry
  chain inline — completion, retry at the duty-cycle release, next slot —
  while each retry lands strictly before the device's next generation, in
  a tick where the device has no gateway candidate (a per-tick look-ahead
  byte row), inside its trace and the run.  Only the first event that
  leaves the chain goes on the heap: one heap round trip per chain instead
  of two per retry.
* **One collision registry.**  Airtime, registration, gateway reception,
  overhearer decodability and eviction go through the scenario's
  :class:`~repro.radio.medium.RadioMedium`, the same medium the oracle
  transmits through (its per-(channel, SF) buckets are described in
  :mod:`repro.phy.collision`).
* **Raw event heap.**  Events are plain tuples on a :mod:`heapq` list,
  ordered by (time, priority, insertion order) like the oracle's
  :class:`~repro.sim.kernel.Simulator`.  Every event that runs on the heap
  pops in the oracle's relative order, so every RNG draw and message id is
  identical.  Pushes mirror the oracle's one-to-one except inside retry
  chains, whose events touch only their own device and are never pushed.
  The one exit event a chain pushes is pushed early, which can move it
  ahead only of another device's event at the same (time, priority); a
  chain therefore starts only at a slot time no other event shares (see
  ``_run_chain``).
* **Vectorized forwarding hot path.**  In forwarding scenarios every
  completed uplink fans out to its overhearers.  Neighbour candidacy is
  one per-tick CSR table: a grid pass over the tick's positions pairs every
  transmitter with the receivers that can be in reach at some instant of
  the tick (device range plus both margins, overhear-capable, same channel
  and SF, active in the tick); survivors are recomputed scalar-exactly
  with the oracle's arithmetic, in the oracle's device order.  Forwarding
  verdicts come from one :meth:`~repro.routing.base.ForwardingScheme.
  on_overhear_batch` call per transmission, and the handovers run
  afterwards in receiver order; the hook's contract (a transmission's
  verdicts do not depend on its own handovers) makes that equal to the
  oracle's one-receiver-at-a-time interleaving.  Batching
  stops at the transmission: batching further across same-time
  transmissions measured no gain worth a second execution order (see
  ``docs/performance.md``).

With shadowing enabled every link computation draws from the shadowing
stream, so spatial shortcuts would change the draw order; the engine then
delegates all spatial queries to the object topology and disables the fast
path, remaining bit-identical at object-engine speed.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import RunMetrics, compute_run_metrics
from repro.experiments.scenario import BuiltScenario
from repro.mac.device import EndDevice
from repro.mac.device_classes import ModifiedClassC
from repro.mac.frames import METRIC_FIELD_BYTES, PACKET_OVERHEAD_BYTES
from repro.mac.network_server import NetworkServer
from repro.mac.queueing import BufferPolicy
from repro.mobility.trace import TRACE_CHUNK_SAMPLES, MobilityTrace, max_segment_speeds
from repro.network.spatial import RANGE_MASK_SLACK_M
from repro.phy.collision import Transmission
from repro.phy.energy import RadioState
from repro.radio.medium import RadioMedium
from repro.routing.base import ForwardingScheme
from repro.sim.kernel import ATTEMPT_PRIORITY, COMPLETION_PRIORITY

# Event kinds (heap entries are (time, priority, seq, kind, payload); the
# sequence number is unique, so comparison never reaches kind/payload).
_GENERATION = 0
_ATTEMPT = 1
_COMPLETION = 2
_FAST_COMPLETION = 3

_TX = RadioState.TX
_NEG_INF = float("-inf")

#: Rounding slack of the overhear pair test, which bounds a distance by the
#: device range plus two margins (one ``RANGE_MASK_SLACK_M`` per margin).
_PAIR_SLACK_M = 2.0 * RANGE_MASK_SLACK_M

#: Transmitters per block of the overhear pair test (bounds its transients).
_PAIR_CHUNK_TRANSMITTERS = 256

#: Relative padding of the gateway grid's cell over the largest reach, so
#: float rounding in the cell arithmetic can never put an in-reach gateway
#: two cells away.
_GRID_CELL_PAD = 1e-9

def tick_positions(
    traces: Sequence[MobilityTrace],
    tick_times: np.ndarray,
    chunk_samples: int = TRACE_CHUNK_SAMPLES,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(len(tick_times), len(traces))`` x and y of each trace at each tick.

    Row ``k``, column ``i`` is ``traces[i].positions_at(clip(tick_times[k],
    start_i, end_i))``, bit for bit, computed for blocks of whole traces of
    about ``chunk_samples`` samples or (trace, tick) pairs at once.
    ``tick_times`` is sorted, so
    ``bisect_right`` of tick ``k`` in a trace counts its samples whose first
    tick at or after them is at most ``k``: one ``searchsorted`` of the
    samples into the ticks and a per-trace cumulative histogram give every
    interpolation index.
    """
    n_ticks = tick_times.size
    tick_x = np.empty((n_ticks, len(traces)), dtype=float)
    tick_y = np.empty((n_ticks, len(traces)), dtype=float)
    lengths = np.fromiter(
        (t._times_array.size for t in traces), dtype=np.int64, count=len(traces)
    )
    ends = np.cumsum(lengths)
    max_block = max(1, chunk_samples // (n_ticks + 1))
    start = 0
    while start < len(traces):
        first_sample = ends[start] - lengths[start]
        stop = int(np.searchsorted(ends, first_sample + chunk_samples, side="right"))
        stop = min(max(stop, start + 1), start + max_block)
        block = traces[start:stop]
        block_lengths = lengths[start:stop]
        times = np.concatenate([t._times_array for t in block])
        xs = np.concatenate([t._xs_array for t in block])
        ys = np.concatenate([t._ys_array for t in block])
        firsts = ends[start:stop] - block_lengths - first_sample
        lasts = firsts + block_lengths - 1
        # counts[i, k]: samples of trace i at or before tick k.
        trace_of = np.repeat(np.arange(stop - start), block_lengths)
        first_tick = np.searchsorted(tick_times, times, side="left")
        counts = np.bincount(
            trace_of * (n_ticks + 1) + first_tick, minlength=(stop - start) * (n_ticks + 1)
        ).reshape(stop - start, n_ticks + 1)
        counts = np.cumsum(counts, axis=1)[:, :n_ticks]
        # Ticks outside a trace clamp to its first or last sample (a one-sample
        # trace is both); the rest interpolate, as in ``positions_at``.
        at_last = tick_times >= times[lasts][:, None]
        at_first = tick_times <= times[firsts][:, None]
        x = np.where(at_last, xs[lasts][:, None], 0.0)
        y = np.where(at_last, ys[lasts][:, None], 0.0)
        x[at_first] = np.broadcast_to(xs[firsts][:, None], x.shape)[at_first]
        y[at_first] = np.broadcast_to(ys[firsts][:, None], y.shape)[at_first]
        mid = ~(at_last | at_first)
        index = (counts + firsts[:, None])[mid]
        before = index - 1
        t = np.broadcast_to(tick_times, mid.shape)[mid]
        fraction = (t - times[before]) / (times[index] - times[before])
        x[mid] = xs[before] + (xs[index] - xs[before]) * fraction
        y[mid] = ys[before] + (ys[index] - ys[before]) * fraction
        tick_x[:, start:stop] = x.T
        tick_y[:, start:stop] = y.T
        start = stop
    return tick_x, tick_y


class GatewayGrid:
    """Static gateways binned once into square cells no smaller than a reach.

    :meth:`candidates` answers, for a whole batch of device positions with
    per-device reach ``r_i <= max_reach_m``, which gateways pass the
    squared-distance test ``dx*dx + dy*dy <= r_i*r_i``.  A gateway within
    ``r_i`` of a device lies in the 3×3 cell block around the device's cell,
    so only that block is tested.  The result is exactly the dense
    device × gateway mask, in gateway insertion order, without building it.
    :meth:`block_pairs` gives the untested block pairs; the overhear
    candidacy bins a tick's receiver positions the same way.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, max_reach_m: float) -> None:
        if not max_reach_m > 0:
            raise ValueError(f"max_reach_m must be positive, got {max_reach_m}")
        self.cell_m = float(max_reach_m) * (1.0 + _GRID_CELL_PAD)
        self._xs = np.asarray(xs, dtype=float)
        self._ys = np.asarray(ys, dtype=float)
        if not self._xs.size:
            self._keys = np.empty(0, dtype=np.int64)
            return
        cx = np.floor(self._xs / self.cell_m)
        cy = np.floor(self._ys / self.cell_m)
        self._lo = (cx.min(), cy.min())
        self._hi = (cx.max(), cy.max())
        self._height = int(self._hi[1] - self._lo[1]) + 1
        self._width = int(self._hi[0] - self._lo[0]) + 1
        keys = self._cell_keys(cx - self._lo[0], cy - self._lo[1])
        # Stable: gateways sharing a cell stay in insertion order.
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]

    def _cell_keys(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        return cx.astype(np.int64) * self._height + cy.astype(np.int64)

    def block_pairs(
        self, px: np.ndarray, py: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every (device, gateway) pair with the gateway in the device's 3×3 block.

        Returns the pairs' device and gateway indices, unordered.  A gateway
        within the grid's ``max_reach_m`` of a device is among them.
        """
        empty = np.empty(0, dtype=np.int64)
        if not self._keys.size:
            return empty, empty
        n = px.size
        # Devices more than one cell outside the gateway extent have no
        # candidates; clipping their cell keeps the key arithmetic bounded.
        dcx = np.clip(np.floor(px / self.cell_m), self._lo[0] - 2, self._hi[0] + 2)
        dcy = np.clip(np.floor(py / self.cell_m), self._lo[1] - 2, self._hi[1] + 2)
        dcx -= self._lo[0]
        dcy -= self._lo[1]
        # Keys run along y within an x column, so each column of the 3×3
        # block is one contiguous key range: one query row per (device,
        # column), all three columns at once.
        lo_y = np.tile(np.maximum(dcy - 1, 0), 3)
        hi_y = np.tile(np.minimum(dcy + 1, self._height - 1), 3)
        tx = np.concatenate((dcx - 1.0, dcx, dcx + 1.0))
        rows = np.flatnonzero((lo_y <= hi_y) & (tx >= 0) & (tx < self._width))
        tx = tx[rows]
        start = np.searchsorted(
            self._keys, self._cell_keys(tx, lo_y[rows]), side="left"
        )
        counts = (
            np.searchsorted(self._keys, self._cell_keys(tx, hi_y[rows]), side="right")
            - start
        )
        total = int(counts.sum())
        if not total:
            return empty, empty
        # Flat slot of each (device, gateway) pair in the sorted gateway
        # order: the range's start plus the pair's rank in it.
        ends = np.cumsum(counts)
        slot = np.repeat(start - ends + counts, counts) + np.arange(total)
        return np.repeat(rows % n, counts), self._order[slot]

    def candidates(
        self, px: np.ndarray, py: np.ndarray, reach_sq: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """CSR candidacy: device ``i``'s gateways are ``gw[ptr[i]:ptr[i + 1]]``.

        ``reach_sq`` holds each device's squared reach; every reach must be
        at most the grid's ``max_reach_m``.  Gateway indices are ascending
        within a device.
        """
        n = px.size
        ptr = np.zeros(n + 1, dtype=np.int64)
        dev, gw = self.block_pairs(px, py)
        dx = px[dev] - self._xs[gw]
        dy = py[dev] - self._ys[gw]
        keep = (dx * dx + dy * dy) <= reach_sq[dev]
        dev = dev[keep]
        gw = gw[keep]
        order = np.lexsort((gw, dev))
        np.cumsum(np.bincount(dev, minlength=n), out=ptr[1:])
        return ptr, gw[order]


class ArrayMLoRaSimulation:
    """One complete simulation run of a built scenario, batched."""

    def __init__(
        self, scenario: BuiltScenario, medium: Optional[RadioMedium] = None
    ) -> None:
        self.scenario = scenario
        self.config = scenario.config
        self.server = NetworkServer()
        self.medium = medium or RadioMedium(
            config=self.config.radio,
            reception_rng=scenario.streams.stream("reception"),
        )
        self.now = 0.0
        # Time of the event popped before the current one.
        self._prev_now = _NEG_INF
        self._duration = self.config.duration_s
        self._heap: List[tuple] = []
        self._seq = 0

        self._scheme = scenario.scheme
        self._uses_forwarding = self._scheme.uses_forwarding
        self._handover_count = 0
        self._handed_over_messages = 0

        # Struct-of-arrays device table, in scenario insertion order (the
        # oracle iterates the same dicts in the same order).
        self._device_ids: List[str] = list(scenario.devices)
        self._devices: List[EndDevice] = [
            scenario.devices[d] for d in self._device_ids
        ]
        self._index_of: Dict[str, int] = {
            device_id: i for i, device_id in enumerate(self._device_ids)
        }
        self._traces = [scenario.traces[d] for d in self._device_ids]
        self._trace_start = [t.start_time for t in self._traces]
        self._trace_end = [t.end_time for t in self._traces]
        # Each device's transmitter-side capacity model.
        self._cap_models = [
            scenario.topology.capacity_model_for(device_id)
            for device_id in self._device_ids
        ]
        self._attempt_pending = [False] * len(self._devices)

        # Hoisted per-device state for the inlined fast path.  The inlined
        # updates perform the *same arithmetic in the same order* as the
        # EndDevice/DutyCycleRegulator/EnergyModel methods they replace —
        # only the attribute/method dispatch is removed.
        devices = self._devices
        self._queue_msgs = [d.queue._messages for d in devices]
        self._queue_needs_expiry = [
            type(d.queue.policy).expire is not BufferPolicy.expire for d in devices
        ]
        self._stats = [d.stats for d in devices]
        self._energy_sec = [d.energy._seconds for d in devices]
        self._channels = [d.channel for d in devices]
        self._sf = [d.spreading_factor for d in devices]
        self._na_dicts = [d.duty_cycle._next_allowed_by_channel for d in devices]
        self._duty = [d.duty_cycle for d in devices]
        self._off_mult = [1.0 / d.duty_cycle.duty_cycle - 1.0 for d in devices]
        self._max_retrans = [d.config.max_retransmissions for d in devices]
        self._max_bundle = [d.config.max_messages_per_packet for d in devices]
        self._msg_size = [d.config.message_size_bytes for d in devices]
        # Lazily-filled per-device airtime by bundled-message count.
        self._fast_airtime: List[List[Optional[float]]] = [
            [None] * (d.config.max_messages_per_packet + 1) for d in devices
        ]
        # RCA-ETX estimator internals for the inlined zero-capacity
        # observation.  ``tracker`` and ``_ewma`` are only ever reassigned by
        # ``reset()``, which no engine calls mid-run, so the hoisted
        # references stay live for the whole run.
        self._rca_trackers = [d.rca_etx.estimator.tracker for d in devices]
        self._rca_ewma = [d.rca_etx.estimator._ewma for d in devices]
        self._rca_bits = [d.rca_etx.estimator.packet_bits for d in devices]
        self._rca_max = [d.rca_etx.estimator.max_service_time_s for d in devices]

        # Uplink overhead in bytes: header + the always-present RCA-ETX metric
        # (+ the ROBC queue-length field when the scheme piggybacks it).
        self._uplink_overhead = PACKET_OVERHEAD_BYTES + METRIC_FIELD_BYTES + (
            METRIC_FIELD_BYTES if self._scheme.requires_queue_length else 0
        )

        # A base-class observe hook is a literal no-op, so the call is skipped.
        self._scheme_observe = (
            None
            if type(self._scheme).observe_transmission_slot
            is ForwardingScheme.observe_transmission_slot
            else self._scheme.observe_transmission_slot
        )

        # Spatial prefilter (disabled under shadowing: every link computation
        # draws from the shadowing stream, so the draw order must follow the
        # oracle's exact query sequence).
        self._exact_topology = bool(self.config.shadowing)
        self._gateway_ids: List[str] = list(scenario.gateways)
        self._sinks = [scenario.topology.sinks[g] for g in self._gateway_ids]
        self._tick_s = self.config.engine.tick_s
        self._current_tick = -1
        # This tick's gateway candidacy in CSR form: device ``i``'s candidate
        # gateway indices are ``_tick_gw[_tick_gw_ptr[i]:_tick_gw_ptr[i + 1]]``.
        self._tick_gw_ptr: List[int] = []
        self._tick_gw: List[int] = []
        if not self._exact_topology and self._devices:
            self._build_prefilter()
        self._fast_path_ok = not self._uses_forwarding and not self._exact_topology
        # Disconnected retry chains run inline wherever nothing but the device
        # itself can observe them: no scheme slot hook and no queue expiry.
        self._chain_ok = (
            self._fast_path_ok
            and self._scheme_observe is None
            and not any(self._queue_needs_expiry)
        )
        # Each device's next generation time (inf once none is left), kept
        # current as generations pop.
        self._next_gen = [math.inf] * len(self._devices)
        self._gen_end = [min(end, self._duration) for end in self._trace_end]
        # Look-ahead candidacy: byte ``tick * n_devices + i`` is 1 when device
        # ``i`` has a gateway candidate in ``tick``.
        self._tick_has_gw = b""
        # The per-tick gateway candidacy ``_build_tick_has_gw`` computed, in
        # 32-bit form, held until ``_refresh_tick`` takes or passes its tick.
        self._tick_candidacy: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        if self._chain_ok and self._devices:
            self._build_tick_has_gw()

    # ------------------------------------------------------------------ #
    # Prefilter construction
    # ------------------------------------------------------------------ #
    def _build_prefilter(self) -> None:
        """Precompute per-tick device positions, reach margins and the grid.

        For a query at time ``t`` inside tick ``k`` the device has moved at
        most ``max_segment_speed * tick_s`` metres from its (activity-clamped)
        position at the tick start, so a disc of radius ``gateway_range_m +
        margin + RANGE_MASK_SLACK_M`` around that position is a superset of
        the oracle's range query at ``t``; the slack covers the rounding of
        the squared-distance test against the oracle's ``math.hypot``.  The
        gateways are binned once into a :class:`GatewayGrid` whose cell is
        the largest such radius.
        """
        traces = self._traces
        n_devices = len(traces)
        n_ticks = int(math.floor(self._duration / self._tick_s)) + 1
        tick_times = np.arange(n_ticks, dtype=float) * self._tick_s
        # (n_ticks, n_devices): one tick's coordinates are a contiguous row.
        self._tick_x, self._tick_y = tick_positions(traces, tick_times)
        margins = max_segment_speeds(traces) * self._tick_s
        gateway_reach = (
            self.scenario.topology.config.gateway_range_m + margins + RANGE_MASK_SLACK_M
        )
        self._reach_sq = gateway_reach * gateway_reach
        self._gateway_grid = GatewayGrid(
            np.asarray([s.position.x for s in self._sinks], dtype=float),
            np.asarray([s.position.y for s in self._sinks], dtype=float),
            float(gateway_reach.max()),
        )
        # Exact link arithmetic (no shadowing here): gateway positions and
        # range, TX power and the mean path loss.
        topology = self.scenario.topology
        self._sink_xy = [(s.position.x, s.position.y) for s in self._sinks]
        self._gateway_range = topology.config.gateway_range_m
        self._tx_power = topology.config.tx_power_dbm
        self._received_power = topology.path_loss.received_power_dbm
        # Exact positions between ticks: the traces' float-sequence sample
        # views and each device's cached trace segment, the sample interval
        # ``[t0, t1)`` that held its last queried time, as its start point
        # and the ``t1 - t0``, ``x1 - x0``, ``y1 - y0`` differences.  Query
        # times only grow, so a bisect runs once per segment, not per query.
        # The empty interval ``[inf, -inf)`` forces the first load.
        self._trace_times = [t._times for t in traces]
        self._trace_xs = [t._xs for t in traces]
        self._trace_ys = [t._ys for t in traces]
        self._seg_t0 = [math.inf] * n_devices
        self._seg_t1 = [_NEG_INF] * n_devices
        self._seg_dt = [1.0] * n_devices
        self._seg_x0 = [0.0] * n_devices
        self._seg_dx = [0.0] * n_devices
        self._seg_y0 = [0.0] * n_devices
        self._seg_dy = [0.0] * n_devices
        if self._uses_forwarding:
            self._build_overhear_tables(margins)

    def _build_overhear_tables(self, margins: np.ndarray) -> None:
        """Precompute the arrays behind the per-tick overhear candidacy.

        Within a tick every device stays within its margin of its tick
        position, so a receiver ``j`` that hears transmitter ``i`` (exact
        distance at most ``device_range_m``) has its tick position within
        ``device_range_m + margin_i + margin_j`` of ``i``'s.  Each tick's
        candidacy is that pair test over the devices active in the tick,
        restricted to overhear-capable receivers on the transmitter's
        channel and SF (see :meth:`_refresh_overhear_candidacy`); survivors
        then run the exact scalar position/link arithmetic.
        """
        topology = self.scenario.topology
        devices = self._devices
        n = len(devices)
        device_range = topology.config.device_range_m
        self._margins = margins
        # Pairs within reach of each other lie in the 3×3 cell block of a
        # grid this coarse.
        self._pair_cell_m = device_range + 2.0 * float(margins.max()) + _PAIR_SLACK_M
        # Static listening categories.  ModifiedClassC always listens
        # (fraction 1.0 regardless of state), ClassA/ClassC never overhear
        # devices; anything else (QueueBasedClassA, custom classes) keeps the
        # exact per-call ``is_listening`` check on the scalar survivor stage.
        capable = np.zeros(n, dtype=bool)
        always = [False] * n
        for j, device in enumerate(devices):
            cls = device.device_class
            if not getattr(cls, "overhears_devices", False):
                continue
            capable[j] = True
            if type(cls) is ModifiedClassC:
                always[j] = True
        self._overhear_capable = capable
        self._always_listening = always
        self._channels_arr = np.asarray(self._channels, dtype=np.int64)
        self._sf_arr = np.asarray([int(sf) for sf in self._sf], dtype=np.int64)
        self._active_start_arr = np.asarray(self._trace_start, dtype=float)
        self._active_end_arr = np.asarray(self._trace_end, dtype=float)
        # This tick's overhear candidacy in CSR form: transmitter ``i``'s
        # candidate receivers, ascending, are
        # ``_tick_rx[_tick_rx_ptr[i]:_tick_rx_ptr[i + 1]]``.
        self._tick_rx_ptr: List[int] = []
        self._tick_rx: List[int] = []
        # Exact survivor-stage state: the segment cache (see
        # ``_build_prefilter``) and the transmitter-side link model.
        self._device_range = device_range

    def _build_tick_has_gw(self) -> None:
        """One byte per (tick, device): does the tick's candidacy hold a gateway?

        Each row comes from the :meth:`GatewayGrid.candidates` result
        :meth:`_refresh_tick` then uses for that tick, so a chain's
        look-ahead agrees with the candidacy the heap path sees.
        """
        grid = self._gateway_grid
        rows = []
        for tick in range(self._tick_x.shape[0]):
            ptr, gw = grid.candidates(
                self._tick_x[tick], self._tick_y[tick], self._reach_sq
            )
            rows.append((ptr[1:] != ptr[:-1]).astype(np.uint8).tobytes())
            self._tick_candidacy[tick] = (ptr.astype(np.int32), gw.astype(np.int32))
        self._tick_has_gw = b"".join(rows)

    def _refresh_tick(self, tick: int) -> None:
        """Recompute the gateway candidacy (and receiver spans) for ``tick``.

        The candidacy comes from the static gateway grid: each device tests
        only the gateways in the 3×3 cell block around its tick position,
        with the same squared-distance test and reach a dense device ×
        gateway mask would apply, so the CSR result equals that mask's rows.
        """
        # Ticks are refreshed in time order, so skipped ones are never needed.
        for skipped in range(self._current_tick + 1, tick):
            self._tick_candidacy.pop(skipped, None)
        candidacy = self._tick_candidacy.pop(tick, None)
        if candidacy is None:
            candidacy = self._gateway_grid.candidates(
                self._tick_x[tick], self._tick_y[tick], self._reach_sq
            )
        ptr, gw = candidacy
        self._tick_gw_ptr = ptr.tolist()
        self._tick_gw = gw.tolist()
        self._current_tick = tick
        if self._uses_forwarding:
            self._refresh_overhear_candidacy(tick)

    def _refresh_overhear_candidacy(self, tick: int) -> None:
        """Every transmitter's candidate overhearers for ``tick``.

        Only devices active at some instant of the tick take part (survivors
        re-check the exact span).  A grid over the receivers' tick positions,
        with cells no smaller than the largest pair reach, yields every pair
        that can be in reach; the pair test ``device_range_m + margin_i +
        margin_j`` (plus slack for rounding) and the receiver filters
        (overhear-capable, same channel and SF, not the transmitter) then
        leave a superset of every exact neighbour query in the tick, in
        device insertion order.
        """
        n = len(self._devices)
        lo = tick * self._tick_s
        active = np.flatnonzero(
            (self._active_start_arr <= lo + self._tick_s) & (lo <= self._active_end_arr)
        )
        receivers = active[self._overhear_capable[active]]
        xs = self._tick_x[tick]
        ys = self._tick_y[tick]
        margins = self._margins
        grid = GatewayGrid(xs[receivers], ys[receivers], self._pair_cell_m)
        kept_tx: List[np.ndarray] = []
        kept_rx: List[np.ndarray] = []
        # Transmitters in chunks: the raw block pairs outnumber the kept ones
        # several times, so this bounds the transient arrays.
        for first in range(0, active.size, _PAIR_CHUNK_TRANSMITTERS):
            chunk = active[first : first + _PAIR_CHUNK_TRANSMITTERS]
            tx, rx = grid.block_pairs(xs[chunk], ys[chunk])
            tx = chunk[tx]
            rx = receivers[rx]
            dx = xs[tx] - xs[rx]
            dy = ys[tx] - ys[rx]
            limit = self._device_range + margins[tx] + margins[rx] + _PAIR_SLACK_M
            keep = (
                (dx * dx + dy * dy <= limit * limit)
                & (tx != rx)
                & (self._channels_arr[tx] == self._channels_arr[rx])
                & (self._sf_arr[tx] == self._sf_arr[rx])
            )
            kept_tx.append(tx[keep])
            kept_rx.append(rx[keep])
        tx = np.concatenate(kept_tx) if kept_tx else np.empty(0, dtype=np.int64)
        rx = np.concatenate(kept_rx) if kept_rx else np.empty(0, dtype=np.int64)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tx, minlength=n), out=ptr[1:])
        self._tick_rx_ptr = ptr.tolist()
        self._tick_rx = rx[np.lexsort((rx, tx))].tolist()

    def _has_gateway_candidate(self, index: int, now: float) -> bool:
        tick = int(now // self._tick_s)
        if tick != self._current_tick:
            self._refresh_tick(tick)
        ptr = self._tick_gw_ptr
        return ptr[index] != ptr[index + 1]

    def _gateways_in_range(
        self, index: int, now: float, position: Optional[Tuple[float, float]] = None
    ) -> List[Tuple[str, float, float]]:
        """``topology.gateways_in_range`` as ``(gateway id, RSSI, capacity)`` triples.

        Candidates come from the tick's grid candidacy (a superset of the
        oracle's disc query, in the same gateway insertion order); they run
        through ``_link_state``'s arithmetic without an RNG (same
        ``math.hypot`` distance, same mean received power, same capacity
        call), so the values are bit-identical to the oracle's link states.
        Callers that already hold the device's exact ``(x, y)`` position pass
        it to skip the re-interpolation.
        """
        if self._exact_topology:
            return [
                (gateway_id, link.rssi_dbm, link.capacity_bps)
                for gateway_id, link in self.scenario.topology.gateways_in_range(
                    self._device_ids[index], now
                )
            ]
        if not self._has_gateway_candidate(index, now):
            return []
        if position is None:
            if not self._trace_start[index] <= now <= self._trace_end[index]:
                return []
            position = self._position(index, now)
        return self._gateway_links(index, position)

    def _gateway_links(
        self, index: int, position: Tuple[float, float]
    ) -> List[Tuple[str, float, float]]:
        """The connected links among device ``index``'s current-tick candidates."""
        px, py = position
        capacity_bps = self._cap_models[index].capacity_bps
        gateway_range = self._gateway_range
        sink_xy = self._sink_xy
        gateway_ids = self._gateway_ids
        received_power = self._received_power
        tx_power = self._tx_power
        ptr = self._tick_gw_ptr
        result = []
        for gi in self._tick_gw[ptr[index] : ptr[index + 1]]:
            sx, sy = sink_xy[gi]
            distance = math.hypot(px - sx, py - sy)
            if distance > gateway_range:
                continue
            rssi = received_power(tx_power, distance, None)
            capacity = capacity_bps(rssi)
            if capacity > 0.0:
                result.append((gateway_ids[gi], rssi, capacity))
        return result

    def _gateway_rssi(
        self, gateways_in_range: List[Tuple[str, float, float]], channel: int
    ) -> Dict[str, float]:
        """RSSI by gateway for the in-range gateways listening on ``channel``."""
        gateways = self.scenario.gateways
        return {
            gateway_id: rssi
            for gateway_id, rssi, _ in gateways_in_range
            if gateways[gateway_id].listens_on(channel)
        }

    # ------------------------------------------------------------------ #
    # Event heap (mirrors the oracle Simulator's push order exactly)
    # ------------------------------------------------------------------ #
    def _push(self, time: float, priority: int, kind: int, payload) -> None:
        heappush(self._heap, (time, priority, self._seq, kind, payload))
        self._seq += 1

    def _schedule_attempt(self, index: int, time: float) -> None:
        if self._attempt_pending[index]:
            return
        if time >= self._duration:
            return
        self._attempt_pending[index] = True
        now = self.now
        heappush(
            self._heap,
            (time if time > now else now, ATTEMPT_PRIORITY, self._seq, _ATTEMPT, index),
        )
        self._seq += 1

    def _schedule_generation_processes(self) -> None:
        interval = self.config.device.message_interval_s
        entries = []
        seq = self._seq
        for index, trace in enumerate(self._traces):
            start = max(trace.start_time, 0.0)
            if start >= self._duration:
                continue
            time = start
            end = min(trace.end_time, self._duration)
            if time < end:
                self._next_gen[index] = time
            while time < end:
                entries.append((time, ATTEMPT_PRIORITY, seq, _GENERATION, index))
                seq += 1
                time += interval
        self._seq = seq
        self._heap.extend(entries)
        heapq.heapify(self._heap)

    # ------------------------------------------------------------------ #
    # Run control
    # ------------------------------------------------------------------ #
    def run(self) -> RunMetrics:
        """Execute the scenario and return the run metrics."""
        self._schedule_generation_processes()
        heap = self._heap
        duration = self._duration
        pending = self._attempt_pending
        on_fast = self._on_fast_completion
        on_complete = self._on_uplink_complete
        attempt = self._attempt_uplink
        devices = self._devices
        next_gen = self._next_gen
        gen_end = self._gen_end
        interval = self.config.device.message_interval_s
        while heap and heap[0][0] <= duration:
            time, _, _, kind, payload = heappop(heap)
            self._prev_now = self.now
            self.now = time
            if kind == _FAST_COMPLETION:
                on_fast(payload)
            elif kind == _COMPLETION:
                on_complete(payload)
            elif kind == _ATTEMPT:
                pending[payload] = False
                attempt(payload)
            else:  # _GENERATION — always inside the device's active span
                # The scheduler's own ``time += interval``, so this is
                # exactly the device's next generation entry on the heap.
                upcoming = time + interval
                if upcoming >= gen_end[payload]:
                    upcoming = math.inf
                next_gen[payload] = upcoming
                devices[payload].generate_message(time)
                attempt(payload)
        # Land the clock exactly like the oracle's Simulator.run(until=...):
        # remaining events (if any) lie strictly beyond the horizon.
        if self.now < duration:
            self.now = duration
        from repro.experiments.runner import account_idle_energy

        account_idle_energy(self.scenario, duration)
        return compute_run_metrics(
            scheme=self.config.scheme,
            num_gateways=self.config.num_gateways,
            device_range_m=self.config.device_range_m,
            duration_s=duration,
            devices=self._devices,
            server=self.server,
        )

    # ------------------------------------------------------------------ #
    # Uplink attempts
    # ------------------------------------------------------------------ #
    def _attempt_uplink(self, index: int) -> None:
        now = self.now
        if not (self._trace_start[index] <= now <= self._trace_end[index]):
            return
        if self._queue_needs_expiry[index]:
            self._devices[index].queue.expire(now)
        queued = len(self._queue_msgs[index])
        if not queued:
            return
        channel = self._channels[index]
        next_allowed = self._na_dicts[index].get(channel, 0.0)
        if now < next_allowed:
            self._schedule_attempt(index, next_allowed)
            return
        if self._fast_path_ok:
            # Inlined tick-candidacy check, then the exact disc query.  An
            # empty result — whether the tick had no candidate or only a
            # margin false positive — means the slot is a disconnected slot,
            # and in a non-forwarding scenario those take the fast path.
            tick = int(now // self._tick_s)
            if tick != self._current_tick:
                self._refresh_tick(tick)
            ptr = self._tick_gw_ptr
            if ptr[index] != ptr[index + 1]:
                gateways = self._gateway_links(index, self._position(index, now))
                if gateways:
                    self._full_uplink(index, self._devices[index], now, gateways)
                    return
            self._fast_disconnected_uplink(index, now, queued, channel)
            return
        self._full_uplink(index, self._devices[index], now, None)

    def _fast_disconnected_uplink(
        self, index: int, now: float, queued: int, channel: int
    ) -> None:
        """A slot with no connected gateway in a non-forwarding scenario.

        The frame reaches no receiver: no packet object, no registration, no
        reception draw.  Only the observable effects remain — duty cycle and
        energy accounting, the retransmission counter, and the retry event —
        and they are applied inline, replicating the exact arithmetic of
        ``EndDevice.record_uplink``.  The bundle size matches
        ``build_uplink`` because in a non-forwarding run every queued message
        was generated locally with the configured message size (the queue
        was expired by the caller).
        """
        device = self._devices[index]
        self._observe_slot(index, now, 0.0)
        if self._scheme_observe is not None:
            self._scheme_observe(device.device_id, False, now)
        max_bundle = self._max_bundle[index]
        bundled = queued if queued < max_bundle else max_bundle
        airtimes = self._fast_airtime[index]
        airtime_s = airtimes[bundled]
        if airtime_s is None:
            airtime_s = airtimes[bundled] = self.medium.airtime_s(
                self._uplink_overhead + self._msg_size[index] * bundled,
                self._sf[index],
            )
        off_time = self._record_uplink(index, now, airtime_s, channel)
        end = now + airtime_s
        # A chain pushes its exit event early, so it starts only at a slot
        # time no other event shares: not the previous pop's, not the heap
        # top's (see ``_run_chain``).  A pending attempt of this device would
        # sit at ``now`` too; the explicit check keeps that local.
        heap = self._heap
        if (
            self._chain_ok
            and not self._attempt_pending[index]
            and self._prev_now != now
            and not (heap and heap[0][0] == now)
        ):
            self._run_chain(index, end, airtime_s, off_time, channel)
            return
        heappush(heap, (end, COMPLETION_PRIORITY, self._seq, _FAST_COMPLETION, index))
        self._seq += 1

    def _record_uplink(
        self, index: int, now: float, airtime_s: float, channel: int
    ) -> float:
        """Inlined ``device.record_uplink(now, airtime_s)``; returns the off-time.

        Duty cycle (the caller's can-transmit gate already passed, so the
        regulator's raise is unreachable), TX energy, stats, last uplink end.
        """
        duty = self._duty[index]
        duty._total_airtime_s += airtime_s
        duty._transmissions += 1
        off_time = airtime_s * self._off_mult[index]
        self._na_dicts[index][channel] = now + airtime_s + off_time
        self._energy_sec[index][_TX] += airtime_s
        self._stats[index].uplink_transmissions += 1
        self._devices[index].last_uplink_end = now + airtime_s
        return off_time

    def _run_chain(
        self, index: int, end: float, airtime_s: float, off_time: float, channel: int
    ) -> None:
        """Run a disconnected retry chain inline from a slot ending at ``end``.

        Each step is the fast completion at ``end`` (``_on_fast_completion``)
        and then the retry slot at the duty-cycle release time
        (``_attempt_uplink`` + ``_fast_disconnected_uplink``), with the same
        arithmetic in the same order.  Nothing in a step is visible to any
        other device: the frame is unheard, no RNG is drawn, nothing is
        generated or delivered, so the bundle and its airtime stay fixed.

        A step runs inline only where the heap would pop its event before
        anything else of this device's: the completion at or before the next
        generation (completions sort before generations at a tie), the retry
        strictly before it (the generation was pushed first).  The first
        event that cannot run inline is pushed as the heap path would have
        pushed it, and the chain stops.

        That exit event is pushed when the chain starts, not when its
        predecessor would have popped, so it takes an earlier sequence
        number.  This reorders it only against another device's event at
        the same (time, priority) pushed in between.  Slot times are sums of
        airtimes and off-times from the slot that started the chain, so such
        a tie comes from another device transmitting in lockstep: both
        started at the same instant with the same airtime and share every
        event time.  The caller therefore starts a chain only at a slot time
        no other event shares.
        """
        duration = self._duration
        next_gen = self._next_gen[index]
        device = self._devices[index]
        stats = self._stats[index]
        max_retrans = self._max_retrans[index]
        trace_end = self._trace_end[index]
        next_allowed = self._na_dicts[index]
        duty = self._duty[index]
        energy = self._energy_sec[index]
        tick_s = self._tick_s
        has_gw = self._tick_has_gw
        n_devices = len(self._devices)
        observe = self._observe_slot
        while True:
            if end > duration or end > next_gen:
                heappush(
                    self._heap,
                    (end, COMPLETION_PRIORITY, self._seq, _FAST_COMPLETION, index),
                )
                self._seq += 1
                return
            # The fast completion at ``end``: a failed uplink.
            device.retransmission_count += 1
            stats.retransmissions += 1
            if device.retransmission_count > max_retrans:
                return
            retry_at = next_allowed[channel]
            if retry_at >= duration:
                return
            if (
                retry_at >= next_gen
                or retry_at > trace_end
                or has_gw[int(retry_at // tick_s) * n_devices + index]
            ):
                # ``retry_at >= end``: the off-time is non-negative.
                self._attempt_pending[index] = True
                heappush(
                    self._heap, (retry_at, ATTEMPT_PRIORITY, self._seq, _ATTEMPT, index)
                )
                self._seq += 1
                return
            # The retry slot at ``retry_at``: active, the duty cycle just
            # released and no gateway candidate, so a fast disconnected slot.
            observe(index, retry_at, 0.0)
            duty._total_airtime_s += airtime_s
            duty._transmissions += 1
            next_allowed[channel] = retry_at + airtime_s + off_time
            energy[_TX] += airtime_s
            stats.uplink_transmissions += 1
            end = retry_at + airtime_s
            device.last_uplink_end = end

    def _observe_slot(self, index: int, now: float, capacity_bps: float) -> None:
        """Inlined ``rca_etx.observe_transmission_slot(now, capacity, 0.0)``.

        Same arithmetic as ``SinkContactTracker.observe`` +
        ``RealTimePacketServiceTime.rpst`` + the EWMA fold, with the zero
        residual wait dropped (adding ``0.0`` to a non-negative sample is
        exact) and the method dispatch removed.
        """
        tracker = self._rca_trackers[index]
        ceiling = self._rca_max[index]
        if capacity_bps > 0.0:
            if tracker.last_slot_capacity_bps <= 0.0:
                tracker.contact_count += 1
            tracker.last_slot_time = now
            tracker.last_slot_capacity_bps = capacity_bps
            tracker.last_contact_time = now
            tracker.last_contact_capacity_bps = capacity_bps
            sample = self._rca_bits[index] / capacity_bps
            if sample > ceiling:
                sample = ceiling
        else:
            tracker.last_slot_time = now
            tracker.last_slot_capacity_bps = 0.0
            last_contact = tracker.last_contact_time
            if last_contact is None:
                sample = ceiling
            else:
                sample = self._rca_bits[index] / tracker.last_contact_capacity_bps
                if sample > ceiling:
                    sample = ceiling
                elapsed = now - last_contact
                if elapsed > 0.0:
                    sample += elapsed
                    if sample > ceiling:
                        sample = ceiling
        ewma = self._rca_ewma[index]
        value = ewma._value
        ewma._value = (
            sample
            if value is None
            else (1.0 - ewma.alpha) * value + ewma.alpha * sample
        )
        ewma._samples += 1

    def _full_uplink(
        self,
        index: int,
        device: EndDevice,
        now: float,
        gateways_in_range: Optional[List[Tuple[str, float, float]]] = None,
    ) -> None:
        """The oracle's ``_transmit_uplink``, with batched spatial queries."""
        scheme = self._scheme
        topology = self.scenario.topology

        position = None
        if not self._exact_topology and (
            gateways_in_range is None or self._uses_forwarding
        ):
            # The caller established the device is active, so the exact
            # position exists; it is shared by the gateway disc query and the
            # vectorized overhear candidacy below.
            position = self._position(index, now)
        if gateways_in_range is None:
            gateways_in_range = self._gateways_in_range(index, now, position)
        sink_capacity = 0.0
        for _, _, capacity in gateways_in_range:
            if capacity > sink_capacity:
                sink_capacity = capacity
        self._observe_slot(index, now, sink_capacity)
        if self._scheme_observe is not None:
            self._scheme_observe(device.device_id, sink_capacity > 0.0, now)

        packet = device.build_uplink(
            now, include_queue_length=scheme.requires_queue_length
        )
        payload_bytes = packet.payload_bytes
        airtime_s = self.medium.airtime_s(payload_bytes, device.spreading_factor)
        self._record_uplink(index, now, airtime_s, device.channel)

        rssi_by_receiver = self._gateway_rssi(gateways_in_range, device.channel)
        overhearers: Dict[str, float] = {}
        if self._uses_forwarding:
            if position is not None:
                self._collect_overhearers(
                    index, device, now, position, rssi_by_receiver, overhearers
                )
            else:
                # Shadowing: every link computation draws from the shadowing
                # stream, so the spatial queries must replay the oracle's
                # exact sequence.
                for neighbour_id, link in topology.neighbours(device.device_id, now):
                    neighbour = self.scenario.devices[neighbour_id]
                    if (
                        neighbour.channel == device.channel
                        and neighbour.spreading_factor == device.spreading_factor
                        and neighbour.is_listening(now)
                    ):
                        rssi_by_receiver[neighbour_id] = link.rssi_dbm
                        overhearers[neighbour_id] = link.rssi_dbm

        transmission = self.medium.transmit(
            sender=device.device_id,
            now=now,
            payload_bytes=payload_bytes,
            rssi_by_receiver=rssi_by_receiver,
            spreading_factor=device.spreading_factor,
            channel=device.channel,
            airtime_s=airtime_s,
        )
        self._push(
            now + airtime_s,
            COMPLETION_PRIORITY,
            _COMPLETION,
            (index, packet, transmission, overhearers),
        )

    def _collect_overhearers(
        self,
        index: int,
        device: EndDevice,
        now: float,
        position,
        rssi_by_receiver: Dict[str, float],
        overhearers: Dict[str, float],
    ) -> None:
        """Batched replica of the oracle's per-slot neighbour query.

        The tick's overhear candidacy (a superset of the oracle's range
        query, already restricted by channel, SF, overhear capability and
        active span) lists the transmitter's candidates in device insertion
        order — the order ``topology.neighbours`` reports them.  Each one
        then runs the exact scalar arithmetic of ``position_at`` +
        ``_link_state``: same interpolation, same ``math.hypot`` distance,
        same mean path loss with no RNG, so the surviving (receiver, RSSI)
        pairs are bit-identical to the oracle's.  ``position`` is the
        transmitter's exact ``(x, y)``.
        """
        tick = int(now // self._tick_s)
        if tick != self._current_tick:
            self._refresh_tick(tick)
        ptr = self._tick_rx_ptr
        candidates = self._tick_rx[ptr[index] : ptr[index + 1]]
        if not candidates:
            return
        px, py = position
        trace_starts = self._trace_start
        trace_ends = self._trace_end
        seg_t0 = self._seg_t0
        seg_t1 = self._seg_t1
        seg_dt = self._seg_dt
        seg_x0 = self._seg_x0
        seg_dx = self._seg_dx
        seg_y0 = self._seg_y0
        seg_dy = self._seg_dy
        hypot = math.hypot
        received_power = self._received_power
        tx_power = self._tx_power
        device_range = self._device_range
        # The transmitter-side capacity model decides connectivity.
        capacity_bps = self._cap_models[index].capacity_bps
        always_listening = self._always_listening
        devices = self._devices
        device_ids = self._device_ids
        for j in candidates:
            if not trace_starts[j] <= now <= trace_ends[j]:
                continue
            t0 = seg_t0[j]
            if not t0 <= now < seg_t1[j]:
                self._load_segment(j, now)
                t0 = seg_t0[j]
            f = (now - t0) / seg_dt[j]
            distance = hypot(
                px - (seg_x0[j] + seg_dx[j] * f), py - (seg_y0[j] + seg_dy[j] * f)
            )
            if distance > device_range:
                continue
            rssi = received_power(tx_power, distance, None)
            if not capacity_bps(rssi) > 0.0:
                continue
            if not always_listening[j] and not devices[j].is_listening(now):
                continue
            neighbour_id = device_ids[j]
            rssi_by_receiver[neighbour_id] = rssi
            overhearers[neighbour_id] = rssi

    def _position(self, j: int, now: float) -> Tuple[float, float]:
        """``position_at(now)`` of device ``j``, active at ``now``, as ``(x, y)``."""
        t0 = self._seg_t0[j]
        if not t0 <= now < self._seg_t1[j]:
            self._load_segment(j, now)
            t0 = self._seg_t0[j]
        f = (now - t0) / self._seg_dt[j]
        return (
            self._seg_x0[j] + self._seg_dx[j] * f,
            self._seg_y0[j] + self._seg_dy[j] * f,
        )

    def _load_segment(self, j: int, now: float) -> None:
        """Cache device ``j``'s trace segment around ``now`` (active at ``now``).

        ``position_at``'s arithmetic split at the bisect: between samples
        ``k - 1`` and ``k`` the position is ``x0 + (x1 - x0) * f`` with
        ``f = (now - t0) / (t1 - t0)``.  At or past the last sample the
        segment is the open interval from it with zero differences, which
        yields that sample; at the first sample ``f`` is zero.  (Either end
        may turn a ``-0.0`` coordinate into ``0.0``, which no distance sees.)
        """
        times = self._trace_times[j]
        xs = self._trace_xs[j]
        ys = self._trace_ys[j]
        if now >= times[-1]:
            self._seg_t0[j] = times[-1]
            self._seg_t1[j] = math.inf
            self._seg_dt[j] = 1.0
            self._seg_x0[j] = xs[-1]
            self._seg_dx[j] = 0.0
            self._seg_y0[j] = ys[-1]
            self._seg_dy[j] = 0.0
            return
        k = bisect_right(times, now)
        t0 = times[k - 1]
        x0 = xs[k - 1]
        y0 = ys[k - 1]
        self._seg_t0[j] = t0
        self._seg_t1[j] = times[k]
        self._seg_dt[j] = times[k] - t0
        self._seg_x0[j] = x0
        self._seg_dx[j] = xs[k] - x0
        self._seg_y0[j] = y0
        self._seg_dy[j] = ys[k] - y0

    # ------------------------------------------------------------------ #
    # Uplink resolution
    # ------------------------------------------------------------------ #
    def _on_fast_completion(self, index: int) -> None:
        """Completion of a failed uplink, such as every frame nobody heard.

        Inlined ``device.on_uplink_failed()`` plus the retry scheduling of
        the oracle's completion handler: the retry at the duty-cycle release
        if retries remain and the queue holds data.  Also the failure branch
        of :meth:`_on_uplink_complete`.
        """
        device = self._devices[index]
        device.retransmission_count += 1
        self._stats[index].retransmissions += 1
        if (
            device.retransmission_count <= self._max_retrans[index]
            and self._queue_msgs[index]
            and not self._attempt_pending[index]
        ):
            retry_at = self._na_dicts[index].get(self._channels[index], 0.0)
            if retry_at < self._duration:
                self._attempt_pending[index] = True
                now = self.now
                heappush(
                    self._heap,
                    (
                        retry_at if retry_at > now else now,
                        ATTEMPT_PRIORITY,
                        self._seq,
                        _ATTEMPT,
                        index,
                    ),
                )
                self._seq += 1

    def _on_uplink_complete(self, payload) -> None:
        index, packet, transmission, overhearers = payload
        device = self._devices[index]
        now = self.now

        delivered_gateway = self.medium.resolve_gateway_reception(
            transmission, self.scenario.gateways
        )
        if delivered_gateway is not None:
            ack = self.server.process_uplink(packet, delivered_gateway, now)
            self.scenario.gateways[delivered_gateway].receive(packet)
            device.on_acknowledged(ack.acked_message_ids)
            if device.has_data():
                self._schedule_attempt(index, device.next_transmission_time)
        else:
            self._on_fast_completion(index)

        if self._uses_forwarding:
            self._resolve_overhearing(device, packet, transmission, overhearers)

        self.medium.prune(now)

    # ------------------------------------------------------------------ #
    # Overhearing and handovers
    # ------------------------------------------------------------------ #
    def _resolve_overhearing(
        self,
        sender: EndDevice,
        packet,
        transmission: Transmission,
        overhearers: Dict[str, float],
    ) -> None:
        """Forwarding decisions + handovers for one completed transmission.

        Every decodable overhearer goes to the scheme in one
        ``on_overhear_batch`` call, then the handovers run in receiver order.
        Deciding first and handing over after is exact under the hook's
        contract (a transmission's verdicts do not depend on its own
        handovers), so the verdicts and the draw/push sequence equal the
        object engine's interleaved loop.
        """
        if not overhearers:
            return
        now = self.now
        devices = self.scenario.devices
        capacity_model = self._cap_models[self._index_of[sender.device_id]]
        is_decodable = self.medium.is_decodable
        receivers: List[EndDevice] = []
        rssis: List[float] = []
        for neighbour_id, rssi in overhearers.items():
            if is_decodable(transmission, neighbour_id):
                receivers.append(devices[neighbour_id])
                rssis.append(rssi)
        if not receivers:
            return
        decisions = self._scheme.on_overhear_batch(
            packet, receivers, rssis, capacity_model, now
        )
        for receiver, decision in zip(receivers, decisions):
            if decision.forward:
                self._perform_handover(
                    receiver, sender, decision.message_limit, decision.copy
                )

    def _perform_handover(
        self, giver: EndDevice, taker: EndDevice, limit: int, copy: bool
    ) -> None:
        now = self.now
        if not giver.can_transmit(now):
            return
        if not self.scenario.topology.in_contact(giver.device_id, taker.device_id, now):
            return
        if copy:
            # The carrier keeps its messages; the scheme picks and copies them
            # (spray-and-wait splits tickets) and the taker stores the copies.
            messages, accepted = self._scheme.hand_over_copies(giver, taker, limit, now)
        else:
            messages = giver.transferable_messages(taker.device_id, limit, now=now)
        if not messages:
            return

        payload_bytes = PACKET_OVERHEAD_BYTES + sum(m.size_bytes for m in messages)
        airtime_s = self.medium.airtime_s(payload_bytes, giver.spreading_factor)
        giver.record_handover_transmission(now, airtime_s)

        giver_index = self._index_of[giver.device_id]
        handover_rssi = self._gateway_rssi(
            self._gateways_in_range(giver_index, now), giver.channel
        )
        if handover_rssi:
            self.medium.transmit(
                sender=giver.device_id,
                now=now,
                payload_bytes=payload_bytes,
                rssi_by_receiver=handover_rssi,
                spreading_factor=giver.spreading_factor,
                channel=giver.channel,
                airtime_s=airtime_s,
            )

        if not copy:
            messages = giver.release_messages(m.message_id for m in messages)
            accepted = taker.accept_handover(messages, giver.device_id, now=now)
        self._handover_count += 1
        self._handed_over_messages += accepted
        self._schedule_attempt(
            self._index_of[taker.device_id], taker.next_transmission_time
        )

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    @property
    def handover_count(self) -> int:
        """Number of device-to-device handover frames sent."""
        return self._handover_count

    @property
    def handed_over_messages(self) -> int:
        """Number of messages that changed carrier at least once via this engine."""
        return self._handed_over_messages
