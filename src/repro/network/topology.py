"""The time-varying weighted graph G(N, L, C(t)) of Sec. III-A.

:class:`TimeVaryingTopology` answers, for any simulation time ``t``:

* where every node is (or that it is inactive);
* the RSSI and capacity of any device-to-device link ``c_{x,y}(t)``;
* the best-gateway RSSI and the virtual device-to-sink capacity
  ``c_{x,S}(t)``;
* which devices are opportunistic neighbours of a given device.

Connectivity combines a hard communication-range cut-off (1 km for
device-to-gateway at SF7, 0.5 km urban / 1 km rural for device-to-device,
Sec. VII-A6) with the RSSI→capacity mapping of Eq. (5) inside that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.geometry import Point
from repro.mobility.trace import max_segment_speeds
from repro.network.node import DeviceNode, SinkNode
from repro.network.spatial import UniformGridIndex, pairwise_in_range_mask
from repro.phy.constants import DEFAULT_TX_POWER_DBM, SpreadingFactor
from repro.phy.link import LinkCapacityModel
from repro.phy.pathloss import LogDistancePathLoss, PathLossModel


@dataclass(frozen=True)
class LinkState:
    """A snapshot of one link at one instant."""

    rssi_dbm: float
    capacity_bps: float
    distance_m: float

    @property
    def connected(self) -> bool:
        """True when the link can carry data right now."""
        return self.capacity_bps > 0.0


@dataclass(frozen=True)
class TopologyConfig:
    """Radio-geometry parameters of the scenario."""

    gateway_range_m: float = 1000.0
    device_range_m: float = 500.0
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    spreading_factor: SpreadingFactor = SpreadingFactor.SF7
    shadowing_enabled: bool = False

    def __post_init__(self) -> None:
        if self.gateway_range_m <= 0 or self.device_range_m <= 0:
            raise ValueError("communication ranges must be positive")


class TimeVaryingTopology:
    """Positions, links and neighbourhoods as functions of time."""

    def __init__(
        self,
        devices: Sequence[DeviceNode],
        sinks: Sequence[SinkNode],
        config: TopologyConfig = TopologyConfig(),
        path_loss: Optional[PathLossModel] = None,
        capacity_model: Optional[LinkCapacityModel] = None,
        rng: Optional[np.random.Generator] = None,
        position_cache_window_s: float = 15.0,
        sf_by_node: Optional[Mapping[str, SpreadingFactor]] = None,
    ) -> None:
        if not sinks:
            raise ValueError("a topology needs at least one sink")
        self.devices: Dict[str, DeviceNode] = {d.node_id: d for d in devices}
        self.sinks: Dict[str, SinkNode] = {s.node_id: s for s in sinks}
        if len(self.devices) != len(devices):
            raise ValueError("duplicate device identifiers")
        if len(self.sinks) != len(sinks):
            raise ValueError("duplicate sink identifiers")
        overlap = set(self.devices) & set(self.sinks)
        if overlap:
            raise ValueError(f"identifiers used for both devices and sinks: {sorted(overlap)}")
        self.config = config
        self.path_loss = path_loss or LogDistancePathLoss()
        self.capacity_model = capacity_model or LinkCapacityModel.for_spreading_factor(
            config.spreading_factor
        )
        # Per-node spreading factors make link capacity SF-dependent: a link
        # whose transmitter runs a slower SF carries fewer bits per second
        # (Eq. 5 scaled to that SF's duty-cycle-limited bitrate).  Nodes
        # without an entry — and every node at the topology's base SF — use
        # the base capacity model, so single-SF scenarios are untouched.
        self._sf_by_node: Dict[str, SpreadingFactor] = dict(sf_by_node or {})
        self._capacity_by_sf: Dict[SpreadingFactor, LinkCapacityModel] = {
            config.spreading_factor: self.capacity_model
        }
        self._rng = rng
        if position_cache_window_s < 0:
            raise ValueError("position_cache_window_s must be non-negative")
        self._cache_window = position_cache_window_s
        self._cache_bucket: Optional[int] = None
        self._exact_cache_time: Optional[float] = None
        self._cached_positions: Dict[str, Optional[Point]] = {}
        # Devices visit the grid index through their coarse (bucket-start)
        # positions; devices without a coarse position fall outside the index
        # and are tracked separately.  Gateways never move, so their index is
        # built once.
        self._device_index: Optional[UniformGridIndex] = None
        # The coarse filter's padding in ``neighbours``, from the traces'
        # fastest segment; measured on the first neighbour query.
        self._cache_margin_m: Optional[float] = None
        self._unindexed_device_ids: List[str] = []
        self._device_order: Dict[str, int] = {
            device_id: i for i, device_id in enumerate(self.devices)
        }
        self._sink_index = UniformGridIndex.from_positions(
            {s.node_id: s.position for s in sinks}, config.gateway_range_m
        )
        #: Query statistics (reset with :meth:`reset_query_stats`); the spatial
        #: micro-benchmark asserts the index examines far fewer candidates than
        #: a full scan would.
        self.neighbour_query_count = 0
        self.neighbour_candidate_count = 0
        self.index_rebuild_count = 0

    # ------------------------------------------------------------------ #
    # Positions
    # ------------------------------------------------------------------ #
    def device_position(self, device_id: str, time: float) -> Optional[Point]:
        """Position of ``device_id`` at ``time`` or ``None`` when inactive/unknown."""
        device = self.devices.get(device_id)
        if device is None:
            raise KeyError(f"unknown device {device_id!r}")
        return device.position_at(time)

    def active_devices(self, time: float) -> List[str]:
        """Identifiers of devices that are on the road at ``time``."""
        return [d.node_id for d in self.devices.values() if d.is_active(time)]

    # ------------------------------------------------------------------ #
    # Links
    # ------------------------------------------------------------------ #
    def node_spreading_factor(self, node_id: str) -> SpreadingFactor:
        """The spreading factor ``node_id`` transmits with (base SF by default)."""
        return self._sf_by_node.get(node_id, self.config.spreading_factor)

    def capacity_model_for(self, node_id: str) -> LinkCapacityModel:
        """The capacity model matching the transmitter's spreading factor."""
        sf = self.node_spreading_factor(node_id)
        model = self._capacity_by_sf.get(sf)
        if model is None:
            model = LinkCapacityModel.for_spreading_factor(sf)
            self._capacity_by_sf[sf] = model
        return model

    def _link_state(
        self,
        a: Point,
        b: Point,
        range_m: float,
        capacity_model: Optional[LinkCapacityModel] = None,
    ) -> LinkState:
        distance = a.distance_to(b)
        if distance > range_m:
            return LinkState(rssi_dbm=float("-inf"), capacity_bps=0.0, distance_m=distance)
        rng = self._rng if self.config.shadowing_enabled else None
        rssi = self.path_loss.received_power_dbm(self.config.tx_power_dbm, distance, rng)
        capacity = (capacity_model or self.capacity_model).capacity_bps(rssi)
        return LinkState(rssi_dbm=rssi, capacity_bps=capacity, distance_m=distance)

    def device_link(self, x: str, y: str, time: float) -> LinkState:
        """State of the device-to-device link (x, y) at ``time`` (x transmitting)."""
        pos_x = self.device_position(x, time)
        pos_y = self.device_position(y, time)
        if pos_x is None or pos_y is None:
            return LinkState(float("-inf"), 0.0, float("inf"))
        return self._link_state(
            pos_x, pos_y, self.config.device_range_m, self.capacity_model_for(x)
        )

    def best_gateway(self, device_id: str, time: float) -> Tuple[Optional[str], LinkState]:
        """The closest in-range gateway for ``device_id`` and the link to it.

        Returns ``(None, disconnected LinkState)`` when no gateway is within
        range or the device is inactive.
        """
        position = self.device_position(device_id, time)
        disconnected = LinkState(float("-inf"), 0.0, float("inf"))
        if position is None:
            return None, disconnected
        best_id: Optional[str] = None
        best_state = disconnected
        capacity_model = self.capacity_model_for(device_id)
        for sink_id in self._sink_index.candidates_in_disc(
            position, self.config.gateway_range_m
        ):
            sink = self.sinks[sink_id]
            state = self._link_state(
                position, sink.position, self.config.gateway_range_m, capacity_model
            )
            if state.connected and (best_id is None or state.rssi_dbm > best_state.rssi_dbm):
                best_id = sink.node_id
                best_state = state
        return best_id, best_state

    def sink_capacity(self, device_id: str, time: float) -> float:
        """The virtual link capacity ``c_{x,S}(t)`` (best gateway, 0 when disconnected)."""
        _, state = self.best_gateway(device_id, time)
        return state.capacity_bps

    def gateways_in_range(self, device_id: str, time: float) -> List[Tuple[str, LinkState]]:
        """All gateways currently within range of ``device_id`` with their link states."""
        position = self.device_position(device_id, time)
        if position is None:
            return []
        result: List[Tuple[str, LinkState]] = []
        capacity_model = self.capacity_model_for(device_id)
        for sink_id in self._sink_index.candidates_in_disc(
            position, self.config.gateway_range_m
        ):
            sink = self.sinks[sink_id]
            state = self._link_state(
                position, sink.position, self.config.gateway_range_m, capacity_model
            )
            if state.connected:
                result.append((sink.node_id, state))
        return result

    def _refresh_spatial_cache(self, time: float) -> None:
        """Rebuild the coarse positions and the device grid index when stale.

        Coarse positions are sampled at the start of the current cache window
        (or at ``time`` exactly when the window is zero) and hashed into a
        :class:`UniformGridIndex` with cell size equal to the device range.
        They are only a candidate filter; exact positions are always
        recomputed for the candidates that survive it, so the cache never
        changes connectivity decisions, it only avoids interpolating — and now
        scanning — the whole fleet on every query.
        """
        if self._cache_window <= 0:
            if self._exact_cache_time == time and self._device_index is not None:
                return
            sample_time = time
            self._exact_cache_time = time
        else:
            bucket = int(time // self._cache_window)
            if bucket == self._cache_bucket and self._device_index is not None:
                return
            sample_time = bucket * self._cache_window
            self._cache_bucket = bucket
        self._cached_positions = {
            d.node_id: d.position_at(sample_time) for d in self.devices.values()
        }
        self._device_index = UniformGridIndex(self.config.device_range_m)
        self._unindexed_device_ids = []
        for device_id, coarse_position in self._cached_positions.items():
            if coarse_position is None:
                self._unindexed_device_ids.append(device_id)
            else:
                self._device_index.insert(device_id, coarse_position)
        self.index_rebuild_count += 1

    def neighbours(self, device_id: str, time: float) -> List[Tuple[str, LinkState]]:
        """Opportunistic neighbours D_x(t): active devices with a live link to ``device_id``."""
        position = self.device_position(device_id, time)
        if position is None:
            return []
        self._refresh_spatial_cache(time)
        assert self._device_index is not None
        coarse_range = self.config.device_range_m + self._neighbour_cache_margin()
        candidates = self._device_index.ids_in_square(position, coarse_range)
        if self._unindexed_device_ids:
            # Devices with no coarse position (off the road at the sample
            # instant) bypass the grid; while the cache window is live they
            # are only considered when active right now — exactly the filter
            # the full scan applied.
            extra = [
                other_id
                for other_id in self._unindexed_device_ids
                if self._cache_window <= 0 or self.devices[other_id].is_active(time)
            ]
            if extra:
                candidates = sorted(
                    candidates + extra, key=self._device_order.__getitem__
                )
        self.neighbour_query_count += 1
        result: List[Tuple[str, LinkState]] = []
        capacity_model = self.capacity_model_for(device_id)
        for other_id in candidates:
            if other_id == device_id:
                continue
            self.neighbour_candidate_count += 1
            other_position = self.devices[other_id].position_at(time)
            if other_position is None:
                continue
            state = self._link_state(
                position, other_position, self.config.device_range_m, capacity_model
            )
            if state.connected:
                result.append((other_id, state))
        return result

    def _neighbour_cache_margin(self) -> float:
        """Padding of the coarse filter in :meth:`neighbours`.

        A candidate strays at most the fleet's fastest segment speed times
        the cache window from its cached position.  The margin is twice
        that, which also absorbs rounding in the interpolated positions.
        """
        if self._cache_margin_m is None:
            speeds = max_segment_speeds([d.trace for d in self.devices.values()])
            fastest = float(speeds.max()) if speeds.size else 0.0
            self._cache_margin_m = 2.0 * fastest * self._cache_window
        return self._cache_margin_m

    def reset_query_stats(self) -> None:
        """Zero the neighbour-query/candidate/rebuild counters."""
        self.neighbour_query_count = 0
        self.neighbour_candidate_count = 0
        self.index_rebuild_count = 0

    def in_contact(self, x: str, y: str, time: float) -> bool:
        """True when devices ``x`` and ``y`` can communicate at ``time``."""
        return self.device_link(x, y, time).connected

    def connectivity_matrix(self, time: float) -> Dict[str, Dict[str, float]]:
        """The capacity matrix C(t) restricted to device-to-device links (sparse dict form).

        Candidate pairs are pruned with a vectorized squared-distance mask (a
        strict superset of the exact in-range pairs), then each surviving
        ``(i < j)`` pair goes through the unchanged scalar
        :meth:`device_link` in the same row-major order as the full double
        loop.  Pairs dropped by the mask are out of range and never draw
        shadowing randomness, so the pruning changes neither the result nor
        the RNG stream.
        """
        matrix: Dict[str, Dict[str, float]] = {}
        ids = self.active_devices(time)
        if len(ids) < 2:
            return matrix
        positions = [self.devices[x].position_at(time) for x in ids]
        xs = np.array([p.x for p in positions], dtype=float)
        ys = np.array([p.y for p in positions], dtype=float)
        mask = pairwise_in_range_mask(xs, ys, self.config.device_range_m)
        rows, cols = np.nonzero(np.triu(mask, k=1))
        for i, j in zip(rows.tolist(), cols.tolist()):
            x, y = ids[i], ids[j]
            state = self.device_link(x, y, time)
            if state.connected:
                matrix.setdefault(x, {})[y] = state.capacity_bps
                matrix.setdefault(y, {})[x] = state.capacity_bps
        return matrix
