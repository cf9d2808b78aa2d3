"""Same-channel collision and capture model.

LoRa frames on the same channel and spreading factor interfere when their
airtime overlaps.  Following FLoRa / Bor et al., a frame survives a collision
only if it is stronger than every overlapping interferer by at least the
capture threshold (6 dB by default).  Frames on different spreading factors
are treated as orthogonal (the quasi-orthogonality approximation; adequate
here because the evaluation uses a single SF).

:class:`CollisionModel` is the one collision registry both simulation engines
resolve through (behind :class:`~repro.radio.medium.RadioMedium`):

* **Per-(channel, SF) buckets.**  Frames that cannot overlap never meet: a
  frame lands in the bucket of its channel and spreading factor, in
  registration order, and a capture check scans only that bucket.
* **Derived eviction horizon.**  Each bucket remembers the longest frame
  ever registered in it.  A frame still to be resolved at ``now`` ends at or
  after ``now`` and lasts at most that long, so it starts at or after
  ``now - longest``; an entry that ended by then can overlap no such frame,
  nor any frame registered later.  :meth:`CollisionModel.prune` drops those
  entries from the front of each bucket by advancing a monotone head
  pointer, so the scan window stays O(recent frames) without a retention
  constant.
* **One scan per frame.**  The overlap scan of a frame is kept and reused
  by every :meth:`CollisionModel.is_received` query for that frame until the
  next :meth:`CollisionModel.add`, so the gateway pass and every overhearer
  of one completed frame share a single scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.phy.constants import CAPTURE_THRESHOLD_DB, SpreadingFactor

#: A bucket is compacted once its head pointer has passed this many entries.
BUCKET_COMPACT_THRESHOLD = 512

_NEG_INF = float("-inf")


@dataclass
class Transmission:
    """One frame on the air.

    ``rssi_by_receiver`` maps receiver identifiers to the power at which this
    frame arrives at that receiver; the collision check is therefore performed
    per receiver, as it is in reality (a frame may collide at one gateway and
    be captured at another).
    """

    sender: str
    start_time: float
    duration: float
    channel: int = 0
    spreading_factor: SpreadingFactor = SpreadingFactor.SF7
    rssi_by_receiver: Dict[str, float] = field(default_factory=dict)
    payload: object = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.start_time < 0:
            raise ValueError(f"start_time must be non-negative, got {self.start_time}")

    @property
    def end_time(self) -> float:
        """Time at which the frame stops occupying the channel."""
        return self.start_time + self.duration

    def overlaps(self, other: "Transmission") -> bool:
        """True when the two frames overlap in time on the same channel and SF."""
        if self.channel != other.channel:
            return False
        if self.spreading_factor != other.spreading_factor:
            return False
        return self.start_time < other.end_time and other.start_time < self.end_time


#: A registered frame: (start, end, RSSI by receiver, the transmission).
_Entry = Tuple[float, float, Dict[str, float], Transmission]


class _Bucket:
    """The registered frames of one (channel, SF), oldest live one at ``head``."""

    __slots__ = ("entries", "head", "longest")

    def __init__(self) -> None:
        self.entries: List[_Entry] = []
        self.head = 0
        self.longest = 0.0


class CollisionModel:
    """The collision registry: registers frames and resolves per-receiver capture."""

    def __init__(self, capture_threshold_db: float = CAPTURE_THRESHOLD_DB) -> None:
        if capture_threshold_db < 0:
            raise ValueError("capture threshold must be non-negative")
        self.capture_threshold_db = capture_threshold_db
        self._buckets: Dict[Tuple[int, int], _Bucket] = {}
        # The last overlap scan: the frame it was made for and the RSSI maps
        # of the frames overlapping it.
        self._scanned: Optional[Transmission] = None
        self._overlaps: List[Dict[str, float]] = []

    def __len__(self) -> int:
        """Number of frames currently registered."""
        return sum(len(b.entries) - b.head for b in self._buckets.values())

    def add(self, transmission: Transmission) -> None:
        """Register a new frame on the air."""
        key = (transmission.channel, int(transmission.spreading_factor))
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket()
        bucket.entries.append(
            (
                transmission.start_time,
                transmission.end_time,
                transmission.rssi_by_receiver,
                transmission,
            )
        )
        if transmission.duration > bucket.longest:
            bucket.longest = transmission.duration
        self._scanned = None

    def prune(self, now: float) -> None:
        """Drop the frames that can no longer overlap a frame ending at or after ``now``.

        An entry goes once ``end_time <= now - longest`` for its bucket's
        longest frame; eviction stops at the first entry that is still live,
        so a bucket only ever loses a prefix of its registration order.
        """
        for bucket in self._buckets.values():
            limit = now - bucket.longest
            entries = bucket.entries
            head = bucket.head
            while head < len(entries) and entries[head][1] <= limit:
                head += 1
            if head > BUCKET_COMPACT_THRESHOLD:
                del entries[:head]
                head = 0
            bucket.head = head

    def _scan(self, transmission: Transmission) -> List[Dict[str, float]]:
        """RSSI maps of every registered frame overlapping ``transmission``."""
        overlaps: List[Dict[str, float]] = []
        bucket = self._buckets.get(
            (transmission.channel, int(transmission.spreading_factor))
        )
        if bucket is not None:
            start = transmission.start_time
            end = transmission.end_time
            for other_start, other_end, rssi_map, other in bucket.entries[bucket.head :]:
                if other_start < end and start < other_end and other is not transmission:
                    overlaps.append(rssi_map)
        self._scanned = transmission
        self._overlaps = overlaps
        return overlaps

    def is_received(self, transmission: Transmission, receiver: str) -> bool:
        """Decide whether ``receiver`` decodes ``transmission`` despite interference.

        The frame is decoded when the receiver hears it (it has an RSSI entry)
        and the frame beats every overlapping interferer heard by the same
        receiver by at least the capture threshold.
        """
        rssi = transmission.rssi_by_receiver.get(receiver)
        if rssi is None or rssi == _NEG_INF:
            return False
        overlaps = (
            self._overlaps
            if transmission is self._scanned
            else self._scan(transmission)
        )
        threshold = self.capture_threshold_db
        for other_rssi_map in overlaps:
            other_rssi = other_rssi_map.get(receiver)
            if other_rssi is None or other_rssi == _NEG_INF:
                continue
            if rssi - other_rssi < threshold:
                return False
        return True
