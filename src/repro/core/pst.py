"""Packet Service Time (PST) and Real-time PST (RPST), paper Eqs. (2)–(3).

The virtual link between a device ``x`` and the set of sinks ``S`` is treated
as a queue whose service time is the time needed to push one packet through.
When the device is in contact with a gateway the service time is just the
transmission time ``packet_bits / c_{x,S}(t)``; when it is disconnected, the
(unknowable) wait until the next contact has to be estimated.  The paper's
real-time estimator replaces the unavailable future contact time with the time
elapsed since the *last* contact plus the residual wait before the device may
transmit again (Eq. 3), and smooths the resulting samples with an EWMA
(Eq. 4).  The smoothed value is the node-to-sink RCA-ETX.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.ewma import ExponentialMovingAverage

#: Ceiling applied to service-time estimates when a device has never seen a
#: gateway; keeps comparisons well-defined without infinities.
DEFAULT_MAX_SERVICE_TIME_S = 24 * 3600.0


@dataclass
class SinkContactTracker:
    """Remembers what a device learned from its own transmission slots.

    ``observe(time, capacity)`` is called at every device-to-sink
    communication opportunity.  The tracker keeps the capacity seen at the
    most recent slot and the time/capacity of the last slot at which the
    device was actually connected (the end of its n-th contact, ``ẗⁿ`` in the
    paper's notation, as seen through the slotted sampling the duty cycle
    allows).
    """

    last_slot_time: Optional[float] = None
    last_slot_capacity_bps: float = 0.0
    last_contact_time: Optional[float] = None
    last_contact_capacity_bps: float = 0.0
    contact_count: int = 0

    def observe(self, time: float, capacity_bps: float) -> None:
        """Record the sink capacity observed at a communication slot."""
        if time < 0:
            raise ValueError(f"time must be non-negative, got {time}")
        if capacity_bps < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity_bps}")
        if self.last_slot_time is not None and time < self.last_slot_time:
            raise ValueError("observations must be made in non-decreasing time order")
        was_connected = self.last_slot_capacity_bps > 0.0
        self.last_slot_time = time
        self.last_slot_capacity_bps = capacity_bps
        if capacity_bps > 0.0:
            if not was_connected:
                self.contact_count += 1
            self.last_contact_time = time
            self.last_contact_capacity_bps = capacity_bps

    @property
    def has_contact_history(self) -> bool:
        """True once the device has been connected to a sink at least once."""
        return self.last_contact_time is not None


class RealTimePacketServiceTime:
    """Computes RPST samples (Eq. 3) and maintains their EWMA (Eq. 4).

    Parameters
    ----------
    alpha:
        EWMA weight of Eq. (4); the paper uses 0.5.
    packet_bits:
        Size of the packet whose service time is being estimated; RPST scales
        linearly with it.  Using the actual LoRaWAN packet size keeps RCA-ETX
        in seconds-per-packet, the unit the handover rule compares.
    max_service_time_s:
        Ceiling used when the device has no contact history at all.
    """

    def __init__(
        self,
        alpha: float = 0.5,
        packet_bits: float = 8.0 * 51.0,
        max_service_time_s: float = DEFAULT_MAX_SERVICE_TIME_S,
    ) -> None:
        if packet_bits <= 0:
            raise ValueError(f"packet_bits must be positive, got {packet_bits}")
        if max_service_time_s <= 0:
            raise ValueError("max_service_time_s must be positive")
        self.packet_bits = packet_bits
        self.max_service_time_s = max_service_time_s
        self.tracker = SinkContactTracker()
        self._ewma = ExponentialMovingAverage(alpha=alpha)

    # ------------------------------------------------------------------ #
    # Instantaneous estimates
    # ------------------------------------------------------------------ #
    def transmission_time(self, capacity_bps: float) -> float:
        """Time to push one packet through a link of ``capacity_bps`` (capped)."""
        if capacity_bps <= 0:
            return self.max_service_time_s
        return min(self.packet_bits / capacity_bps, self.max_service_time_s)

    def rpst(self, now: float, wait_s: float = 0.0) -> float:
        """Real-time PST µ'_{x,S}(now) per Eq. (3).

        ``wait_s`` is ``t^∆_x``: the residual time before the device is next
        allowed to transmit towards the sinks (duty-cycle or slot wait).
        """
        if wait_s < 0:
            raise ValueError(f"wait_s must be non-negative, got {wait_s}")
        tracker = self.tracker
        if tracker.last_slot_time is None or not tracker.has_contact_history:
            return self.max_service_time_s
        if tracker.last_slot_capacity_bps > 0.0:
            # Connected at the most recent slot: service time is the
            # transmission time at that capacity plus the residual wait.
            service = self.transmission_time(tracker.last_slot_capacity_bps) + wait_s
        else:
            # Disconnected: fall back to the capacity seen at the end of the
            # last contact and add the time elapsed since then.
            elapsed = max(now - float(tracker.last_contact_time), 0.0)
            service = (
                self.transmission_time(tracker.last_contact_capacity_bps) + elapsed + wait_s
            )
        return min(service, self.max_service_time_s)

    # ------------------------------------------------------------------ #
    # Slot updates / smoothed metric
    # ------------------------------------------------------------------ #
    def observe_slot(self, now: float, capacity_bps: float, wait_s: float = 0.0) -> float:
        """Record a communication-slot observation and fold the RPST sample into the EWMA.

        Returns the RPST sample computed *after* the observation, i.e. the
        value the device would advertise in the packet it sends at this slot.
        """
        self.tracker.observe(now, capacity_bps)
        sample = self.rpst(now, wait_s)
        self._ewma.update(sample)
        return sample

    @property
    def expected(self) -> float:
        """The smoothed node-to-sink service time E[µ'_{x,S}] — RCA-ETX_{x,S}."""
        value = self._ewma.value
        if value is None:
            return self.max_service_time_s
        return float(value)

    @property
    def sample_count(self) -> int:
        """Number of slot observations folded into the EWMA."""
        return self._ewma.sample_count

    def reset(self) -> None:
        """Forget all contact history and smoothing state."""
        self.tracker = SinkContactTracker()
        self._ewma.reset()
