"""The LoRaWAN end-device MAC state.

An :class:`EndDevice` owns everything a single bus-mounted LoRa device needs:
its FIFO data queue, the duty-cycle regulator, the RCA-ETX estimator state,
retransmission bookkeeping, the device class (listening policy) and an energy
model.  It is deliberately *passive*: the simulation engine decides when
messages are generated, when uplinks happen and what the radio environment
does; the device only keeps protocol state consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.config_fields import normalize_numbers
from repro.core.rca_etx import RCAETXState
from repro.mac.device_classes import DeviceClass, ModifiedClassC
from repro.mac.duty_cycle import DutyCycleRegulator
from repro.mac.frames import (
    DEFAULT_MAX_MESSAGES_PER_PACKET,
    DEFAULT_MESSAGE_SIZE_BYTES,
    DataMessage,
    UplinkPacket,
    bundle_messages,
)
from repro.mac.queueing import BufferPolicy, DataQueue
from repro.phy.constants import SpreadingFactor
from repro.phy.energy import EnergyModel, RadioState


@dataclass(frozen=True)
class DeviceConfig:
    """Per-device protocol parameters (paper defaults from Sec. VII-A)."""

    message_interval_s: float = 180.0
    message_size_bytes: int = DEFAULT_MESSAGE_SIZE_BYTES
    max_messages_per_packet: int = DEFAULT_MAX_MESSAGES_PER_PACKET
    max_retransmissions: int = 8
    max_queue_size: int = 64
    duty_cycle: float = 0.01
    ewma_alpha: float = 0.5

    def __post_init__(self) -> None:
        normalize_numbers(self)
        if self.message_interval_s <= 0:
            raise ValueError("message_interval_s must be positive")
        if self.message_size_bytes <= 0:
            raise ValueError("message_size_bytes must be positive")
        if self.max_messages_per_packet <= 0:
            raise ValueError("max_messages_per_packet must be positive")
        if self.max_retransmissions < 0:
            raise ValueError("max_retransmissions must be non-negative")
        if self.max_queue_size <= 0:
            raise ValueError("max_queue_size must be positive")
        if not 0 < self.duty_cycle <= 1:
            raise ValueError("duty_cycle must be in (0, 1]")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")


@dataclass
class DeviceStats:
    """Counters reported per device at the end of a run."""

    messages_generated: int = 0
    uplink_transmissions: int = 0
    handover_transmissions: int = 0
    retransmissions: int = 0
    messages_acked: int = 0
    messages_handed_over: int = 0
    messages_received_from_peers: int = 0

    @property
    def total_transmissions(self) -> int:
        """All frames sent (uplinks + device-to-device handovers)."""
        return self.uplink_transmissions + self.handover_transmissions


class EndDevice:
    """MAC/protocol state of one LoRa end-device."""

    def __init__(
        self,
        device_id: str,
        config: DeviceConfig = DeviceConfig(),
        device_class: Optional[DeviceClass] = None,
        packet_bits: Optional[float] = None,
        spreading_factor: SpreadingFactor = SpreadingFactor.SF7,
        channel: int = 0,
        queue_policy: Optional[BufferPolicy] = None,
        queue_capacity: Optional[int] = None,
    ) -> None:
        if not device_id:
            raise ValueError("device_id must be a non-empty string")
        if channel < 0:
            raise ValueError(f"channel must be non-negative, got {channel}")
        self.device_id = device_id
        self.config = config
        self.device_class = device_class or ModifiedClassC()
        #: The radio assignment this device transmits with (fixed at
        #: commissioning time, like real sensor firmware).
        self.spreading_factor = spreading_factor
        self.channel = channel
        # The buffer: capacity defaults to the device config's queue size;
        # ``queue_capacity``/``queue_policy`` carry the scenario's routing
        # buffer section when it overrides those defaults.
        self.queue = DataQueue(
            max_size=queue_capacity if queue_capacity is not None else config.max_queue_size,
            policy=queue_policy,
        )
        self.duty_cycle = DutyCycleRegulator(config.duty_cycle)
        typical_payload_bits = 8.0 * (
            config.message_size_bytes * config.max_messages_per_packet + 13
        )
        self.rca_etx = RCAETXState(
            alpha=config.ewma_alpha,
            packet_bits=packet_bits if packet_bits is not None else typical_payload_bits,
        )
        self.energy = EnergyModel()
        self.stats = DeviceStats()
        self.retransmission_count = 0
        self.last_uplink_end: float = -1.0

    # ------------------------------------------------------------------ #
    # Data generation and queue management
    # ------------------------------------------------------------------ #
    def generate_message(self, now: float) -> DataMessage:
        """Create a new application message, enqueue it and reset retransmissions.

        The evaluation resets the retransmission counter whenever a new packet
        is generated (Sec. VII-A5), which this method mirrors.
        """
        message = DataMessage(
            source=self.device_id,
            created_at=now,
            size_bytes=self.config.message_size_bytes,
            spreading_factor=self.spreading_factor,
            channel=self.channel,
        )
        self.queue.push(message, now=now)
        self.stats.messages_generated += 1
        self.retransmission_count = 0
        return message

    def queue_length(self) -> int:
        """Number of messages currently buffered."""
        return len(self.queue)

    def has_data(self) -> bool:
        """True when there is something to send."""
        return len(self.queue) > 0

    # ------------------------------------------------------------------ #
    # Uplink construction and outcomes
    # ------------------------------------------------------------------ #
    def can_transmit(self, now: float) -> bool:
        """True when the duty cycle allows a transmission on this device's channel."""
        return self.duty_cycle.can_transmit(now, self.channel)

    @property
    def next_transmission_time(self) -> float:
        """Earliest time the duty cycle allows this device's next transmission."""
        return self.duty_cycle.next_allowed_time_on(self.channel)

    def build_uplink(self, now: float, include_queue_length: bool) -> UplinkPacket:
        """Bundle queued messages into an uplink with piggybacked metrics.

        The messages stay in the queue until a gateway acknowledges them
        (at-least-once delivery); ``include_queue_length`` adds the ROBC field.
        """
        queue = self.queue
        if not len(queue):
            raise ValueError(f"device {self.device_id} has no data to send")
        limit = self.config.max_messages_per_packet
        messages = bundle_messages(queue.peek(limit, now=now), limit)
        return UplinkPacket(
            sender=self.device_id,
            sent_at=now,
            messages=tuple(messages),
            rca_etx_s=self.rca_etx.sink_metric(),
            queue_length=len(queue) if include_queue_length else None,
            spreading_factor=self.spreading_factor,
            channel=self.channel,
        )

    def record_uplink(self, now: float, airtime_s: float) -> None:
        """Account duty cycle, energy and statistics for an uplink transmission."""
        self.duty_cycle.record_transmission(now, airtime_s, self.channel)
        self.energy.accumulate(RadioState.TX, airtime_s)
        self.stats.uplink_transmissions += 1
        self.last_uplink_end = now + airtime_s

    def record_handover_transmission(self, now: float, airtime_s: float) -> None:
        """Account for a device-to-device handover frame this device sent."""
        self.duty_cycle.record_transmission(now, airtime_s, self.channel)
        self.energy.accumulate(RadioState.TX, airtime_s)
        self.stats.handover_transmissions += 1
        self.last_uplink_end = now + airtime_s

    def on_acknowledged(self, message_ids: Iterable[int]) -> List[DataMessage]:
        """Remove acknowledged messages from the queue and reset retransmissions."""
        removed = self.queue.remove(message_ids)
        if removed:
            self.stats.messages_acked += len(removed)
            self.retransmission_count = 0
        return removed

    def on_uplink_failed(self) -> bool:
        """Record a failed uplink; returns True when another retry is allowed."""
        self.retransmission_count += 1
        self.stats.retransmissions += 1
        return self.retransmission_count <= self.config.max_retransmissions

    # ------------------------------------------------------------------ #
    # Device-to-device handovers
    # ------------------------------------------------------------------ #
    def transferable_messages(
        self, destination: str, limit: int, now: Optional[float] = None
    ) -> List[DataMessage]:
        """Messages eligible for handover to ``destination`` (loop guard applied).

        Messages that were themselves received *from* ``destination`` are
        excluded so data never ping-pongs between two devices (Sec. V-B2).
        Selection follows the buffer policy's service order (FIFO by default);
        ``now`` lets TTL policies expire stale messages before selection.
        """
        if limit <= 0:
            return []
        eligible: List[DataMessage] = []
        for message in self.queue.peek_all(now=now):
            if message.received_from == destination:
                continue
            eligible.append(message)
            if len(eligible) >= limit:
                break
        return eligible

    def release_messages(self, message_ids: Iterable[int]) -> List[DataMessage]:
        """Remove handed-over messages from the local queue."""
        removed = self.queue.remove(message_ids)
        self.stats.messages_handed_over += len(removed)
        return removed

    def accept_handover(
        self, messages: Iterable[DataMessage], sender: str, now: Optional[float] = None
    ) -> int:
        """Accept messages handed over by ``sender``; returns how many were stored."""
        accepted = 0
        for message in messages:
            message.handover(self.device_id)
            if self.queue.push(message, now=now):
                accepted += 1
        self.stats.messages_received_from_peers += accepted
        return accepted

    # ------------------------------------------------------------------ #
    # Listening / energy
    # ------------------------------------------------------------------ #
    def is_listening(self, now: float) -> bool:
        """True when the receiver is open and could overhear a neighbour frame."""
        overhears = getattr(self.device_class, "overhears_devices", False)
        if not overhears:
            return False
        return self.device_class.is_listening(
            now,
            self.last_uplink_end,
            self.queue_length(),
            self.config.max_queue_size,
            self.rca_etx.sink_metric(),
        )

    def listening_fraction(self) -> float:
        """Current fraction of idle time spent in RX (energy accounting)."""
        return self.device_class.listening_fraction(
            self.queue_length(),
            self.config.max_queue_size,
            self.rca_etx.sink_metric(),
        )

    def account_idle_period(self, duration_s: float) -> None:
        """Split an idle period between RX and sleep according to the listening fraction."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        fraction = self.listening_fraction()
        self.energy.accumulate(RadioState.RX, duration_s * fraction)
        self.energy.accumulate(RadioState.SLEEP, duration_s * (1.0 - fraction))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EndDevice({self.device_id!r}, queue={self.queue_length()}, "
            f"class={self.device_class.name})"
        )
