"""The LoRaWAN network server.

All gateways forward the frames they decode to a single central server over
Ethernet (Sec. VII-A4).  The server deduplicates messages (a frame may be
heard by several gateways, and a message may be retransmitted or arrive via a
different carrier after a handover), records delivery metadata used by the
evaluation metrics and issues acknowledgements naming the message ids it
accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.mac.frames import Acknowledgement, UplinkPacket


@dataclass(frozen=True)
class DeliveryRecord:
    """Everything the metrics need about one delivered message."""

    message_id: int
    source: str
    carrier: str
    gateway_id: str
    created_at: float
    delivered_at: float
    hops: int

    @property
    def end_to_end_delay(self) -> float:
        """The paper's δt(x) = t_g(x) − t_d(x)."""
        return self.delivered_at - self.created_at

    @property
    def delivery_hop_count(self) -> int:
        """Hop count in Fig. 12's convention (direct delivery counts as 1)."""
        return self.hops + 1


class NetworkServer:
    """Collects uplinks from every gateway, deduplicates and acknowledges."""

    def __init__(self) -> None:
        self._deliveries: Dict[int, DeliveryRecord] = {}
        self.duplicate_messages = 0
        self.frames_processed = 0

    def process_uplink(
        self, packet: UplinkPacket, gateway_id: str, now: float
    ) -> Acknowledgement:
        """Register a decoded uplink frame and return the acknowledgement.

        Every message id in the frame is acknowledged — including duplicates —
        because the sending device needs to clear its queue either way; only
        first deliveries count towards throughput.
        """
        if now < 0:
            raise ValueError("now must be non-negative")
        self.frames_processed += 1
        acked: List[int] = []
        for message in packet.messages:
            acked.append(message.message_id)
            if message.message_id in self._deliveries:
                self.duplicate_messages += 1
                continue
            self._deliveries[message.message_id] = DeliveryRecord(
                message_id=message.message_id,
                source=message.source,
                carrier=packet.sender,
                gateway_id=gateway_id,
                created_at=message.created_at,
                delivered_at=now,
                hops=message.hops,
            )
        return Acknowledgement(
            gateway_id=gateway_id,
            device_id=packet.sender,
            acked_message_ids=tuple(acked),
            sent_at=now,
        )

    # ------------------------------------------------------------------ #
    # Metrics access
    # ------------------------------------------------------------------ #
    @property
    def delivered_count(self) -> int:
        """Number of distinct messages delivered."""
        return len(self._deliveries)

    @property
    def deliveries(self) -> List[DeliveryRecord]:
        """All delivery records (unordered)."""
        return list(self._deliveries.values())

    def is_delivered(self, message_id: int) -> bool:
        """True when the message has reached the server."""
        return message_id in self._deliveries

    def delivery(self, message_id: int) -> Optional[DeliveryRecord]:
        """The delivery record for ``message_id`` (None if not delivered)."""
        return self._deliveries.get(message_id)

    def delays(self) -> List[float]:
        """End-to-end delays of all delivered messages."""
        return [record.end_to_end_delay for record in self._deliveries.values()]

    def hop_counts(self) -> List[int]:
        """Delivery hop counts of all delivered messages."""
        return [record.delivery_hop_count for record in self._deliveries.values()]
