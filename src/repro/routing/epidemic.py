"""Epidemic routing (Vahdat & Becker), a classic DTN baseline.

Every overhearing opportunity is used to *replicate* queued messages onto the
transmitter, regardless of metrics.  Delivery delay is near-optimal but the
message overhead is unbounded, which is precisely the cost RCA-ETX/ROBC try to
avoid; the scheme is included as an extension so users can quantify that
trade-off in the same harness.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.mac.device import EndDevice
from repro.mac.frames import UplinkPacket
from repro.phy.link import LinkCapacityModel
from repro.routing.base import NO_DECISION, ForwardingDecision, ForwardingScheme


class EpidemicScheme(ForwardingScheme):
    """Replicate everything to everyone heard."""

    name = "epidemic"
    requires_queue_length = False
    uses_forwarding = True

    def __init__(self, max_handover_messages: int = 12) -> None:
        if max_handover_messages <= 0:
            raise ValueError("max_handover_messages must be positive")
        self.max_handover_messages = max_handover_messages

    def on_overhear_batch(
        self,
        packet: UplinkPacket,
        receivers: Sequence[EndDevice],
        rssi_dbm: Sequence[float],
        capacity_model: LinkCapacityModel,
        now: float,
    ) -> List[ForwardingDecision]:
        """Replicate up to ``max_handover_messages`` queued messages onto the
        sender; a decision reads only its receiver's queue length."""
        max_handover = self.max_handover_messages
        decisions: List[ForwardingDecision] = []
        append = decisions.append
        for receiver in receivers:
            queued = len(receiver.queue)
            if queued:
                append(
                    ForwardingDecision(
                        forward=True,
                        message_limit=queued if queued < max_handover else max_handover,
                        copy=True,
                    )
                )
            else:
                append(NO_DECISION)
        return decisions
