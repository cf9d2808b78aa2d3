"""The greedy RCA-ETX forwarding scheme (Sec. IV).

When device ``x`` overhears device ``y``'s uplink carrying ``RCA-ETX_{y,S}``,
it computes the link metric from the frame's RSSI (Eqs. 5–6) and applies the
handover rule of Eq. (1): forward its queued data to ``y`` whenever routing
through ``y`` is expected to be strictly cheaper than waiting for its own
gateway contact.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.mac.device import EndDevice
from repro.mac.frames import UplinkPacket
from repro.phy.link import LinkCapacityModel
from repro.routing.base import NO_DECISION, ForwardingDecision, ForwardingScheme


class RCAETXScheme(ForwardingScheme):
    """Greedy minimum-expected-delay handover using RCA-ETX."""

    name = "rca-etx"
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
        """Eq. (1) for every overhearer of ``packet``; a decision reads only
        its receiver's queue and estimator and the packet snapshot."""
        neighbour_metric = packet.rca_etx_s
        if neighbour_metric is None:
            return [NO_DECISION] * len(receivers)
        max_handover = self.max_handover_messages
        decisions: List[ForwardingDecision] = []
        for receiver, rssi in zip(receivers, rssi_dbm):
            queued = len(receiver.queue)
            if queued and receiver.rca_etx.should_forward_to(
                neighbour_sink_metric=neighbour_metric,
                rssi_dbm=rssi,
                capacity_model=capacity_model,
            ):
                decisions.append(
                    ForwardingDecision(
                        forward=True, message_limit=min(max_handover, queued)
                    )
                )
            else:
                decisions.append(NO_DECISION)
        return decisions
