"""NoRouting: plain LoRaWAN with an application-layer queue (Sec. VII-A7).

Devices keep unacknowledged messages in their queue and retry at their own
transmission opportunities, but never hand data to other devices.  This is
the baseline every figure compares against.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.mac.device import EndDevice
from repro.mac.frames import UplinkPacket
from repro.phy.link import LinkCapacityModel
from repro.routing.base import NO_DECISION, ForwardingDecision, ForwardingScheme


class NoRoutingScheme(ForwardingScheme):
    """Never forwards: the overheard packet is simply ignored."""

    name = "no-routing"
    requires_queue_length = False
    uses_forwarding = False

    def on_overhear_batch(
        self,
        packet: UplinkPacket,
        receivers: Sequence[EndDevice],
        rssi_dbm: Sequence[float],
        capacity_model: LinkCapacityModel,
        now: float,
    ) -> List[ForwardingDecision]:
        return [NO_DECISION] * len(receivers)
