"""ROBC: Real-time Opportunistic Backpressure Collection (Sec. V).

On overhearing ``y``'s uplink (which carries both ``RCA-ETX_{y,S}`` and
``Q_y``), device ``x`` computes the backpressure weight
``ω = Q_x/ϕ_x − Q_y/ϕ_y`` and, if positive, hands over
``δ = Q_x − Q_y · ϕ_x/ϕ_y`` messages.  The scheme additionally requires the
device-to-device link to be usable (non-zero capacity from the overheard
RSSI), which in practice is guaranteed by the fact the frame was overheard at
all but is kept explicit for unit-level robustness.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.core.rgq import RealTimeGatewayQuality
from repro.mac.device import EndDevice
from repro.mac.frames import UplinkPacket
from repro.phy.link import LinkCapacityModel
from repro.routing.base import NO_DECISION, ForwardingDecision, ForwardingScheme


class ROBCScheme(ForwardingScheme):
    """Queue-differential (backpressure) forwarding with ϕ-corrected backlogs."""

    name = "robc"
    requires_queue_length = True
    uses_forwarding = True

    def __init__(
        self,
        rgq: RealTimeGatewayQuality = RealTimeGatewayQuality(),
        max_handover_messages: int = 12,
    ) -> None:
        if max_handover_messages <= 0:
            raise ValueError("max_handover_messages must be positive")
        self.rgq = rgq
        self.max_handover_messages = max_handover_messages

    def on_overhear_batch(
        self,
        packet: UplinkPacket,
        receivers: Sequence[EndDevice],
        rssi_dbm: Sequence[float],
        capacity_model: LinkCapacityModel,
        now: float,
    ) -> List[ForwardingDecision]:
        """ROBC's handover rule (Eq. 10) for every overhearer of ``packet``.

        The sender's ϕ and backlog pressure ``Q_y/ϕ_y`` are computed once per
        batch.  Each receiver's ϕ, weight and δ follow the operation order of
        :func:`~repro.core.robc.robc_transfer_amount`, the paper reference
        the tests pin these verdicts against.  A decision reads only its
        receiver's queue and estimator and the packet snapshot.
        """
        neighbour_metric = packet.rca_etx_s
        neighbour_queue = packet.queue_length
        if neighbour_metric is None or neighbour_queue is None:
            return [NO_DECISION] * len(receivers)
        phi_min = self.rgq.phi_min
        phi_max = self.rgq.phi_max
        phi_neighbour = (
            phi_max
            if neighbour_metric == 0
            else min(max(1.0 / neighbour_metric, phi_min), phi_max)
        )
        neighbour_q = float(neighbour_queue)
        neighbour_pressure = neighbour_q / phi_neighbour
        max_handover = self.max_handover_messages
        is_connected = capacity_model.is_connected
        floor = math.floor
        decisions: List[ForwardingDecision] = []
        append = decisions.append
        for receiver, rssi in zip(receivers, rssi_dbm):
            own_queue = len(receiver.queue)
            if not own_queue:
                append(NO_DECISION)
                continue
            if not is_connected(rssi):
                append(NO_DECISION)
                continue
            own_metric = receiver.rca_etx.sink_metric()
            phi_own = (
                phi_max
                if own_metric == 0
                else min(max(1.0 / own_metric, phi_min), phi_max)
            )
            own_q = float(own_queue)
            if own_q / phi_own - neighbour_pressure <= 0:
                append(NO_DECISION)
                continue
            delta = own_q - neighbour_q * (phi_own / phi_neighbour)
            messages = int(floor(min(max(delta, 0.0), own_q)))
            if messages <= 0:
                append(NO_DECISION)
                continue
            limit = min(messages, max_handover, own_queue)
            if limit <= 0:
                append(NO_DECISION)
                continue
            append(ForwardingDecision(forward=True, message_limit=limit))
        return decisions
