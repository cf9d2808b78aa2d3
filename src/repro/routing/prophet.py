"""PRoPHET-style delivery-predictability forwarding (Lindgren et al.).

PRoPHET (Probabilistic Routing Protocol using History of Encounters and
Transitivity) maintains, per node, a delivery predictability for each
destination, grown on encounters and aged between them.  This simulation has
a single logical destination — the gateway/sink set — so the scheme keeps one
predictability ``P_x ∈ [0, 1)`` per device:

* **Direct update** — whenever device ``x`` takes a transmission slot with a
  gateway in range: ``P_x ← P_x + (1 − P_x) · p_init``.
* **Aging** — before any use: ``P_x ← P_x · γ^Δt`` with ``Δt`` the seconds
  since the last update (γ is a per-second base, close to 1).
* **Transitive update** — when ``x`` overhears ``y``'s uplink, ``x`` learns
  it can route via ``y``: ``P_x ← max(P_x, P_y · β)``.

Forwarding rule: on overhearing ``y``, device ``x`` replicates queued
messages onto ``y`` when ``P_y > P_x`` — the carrier more likely to meet a
gateway gets a copy, like the DTN baselines (the sender keeps its own
copies; the network server deduplicates).

The predictability table lives on the scheme object (one fresh instance per
built scenario), keyed by device id — the simulation shortcut for state that
firmware would keep per device, same as the spray-and-wait ticket attribute.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.mac.device import EndDevice
from repro.mac.frames import UplinkPacket
from repro.phy.link import LinkCapacityModel
from repro.routing.base import NO_DECISION, ForwardingDecision, ForwardingScheme


class ProphetScheme(ForwardingScheme):
    """Replicate to neighbours with higher sink delivery predictability."""

    name = "prophet"
    requires_queue_length = False
    uses_forwarding = True

    def __init__(
        self,
        p_init: float = 0.75,
        beta: float = 0.25,
        gamma: float = 0.998,
        max_handover_messages: int = 12,
    ) -> None:
        if not 0 < p_init <= 1:
            raise ValueError("p_init must be in (0, 1]")
        if not 0 <= beta <= 1:
            raise ValueError("beta must be in [0, 1]")
        if not 0 < gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        if max_handover_messages <= 0:
            raise ValueError("max_handover_messages must be positive")
        self.p_init = p_init
        self.beta = beta
        self.gamma = gamma
        self.max_handover_messages = max_handover_messages
        self._predictability: Dict[str, float] = {}
        self._last_update: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Predictability table
    # ------------------------------------------------------------------ #
    def predictability(self, device_id: str, now: float) -> float:
        """The aged delivery predictability of ``device_id`` at ``now``."""
        value = self._predictability.get(device_id, 0.0)
        last = self._last_update.get(device_id)
        if last is not None and now > last and value > 0.0:
            value *= self.gamma ** (now - last)
            self._predictability[device_id] = value
        self._last_update[device_id] = max(now, last if last is not None else now)
        return value

    def _set(self, device_id: str, value: float, now: float) -> None:
        self._predictability[device_id] = value
        self._last_update[device_id] = now

    def observe_transmission_slot(
        self, device_id: str, gateway_connected: bool, now: float
    ) -> None:
        """Direct update on gateway contact; pure aging otherwise."""
        current = self.predictability(device_id, now)
        if gateway_connected:
            self._set(device_id, current + (1.0 - current) * self.p_init, now)

    # ------------------------------------------------------------------ #
    # Forwarding decision
    # ------------------------------------------------------------------ #
    def on_overhear_batch(
        self,
        packet: UplinkPacket,
        receivers: Sequence[EndDevice],
        rssi_dbm: Sequence[float],
        capacity_model: LinkCapacityModel,
        now: float,
    ) -> List[ForwardingDecision]:
        """Transitive update, then replicate when ``P_y > P_x``, per receiver.

        Receivers are processed in order, so a batch applies the same table
        updates in the same order as one-receiver batches would: the sender
        is aged at the first receiver (later re-agings run at ``Δt = 0``, a
        no-op), then each receiver gets its transitive update.
        """
        predictability = self.predictability
        beta = self.beta
        max_handover = self.max_handover_messages
        decisions: List[ForwardingDecision] = []
        append = decisions.append
        for receiver in receivers:
            sender_pred = predictability(packet.sender, now)
            receiver_id = receiver.device_id
            receiver_pred = predictability(receiver_id, now)
            transitive = sender_pred * beta
            if transitive > receiver_pred:
                self._predictability[receiver_id] = transitive
                self._last_update[receiver_id] = now
            queued = len(receiver.queue)
            if not queued or sender_pred <= receiver_pred:
                append(NO_DECISION)
                continue
            append(
                ForwardingDecision(
                    forward=True,
                    message_limit=min(max_handover, queued),
                    copy=True,
                )
            )
        return decisions
