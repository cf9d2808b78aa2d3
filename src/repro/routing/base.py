"""The forwarding-scheme interface.

A scheme sees exactly what a real device would see: its own MAC state (queue,
RCA-ETX estimator) and the overheard packet with whatever metric fields the
transmitter piggybacked.  It returns a :class:`ForwardingDecision`, and the
simulation engine is responsible for checking whether the handover is
physically possible (duty cycle, link still up) and for moving the messages.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from repro.mac.device import EndDevice
from repro.mac.frames import DataMessage, UplinkPacket
from repro.phy.link import LinkCapacityModel


@dataclass(frozen=True)
class ForwardingDecision:
    """What a scheme wants to do after overhearing a neighbour's uplink.

    ``message_limit`` is the maximum number of messages to hand over;
    ``copy`` requests replication (the sender keeps its copies) instead of a
    move, which only the DTN baselines use.
    """

    forward: bool
    message_limit: int = 0
    copy: bool = False

    def __post_init__(self) -> None:
        if self.forward and self.message_limit <= 0:
            raise ValueError("a positive message_limit is required when forwarding")
        if self.message_limit < 0:
            raise ValueError("message_limit must be non-negative")

    @staticmethod
    def no() -> "ForwardingDecision":
        """The 'keep everything' decision."""
        return NO_DECISION


#: The shared 'keep everything' decision.  ForwardingDecision is frozen, so
#: one instance can serve every negative verdict — the overhear hot path
#: produces millions of them per large run.
NO_DECISION = ForwardingDecision(forward=False, message_limit=0)


class ForwardingScheme(ABC):
    """Strategy consulted by the engine on every overheard uplink."""

    #: Registry name; subclasses override.
    name: str = "base"

    #: Whether devices should piggyback their queue length on uplinks.
    requires_queue_length: bool = False

    #: Whether the scheme uses device-to-device forwarding at all (NoRouting
    #: disables overhearing work entirely, saving simulation time).
    uses_forwarding: bool = True

    @abstractmethod
    def on_overhear_batch(
        self,
        packet: UplinkPacket,
        receivers: Sequence[EndDevice],
        rssi_dbm: Sequence[float],
        capacity_model: LinkCapacityModel,
        now: float,
    ) -> List[ForwardingDecision]:
        """Decide every overhearer of one transmission at once.

        ``receivers[k]`` overheard ``packet`` at RSSI ``rssi_dbm[k]``; the
        transmitter-side ``capacity_model`` and the completion time ``now``
        are shared by the whole batch.  A receiver appears at most once, and
        the result holds one decision per receiver, in receiver order.

        Contract: a transmission's verdicts must not depend on that
        transmission's own handovers.  The object engine calls this hook with
        one receiver at a time and runs each receiver's handover before
        deciding the next; the array engine decides the whole batch first and
        then runs the handovers in receiver order.  Both give the same result
        when a decision reads only the packet snapshot, its own receiver's
        state and scheme state that handovers do not touch, and consumes no
        randomness.  A batch of N must also leave the same decisions and
        scheme state as N one-receiver batches in the same order.
        """

    def on_overhear(
        self,
        receiver: EndDevice,
        packet: UplinkPacket,
        link_rssi_dbm: float,
        capacity_model: LinkCapacityModel,
        now: float,
    ) -> ForwardingDecision:
        """Decide one receiver: a batch of one."""
        return self.on_overhear_batch(
            packet, [receiver], [link_rssi_dbm], capacity_model, now
        )[0]

    def hand_over_copies(
        self, giver: EndDevice, taker: EndDevice, limit: int, now: float
    ) -> Tuple[List[DataMessage], int]:
        """A replicating handover (``decision.copy``): ``giver`` keeps its
        messages and ``taker`` is offered copies of up to ``limit`` of them.

        Returns the copies the handover frame carries and how many of them
        ``taker`` stored.  The default copies the first ``limit`` eligible
        messages; a scheme that meters replication may pick others and
        update the carrier's messages by what the taker stored.
        """
        copies = [
            replace(message)
            for message in giver.transferable_messages(taker.device_id, limit, now=now)
        ]
        return copies, taker.accept_handover(copies, giver.device_id, now=now)

    def observe_transmission_slot(
        self, device_id: str, gateway_connected: bool, now: float
    ) -> None:
        """Optional hook: a device took a transmission slot at ``now``.

        Called by the engine at every uplink transmission, mirroring the
        RCA-ETX observation point: ``gateway_connected`` is whether any
        gateway was in range at the slot.  Stateful schemes (PRoPHET's
        delivery predictabilities) update per-device state here; the default
        is a no-op, so stateless schemes are unaffected.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
