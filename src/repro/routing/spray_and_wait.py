"""Binary Spray-and-Wait (Spyropoulos et al.), a bounded-replication DTN baseline.

Each message starts with ``initial_copies`` logical copy tickets.  During the
*spray* phase a carrier with more than one ticket hands half of them to any
device it overhears; once a carrier is down to a single ticket it enters the
*wait* phase and only delivers directly to a gateway.  Replication overhead is
therefore bounded by ``initial_copies`` per message.

Ticket bookkeeping rides on :class:`~repro.mac.frames.DataMessage` via an
attribute set lazily by this scheme, so the core frame format stays free of
baseline-specific fields.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.mac.device import EndDevice
from repro.mac.frames import DataMessage, UplinkPacket
from repro.phy.link import LinkCapacityModel
from repro.routing.base import NO_DECISION, ForwardingDecision, ForwardingScheme

_TICKET_ATTRIBUTE = "spray_tickets"


def get_tickets(message: DataMessage, initial_copies: int) -> int:
    """Current spray tickets of ``message`` (initialised lazily)."""
    tickets = getattr(message, _TICKET_ATTRIBUTE, None)
    if tickets is None:
        tickets = initial_copies
        setattr(message, _TICKET_ATTRIBUTE, tickets)
    return tickets


def set_tickets(message: DataMessage, tickets: int) -> None:
    """Set the remaining spray tickets of ``message``."""
    if tickets < 1:
        raise ValueError("a carried message always retains at least one ticket")
    setattr(message, _TICKET_ATTRIBUTE, tickets)


class SprayAndWaitScheme(ForwardingScheme):
    """Binary spray-and-wait with per-message ticket halving."""

    name = "spray-and-wait"
    requires_queue_length = False
    uses_forwarding = True

    def __init__(self, initial_copies: int = 4, max_handover_messages: int = 12) -> None:
        if initial_copies < 1:
            raise ValueError("initial_copies must be at least 1")
        if max_handover_messages <= 0:
            raise ValueError("max_handover_messages must be positive")
        self.initial_copies = initial_copies
        self.max_handover_messages = max_handover_messages

    def split_tickets(self, message: DataMessage) -> int:
        """Halve the tickets of ``message``; returns the tickets given to the copy."""
        tickets = get_tickets(message, self.initial_copies)
        if tickets <= 1:
            return 0
        given = tickets // 2
        set_tickets(message, tickets - given)
        return given

    def hand_over_copies(
        self, giver: EndDevice, taker: EndDevice, limit: int, now: float
    ) -> Tuple[List[DataMessage], int]:
        """Binary spray: copy the first ``limit`` eligible messages that hold
        more than one ticket, each copy taking half its message's tickets.

        A message down to one ticket is in its wait phase and is not copied.
        The carrier keeps the tickets of a copy the taker does not store (it
        already holds that message, or its queue is full).
        """
        copies: List[DataMessage] = []
        accepted = 0
        # Every eligible message is a candidate: wait-phase messages ahead
        # in the queue must not use up the limit.
        for message in giver.transferable_messages(taker.device_id, len(giver.queue), now=now):
            given = self.split_tickets(message)
            if not given:
                continue
            copy = replace(message)
            set_tickets(copy, given)
            copies.append(copy)
            if taker.accept_handover((copy,), giver.device_id, now=now):
                accepted += 1
            else:
                set_tickets(message, get_tickets(message, self.initial_copies) + given)
            if len(copies) >= limit:
                break
        return copies, accepted

    def on_overhear_batch(
        self,
        packet: UplinkPacket,
        receivers: Sequence[EndDevice],
        rssi_dbm: Sequence[float],
        capacity_model: LinkCapacityModel,
        now: float,
    ) -> List[ForwardingDecision]:
        """Spray while the receiver holds messages with more than one ticket.

        Each decision reads (and lazily initialises) tickets only on its
        receiver's own queued messages.  Tickets are split later, when the
        handover copies the messages (:meth:`hand_over_copies`).
        """
        initial = self.initial_copies
        max_handover = self.max_handover_messages
        decisions: List[ForwardingDecision] = []
        append = decisions.append
        for receiver in receivers:
            sprayable = 0
            for message in receiver.queue.peek_all():
                tickets = getattr(message, _TICKET_ATTRIBUTE, None)
                if tickets is None:
                    tickets = initial
                    setattr(message, _TICKET_ATTRIBUTE, tickets)
                if tickets > 1:
                    sprayable += 1
            if sprayable <= 0:
                append(NO_DECISION)
            else:
                append(
                    ForwardingDecision(
                        forward=True,
                        message_limit=min(sprayable, max_handover),
                        copy=True,
                    )
                )
        return decisions
