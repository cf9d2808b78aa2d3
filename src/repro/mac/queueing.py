"""The application-layer data queue each device maintains (Sec. VII-A4).

Messages stay in the queue until a gateway acknowledges them or they are
handed over to another device.  What happens when the buffer fills — and in
which order messages are served for uplinks and handovers — is a
:class:`BufferPolicy` strategy, a standard DTN evaluation axis (cf. the
queueing-policy studies around epidemic/spray-and-wait/PRoPHET):

* :class:`DropNewPolicy` (``drop-new``) — tail drop: a push into a full
  queue rejects the *new* message.  The default, bit-identical to the
  pre-policy FIFO queue (new data is lost, the conservative choice for a
  telemetry workload).
* :class:`DropOldestPolicy` (``drop-oldest``) — head drop: a full queue
  evicts its head (earliest arrival) to admit the new message.
* :class:`TTLExpiryPolicy` (``ttl-expiry``) — tail drop plus lazy expiry of
  messages older than ``ttl_s`` whenever the queue is touched with a
  current time.
* :class:`PriorityAgePolicy` (``priority-age``) — serves the oldest-created
  messages first (after handovers, arrival order no longer matches creation
  order) and, when full, evicts the oldest-created message.

Duplicate message ids are always refused (``rejected_duplicate``); capacity
losses and TTL expiries are counted separately (``dropped_full``,
``expired_ttl``) so buffer sweeps can tell loss from deduplication.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from itertools import islice
from typing import Iterable, List, Optional

from repro.mac.frames import DataMessage


class BufferPolicy(ABC):
    """Strategy consulted by :class:`DataQueue` on push and on selection."""

    #: Registry name; subclasses override.
    name: str = "base"

    #: True when selection order is plain FIFO (arrival order) — lets the
    #: queue keep the allocation-free fast path of the original FIFO queue.
    fifo_order: bool = True

    @abstractmethod
    def make_room(self, messages: "OrderedDict[int, DataMessage]") -> bool:
        """Evict one message from a full queue to admit a new one.

        Returns True when a slot was freed (the eviction is counted as a
        capacity drop by the queue); False rejects the incoming message.
        """

    def expire(
        self, messages: "OrderedDict[int, DataMessage]", now: Optional[float]
    ) -> int:
        """Remove expired messages given the current time; returns the count."""
        del messages, now
        return 0

    def selection_order(
        self, messages: "OrderedDict[int, DataMessage]"
    ) -> List[DataMessage]:
        """Messages in the order they should be served (non-FIFO policies)."""
        return list(messages.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class DropNewPolicy(BufferPolicy):
    """Tail drop: reject the incoming message when full (the default)."""

    name = "drop-new"

    def make_room(self, messages: "OrderedDict[int, DataMessage]") -> bool:
        del messages
        return False


class DropOldestPolicy(BufferPolicy):
    """Head drop: evict the earliest-arrived message to admit the new one."""

    name = "drop-oldest"

    def make_room(self, messages: "OrderedDict[int, DataMessage]") -> bool:
        if not messages:
            return False
        messages.popitem(last=False)
        return True


class TTLExpiryPolicy(BufferPolicy):
    """Tail drop plus lazy expiry of messages older than ``ttl_s``."""

    name = "ttl-expiry"

    def __init__(self, ttl_s: float) -> None:
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.ttl_s = ttl_s

    def make_room(self, messages: "OrderedDict[int, DataMessage]") -> bool:
        del messages
        return False

    def expire(
        self, messages: "OrderedDict[int, DataMessage]", now: Optional[float]
    ) -> int:
        if now is None:
            return 0
        stale = [
            message_id
            for message_id, message in messages.items()
            if now - message.created_at > self.ttl_s
        ]
        for message_id in stale:
            del messages[message_id]
        return len(stale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TTLExpiryPolicy(ttl_s={self.ttl_s})"


class PriorityAgePolicy(BufferPolicy):
    """Serve oldest-created first; evict the oldest-created when full."""

    name = "priority-age"
    fifo_order = False

    @staticmethod
    def _age_key(message: DataMessage):
        # message_id is an insertion-ordered counter: a deterministic
        # tiebreak for messages created in the same instant.
        return (message.created_at, message.message_id)

    def make_room(self, messages: "OrderedDict[int, DataMessage]") -> bool:
        if not messages:
            return False
        oldest = min(messages.values(), key=self._age_key)
        del messages[oldest.message_id]
        return True

    def selection_order(
        self, messages: "OrderedDict[int, DataMessage]"
    ) -> List[DataMessage]:
        return sorted(messages.values(), key=self._age_key)


#: Buffer-policy factories by registry name.  ``ttl_s`` is only consumed by
#: ``ttl-expiry``; the other factories ignore it.
BUFFER_POLICY_FACTORIES = {
    "drop-new": lambda ttl_s: DropNewPolicy(),
    "drop-oldest": lambda ttl_s: DropOldestPolicy(),
    "ttl-expiry": lambda ttl_s: TTLExpiryPolicy(ttl_s),
    "priority-age": lambda ttl_s: PriorityAgePolicy(),
}


def make_buffer_policy(name: str, ttl_s: float = 0.0) -> BufferPolicy:
    """Instantiate a buffer policy by its registry name."""
    try:
        factory = BUFFER_POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown buffer policy {name!r}; available: {sorted(BUFFER_POLICY_FACTORIES)}"
        ) from None
    return factory(ttl_s)


class DataQueue:
    """A queue of :class:`DataMessage` objects with capacity and a policy.

    ``now`` parameters are optional everywhere: policies that do not track
    time ignore them, and the TTL policy simply skips expiry when no time is
    supplied (e.g. from time-agnostic unit tests).
    """

    def __init__(
        self, max_size: Optional[int] = None, policy: Optional[BufferPolicy] = None
    ) -> None:
        if max_size is not None and max_size <= 0:
            raise ValueError(f"max_size must be positive or None, got {max_size}")
        self.max_size = max_size
        self.policy = policy if policy is not None else DropNewPolicy()
        self._messages: "OrderedDict[int, DataMessage]" = OrderedDict()
        #: Messages lost to capacity: rejected pushes under tail-drop
        #: policies, evictions under drop-oldest/priority-age.
        self.dropped_full = 0
        #: Pushes refused because the message id was already queued (not a
        #: loss — the data is still carried).
        self.rejected_duplicate = 0
        #: Messages removed by TTL expiry.
        self.expired_ttl = 0

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, message_id: int) -> bool:
        return message_id in self._messages

    @property
    def is_full(self) -> bool:
        """True when the queue is at capacity."""
        return self.max_size is not None and len(self._messages) >= self.max_size

    def _expire(self, now: Optional[float]) -> None:
        if now is not None:
            self.expired_ttl += self.policy.expire(self._messages, now)

    def expire(self, now: Optional[float]) -> int:
        """Run the policy's TTL expiry at ``now``; returns how many were removed.

        A no-op (returning 0) for policies without a TTL and when ``now`` is
        None; the engine calls this before transmission-attempt gates so a
        queue holding only stale messages reads as empty.
        """
        before = self.expired_ttl
        self._expire(now)
        return self.expired_ttl - before

    def push(self, message: DataMessage, now: Optional[float] = None) -> bool:
        """Append ``message``; returns False when it was not stored.

        A duplicate id counts as :attr:`rejected_duplicate`; a capacity
        rejection (or the eviction an admitting policy performs) counts as
        :attr:`dropped_full` — exactly one message is lost per overflowing
        push either way.
        """
        self._expire(now)
        if message.message_id in self._messages:
            self.rejected_duplicate += 1
            return False
        if self.is_full:
            self.dropped_full += 1
            if not self.policy.make_room(self._messages):
                return False
        self._messages[message.message_id] = message
        return True

    def extend(self, messages: Iterable[DataMessage], now: Optional[float] = None) -> int:
        """Push several messages; returns how many were accepted."""
        return sum(1 for message in messages if self.push(message, now))

    def peek(self, count: int, now: Optional[float] = None) -> List[DataMessage]:
        """The first ``count`` messages in service order, without removing them."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._expire(now)
        source = (
            self._messages.values()
            if self.policy.fifo_order
            else self.policy.selection_order(self._messages)
        )
        return list(islice(source, count))

    def peek_all(self, now: Optional[float] = None) -> List[DataMessage]:
        """All queued messages in service order, without removing them."""
        self._expire(now)
        if self.policy.fifo_order:
            return list(self._messages.values())
        return self.policy.selection_order(self._messages)

    def remove(self, message_ids: Iterable[int]) -> List[DataMessage]:
        """Remove and return the messages whose ids are in ``message_ids``."""
        removed: List[DataMessage] = []
        for message_id in message_ids:
            message = self._messages.pop(message_id, None)
            if message is not None:
                removed.append(message)
        return removed

    def pop_front(self, count: int, now: Optional[float] = None) -> List[DataMessage]:
        """Remove and return the first ``count`` messages in service order."""
        front = self.peek(count, now)
        return self.remove(m.message_id for m in front)

    def clear(self) -> List[DataMessage]:
        """Remove and return every queued message."""
        messages = list(self._messages.values())
        self._messages.clear()
        return messages
