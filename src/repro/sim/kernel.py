"""The simulation clock and event loop.

:class:`Simulator` keeps a binary heap of ``(time, priority, seq, callback,
payload)`` tuples.  ``seq`` counts schedule calls, so the firing order is
total and deterministic: events fire by time, then priority, then in the
order they were scheduled, and two callbacks are never compared.  The array
engine (:mod:`repro.engine.array_engine`) keeps its own heap of the same
entry shape and relies on this order to stay bit-identical with the object
engine.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

#: Secondary ordering of the two engines' events.  A transmission completion
#: resolves before a transmission attempt at the same instant (a device whose
#: uplink just ended sees the acknowledgement before it decides to
#: retransmit), so completions get the lower (earlier) priority.
COMPLETION_PRIORITY = 1
ATTEMPT_PRIORITY = 2


class Simulator:
    """Discrete-event simulator: the clock ``now`` and a heap of callbacks."""

    def __init__(self) -> None:
        #: Current simulation time in seconds.
        self.now = 0.0
        self._heap: list = []
        self._seq = itertools.count()

    def schedule(
        self,
        time: float,
        callback: Callable[[Any], None],
        payload: Any = None,
        priority: int = 0,
    ) -> None:
        """Call ``callback(payload)`` at absolute simulation ``time``.

        Lower priorities fire first at equal times; equal (time, priority)
        events fire in schedule order.
        """
        # Written so that NaN is refused too.
        if not time >= self.now:
            raise ValueError(f"cannot schedule in the past: {time} < now={self.now}")
        heapq.heappush(self._heap, (time, priority, next(self._seq), callback, payload))

    def run(self, until: float) -> int:
        """Fire every event due at or before ``until``; return how many fired.

        Events at exactly ``until`` fire.  The clock then lands on ``until``
        (it never moves backwards), so a later ``run`` resumes from there.
        """
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        while heap and heap[0][0] <= until:
            time, _, _, callback, payload = pop(heap)
            self.now = time
            callback(payload)
            fired += 1
        if self.now < until:
            self.now = until
        return fired
