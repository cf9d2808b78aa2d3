"""The simulation clock, process scheduler and run loop.

:class:`Simulator` owns the clock and the event queue.  Model code can either
schedule plain callbacks (:meth:`Simulator.schedule`,
:meth:`Simulator.schedule_in`) or run generator-based :class:`Process` objects
that ``yield Timeout(delay)`` to suspend themselves — the same coding style as
SimPy, which keeps protocol state machines readable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.events import Event, EventQueue


@dataclass(frozen=True)
class Timeout:
    """Yielded by a process generator to sleep for ``delay`` seconds."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"Timeout delay must be non-negative, got {self.delay}")


class Process:
    """A generator-driven simulation process.

    The wrapped generator yields :class:`Timeout` objects; each yield suspends
    the process and schedules its resumption.  When the generator returns the
    process is marked finished.
    """

    def __init__(self, simulator: "Simulator", generator: Generator, name: str = "") -> None:
        self._simulator = simulator
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False
        self._resume_event: Optional[Event] = None

    def start(self, delay: float = 0.0) -> "Process":
        """Schedule the first step of the process ``delay`` seconds from now."""
        self._resume_event = self._simulator.schedule_in(delay, self._step, priority=5)
        return self

    def stop(self) -> None:
        """Cancel the pending resumption and close the generator."""
        if self._resume_event is not None and self._resume_event.pending:
            self._resume_event.cancel()
        if not self.finished:
            self._generator.close()
            self.finished = True

    def _step(self, _payload: Any = None) -> None:
        if self.finished:
            return
        try:
            yielded = next(self._generator)
        except StopIteration:
            self.finished = True
            return
        if not isinstance(yielded, Timeout):
            raise TypeError(
                f"process {self.name!r} yielded {type(yielded).__name__}; expected Timeout"
            )
        self._resume_event = self._simulator.schedule_in(yielded.delay, self._step, priority=5)


class Simulator:
    """Discrete-event simulator: clock, event queue and run loop."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live events waiting in the queue."""
        return len(self._queue)

    def schedule(
        self,
        time: float,
        callback: Optional[Callable[[Any], None]] = None,
        payload: Any = None,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < now={self._now}")
        return self._queue.schedule(time, callback, payload, priority)

    def schedule_in(
        self,
        delay: float,
        callback: Optional[Callable[[Any], None]] = None,
        payload: Any = None,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds after the current time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, callback, payload, priority)

    def process(self, generator: Generator, name: str = "", delay: float = 0.0) -> Process:
        """Start a generator-based :class:`Process`."""
        return Process(self, generator, name=name).start(delay)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (events at exactly
            ``until`` still fire).  ``None`` runs until the queue drains.
        max_events:
            Safety valve for tests; stop after this many events.

        Returns
        -------
        int
            The number of events fired.
        """
        fired = 0
        self._running = True
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                event = self._queue.pop()
                self._now = event.time
                event.fire()
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
            # The run covered everything scheduled up to ``until``: land the
            # clock exactly there.  When ``max_events`` stopped us with events
            # still due at or before ``until``, the clock stays at the last
            # fired event so a follow-up run() resumes without time travel.
            if until is not None and self._now < until:
                next_time = self._queue.peek_time()
                if next_time is None or next_time > until:
                    self._now = until
        finally:
            self._running = False
        return fired

    def drain(self) -> None:
        """Drop all pending events without firing them."""
        self._queue.clear()


def every(
    simulator: Simulator,
    interval: float,
    callback: Callable[[float], None],
    start: float = 0.0,
    jitter: Iterable[float] = (),
) -> Process:
    """Run ``callback(now)`` every ``interval`` seconds, starting at ``start``.

    ``jitter`` is an optional iterable of per-tick offsets added to the
    interval (e.g. drawn from a random stream) so that periodic transmitters do
    not stay phase-locked forever.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    jitter_iter = iter(jitter)

    def _loop() -> Generator:
        while True:
            callback(simulator.now)
            extra = next(jitter_iter, 0.0)
            yield Timeout(interval + extra)

    return simulator.process(_loop(), name="every", delay=start)
