"""Discrete-event simulation kernel.

Two pieces the object engine is built on: the clock and event heap
(:class:`~repro.sim.kernel.Simulator`, with the completion/attempt priorities
both engines order their events by) and named deterministic random streams
(:mod:`repro.sim.randomness`).  Standard library plus NumPy only.
"""

from repro.sim.kernel import ATTEMPT_PRIORITY, COMPLETION_PRIORITY, Simulator
from repro.sim.randomness import RandomStreams

__all__ = [
    "ATTEMPT_PRIORITY",
    "COMPLETION_PRIORITY",
    "Simulator",
    "RandomStreams",
]
