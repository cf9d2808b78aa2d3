"""Discrete-event simulation kernel.

This package provides the minimal but complete discrete-event machinery the
rest of the library is built on: a simulation clock and event heap
(:mod:`repro.sim.events`), generator-based processes
(:mod:`repro.sim.kernel`) and named deterministic random streams
(:mod:`repro.sim.randomness`).

The kernel intentionally mirrors the small subset of SimPy semantics used by
LoRa simulators (timeouts, process scheduling, interrupt-free waits) so the
higher layers read like conventional network-simulator code while keeping the
dependency surface to the standard library plus NumPy.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Process, Simulator, Timeout
from repro.sim.randomness import RandomStreams

__all__ = [
    "Event",
    "EventQueue",
    "Process",
    "Simulator",
    "Timeout",
    "RandomStreams",
]
