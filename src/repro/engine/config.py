"""Engine selection configuration.

The simulation can execute on two interchangeable engines:

``object``
    The event-driven reference engine
    (:class:`~repro.experiments.runner.MLoRaSimulation`) — one Python event
    per frame per device.  It is the bit-exact oracle every other engine is
    measured against.
``array``
    The batched array-native engine
    (:class:`~repro.engine.array_engine.ArrayMLoRaSimulation`): per-tick
    device positions and gateway candidacy live in NumPy arrays, collision
    and capture resolution works over per-(channel, SF) buckets, and the
    disconnected common case skips packet construction entirely.  It is
    required to produce :class:`~repro.analysis.metrics.RunMetrics`
    bit-identical to the object engine (pinned by
    ``tests/engine/test_engine_equivalence.py``).

The engine section is never part of the configuration digest: the two
engines are result-identical (the differential harness proves it), so a
result computed on one engine is a cache hit for the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.config_fields import normalize_numbers

#: The registered simulation engines.
ENGINES: Tuple[str, ...] = ("object", "array")


@dataclass(frozen=True)
class EngineConfig:
    """Which engine runs the scenario, and its batching tick.

    ``tick_s`` is the array engine's spatial batching quantum: device
    positions and gateway candidacy are prefiltered once per tick and reused
    (with a speed-derived safety margin) for every transmission inside it.
    It is a pure performance knob — results are bit-identical for any
    positive finite value.
    """

    engine: str = "object"
    tick_s: float = 30.0

    def __post_init__(self) -> None:
        normalize_numbers(self)
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; available: {list(ENGINES)}"
            )
        if self.tick_s <= 0:
            raise ValueError(f"tick_s must be positive, got {self.tick_s!r}")
