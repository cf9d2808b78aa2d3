"""Named deterministic random streams.

Every stochastic component of the simulator (shadowing, message jitter, bus
timetable generation, gateway placement noise, ...) draws from its own named
stream derived from a single master seed.  This keeps experiments reproducible
and — importantly for fair scheme comparisons — ensures that changing one
component (say, the forwarding scheme) does not perturb the random numbers
consumed by an unrelated component (say, the mobility trace).
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


class RandomStreams:
    """A factory of independent, reproducible ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed the streams are derived from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically on first use."""
        if not name:
            raise ValueError("stream name must be a non-empty string")
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(self._derive(name))
        return self._streams[name]

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self._seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._streams)})"
