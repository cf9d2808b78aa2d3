"""Simple mobility models used by tests and small examples.

The London generator produces realistic but statistically noisy scenarios; the
models here give precise control for unit tests (static nodes) and a generic
synthetic workload (random waypoint) for examples that do not want the full
bus network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.mobility.geometry import BoundingBox, Point
from repro.mobility.trace import MobilityTrace


@dataclass(frozen=True)
class StaticMobility:
    """Produces static traces at fixed positions."""

    positions: List[Point]
    start: float = 0.0
    end: float = float("inf")

    def traces(self, prefix: str = "static") -> List[MobilityTrace]:
        """One open-ended static trace per position."""
        return [
            MobilityTrace.static(position, start=self.start, end=self.end,
                                 node_id=f"{prefix}-{index:03d}")
            for index, position in enumerate(self.positions)
        ]


@dataclass(frozen=True)
class RandomWaypointMobility:
    """Classic random-waypoint mobility inside a bounding box.

    Each node repeatedly picks a uniform destination and travels there at a
    uniform speed in ``[min_speed, max_speed]``, pausing ``pause_s`` at each
    waypoint, until ``duration_s`` is covered.
    """

    bounding_box: BoundingBox
    num_nodes: int
    duration_s: float
    min_speed_mps: float = 2.0
    max_speed_mps: float = 10.0
    pause_s: float = 0.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0 < self.min_speed_mps <= self.max_speed_mps:
            raise ValueError("speed range must satisfy 0 < min <= max")
        if self.pause_s < 0:
            raise ValueError("pause_s must be non-negative")

    def traces(self, rng: np.random.Generator, prefix: str = "rwp") -> List[MobilityTrace]:
        """Generate one trace per node using ``rng``, all in one sample block."""
        box = self.bounding_box
        times: List[float] = []
        xs: List[float] = []
        ys: List[float] = []
        ends: List[int] = []

        def random_point() -> Tuple[float, float]:
            return (
                float(rng.uniform(box.min_x, box.max_x)),
                float(rng.uniform(box.min_y, box.max_y)),
            )

        for _ in range(self.num_nodes):
            time = 0.0
            x, y = random_point()
            times.append(time)
            xs.append(x)
            ys.append(y)
            while time < self.duration_s:
                next_x, next_y = random_point()
                speed = float(rng.uniform(self.min_speed_mps, self.max_speed_mps))
                time += max(math.hypot(x - next_x, y - next_y) / speed, 1e-6)
                x, y = next_x, next_y
                times.append(time)
                xs.append(x)
                ys.append(y)
                if self.pause_s > 0 and time < self.duration_s:
                    time += self.pause_s
                    times.append(time)
                    xs.append(x)
                    ys.append(y)
            ends.append(len(times))
        node_ids = [f"{prefix}-{index:03d}" for index in range(self.num_nodes)]
        return MobilityTrace.from_block(times, xs, ys, ends, node_ids)
