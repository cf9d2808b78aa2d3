"""Mobility-layer configuration: which model generates the traces.

The paper drives every result with one mobility source — the synthetic London
bus network.  :class:`MobilityConfig` generalises that setting exactly the way
:class:`~repro.radio.config.RadioConfig` generalised the radio layer: the
default configuration (``london-bus``) is the paper's, and the simulation
engine is required to reproduce the pre-mobility-refactor results
bit-identically under it (pinned by
``tests/experiments/test_mobility_equivalence.py``).  Other workloads —
random waypoint, Manhattan street grids, externally recorded CSV traces — are
opened by naming a different model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.config_fields import normalize_numbers

#: The registered mobility models:
#:
#: ``london-bus``
#:     The synthetic London bus network of the paper (radial + orbital routes,
#:     diurnal timetable) — the default, and the only model the paper uses.
#: ``random-waypoint``
#:     Classic random-waypoint inside the scenario's service area: each node
#:     repeatedly picks a uniform destination and travels there at a uniform
#:     speed in ``[min_speed_mps, max_speed_mps]``, pausing ``pause_s``.
#: ``grid-manhattan``
#:     Movement constrained to a Manhattan street grid with streets every
#:     ``grid_spacing_m`` metres: nodes hop between adjacent intersections,
#:     the classic urban VANET workload.
#: ``trace-file``
#:     Replays externally recorded traces from the CSV file named by
#:     ``trace_file`` (columns ``node_id,time_s,x_m,y_m``) — the hook for
#:     real SUMO/TFL exports the paper's original pipeline used.
MOBILITY_MODELS: Tuple[str, ...] = (
    "london-bus",
    "random-waypoint",
    "grid-manhattan",
    "trace-file",
)


@dataclass(frozen=True)
class MobilityConfig:
    """The mobility-layer degrees of freedom of a scenario.

    ``num_nodes`` sizes the synthetic fleets of ``random-waypoint`` and
    ``grid-manhattan``; ``0`` (the default) derives the count from the
    scenario's bus fleet (``num_routes × trips_per_route``) so that swapping
    the mobility model keeps the node density comparable.  The speed and
    pause knobs only apply to those two synthetic models; ``london-bus``
    draws its speeds from the timetable generator and ``trace-file`` replays
    whatever the file recorded.
    """

    model: str = "london-bus"
    num_nodes: int = 0
    min_speed_mps: float = 2.0
    max_speed_mps: float = 10.0
    pause_s: float = 0.0
    grid_spacing_m: float = 500.0
    trace_file: str = ""

    def __post_init__(self) -> None:
        normalize_numbers(self)
        if self.model not in MOBILITY_MODELS:
            raise ValueError(
                f"unknown mobility model {self.model!r}; available: {list(MOBILITY_MODELS)}"
            )
        if self.num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {self.num_nodes}")
        if not 0 < self.min_speed_mps <= self.max_speed_mps:
            raise ValueError("speed range must satisfy 0 < min <= max")
        if self.pause_s < 0:
            raise ValueError("pause_s must be non-negative")
        if self.grid_spacing_m <= 0:
            raise ValueError("grid_spacing_m must be positive")
        if self.model == "trace-file" and not self.trace_file:
            raise ValueError("the trace-file model needs a non-empty trace_file path")

    @property
    def is_default(self) -> bool:
        """True for the paper's London bus-network configuration."""
        return self == MobilityConfig()
