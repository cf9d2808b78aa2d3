"""Reproduction scales and the Fig. 7 bus-network figure.

:class:`ReproductionScale` says how much of the paper's scenario a sweep
simulates, so the same sweep serves CI smoke runs (:data:`SMOKE_SCALE`),
quick benchmark runs (:data:`BENCHMARK_SCALE`) and larger offline campaigns
(:data:`CAMPAIGN_SCALE`).

Fig. 7 runs no simulation, so it is written out here.  Every simulated
sweep — Figs. 8–13, the ablations and the beyond-the-paper grids — is a
declared grid in :mod:`repro.experiments.registry`, run by one generic
runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.config import ScenarioConfig
from repro.mobility.london import DAY_SECONDS, LondonBusNetworkGenerator
from repro.sim.randomness import RandomStreams

#: The gateway counts the paper sweeps in Figs. 8, 9, 12 and 13.
PAPER_GATEWAY_COUNTS: Tuple[int, ...] = (40, 50, 60, 70, 80, 90, 100)

#: The three schemes the paper evaluates (Sec. VII-A7).
PAPER_SCHEMES: Tuple[str, ...] = ("no-routing", "rca-etx", "robc")

#: Device-to-device communication ranges for urban and rural settings.
URBAN_DEVICE_RANGE_M = 500.0
RURAL_DEVICE_RANGE_M = 1000.0


@dataclass(frozen=True)
class ReproductionScale:
    """How much of the paper's full scenario to simulate.

    ``spatial_scale`` multiplies the area, fleet and gateway count together
    (density preserving).  ``gateway_counts`` are the *nominal* paper values
    reported on the x-axis; the actual deployed number is
    ``round(nominal * spatial_scale)``.
    """

    spatial_scale: float = 0.10
    duration_s: float = 6 * 3600.0
    timeseries_duration_s: float = DAY_SECONDS
    gateway_counts: Tuple[int, ...] = PAPER_GATEWAY_COUNTS
    schemes: Tuple[str, ...] = PAPER_SCHEMES
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0 < self.spatial_scale <= 1:
            raise ValueError("spatial_scale must be in (0, 1]")
        if self.duration_s <= 0 or self.timeseries_duration_s <= 0:
            raise ValueError("durations must be positive")

    def base_config(self, duration_s: float = 0.0) -> ScenarioConfig:
        """The scaled base scenario shared by every figure."""
        full = ScenarioConfig(
            seed=self.seed,
            duration_s=duration_s if duration_s > 0 else self.duration_s,
        )
        return full.scaled(self.spatial_scale)


#: The scale used by the benchmark harness: small enough for CI, large enough
#: for the qualitative trends of the paper to be visible.
BENCHMARK_SCALE = ReproductionScale(
    spatial_scale=0.10,
    duration_s=4 * 3600.0,
    timeseries_duration_s=DAY_SECONDS,
    gateway_counts=(40, 70, 100),
)

#: A fuller (slower) scale for offline campaigns.
CAMPAIGN_SCALE = ReproductionScale(
    spatial_scale=0.25,
    duration_s=DAY_SECONDS,
    gateway_counts=PAPER_GATEWAY_COUNTS,
)

#: A seconds-not-minutes scale for CI smoke tests and the CLI equivalence
#: tests: qualitative only, but it exercises every code path of a sweep.
SMOKE_SCALE = ReproductionScale(
    spatial_scale=0.05,
    duration_s=900.0,
    timeseries_duration_s=3600.0,
    gateway_counts=(40, 100),
)


# --------------------------------------------------------------------- #
# Fig. 7 — properties of the bus network
# --------------------------------------------------------------------- #
@dataclass
class BusNetworkProperties:
    """The two panels of Fig. 7."""

    bin_starts_s: List[float]
    active_buses: List[int]
    active_durations_s: List[float]

    @property
    def peak_active_buses(self) -> int:
        """Maximum concurrently active buses (daytime plateau)."""
        return max(self.active_buses) if self.active_buses else 0

    @property
    def night_active_buses(self) -> int:
        """Minimum concurrently active buses (night trough)."""
        return min(self.active_buses) if self.active_buses else 0


def figure07_bus_network(scale: ReproductionScale = BENCHMARK_SCALE) -> BusNetworkProperties:
    """Fig. 7: number of active buses over 24 h and the active-duration distribution."""
    config = scale.base_config(duration_s=DAY_SECONDS)
    generator = LondonBusNetworkGenerator(
        config.mobility_config(DAY_SECONDS), RandomStreams(scale.seed).stream("mobility")
    )
    timetable = generator.generate()
    bin_width = 1800.0
    profile = timetable.active_bus_profile(bin_width, DAY_SECONDS)
    starts = [index * bin_width for index in range(len(profile))]
    return BusNetworkProperties(
        bin_starts_s=starts,
        active_buses=profile,
        active_durations_s=timetable.active_durations(),
    )
