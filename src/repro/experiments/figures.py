"""Per-figure experiment definitions (Figs. 7–13).

Each ``figureNN`` function runs the simulations needed for one paper figure
and returns a plain data structure (rows or series) that the reporting layer,
the benchmark harness and the ``repro sweep`` CLI print.  All of them take a
:class:`ReproductionScale` so the same code serves CI smoke runs
(:data:`SMOKE_SCALE`), quick benchmark runs (:data:`BENCHMARK_SCALE`) and
larger offline campaigns (:data:`CAMPAIGN_SCALE`), and an optional
:class:`SweepExecutor` for backend-parallel (process-pool or multi-host
work-queue), cache-served execution.  The executor guarantees outcome
completeness — the ``zip(keys, executor.run_metrics(specs))`` pattern used
here is safe because ``run_metrics`` raises instead of ever returning fewer
results than specs.

The ablations and the beyond-the-paper grids (α, device class, placement,
multi-SF radio, mobility model, routing × buffer) are not written out here:
each is a declared grid in :mod:`repro.experiments.registry`, run by one
generic runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.timeseries import bin_events
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import RunSpec, SweepExecutor
from repro.experiments.sweeps import (
    PAPER_GATEWAY_COUNTS,
    PAPER_SCHEMES,
    RURAL_DEVICE_RANGE_M,
    URBAN_DEVICE_RANGE_M,
    SweepResult,
    run_gateway_sweep,
)
from repro.mobility.london import DAY_SECONDS, LondonBusNetworkGenerator
from repro.sim.randomness import RandomStreams


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


# --------------------------------------------------------------------- #
# Figs. 8, 9, 12, 13 — gateway-density sweeps
# --------------------------------------------------------------------- #
def run_density_sweep(
    scale: ReproductionScale = BENCHMARK_SCALE,
    device_ranges_m: Sequence[float] = (URBAN_DEVICE_RANGE_M, RURAL_DEVICE_RANGE_M),
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """The shared sweep Figs. 8, 9, 12 and 13 are all derived from."""
    base = scale.base_config()
    return run_gateway_sweep(
        base,
        gateway_counts=scale.gateway_counts,
        schemes=scale.schemes,
        device_ranges_m=device_ranges_m,
        gateway_scale=scale.spatial_scale,
        executor=executor,
    )


@dataclass(frozen=True)
class FigureRow:
    """One row of a figure's data table."""

    environment: str
    num_gateways: int
    scheme: str
    value: float


def _environment_name(device_range_m: float) -> str:
    return "urban" if device_range_m <= 750.0 else "rural"


def _sweep_rows(sweep: SweepResult, metric: str) -> List[FigureRow]:
    rows: List[FigureRow] = []
    for device_range in sweep.device_ranges():
        for count in sweep.gateway_counts():
            for scheme in sweep.schemes():
                key = (scheme, count, device_range)
                if key not in sweep.runs:
                    continue
                rows.append(
                    FigureRow(
                        environment=_environment_name(device_range),
                        num_gateways=count,
                        scheme=scheme,
                        value=float(getattr(sweep.runs[key], metric)),
                    )
                )
    return rows


def figure08_delay(sweep: SweepResult) -> List[FigureRow]:
    """Fig. 8: average end-to-end delay per scheme, gateway count and environment."""
    return _sweep_rows(sweep, "mean_delay_s")


def figure09_throughput(sweep: SweepResult) -> List[FigureRow]:
    """Fig. 9: total messages delivered per scheme, gateway count and environment."""
    return _sweep_rows(sweep, "throughput_messages")


def figure12_hops(sweep: SweepResult) -> List[FigureRow]:
    """Fig. 12: average delivery hop count per scheme and gateway count."""
    return _sweep_rows(sweep, "mean_hop_count")


def figure13_overhead(sweep: SweepResult) -> List[FigureRow]:
    """Fig. 13: average number of frames sent per node (energy-overhead proxy)."""
    return _sweep_rows(sweep, "mean_messages_sent_per_node")


# --------------------------------------------------------------------- #
# Figs. 10 and 11 — throughput over the day
# --------------------------------------------------------------------- #
@dataclass
class ThroughputTimeSeries:
    """Messages delivered per time bin for every scheme (one environment)."""

    environment: str
    bin_starts_s: List[float]
    series_by_scheme: Dict[str, List[float]] = field(default_factory=dict)

    def total(self, scheme: str) -> float:
        """Total messages delivered by ``scheme`` over the horizon."""
        return float(np.sum(self.series_by_scheme.get(scheme, [])))


def _timeseries_for_range(
    scale: ReproductionScale,
    device_range_m: float,
    nominal_gateways: int,
    bin_width_s: float,
    executor: Optional[SweepExecutor] = None,
) -> ThroughputTimeSeries:
    base = scale.base_config(duration_s=scale.timeseries_duration_s)
    actual_gateways = max(1, round(nominal_gateways * scale.spatial_scale))
    specs = [
        RunSpec(
            config=(
                base.with_scheme(scheme)
                .with_gateways(actual_gateways)
                .with_device_range(device_range_m)
            ),
            nominal_gateways=nominal_gateways,
        )
        for scheme in scale.schemes
    ]
    executor = executor or SweepExecutor()
    bin_starts: List[float] = []
    series: Dict[str, List[float]] = {}
    for scheme, metrics in zip(scale.schemes, executor.run_metrics(specs)):
        starts, counts = bin_events(
            metrics.delivery_times_s, bin_width_s, scale.timeseries_duration_s
        )
        bin_starts = [float(s) for s in starts]
        series[scheme] = [float(c) for c in counts]
    return ThroughputTimeSeries(
        environment=_environment_name(device_range_m),
        bin_starts_s=bin_starts,
        series_by_scheme=series,
    )


def figure10_urban_timeseries(
    scale: ReproductionScale = BENCHMARK_SCALE,
    nominal_gateways: int = 100,
    bin_width_s: float = 600.0,
    executor: Optional[SweepExecutor] = None,
) -> ThroughputTimeSeries:
    """Fig. 10: messages delivered every 10 minutes over the day, urban (500 m) setting."""
    return _timeseries_for_range(
        scale, URBAN_DEVICE_RANGE_M, nominal_gateways, bin_width_s, executor
    )


def figure11_rural_timeseries(
    scale: ReproductionScale = BENCHMARK_SCALE,
    nominal_gateways: int = 100,
    bin_width_s: float = 600.0,
    executor: Optional[SweepExecutor] = None,
) -> ThroughputTimeSeries:
    """Fig. 11: messages delivered every 10 minutes over the day, rural (1000 m) setting."""
    return _timeseries_for_range(
        scale, RURAL_DEVICE_RANGE_M, nominal_gateways, bin_width_s, executor
    )
