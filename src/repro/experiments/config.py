"""Scenario configuration.

One :class:`ScenarioConfig` fully describes a simulation run: the service
area and bus network, the gateway deployment, the radio geometry, the device
protocol parameters, the forwarding scheme and the device class.  The paper's
full-scale scenario (600 km², all London buses, 24 h) is cluster-sized, so the
configuration exposes a ``scale`` factor that shrinks the area, the bus fleet
and the gateway count together, preserving spatial densities — the quantity
that actually determines contact structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.config_fields import normalize_numbers
from repro.engine.config import EngineConfig
from repro.mac.device import DeviceConfig
from repro.mobility.config import MobilityConfig
from repro.mobility.london import DAY_SECONDS, LondonBusNetworkConfig
from repro.radio.config import RadioConfig
from repro.routing.config import RoutingConfig


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one MLoRa-SS simulation run."""

    # Identification / reproducibility
    name: str = "mlora-ss"
    seed: int = 1

    # Time
    duration_s: float = DAY_SECONDS

    # Space and gateways
    area_km2: float = 600.0
    num_gateways: int = 60
    gateway_placement: str = "grid"
    gateway_range_m: float = 1000.0
    device_range_m: float = 500.0

    # Mobility (bus network)
    num_routes: int = 120
    trips_per_route: int = 8
    stops_per_route: int = 12
    min_block_repeats: int = 4
    max_block_repeats: int = 12
    #: Which mobility model generates the traces; the default (``london-bus``)
    #: is the paper's synthetic bus network and is bit-compatible with the
    #: pre-mobility-refactor engine.
    mobility: MobilityConfig = field(default_factory=MobilityConfig)

    # Radio / protocol
    shadowing: bool = False
    device: DeviceConfig = field(default_factory=DeviceConfig)
    #: Channel plan and SF allocation; the default (one channel, fixed SF7)
    #: is the paper's setting and is bit-compatible with the pre-radio engine.
    radio: RadioConfig = field(default_factory=RadioConfig)

    # Forwarding scheme and device class
    scheme: str = "no-routing"
    #: Parameters of the named scheme plus the buffer-management section; the
    #: default is the paper's hardcoded setting (12-message handovers, FIFO
    #: tail-drop buffer) and is bit-compatible with the pre-routing engine.
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    device_class: str = "modified-class-c"

    #: Which simulation engine executes the run; the default (the
    #: event-driven object engine) is the bit-exact oracle, and the array
    #: engine is required to reproduce it identically, so the section is
    #: never part of the cache key.
    engine: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        normalize_numbers(self)
        for name in ("duration_s", "area_km2", "gateway_range_m", "device_range_m"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.num_gateways <= 0:
            raise ValueError("num_gateways must be positive")
        if self.gateway_placement not in ("grid", "random"):
            raise ValueError(
                f"gateway_placement must be 'grid' or 'random', got {self.gateway_placement!r}"
            )
        if self.num_routes <= 0 or self.trips_per_route <= 0:
            raise ValueError("num_routes and trips_per_route must be positive")
        if not 1 <= self.min_block_repeats <= self.max_block_repeats:
            raise ValueError("block repeats must satisfy 1 <= min <= max")

    # ------------------------------------------------------------------ #
    # Derived configurations
    # ------------------------------------------------------------------ #
    def scaled(self, scale: float) -> "ScenarioConfig":
        """A density-preserving shrunken copy of this scenario.

        ``scale`` multiplies the area, the gateway count and the number of
        routes (and hence the fleet size, since trips per route are kept).
        Communication ranges, the message workload and the simulated duration
        are left untouched, so both the gateway density (gateways/km²) and the
        bus density (buses/km²) — the quantities that set contact statistics —
        remain comparable to the full-size scenario.
        """
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"scale must be a positive finite number, got {scale!r}")
        if scale > 1:
            raise ValueError("scale is a shrink factor and must be <= 1")
        mobility = self.mobility
        if mobility.num_nodes > 0:
            # An explicit synthetic fleet shrinks with the area too; the
            # derived default (num_nodes == 0) already follows num_routes.
            mobility = replace(mobility, num_nodes=max(1, round(mobility.num_nodes * scale)))
        return replace(
            self,
            area_km2=self.area_km2 * scale,
            num_gateways=max(1, round(self.num_gateways * scale)),
            num_routes=max(1, round(self.num_routes * scale)),
            mobility=mobility,
        )

    def with_scheme(self, scheme: str) -> "ScenarioConfig":
        """A copy of this configuration running a different forwarding scheme."""
        return replace(self, scheme=scheme)

    def with_gateways(self, num_gateways: int) -> "ScenarioConfig":
        """A copy with a different gateway count (Fig. 8/9 sweeps)."""
        return replace(self, num_gateways=num_gateways)

    def with_device_range(self, device_range_m: float) -> "ScenarioConfig":
        """A copy with a different device-to-device range (urban 500 m / rural 1000 m)."""
        return replace(self, device_range_m=device_range_m)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """A copy with a different master seed (replications)."""
        return replace(self, seed=seed)

    def mobility_spec(self):
        """The :class:`~repro.mobility.models.MobilitySpec` of this scenario."""
        from repro.mobility.models import MobilitySpec

        return MobilitySpec(
            mobility=self.mobility,
            network=self.mobility_config(),
            duration_s=self.duration_s,
        )

    def mobility_config(self, horizon_s: Optional[float] = None) -> LondonBusNetworkConfig:
        """The bus-network generator configuration implied by this scenario.

        When the simulated duration is shorter than a full day, the diurnal
        day window is compressed proportionally so that trip start times still
        fall inside the simulated horizon.
        """
        horizon = horizon_s if horizon_s is not None else max(self.duration_s, 1.0)
        defaults = LondonBusNetworkConfig()
        if horizon >= defaults.horizon_s:
            day_start, day_end = defaults.day_start_s, defaults.day_end_s
        else:
            ratio = horizon / defaults.horizon_s
            day_start = defaults.day_start_s * ratio
            day_end = defaults.day_end_s * ratio
        return LondonBusNetworkConfig(
            area_km2=self.area_km2,
            num_routes=self.num_routes,
            trips_per_route=self.trips_per_route,
            stops_per_route=self.stops_per_route,
            min_repeats=self.min_block_repeats,
            max_repeats=self.max_block_repeats,
            day_start_s=day_start,
            day_end_s=day_end,
            horizon_s=horizon,
        )
