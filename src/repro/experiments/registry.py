"""Named scenario presets and figure sweeps — the single catalogue the
``repro`` CLI, the examples and the docs are all built from.

Two registries live here:

* **Scenario presets** (:class:`ScenarioPreset`): one fully-specified
  :class:`~repro.experiments.config.ScenarioConfig` per paper setting (urban,
  rural, the full-scale Sec. VII-A scenario, device-class and placement
  ablation points) plus synthetic variants that go beyond the paper (denser
  gateway deployments, larger fleets, the DTN baseline schemes).  Presets are
  plain configurations — ``repro run <name>`` and
  ``run_scenario(get_preset(name).config)`` are the same experiment by
  construction.
* **Sweep presets** (:class:`SweepPreset`): one entry per paper figure
  (Figs. 7–13), per ablation (α, device class, gateway placement) and per
  beyond-the-paper grid (multi-SF radio, mobility model, routing × buffer).
  Fig. 7 runs no simulation and wraps
  :func:`~repro.experiments.figures.figure07_bus_network`; every other
  sweep *declares* its axes (:class:`SweepGrid`) and runs through the one
  :func:`run_grid`.  Every sweep returns a uniform :class:`SweepArtifact`
  (printable text + tabular rows) so the CLI and reporting layer can treat
  them alike.

``render_scenarios_markdown`` generates ``docs/scenarios.md`` from these
registries; a test pins the file to the generated text so the documentation
cannot drift from the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.config_fields import replace_fields
from repro.engine.config import EngineConfig
from repro.experiments.config import ScenarioConfig
from repro.analysis.metrics import RunMetrics
from repro.experiments.figures import (
    BENCHMARK_SCALE,
    CAMPAIGN_SCALE,
    RURAL_DEVICE_RANGE_M,
    SMOKE_SCALE,
    URBAN_DEVICE_RANGE_M,
    ReproductionScale,
    figure07_bus_network,
)
from repro.experiments.parallel import RunSpec, SweepExecutor
from repro.experiments.reporting import (
    format_bus_network,
    format_metric_comparison,
    format_table,
)
from repro.mobility.config import MobilityConfig
from repro.mobility.london import DAY_SECONDS
from repro.radio.config import RadioConfig
from repro.routing.config import BufferConfig, RoutingConfig

#: Named execution scales for ``repro sweep --scale <name>``.
SCALE_PRESETS: Dict[str, ReproductionScale] = {
    "smoke": SMOKE_SCALE,
    "benchmark": BENCHMARK_SCALE,
    "campaign": CAMPAIGN_SCALE,
}


# --------------------------------------------------------------------- #
# Scenario presets
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioPreset:
    """A named, documented, ready-to-run scenario configuration."""

    name: str
    description: str
    config: ScenarioConfig
    #: Which paper figure/section this reproduces ("" for synthetic variants).
    figure: str = ""
    tags: Tuple[str, ...] = ()


_PRESETS: Dict[str, ScenarioPreset] = {}


def register_preset(preset: ScenarioPreset) -> ScenarioPreset:
    """Add ``preset`` to the registry; names are unique."""
    if preset.name in _PRESETS:
        raise ValueError(f"duplicate scenario preset name {preset.name!r}")
    if preset.config.name != preset.name:
        raise ValueError(
            f"preset {preset.name!r} wraps a config named {preset.config.name!r}; "
            "the two must match so run artifacts are traceable to the preset"
        )
    _PRESETS[preset.name] = preset
    return preset


def get_preset(name: str) -> ScenarioPreset:
    """Look a preset up by name; raises ``KeyError`` with the catalogue."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario preset {name!r}; available: {preset_names()}"
        ) from None


def preset_names() -> List[str]:
    """All registered preset names, sorted."""
    return sorted(_PRESETS)


def iter_presets() -> List[ScenarioPreset]:
    """All registered presets in name order."""
    return [_PRESETS[name] for name in preset_names()]


def _paper_point(
    name: str,
    *,
    spatial_scale: float,
    duration_s: float,
    nominal_gateways: int,
    device_range_m: float,
    scheme: str = "robc",
    seed: int = 7,
    **overrides: Any,
) -> ScenarioConfig:
    """One operating point of the paper's evaluation grid.

    Mirrors :meth:`ReproductionScale.base_config` + a grid's ``num_gateways``
    axis exactly: the full-size scenario is density-preservingly shrunk and
    the nominal (paper x-axis) gateway count is scaled the same way, so a
    preset run is identical to the matching point of a figure sweep up to the scenario
    ``name`` field (which does not influence simulation).  The sync between
    the two code paths is pinned by ``tests/experiments/test_registry.py::
    TestPresets::test_paper_points_match_sweep_spec_configs``.
    """
    full = ScenarioConfig(name=name, seed=seed, duration_s=duration_s)
    config = full.scaled(spatial_scale) if spatial_scale < 1.0 else full
    return replace(
        config,
        num_gateways=max(1, round(nominal_gateways * spatial_scale)),
        device_range_m=device_range_m,
        scheme=scheme,
        **overrides,
    )


def _smoke_point(name: str, device_range_m: float) -> ScenarioConfig:
    """A sub-second scenario for CI and the CLI smoke/equivalence tests."""
    return ScenarioConfig(
        name=name,
        seed=11,
        duration_s=1800.0,
        area_km2=20.0,
        num_gateways=3,
        num_routes=4,
        trips_per_route=2,
        stops_per_route=5,
        min_block_repeats=1,
        max_block_repeats=2,
        device_range_m=device_range_m,
        scheme="robc",
    )


# Paper settings ------------------------------------------------------- #
register_preset(ScenarioPreset(
    name="urban",
    description=(
        "The paper's urban setting (500 m device-to-device range) at benchmark "
        "scale: a 60 km² slice of the full scenario, 4 simulated hours, the "
        "70-gateway operating point, ROBC forwarding.  Runs in seconds."
    ),
    figure="Figs. 8/9 urban curve, 70-gateway point",
    tags=("paper", "urban"),
    config=_paper_point(
        "urban", spatial_scale=0.10, duration_s=4 * 3600.0,
        nominal_gateways=70, device_range_m=URBAN_DEVICE_RANGE_M,
    ),
))

register_preset(ScenarioPreset(
    name="rural",
    description=(
        "The paper's rural setting (1000 m device-to-device range) at benchmark "
        "scale; otherwise identical to the `urban` preset."
    ),
    figure="Figs. 8/9 rural curve, 70-gateway point",
    tags=("paper", "rural"),
    config=_paper_point(
        "rural", spatial_scale=0.10, duration_s=4 * 3600.0,
        nominal_gateways=70, device_range_m=RURAL_DEVICE_RANGE_M,
    ),
))

register_preset(ScenarioPreset(
    name="urban-full",
    description=(
        "The full-scale Sec. VII-A scenario, urban setting: 600 km², the whole "
        "synthetic London bus fleet, 60 gateways, 24 simulated hours.  "
        "Cluster-sized — expect a long run; prefer `urban` for interactive use."
    ),
    figure="Sec. VII-A full-scale scenario (urban)",
    tags=("paper", "urban", "full-scale"),
    config=_paper_point(
        "urban-full", spatial_scale=1.0, duration_s=DAY_SECONDS,
        nominal_gateways=60, device_range_m=URBAN_DEVICE_RANGE_M,
    ),
))

register_preset(ScenarioPreset(
    name="rural-full",
    description=(
        "The full-scale Sec. VII-A scenario, rural setting (1000 m range); "
        "otherwise identical to `urban-full`."
    ),
    figure="Sec. VII-A full-scale scenario (rural)",
    tags=("paper", "rural", "full-scale"),
    config=_paper_point(
        "rural-full", spatial_scale=1.0, duration_s=DAY_SECONDS,
        nominal_gateways=60, device_range_m=RURAL_DEVICE_RANGE_M,
    ),
))

# Ablation points ------------------------------------------------------ #
register_preset(ScenarioPreset(
    name="urban-class-a",
    description=(
        "The `urban` preset with Queue-based Class-A devices instead of "
        "Modified Class-C: the energy/performance trade-off of Sec. VII-C."
    ),
    figure="Sec. VII-C queue-based Class-A ablation",
    tags=("paper", "urban", "ablation"),
    config=replace(
        _paper_point(
            "urban-class-a", spatial_scale=0.10, duration_s=4 * 3600.0,
            nominal_gateways=70, device_range_m=URBAN_DEVICE_RANGE_M,
        ),
        device_class="queue-based-class-a",
    ),
))

register_preset(ScenarioPreset(
    name="urban-random-placement",
    description=(
        "The `urban` preset with uniform-random gateway placement instead of "
        "the paper's grid: the placement sensitivity discussion of Sec. VII-C."
    ),
    figure="Sec. VII-C gateway-placement ablation",
    tags=("paper", "urban", "ablation"),
    config=replace(
        _paper_point(
            "urban-random-placement", spatial_scale=0.10, duration_s=4 * 3600.0,
            nominal_gateways=70, device_range_m=URBAN_DEVICE_RANGE_M,
        ),
        gateway_placement="random",
    ),
))

# Synthetic variants beyond the paper ---------------------------------- #
register_preset(ScenarioPreset(
    name="dense-gateways",
    description=(
        "Urban setting with double the paper's maximum gateway density "
        "(nominal 140 gateways over the full area): where extra infrastructure "
        "stops paying off."
    ),
    tags=("synthetic", "urban"),
    config=_paper_point(
        "dense-gateways", spatial_scale=0.10, duration_s=4 * 3600.0,
        nominal_gateways=140, device_range_m=URBAN_DEVICE_RANGE_M,
    ),
))

register_preset(ScenarioPreset(
    name="sparse-gateways",
    description=(
        "Urban setting with half the paper's minimum gateway density "
        "(nominal 20 gateways): a severely disconnected deployment where "
        "store-carry-forward does most of the work."
    ),
    tags=("synthetic", "urban"),
    config=_paper_point(
        "sparse-gateways", spatial_scale=0.10, duration_s=4 * 3600.0,
        nominal_gateways=20, device_range_m=URBAN_DEVICE_RANGE_M,
    ),
))

register_preset(ScenarioPreset(
    name="mega-fleet",
    description=(
        "Urban setting with double the bus-route density (and hence fleet "
        "size): more contact opportunities per message, heavier channel load."
    ),
    tags=("synthetic", "urban"),
    config=_paper_point(
        "mega-fleet", spatial_scale=0.10, duration_s=4 * 3600.0,
        nominal_gateways=70, device_range_m=URBAN_DEVICE_RANGE_M,
        num_routes=24,
    ),
))

register_preset(ScenarioPreset(
    name="epidemic-urban",
    description=(
        "Urban setting under the classic epidemic DTN baseline (unbounded "
        "message copying) instead of the paper's schemes."
    ),
    tags=("synthetic", "urban", "dtn"),
    config=_paper_point(
        "epidemic-urban", spatial_scale=0.10, duration_s=4 * 3600.0,
        nominal_gateways=70, device_range_m=URBAN_DEVICE_RANGE_M,
        scheme="epidemic",
    ),
))

register_preset(ScenarioPreset(
    name="spray-and-wait-urban",
    description=(
        "Urban setting under binary spray-and-wait (bounded-copy DTN "
        "baseline) instead of the paper's schemes."
    ),
    tags=("synthetic", "urban", "dtn"),
    config=_paper_point(
        "spray-and-wait-urban", spatial_scale=0.10, duration_s=4 * 3600.0,
        nominal_gateways=70, device_range_m=URBAN_DEVICE_RANGE_M,
        scheme="spray-and-wait",
    ),
))

register_preset(ScenarioPreset(
    name="urban-multisf",
    description=(
        "The `urban` preset on a realistic EU868-style radio plan: three "
        "uplink channels and distance-based spreading factors (SF7 near a "
        "gateway through SF12 at the cell edge) instead of the paper's "
        "single shared SF7 channel.  Cross-channel and cross-SF frames no "
        "longer collide, but far devices pay SF12 airtime and duty-cycle "
        "off-time."
    ),
    tags=("synthetic", "urban", "multi-sf"),
    config=replace(
        _paper_point(
            "urban-multisf", spatial_scale=0.10, duration_s=4 * 3600.0,
            nominal_gateways=70, device_range_m=URBAN_DEVICE_RANGE_M,
        ),
        radio=RadioConfig(num_channels=3, sf_policy="distance-based"),
    ),
))

register_preset(ScenarioPreset(
    name="urban-rwp",
    description=(
        "The `urban` preset under classic random-waypoint mobility instead of "
        "the bus network: the same fleet size roams the same area without "
        "routes or a diurnal timetable, isolating how much of each scheme's "
        "gain is owed to the bus network's contact structure."
    ),
    tags=("synthetic", "urban", "mobility"),
    config=replace(
        _paper_point(
            "urban-rwp", spatial_scale=0.10, duration_s=4 * 3600.0,
            nominal_gateways=70, device_range_m=URBAN_DEVICE_RANGE_M,
        ),
        mobility=MobilityConfig(model="random-waypoint"),
    ),
))

register_preset(ScenarioPreset(
    name="urban-manhattan",
    description=(
        "The `urban` preset on a Manhattan street grid (streets every 500 m): "
        "route-constrained like the buses but without radial geometry or a "
        "timetable — the classic urban VANET workload."
    ),
    tags=("synthetic", "urban", "mobility"),
    config=replace(
        _paper_point(
            "urban-manhattan", spatial_scale=0.10, duration_s=4 * 3600.0,
            nominal_gateways=70, device_range_m=URBAN_DEVICE_RANGE_M,
        ),
        mobility=MobilityConfig(model="grid-manhattan"),
    ),
))

register_preset(ScenarioPreset(
    name="urban-prophet",
    description=(
        "Urban setting under PRoPHET-style delivery-predictability forwarding "
        "(Lindgren et al.): messages replicate onto neighbours whose history "
        "of gateway contacts makes them likelier to deliver.  The third DTN "
        "baseline, between epidemic's unbounded copying and spray-and-wait's "
        "fixed ticket budget."
    ),
    tags=("synthetic", "urban", "dtn"),
    config=_paper_point(
        "urban-prophet", spatial_scale=0.10, duration_s=4 * 3600.0,
        nominal_gateways=70, device_range_m=URBAN_DEVICE_RANGE_M,
        scheme="prophet",
    ),
))

register_preset(ScenarioPreset(
    name="urban-buffer-pressure",
    description=(
        "The `urban` preset under severe buffer pressure: an 8-message queue "
        "(vs the paper's 64) with the drop-oldest eviction policy.  "
        "Exercises the buffer-management layer — compare "
        "`messages_dropped_full` vs `messages_rejected_duplicate` against "
        "the `urban` preset, or sweep the whole axis with `repro sweep "
        "routing`."
    ),
    tags=("synthetic", "urban", "buffer"),
    config=replace(
        _paper_point(
            "urban-buffer-pressure", spatial_scale=0.10, duration_s=4 * 3600.0,
            nominal_gateways=70, device_range_m=URBAN_DEVICE_RANGE_M,
        ),
        routing=RoutingConfig(buffer=BufferConfig(policy="drop-oldest", capacity=8)),
    ),
))

register_preset(ScenarioPreset(
    name="quickstart",
    description=(
        "A small friendly first run: 30 km², 4 gateways, 24 buses, 2 simulated "
        "hours of ROBC forwarding.  The README quickstart and "
        "examples/quickstart.py both run this preset."
    ),
    tags=("synthetic",),
    config=ScenarioConfig(
        name="quickstart", seed=42, duration_s=2 * 3600.0, area_km2=30.0,
        num_gateways=4, num_routes=6, trips_per_route=4,
        device_range_m=1000.0, scheme="robc",
    ),
))

# CI smoke points ------------------------------------------------------ #
register_preset(ScenarioPreset(
    name="urban-smoke",
    description=(
        "A sub-second urban (500 m) scenario used by the CLI smoke and "
        "CLI-vs-API equivalence tests.  Too small for meaningful metrics."
    ),
    tags=("ci", "urban"),
    config=_smoke_point("urban-smoke", URBAN_DEVICE_RANGE_M),
))

register_preset(ScenarioPreset(
    name="megacity-10k",
    description=(
        "A 10,000-bus megacity stress scenario: 1250 routes × 8 trips over "
        "6250 km² with 625 gateways (urban density preserved), 30 simulated "
        "minutes of plain LoRaWAN.  Sized beyond what the object engine can "
        "run interactively, the preset selects the array engine in its "
        "configuration; it exists to exercise and benchmark the batched "
        "path at scale (`repro run megacity-10k`)."
    ),
    tags=("synthetic", "urban", "engine", "stress"),
    config=ScenarioConfig(
        name="megacity-10k",
        seed=7,
        duration_s=1800.0,
        area_km2=6250.0,
        num_gateways=625,
        num_routes=1250,
        trips_per_route=8,
        device_range_m=URBAN_DEVICE_RANGE_M,
        scheme="no-routing",
        engine=EngineConfig(engine="array"),
    ),
))

register_preset(ScenarioPreset(
    name="rural-smoke",
    description=(
        "A sub-second rural (1000 m) scenario used by the CLI smoke and "
        "CLI-vs-API equivalence tests.  Too small for meaningful metrics."
    ),
    tags=("ci", "rural"),
    config=_smoke_point("rural-smoke", RURAL_DEVICE_RANGE_M),
))


# --------------------------------------------------------------------- #
# Overrides (parameterized synthetic variants)
# --------------------------------------------------------------------- #
#: Each :func:`apply_overrides` keyword (the CLI's vocabulary) → the field
#: path it sets.
OVERRIDE_PATHS: Dict[str, str] = {
    "scheme": "scheme",
    "device_class": "device_class",
    "num_gateways": "num_gateways",
    "device_range_m": "device_range_m",
    "gateway_placement": "gateway_placement",
    "num_routes": "num_routes",
    "trips_per_route": "trips_per_route",
    "duration_s": "duration_s",
    "seed": "seed",
    "num_channels": "radio.num_channels",
    "sf_policy": "radio.sf_policy",
    "mobility": "mobility.model",
    "mobility_nodes": "mobility.num_nodes",
    "trace_file": "mobility.trace_file",
    "buffer": "routing.buffer.policy",
    "buffer_capacity": "routing.buffer.capacity",
    "buffer_ttl_s": "routing.buffer.ttl_s",
    "engine": "engine.engine",
    "engine_tick_s": "engine.tick_s",
}


def apply_overrides(
    config: ScenarioConfig,
    *,
    scale: Optional[float] = None,
    scheme_params: Optional[Mapping[str, Any]] = None,
    **overrides: Any,
) -> ScenarioConfig:
    """Derive a variant of ``config`` from CLI-style overrides.

    ``scale`` (density-preserving shrink, applied first) composes with the
    explicit field overrides, so e.g. ``scale=0.5, num_gateways=12`` means
    "half the area and fleet, then exactly 12 gateways".  Every other
    keyword is a key of :data:`OVERRIDE_PATHS`, ``scheme_params`` maps
    :class:`~repro.routing.config.RoutingConfig` field names to values, and
    ``None`` leaves a field as it is.  A ``trace_file`` implies the
    ``trace-file`` mobility model.
    """
    unknown = overrides.keys() - OVERRIDE_PATHS.keys()
    if unknown:
        raise TypeError(
            f"unknown override(s) {sorted(unknown)}; available: {sorted(OVERRIDE_PATHS)}"
        )
    changes = {
        OVERRIDE_PATHS[name]: value for name, value in overrides.items() if value is not None
    }
    for name, value in (scheme_params or {}).items():
        changes[f"routing.{name}"] = value
    if "mobility.trace_file" in changes:
        model = changes.setdefault("mobility.model", "trace-file")
        if model != "trace-file":
            raise ValueError(
                f"cannot combine a trace file with mobility model {model!r}; "
                "a trace file implies the trace-file model"
            )
    if scale is not None:
        config = config.scaled(scale)
    return replace_fields(config, changes)


def resolve_scenario(target: str) -> ScenarioConfig:
    """A scenario from a preset name or a ``.json``/``.toml`` file path."""
    if target in _PRESETS:
        return _PRESETS[target].config
    if target.lower().endswith((".json", ".toml")):
        from repro.experiments.serialization import load_scenario

        return load_scenario(target)
    raise KeyError(
        f"{target!r} is neither a registered preset ({preset_names()}) "
        "nor a .json/.toml scenario file"
    )


# --------------------------------------------------------------------- #
# Sweep presets
# --------------------------------------------------------------------- #
@dataclass
class SweepArtifact:
    """Uniform result of a sweep: printable text + tabular rows."""

    name: str
    text: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: The native result object (a grid's :class:`GridRuns`, Fig. 7's
    #: properties) for programmatic consumers and the equivalence tests.
    raw: Any = None


SweepRunner = Callable[[ReproductionScale, Optional[SweepExecutor]], SweepArtifact]


@dataclass(frozen=True)
class SweepPreset:
    """A named figure/ablation pipeline runnable at any ReproductionScale."""

    name: str
    description: str
    runner: SweepRunner
    figure: str = ""
    #: The declaration behind a grid sweep (``None`` for Fig. 7).
    grid: Optional["SweepGrid"] = None


_SWEEPS: Dict[str, SweepPreset] = {}


def register_sweep(preset: SweepPreset) -> SweepPreset:
    if preset.name in _SWEEPS:
        raise ValueError(f"duplicate sweep preset name {preset.name!r}")
    _SWEEPS[preset.name] = preset
    return preset


def get_sweep(name: str) -> SweepPreset:
    """Look a sweep up by name (``fig08`` and ``fig8`` both resolve)."""
    key = name.lower()
    if key.startswith("fig") and key[3:].isdigit():
        key = f"fig{int(key[3:])}"
    try:
        return _SWEEPS[key]
    except KeyError:
        raise KeyError(f"unknown sweep {name!r}; available: {sweep_names()}") from None


def _sweep_order(name: str) -> tuple:
    # Figures in paper order (fig7 before fig10), then the ablations by name.
    if name.startswith("fig") and name[3:].isdigit():
        return (0, int(name[3:]), name)
    return (1, 0, name)


def sweep_names() -> List[str]:
    """All registered sweep names, figures first in paper order."""
    return sorted(_SWEEPS, key=_sweep_order)


def iter_sweeps() -> List[SweepPreset]:
    """All registered sweeps in catalogue order."""
    return [_SWEEPS[name] for name in sweep_names()]


def _fig7_runner(scale: ReproductionScale, executor: Optional[SweepExecutor]) -> SweepArtifact:
    del executor  # one mobility generation, nothing to parallelise
    properties = figure07_bus_network(scale)
    rows = [
        {"bin_start_s": start, "active_buses": count}
        for start, count in zip(properties.bin_starts_s, properties.active_buses)
    ]
    return SweepArtifact(
        name="fig7",
        text=format_bus_network("Fig. 7 — bus network properties", properties),
        rows=rows,
        raw=properties,
    )


register_sweep(SweepPreset(
    name="fig7",
    description="Active buses over 24 h and the trip-duration distribution.",
    figure="Fig. 7",
    runner=_fig7_runner,
))


# --------------------------------------------------------------------- #
# Grid sweeps (Figs. 8–13, the ablations and the beyond-the-paper grids)
# --------------------------------------------------------------------- #
#: The operating point a grid without a ``num_gateways`` axis runs at: the
#: paper's 70 nominal gateways, scaled like the density figures' x-axis.
_GRID_NOMINAL_GATEWAYS = 70

#: The printed metric columns of a grid sweep unless it declares others.
_ABLATION_METRICS = (
    "mean_delay_s",
    "throughput_messages",
    "delivery_ratio",
    "mean_energy_joules",
)

#: The metric columns of every comparison-table row, after its axis columns.
_ROW_METRICS = (
    "mean_delay_s",
    "throughput_messages",
    "delivery_ratio",
    "mean_hop_count",
    "mean_messages_sent_per_node",
    "mean_energy_joules",
)

#: One grid point: its value on every axis, in declared axis order.
GridKey = Tuple[Any, ...]


@dataclass(frozen=True)
class SweepAxis:
    """One dimension of a grid sweep.

    ``column`` names the axis in the artifact rows, ``field`` is the dotted
    configuration path its values set (see
    :func:`~repro.config_fields.replace_fields`) and ``label`` formats the
    value for the printed variant key.  ``values`` is a tuple, or the name
    of the :class:`ReproductionScale` field that holds them (``"schemes"``,
    ``"gateway_counts"``).

    An axis over the ``num_gateways`` field is the paper's x-axis: a value
    ``n`` deploys ``max(1, round(n × spatial_scale))`` gateways and labels
    the run with the nominal ``n`` (``RunSpec.nominal_gateways``).
    """

    column: str
    field: str
    values: Union[Tuple[Any, ...], str] = "schemes"
    label: str = "{}"

    def values_at(self, scale: ReproductionScale) -> Tuple[Any, ...]:
        if isinstance(self.values, str):
            return getattr(scale, self.values)
        return self.values


@dataclass
class GridRuns:
    """The metrics of every point of a grid sweep."""

    runs: Dict[GridKey, RunMetrics]


def _environment(device_range_m: float) -> str:
    return "urban" if device_range_m <= 750.0 else "rural"


def render_comparison(
    grid: "SweepGrid", runs: Mapping[GridKey, RunMetrics]
) -> Tuple[str, List[Dict[str, Any]]]:
    """One line per grid point with the grid's printed metrics (the default)."""
    labelled = {
        "/".join(axis.label.format(value) for axis, value in zip(grid.axes, key)): metrics
        for key, metrics in runs.items()
    }
    columns = _ROW_METRICS + tuple(m for m in grid.printed if m not in _ROW_METRICS)
    rows = [
        {
            **dict(zip(grid.columns, key)),
            **{column: getattr(runs[key], column) for column in columns},
        }
        for key in sorted(runs)
    ]
    return format_metric_comparison(grid.title, labelled, grid.printed), rows


def render_figure_table(
    grid: "SweepGrid", runs: Mapping[GridKey, RunMetrics], unit: str
) -> Tuple[str, List[Dict[str, Any]]]:
    """Figs. 8, 9, 12, 13: ``grid.printed[0]`` per environment, gateway count
    and scheme, for a grid over ``(scheme, num_gateways, device_range_m)``;
    rows are ordered by range, then gateway count, then scheme."""
    metric = grid.printed[0]
    rows = [
        {
            "environment": _environment(device_range),
            "num_gateways": count,
            "scheme": scheme,
            "value": float(getattr(metrics, metric)),
        }
        for (scheme, count, device_range), metrics in sorted(
            runs.items(), key=lambda item: item[0][::-1]
        )
    ]
    table = format_table(
        ("environment", "gateways", "scheme", f"value [{unit}]"),
        [
            (row["environment"], row["num_gateways"], row["scheme"], f"{row['value']:.2f}")
            for row in rows
        ],
    )
    return f"{grid.title}\n{table}", rows


def render_day_profile(
    grid: "SweepGrid", runs: Mapping[GridKey, RunMetrics], bin_width_s: float = 600.0
) -> Tuple[str, List[Dict[str, Any]]]:
    """Figs. 10, 11: messages delivered per bin over each run, one column per
    scheme, for a grid over ``(scheme, num_gateways, device_range_m)`` with
    one gateway count and one range."""
    series: Dict[str, List[float]] = {}
    for (scheme, _, device_range), metrics in runs.items():
        starts, counts = metrics.throughput_timeseries(bin_width_s)
        series[scheme] = [float(count) for count in counts]
    bin_starts = [float(start) for start in starts]
    schemes = sorted(series)
    rows = [
        {"time_s": start, "scheme": scheme, "delivered": value}
        for scheme in schemes
        for start, value in zip(bin_starts, series[scheme])
    ]
    # Twelve-odd printed bins keep a day readable; the rows keep them all.
    step = max(len(bin_starts) // 12, 1)
    table = format_table(
        ("time",) + tuple(schemes),
        [
            (f"{bin_starts[index] / 3600.0:.1f}h",)
            + tuple(f"{series[scheme][index]:.0f}" for scheme in schemes)
            for index in range(0, len(bin_starts), step)
        ],
    )
    totals = ", ".join(f"{scheme}={sum(series[scheme]):.0f}" for scheme in schemes)
    text = f"{grid.title} ({_environment(device_range)})\ntotals: {totals}\n{table}"
    return text, rows


def _unchanged(config: ScenarioConfig, scale: ReproductionScale) -> ScenarioConfig:
    return config


@dataclass(frozen=True)
class SweepGrid:
    """A declared sweep: the product of its axes.

    Without a ``num_gateways`` axis, every point runs at the 70-gateway
    operating point.
    """

    title: str
    axes: Tuple[SweepAxis, ...]
    #: The sweep's fixed setting, applied to the base config before the axes.
    fixed: Callable[[ScenarioConfig, ReproductionScale], ScenarioConfig] = _unchanged
    printed: Tuple[str, ...] = _ABLATION_METRICS
    #: Turns the runs into the artifact's text and rows: one of
    #: :func:`render_comparison`, :func:`render_figure_table` (with its
    #: unit bound) or :func:`render_day_profile`.
    render: Callable[
        ["SweepGrid", Mapping[GridKey, RunMetrics]], Tuple[str, List[Dict[str, Any]]]
    ] = render_comparison

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(axis.column for axis in self.axes)


def _deployed_gateways(nominal: int, scale: ReproductionScale) -> int:
    return max(1, round(nominal * scale.spatial_scale))


def grid_points(grid: SweepGrid, scale: ReproductionScale) -> List[Tuple[GridKey, RunSpec]]:
    """Every point of ``grid`` at ``scale`` with its run spec, in axis-product order."""
    base = grid.fixed(
        scale.base_config().with_gateways(
            _deployed_gateways(_GRID_NOMINAL_GATEWAYS, scale)
        ),
        scale,
    )
    paths = [axis.field for axis in grid.axes]
    points = []
    for key in product(*(axis.values_at(scale) for axis in grid.axes)):
        changes = dict(zip(paths, key))
        nominal = changes.get("num_gateways")
        if nominal is not None:
            changes["num_gateways"] = _deployed_gateways(nominal, scale)
        config = replace_fields(base, changes)
        points.append((key, RunSpec(config=config, nominal_gateways=nominal)))
    return points


def run_grid(
    name: str,
    grid: SweepGrid,
    scale: ReproductionScale,
    executor: Optional[SweepExecutor],
) -> SweepArtifact:
    """Run every point of ``grid`` at ``scale``; ``raw.runs`` maps keys to metrics.

    Outcomes stream in as runs complete and are matched back to their
    points by spec, so a point's metrics never depend on completion order.
    """
    points = grid_points(grid, scale)
    executor = executor or SweepExecutor()
    finished = {
        outcome.spec: outcome.metrics
        for outcome in executor.iter_outcomes([spec for _, spec in points])
    }
    runs = {key: finished[spec] for key, spec in points}
    text, rows = grid.render(grid, runs)
    return SweepArtifact(name=name, text=text, rows=rows, raw=GridRuns(runs))


def _register_grid(name: str, description: str, grid: SweepGrid, figure: str = "") -> None:
    register_sweep(SweepPreset(
        name=name,
        description=description,
        figure=figure,
        runner=partial(run_grid, name, grid),
        grid=grid,
    ))


_SCHEMES = SweepAxis("scheme", "scheme")
_GATEWAYS = SweepAxis("num_gateways", "num_gateways", values="gateway_counts")


def _device_ranges(*ranges_m: float) -> SweepAxis:
    return SweepAxis("device_range_m", "device_range_m", values=ranges_m)


def _register_density_figure(
    number: int, description: str, title: str, metric: str, unit: str
) -> None:
    """Figs. 8, 9, 12 and 13: one printed metric of the same density sweep."""
    _register_grid(
        f"fig{number}",
        description,
        SweepGrid(
            title=f"Fig. {number} — {title}",
            axes=(
                _SCHEMES,
                _GATEWAYS,
                _device_ranges(URBAN_DEVICE_RANGE_M, RURAL_DEVICE_RANGE_M),
            ),
            printed=(metric,),
            render=partial(render_figure_table, unit=unit),
        ),
        figure=f"Fig. {number}",
    )


def _register_day_profile(number: int, device_range_m: float) -> None:
    """Figs. 10 and 11: every scheme at 100 nominal gateways over the
    scale's day-profile horizon, in one environment."""
    _register_grid(
        f"fig{number}",
        "Messages delivered per 10-minute bin over the day, "
        f"{_environment(device_range_m)}.",
        SweepGrid(
            title=f"Fig. {number} — throughput over the day",
            axes=(_SCHEMES, replace(_GATEWAYS, values=(100,)), _device_ranges(device_range_m)),
            fixed=lambda config, scale: replace(
                config, duration_s=scale.timeseries_duration_s
            ),
            render=render_day_profile,
        ),
        figure=f"Fig. {number}",
    )


_register_density_figure(
    8, "Mean end-to-end delay vs gateway count, urban and rural.",
    "mean end-to-end delay", "mean_delay_s", "s",
)
_register_density_figure(
    9, "Total delivered messages vs gateway count, urban and rural.",
    "delivered messages", "throughput_messages", "messages",
)
_register_day_profile(10, URBAN_DEVICE_RANGE_M)
_register_day_profile(11, RURAL_DEVICE_RANGE_M)
_register_density_figure(
    12, "Mean delivery hop count vs gateway count, urban and rural.",
    "mean delivery hop count", "mean_hop_count", "hops",
)
_register_density_figure(
    13, "Frames transmitted per node (energy proxy) vs gateway count.",
    "frames sent per node", "mean_messages_sent_per_node", "frames",
)


_register_grid(
    "alpha",
    "EWMA weight α of the RCA-ETX estimator (Eq. 4), five values.",
    SweepGrid(
        title="α ablation — EWMA weight of Eq. (4), RCA-ETX",
        fixed=lambda config, scale: config.with_scheme("rca-etx"),
        axes=(SweepAxis("alpha", "device.ewma_alpha", values=(0.1, 0.3, 0.5, 0.7, 0.9)),),
    ),
    figure="α ablation",
)
_register_grid(
    "device-class",
    "Modified Class-C vs Queue-based Class-A listening policies.",
    SweepGrid(
        title="Device-class ablation — Modified Class-C vs Queue-based Class-A",
        fixed=lambda config, scale: config.with_scheme("robc"),
        axes=(SweepAxis(
            "device_class",
            "device_class",
            values=("modified-class-c", "queue-based-class-a"),
        ),),
    ),
    figure="Sec. VII-C",
)
_register_grid(
    "placement",
    "Grid vs uniform-random gateway placement, all schemes.",
    SweepGrid(
        title="Placement ablation — grid vs uniform-random gateways",
        axes=(
            SweepAxis("gateway_placement", "gateway_placement", values=("grid", "random")),
            _SCHEMES,
        ),
    ),
    figure="Sec. VII-C",
)
# The paper evaluates one mobility source; swapping the trace generator with
# everything else fixed shows how much of each scheme's gain is owed to the
# bus network's route-constrained contact structure.
_register_grid(
    "mobility",
    (
        "Mobility model (london-bus / random-waypoint / grid-manhattan) × "
        "scheme — how much of each scheme's gain the bus-network contact "
        "structure is responsible for."
    ),
    SweepGrid(
        title=(
            "Mobility sweep — trace model × scheme, bus-network contact "
            "structure vs synthetic mobility"
        ),
        axes=(
            SweepAxis(
                "mobility_model",
                "mobility.model",
                values=("london-bus", "random-waypoint", "grid-manhattan"),
            ),
            _SCHEMES,
        ),
    ),
)
# The paper fixes a 64-message FIFO tail-drop buffer; this grid opens the
# buffer-management axis, and the buffer counters (loss vs handover dedup)
# are its headline comparison, so they are printed too.
_register_grid(
    "routing",
    (
        "Forwarding scheme × buffer policy (drop-new / drop-oldest / "
        "priority-age) × buffer capacity (8 / 64) — the DTN "
        "buffer-management axis, with loss separated from handover "
        "deduplication in the metrics."
    ),
    SweepGrid(
        title="Routing sweep — scheme × buffer policy × capacity",
        axes=(
            SweepAxis("scheme", "scheme", values=("robc", "prophet")),
            SweepAxis(
                "buffer_policy",
                "routing.buffer.policy",
                values=("drop-new", "drop-oldest", "priority-age"),
            ),
            SweepAxis(
                "buffer_capacity", "routing.buffer.capacity", values=(8, 64), label="cap{}"
            ),
        ),
        printed=_ABLATION_METRICS
        + ("messages_dropped_full", "messages_rejected_duplicate"),
    ),
)
# The paper fixes one shared SF7 channel; this grid provisions the radio the
# way EU868 deployments are, measuring how much of the store-carry-forward
# gain survives when the channel itself decongests.
_register_grid(
    "multisf",
    (
        "Uplink channels (1/3/8) × scheme under distance-based spreading "
        "factors — beyond the paper's single shared SF7 channel."
    ),
    SweepGrid(
        title="Multi-SF radio sweep — uplink channels × scheme, distance-based SFs",
        fixed=lambda config, scale: replace_fields(
            config, {"radio.sf_policy": "distance-based"}
        ),
        axes=(
            SweepAxis("num_channels", "radio.num_channels", values=(1, 3, 8), label="{}ch"),
            _SCHEMES,
        ),
    ),
)


def resolve_scale(value: Union[str, float, None]) -> ReproductionScale:
    """A ReproductionScale from a name (smoke/benchmark/campaign) or a float.

    A float is interpreted as a spatial scale applied to the benchmark
    profile (durations and gateway grid unchanged).
    """
    if value is None:
        return BENCHMARK_SCALE
    if isinstance(value, str):
        if value in SCALE_PRESETS:
            return SCALE_PRESETS[value]
        try:
            value = float(value)
        except ValueError:
            raise KeyError(
                f"unknown scale {value!r}; use one of {sorted(SCALE_PRESETS)} "
                "or a spatial-scale float in (0, 1]"
            ) from None
    if not 0 < float(value) <= 1:
        raise ValueError(f"spatial scale must be in (0, 1], got {value!r}")
    return replace(BENCHMARK_SCALE, spatial_scale=float(value))


# --------------------------------------------------------------------- #
# docs/scenarios.md generation
# --------------------------------------------------------------------- #
def _hours(seconds: float) -> str:
    return f"{seconds / 3600.0:g} h"


def _radio_label(config: ScenarioConfig) -> str:
    radio = config.radio
    if radio.is_default:
        return "1 ch, SF7"
    return f"{radio.num_channels} ch, {radio.sf_policy}"


def _mobility_label(config: ScenarioConfig) -> str:
    mobility = config.mobility
    if mobility.num_nodes > 0:
        return f"{mobility.model} ({mobility.num_nodes} nodes)"
    return mobility.model


def _buffer_label(config: ScenarioConfig) -> str:
    buffer = config.routing.buffer
    if buffer.is_default:
        return "`drop-new`, capacity device default"
    capacity = str(buffer.capacity) if buffer.capacity > 0 else "device default"
    label = f"`{buffer.policy}`, capacity {capacity}"
    if buffer.ttl_s > 0:
        label += f", TTL {buffer.ttl_s:g} s"
    return label


def render_scenarios_markdown() -> str:
    """The full text of ``docs/scenarios.md``, generated from the registries.

    ``tests/experiments/test_registry.py`` pins the committed file to this
    output; regenerate with ``repro docs --write`` after changing a preset.
    """
    lines: List[str] = [
        "# Scenario catalogue",
        "",
        "<!-- GENERATED FILE — do not edit by hand.",
        "     Regenerate with: PYTHONPATH=src python -m repro docs --write -->",
        "",
        "This catalogue is generated from `repro.experiments.registry`, the",
        "single source of truth the `repro` CLI runs from.  Run any preset with",
        "`repro run <name>`, inspect it with `repro describe <name>`, export it",
        "to a shareable file with `repro export <name> out.toml`, and derive",
        "variants with the override flags (`--scheme`, `--scheme-param`,",
        "`--buffer`, `--buffer-capacity`, `--gateways`, `--scale`,",
        "`--device-class`, `--range`, `--routes`, `--channels`, `--sf-policy`,",
        "`--mobility`, `--trace-file`, `--seed`, …).",
        "",
        "## Scenario presets",
        "",
        "| preset | scheme | gateways | D2D range | area | duration | radio | mobility | reproduces |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for preset in iter_presets():
        cfg = preset.config
        lines.append(
            f"| `{preset.name}` | {cfg.scheme} | {cfg.num_gateways} "
            f"| {cfg.device_range_m:g} m | {cfg.area_km2:g} km² "
            f"| {_hours(cfg.duration_s)} | {_radio_label(cfg)} "
            f"| {_mobility_label(cfg)} "
            f"| {preset.figure or '—'} |"
        )
    lines.append("")
    for preset in iter_presets():
        cfg = preset.config
        lines.extend([
            f"### `{preset.name}`",
            "",
            preset.description,
            "",
            f"- tags: {', '.join(preset.tags) if preset.tags else '—'}",
            f"- fleet: {cfg.num_routes} routes × {cfg.trips_per_route} trips "
            f"= {cfg.num_routes * cfg.trips_per_route} buses",
            f"- device class: `{cfg.device_class}`, placement: `{cfg.gateway_placement}`, "
            f"seed: {cfg.seed}",
            f"- radio: {cfg.radio.num_channels} channel(s), "
            f"`{cfg.radio.sf_policy}` SF policy",
            f"- mobility: `{cfg.mobility.model}`",
            f"- buffer: {_buffer_label(cfg)}",
            "",
        ])
    lines.extend([
        "## Figure sweeps (`repro sweep <name>`)",
        "",
        "Each sweep accepts `--scale smoke|benchmark|campaign` (or a spatial-",
        "scale float), `--workers N` for process-parallel execution and",
        "`--cache DIR` to reuse finished runs across invocations.",
        "",
        "| sweep | reproduces | what it runs |",
        "| --- | --- | --- |",
    ])
    for sweep in iter_sweeps():
        lines.append(f"| `{sweep.name}` | {sweep.figure or '—'} | {sweep.description} |")
    lines.extend([
        "",
        "## Execution scales",
        "",
        "| name | spatial scale | duration | gateway counts |",
        "| --- | --- | --- | --- |",
    ])
    for name in sorted(SCALE_PRESETS):
        scale = SCALE_PRESETS[name]
        counts = ", ".join(str(c) for c in scale.gateway_counts)
        lines.append(
            f"| `{name}` | {scale.spatial_scale:g} | {_hours(scale.duration_s)} "
            f"| {counts} |"
        )
    lines.append("")
    return "\n".join(lines)
