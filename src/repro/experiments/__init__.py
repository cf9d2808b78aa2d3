"""Experiment harness.

* :mod:`repro.experiments.config` — scenario configuration (area, gateways,
  mobility, scheme, device class) with a single ``scale`` knob.
* :mod:`repro.experiments.scenario` — builds devices, gateways and the
  time-varying topology from a configuration.
* :mod:`repro.experiments.runner` — the event-driven MLoRa-SS simulation
  engine that executes one run and returns :class:`repro.analysis.RunMetrics`.
* :mod:`repro.experiments.parallel` — the :class:`SweepExecutor` campaign
  engine: batches of independent runs over a pluggable execution backend,
  with deterministic per-run seed derivation, store-on-completion caching,
  per-run retry and per-spec failure outcomes.
* :mod:`repro.experiments.backends` — the execution backends (``serial``,
  ``process-pool``, multi-host ``work-queue``), selected by name.
* :mod:`repro.experiments.store` — the content-addressed
  :class:`ResultStore` of finished :class:`RunMetrics` with streaming
  aggregation.
* :mod:`repro.experiments.service` — the ``repro serve`` asyncio results
  service (submit a scenario or digest, get cached metrics or a job handle).
* :mod:`repro.experiments.figures` — the reproduction scales (smoke,
  benchmark, campaign), the paper's sweep constants and Fig. 7.
* :mod:`repro.experiments.registry` — named scenario presets (urban, rural,
  ablation points, synthetic variants) and sweep presets: Fig. 7 plus the
  declared grid sweeps (Figs. 8–13, the ablations and the beyond-the-paper
  grids) that one runner executes; the catalogue ``docs/scenarios.md`` is
  generated from it.
* :mod:`repro.experiments.serialization` — lossless, digest-stable
  ScenarioConfig ⇄ JSON/TOML round trips so scenarios are shareable files.
* :mod:`repro.experiments.cli` — the ``repro`` console entry point
  (``repro list | describe | run | sweep | export | docs``).
* :mod:`repro.experiments.reporting` — plain-text tables plus the CSV/JSON
  artifact writers behind ``repro … --out``.
"""

from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import (
    RunOutcome,
    RunSpec,
    SweepExecutionError,
    SweepExecutor,
    derive_run_seed,
    replication_specs,
    spec_from_dict,
    spec_to_dict,
)
from repro.experiments.store import MetricsAccumulator, ResultStore
from repro.experiments.registry import (
    ScenarioPreset,
    SweepPreset,
    get_preset,
    get_sweep,
    iter_presets,
    iter_sweeps,
    preset_names,
    resolve_scenario,
    sweep_names,
)
from repro.experiments.runner import MLoRaSimulation, run_scenario
from repro.experiments.scenario import BuiltScenario, build_scenario
from repro.experiments.serialization import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__all__ = [
    "ScenarioConfig",
    "ScenarioPreset",
    "SweepPreset",
    "get_preset",
    "get_sweep",
    "iter_presets",
    "iter_sweeps",
    "preset_names",
    "sweep_names",
    "resolve_scenario",
    "load_scenario",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "MLoRaSimulation",
    "run_scenario",
    "BuiltScenario",
    "build_scenario",
    "RunOutcome",
    "RunSpec",
    "SweepExecutionError",
    "SweepExecutor",
    "MetricsAccumulator",
    "ResultStore",
    "derive_run_seed",
    "replication_specs",
    "spec_from_dict",
    "spec_to_dict",
]
