"""Golden lock on every simulated sweep: the six grid sweeps (alpha,
device-class, placement, multisf, mobility, routing) and the figure sweeps
(Figs. 8–13).

The simulation is replaced by a fake whose metrics are a pure function of
``config_digest(config)``, so a whole sweep runs in milliseconds.  For each
sweep at the smoke and benchmark scales the test pins:

* the ordered list of ``RunSpec.cache_key()`` values the sweep submits —
  identical keys mean identical configurations, hence identical real
  metrics;
* the exact printed ``artifact.text``;
* every row value.

``sweep_goldens.json`` was recorded before the sweeps became declarative
grids (the six grid sweeps first, Figs. 8–13 later).  Two intended
differences since then:

* ``placement`` rows split their single ``placement_scheme`` column
  (``"grid/robc"``) into one column per axis, which :func:`_expected_rows`
  derives from the recorded rows;
* the density figures (8, 9, 12, 13) compare their cache keys as sorted
  lists.  Their grids declare the axes ``(scheme, num_gateways,
  device_range_m)``, so their runs are now submitted scheme-major instead
  of range-major; the set of runs is unchanged.

Record a newly added sweep with
``PYTHONPATH=src python tests/experiments/test_sweep_goldens.py``; it never
rewrites an existing entry (delete one to re-record it, and only when a
sweep change is intended).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Sequence

import pytest

from repro.analysis.metrics import RunMetrics
from repro.experiments import parallel
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import BENCHMARK_SCALE, SMOKE_SCALE
from repro.experiments.parallel import RunSpec, SweepExecutor, config_digest
from repro.experiments.registry import get_sweep, iter_sweeps

GOLDEN_PATH = Path(__file__).with_name("sweep_goldens.json")

SCALES = {"smoke": SMOKE_SCALE, "benchmark": BENCHMARK_SCALE}

#: The comparison-table grid sweeps and the row columns their axes produce,
#: in declared order.
GRID_AXES = {
    "alpha": ("alpha",),
    "device-class": ("device_class",),
    "placement": ("gateway_placement", "scheme"),
    "multisf": ("num_channels", "scheme"),
    "mobility": ("mobility_model", "scheme"),
    "routing": ("scheme", "buffer_policy", "buffer_capacity"),
}

#: The figure sweeps, and whether each one's cache keys are compared sorted.
FIGURE_KEYS_SORTED = {
    "fig8": True,
    "fig9": True,
    "fig10": False,
    "fig11": False,
    "fig12": True,
    "fig13": True,
}


def fake_run_scenario(config: ScenarioConfig) -> RunMetrics:
    """Deterministic stand-in metrics derived from the config digest."""
    seed = hashlib.sha256(config_digest(config).encode("ascii")).digest()
    values = list(seed)
    generated = 100 + values[0]
    delivered = values[1] % generated
    return RunMetrics(
        scheme=config.scheme,
        num_gateways=config.num_gateways,
        device_range_m=config.device_range_m,
        duration_s=config.duration_s,
        messages_generated=generated,
        messages_delivered=delivered,
        messages_dropped_full=values[2],
        messages_rejected_duplicate=values[3],
        delays_s=[float(v) * 7.5 for v in values[4:8]],
        hop_counts=[1 + v % 4 for v in values[8:12]],
        transmissions_per_device={f"d{i}": v for i, v in enumerate(values[12:16])},
        energy_joules_per_device={
            f"d{i}": v / 16.0 for i, v in enumerate(values[16:20])
        },
        delivery_times_s=sorted(v * config.duration_s / 256.0 for v in values[20:32]),
    )


class RecordingExecutor(SweepExecutor):
    """An in-process executor that remembers the cache keys it was given.

    It records in ``_execute``, the one path both :meth:`SweepExecutor.run`
    and :meth:`SweepExecutor.iter_outcomes` go through.
    """

    def __init__(self) -> None:
        super().__init__()
        self.cache_keys: List[str] = []

    def _execute(self, specs: Sequence[RunSpec]):
        self.cache_keys.extend(spec.cache_key() for spec in specs)
        return super()._execute(specs)


def run_sweep(name: str, scale_name: str) -> Dict[str, Any]:
    executor = RecordingExecutor()
    artifact = get_sweep(name).runner(SCALES[scale_name], executor)
    return {
        "cache_keys": executor.cache_keys,
        "text": artifact.text,
        "rows": artifact.rows,
    }


def _expected_rows(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Recorded rows in today's layout: one column per grid axis."""
    expected = []
    for row in rows:
        if "placement_scheme" in row:
            row = dict(row)
            placement, scheme = row.pop("placement_scheme").split("/")
            row = {"gateway_placement": placement, "scheme": scheme, **row}
        expected.append(row)
    return expected


CASES = [
    (name, scale) for name in (*GRID_AXES, *FIGURE_KEYS_SORTED) for scale in SCALES
]


@pytest.fixture
def fake_simulation(monkeypatch):
    monkeypatch.setattr(parallel, "run_scenario", fake_run_scenario)


@pytest.fixture(scope="module")
def goldens() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,scale_name", CASES)
def test_sweep_matches_golden(fake_simulation, goldens, name, scale_name):
    golden = goldens[f"{name}@{scale_name}"]
    result = run_sweep(name, scale_name)
    if FIGURE_KEYS_SORTED.get(name, False):
        assert sorted(result["cache_keys"]) == sorted(golden["cache_keys"])
    else:
        assert result["cache_keys"] == golden["cache_keys"]
    assert result["text"] == golden["text"]
    assert result["rows"] == _expected_rows(golden["rows"])


@pytest.mark.parametrize("name", sorted(GRID_AXES))
def test_rows_start_with_one_column_per_axis(fake_simulation, name):
    axes = GRID_AXES[name]
    rows = get_sweep(name).runner(SMOKE_SCALE, SweepExecutor()).rows
    assert rows
    for row in rows:
        assert tuple(row)[: len(axes)] == axes


def test_grid_sweeps_declare_these_axes():
    grids = {sweep.name: sweep.grid for sweep in iter_sweeps() if sweep.grid is not None}
    density = ("scheme", "num_gateways", "device_range_m")
    assert {name: grid.columns for name, grid in grids.items()} == {
        **GRID_AXES,
        **{name: density for name in FIGURE_KEYS_SORTED},
    }


@pytest.mark.parametrize(
    "name,metric",
    [
        ("fig8", "mean_delay_s"),
        ("fig9", "throughput_messages"),
        ("fig12", "mean_hop_count"),
        ("fig13", "mean_messages_sent_per_node"),
    ],
)
def test_density_figures_cover_every_point_with_their_metric(
    fake_simulation, name, metric
):
    artifact = get_sweep(name).runner(SMOKE_SCALE, SweepExecutor())
    runs = artifact.raw.runs
    ranges = {"urban": 500.0, "rural": 1000.0}
    assert len(artifact.rows) == len(runs) == (
        len(SMOKE_SCALE.schemes) * len(SMOKE_SCALE.gateway_counts) * len(ranges)
    )
    assert {row["environment"] for row in artifact.rows} == set(ranges)
    for row in artifact.rows:
        metrics = runs[row["scheme"], row["num_gateways"], ranges[row["environment"]]]
        assert metrics.num_gateways == row["num_gateways"]
        assert row["value"] == float(getattr(metrics, metric))


@pytest.mark.parametrize("name,environment", [("fig10", "urban"), ("fig11", "rural")])
def test_day_profiles_bin_every_delivery(fake_simulation, name, environment):
    artifact = get_sweep(name).runner(SMOKE_SCALE, SweepExecutor())
    assert artifact.text.splitlines()[0].endswith(f"({environment})")
    runs = artifact.raw.runs
    assert {scheme for scheme, _, _ in runs} == set(SMOKE_SCALE.schemes)
    for (scheme, nominal, _), metrics in runs.items():
        assert nominal == 100
        assert metrics.duration_s == SMOKE_SCALE.timeseries_duration_s
        delivered = [row["delivered"] for row in artifact.rows if row["scheme"] == scheme]
        assert sum(delivered) == len(metrics.delivery_times_s) > 0


class ShuffledExecutor(SweepExecutor):
    """Streams every outcome in reverse completion order, counting them."""

    def __init__(self) -> None:
        super().__init__()
        self.streamed = 0

    def iter_outcomes(self, specs, **kwargs):
        outcomes = list(super().iter_outcomes(specs, **kwargs))
        self.streamed += len(outcomes)
        return reversed(outcomes)


def test_run_grid_streams_and_matches_outcomes_by_spec(fake_simulation):
    """``run_grid`` consumes ``iter_outcomes`` and keys each outcome by its
    spec, so completion order (a process pool's) cannot misplace a run."""
    in_order = get_sweep("fig9").runner(SMOKE_SCALE, SweepExecutor())
    executor = ShuffledExecutor()
    shuffled = get_sweep("fig9").runner(SMOKE_SCALE, executor)
    assert executor.streamed == len(in_order.raw.runs) == 12
    assert shuffled.raw.runs == in_order.raw.runs
    assert (shuffled.text, shuffled.rows) == (in_order.text, in_order.rows)


def record() -> None:
    """Add the sweeps missing from ``sweep_goldens.json``; never re-record one."""
    parallel.run_scenario = fake_run_scenario
    data = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    for name, scale in CASES:
        data.setdefault(f"{name}@{scale}", run_sweep(name, scale))
    GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
