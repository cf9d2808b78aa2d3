"""Golden lock on the six grid sweeps (alpha, device-class, placement,
multisf, mobility, routing).

The simulation is replaced by a fake whose metrics are a pure function of
``config_digest(config)``, so a whole sweep runs in milliseconds.  For each
sweep at the smoke and benchmark scales the test pins:

* the ordered list of ``RunSpec.cache_key()`` values the sweep submits —
  identical keys mean identical configurations, hence identical real
  metrics;
* the exact printed ``artifact.text``;
* every row value.

``sweep_goldens.json`` was recorded before the sweeps became declarative
grids.  The one intended difference since then: ``placement`` rows split
their single ``placement_scheme`` column (``"grid/robc"``) into one column
per axis, which :func:`_expected_rows` derives from the recorded rows.

Re-record (only when a sweep change is intended) with
``PYTHONPATH=src python tests/experiments/test_sweep_goldens.py``.
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

#: Every grid sweep and the row columns its axes produce, in declared order.
GRID_AXES = {
    "alpha": ("alpha",),
    "device-class": ("device_class",),
    "placement": ("gateway_placement", "scheme"),
    "multisf": ("num_channels", "scheme"),
    "mobility": ("mobility_model", "scheme"),
    "routing": ("scheme", "buffer_policy", "buffer_capacity"),
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
    )


class RecordingExecutor(SweepExecutor):
    """An in-process executor that remembers the cache keys it was given."""

    def __init__(self) -> None:
        super().__init__()
        self.cache_keys: List[str] = []

    def run_metrics(self, specs: Sequence[RunSpec]) -> List[RunMetrics]:
        specs = list(specs)
        self.cache_keys.extend(spec.cache_key() for spec in specs)
        return super().run_metrics(specs)


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


CASES = [(name, scale) for name in GRID_AXES for scale in SCALES]


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
    assert {name: grid.columns for name, grid in grids.items()} == GRID_AXES


def record() -> None:
    """Write ``sweep_goldens.json`` from the current sweeps."""
    parallel.run_scenario = fake_run_scenario
    data = {f"{name}@{scale}": run_sweep(name, scale) for name, scale in CASES}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
