"""Fig. 8 — average end-to-end delay versus gateway density.

The benchmark times one representative simulation run (ROBC, nominal 70
gateways, urban range); the printed table is derived from the shared
density sweep and reports the same rows as the paper's Fig. 8.
"""

from benchmarks.conftest import SWEEP_SCALE
from repro.experiments.figures import URBAN_DEVICE_RANGE_M
from repro.experiments.registry import get_sweep
from repro.experiments.runner import run_scenario


def _representative_run():
    config = (
        SWEEP_SCALE.base_config()
        .with_scheme("robc")
        .with_gateways(max(1, round(70 * SWEEP_SCALE.spatial_scale)))
        .with_device_range(URBAN_DEVICE_RANGE_M)
    )
    return run_scenario(config)


def test_bench_fig08_delay(benchmark, density_sweep):
    metrics = benchmark.pedantic(_representative_run, rounds=1, iterations=1)
    assert metrics.messages_delivered > 0

    artifact = get_sweep("fig8").runner(SWEEP_SCALE, density_sweep)
    print()
    print(artifact.text)

    # Acceptance: every (environment, gateway count, scheme) combination has a
    # finite delay and all schemes deliver data at every density.
    assert len(artifact.rows) == 3 * len(SWEEP_SCALE.gateway_counts) * 2
    assert all(row["value"] >= 0.0 for row in artifact.rows)
