"""Fig. 10 — throughput over the day, urban (500 m device-to-device range)."""

from benchmarks.conftest import TIMESERIES_SCALE
from repro.experiments.parallel import SweepExecutor
from repro.experiments.registry import get_sweep


def test_bench_fig10_urban_timeseries(benchmark):
    artifact = benchmark.pedantic(
        get_sweep("fig10").runner,
        args=(TIMESERIES_SCALE, SweepExecutor()),
        rounds=1,
        iterations=1,
    )
    print()
    print(artifact.text)

    assert artifact.text.splitlines()[0].endswith("(urban)")
    total = {}
    for row in artifact.rows:
        total[row["scheme"]] = total.get(row["scheme"], 0.0) + row["delivered"]
    assert set(total) == set(TIMESERIES_SCALE.schemes)
    for scheme in TIMESERIES_SCALE.schemes:
        assert total[scheme] > 0
