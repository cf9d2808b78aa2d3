"""Fig. 11 — throughput over the day, rural (1000 m device-to-device range)."""

from benchmarks.conftest import TIMESERIES_SCALE
from repro.experiments.parallel import SweepExecutor
from repro.experiments.registry import get_sweep


def test_bench_fig11_rural_timeseries(benchmark):
    artifact = benchmark.pedantic(
        get_sweep("fig11").runner,
        args=(TIMESERIES_SCALE, SweepExecutor()),
        rounds=1,
        iterations=1,
    )
    print()
    print(artifact.text)

    assert artifact.text.splitlines()[0].endswith("(rural)")
    total = {}
    for row in artifact.rows:
        total[row["scheme"]] = total.get(row["scheme"], 0.0) + row["delivered"]
    for scheme in TIMESERIES_SCALE.schemes:
        assert total[scheme] > 0
    # Paper: in the rural setting ROBC matches or beats plain LoRaWAN overall.
    assert total["robc"] >= 0.8 * total["no-routing"]
