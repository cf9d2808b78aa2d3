"""Fig. 9 — total network throughput versus gateway density."""

from benchmarks.conftest import SWEEP_SCALE
from repro.experiments.registry import get_sweep


def test_bench_fig09_throughput(benchmark, density_sweep):
    artifact = benchmark.pedantic(
        get_sweep("fig9").runner, args=(SWEEP_SCALE, density_sweep), rounds=1, iterations=1
    )
    rows = artifact.rows
    print()
    print(artifact.text)

    assert all(row["value"] >= 0 for row in rows)

    # Qualitative acceptance (paper: ROBC improves throughput over plain
    # LoRaWAN, most visibly in the rural setting at low gateway density).
    def total(scheme):
        return sum(
            row["value"] for row in rows
            if row["scheme"] == scheme and row["environment"] == "rural"
        )

    lowest = min(SWEEP_SCALE.gateway_counts)
    baseline_low = next(
        row["value"] for row in rows
        if row["scheme"] == "no-routing" and row["environment"] == "rural"
        and row["num_gateways"] == lowest
    )
    robc_low = next(
        row["value"] for row in rows
        if row["scheme"] == "robc" and row["environment"] == "rural"
        and row["num_gateways"] == lowest
    )
    assert robc_low >= 0.9 * baseline_low
    assert total("robc") > 0 and total("rca-etx") > 0
