"""Fig. 12 — average number of hops per delivered message."""

from benchmarks.conftest import SWEEP_SCALE
from repro.experiments.registry import get_sweep


def test_bench_fig12_hops(benchmark, density_sweep):
    artifact = benchmark.pedantic(
        get_sweep("fig12").runner, args=(SWEEP_SCALE, density_sweep), rounds=1, iterations=1
    )
    rows = artifact.rows
    print()
    print(artifact.text)

    # Paper: plain LoRaWAN messages always have hop count exactly 1, while the
    # forwarding schemes travel over more than one hop on average.
    baseline_rows = [row for row in rows if row["scheme"] == "no-routing"]
    assert all(abs(row["value"] - 1.0) < 1e-9 for row in baseline_rows)

    forwarding_rows = [row for row in rows if row["scheme"] in ("rca-etx", "robc")]
    assert all(row["value"] >= 1.0 for row in forwarding_rows)
    assert any(row["value"] > 1.0 for row in forwarding_rows)
