"""Fig. 13 — average number of messages sent per node (energy-overhead proxy)."""

from benchmarks.conftest import SWEEP_SCALE
from repro.experiments.registry import get_sweep


def test_bench_fig13_overhead(benchmark, density_sweep):
    artifact = benchmark.pedantic(
        get_sweep("fig13").runner, args=(SWEEP_SCALE, density_sweep), rounds=1, iterations=1
    )
    print()
    print(artifact.text)

    # Paper: the forwarding schemes send more frames than plain LoRaWAN
    # (1.6x-2.2x in the paper's setting); at minimum they must not send fewer.
    value = {
        (row["environment"], row["num_gateways"], row["scheme"]): row["value"]
        for row in artifact.rows
    }
    for environment in ("urban", "rural"):
        for count in SWEEP_SCALE.gateway_counts:
            baseline = value[environment, count, "no-routing"]
            for scheme in ("rca-etx", "robc"):
                assert value[environment, count, scheme] >= 0.95 * baseline
