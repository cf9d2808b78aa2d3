"""Micro-benchmark of the neighbour overhear fan-out in the engine hot path.

Every uplink of a forwarding scheme triggers a device-range neighbour query
plus per-neighbour channel/SF/listening checks (the fan-out), and every
completion replays the overhearers through the scheme.  When the configured
scheme reports ``uses_forwarding=False`` the engine skips that work entirely
— plain LoRaWAN pays nothing for the routing hook.  The two timed runs here
put a number on both sides of that gate in ``BENCH_results.json``:

* ``forwarding`` — ROBC, the full fan-out on every uplink;
* ``skipped`` — no-routing on the *same* scenario, fan-out bypassed.
"""

from repro.experiments.figures import URBAN_DEVICE_RANGE_M, ReproductionScale
from repro.experiments.runner import MLoRaSimulation
from repro.experiments.scenario import build_scenario

#: A dense slice: many concurrently active buses in device range of each
#: other, so the overhear fan-out dominates the uplink path.
FANOUT_SCALE = ReproductionScale(
    spatial_scale=0.08,
    duration_s=2.0 * 3600.0,
    gateway_counts=(70,),
    seed=7,
)


def _config(scheme: str):
    return (
        FANOUT_SCALE.base_config()
        .with_scheme(scheme)
        .with_gateways(max(1, round(70 * FANOUT_SCALE.spatial_scale)))
        .with_device_range(URBAN_DEVICE_RANGE_M)
    )


def _run(scheme: str):
    simulation = MLoRaSimulation(build_scenario(_config(scheme)))
    metrics = simulation.run()
    return metrics, simulation


def test_bench_overhear_fanout_forwarding(benchmark):
    """The full fan-out: ROBC consults the scheme on every overheard uplink."""
    metrics, simulation = benchmark.pedantic(_run, args=("robc",), rounds=1, iterations=1)
    assert metrics.messages_delivered > 0
    # The fan-out actually fired: devices overheard and handed messages over.
    assert simulation.handover_count > 0
    print()
    print(
        f"overhear fan-out (robc): {metrics.messages_generated} generated, "
        f"{simulation.handover_count} handover frames, "
        f"{simulation.handed_over_messages} messages re-carried"
    )


def test_bench_overhear_fanout_skipped(benchmark):
    """The gated path: no-routing skips the neighbour fan-out entirely."""
    metrics, simulation = benchmark.pedantic(
        _run, args=("no-routing",), rounds=1, iterations=1
    )
    assert metrics.messages_delivered > 0
    # The gate held: no neighbour ever consulted, no handover ever sent.
    assert simulation.handover_count == 0
    assert simulation.handed_over_messages == 0
    assert all(h == 1 for h in metrics.hop_counts)
    print()
    print(
        f"overhear fan-out skipped (no-routing): "
        f"{metrics.messages_generated} generated, "
        f"{metrics.messages_delivered} delivered, 0 handover frames"
    )
