"""Benchmark of scenario build's mobility layer: building the bus traces.

Times :func:`repro.mobility.models.build_mobility` — timetable generation
plus one array-built trace per trip — for the two fleets the repository
benchmark runs: ``megacity-10k`` at scale 0.25 (~2,500 buses) and the
960-bus ``urban-full`` preset.  There is no speed floor (shared-host noise
is about ±30%); the best-of-3 wall time lands in ``BENCH_results.json`` for
``compare_bench.py`` to diff.
"""

import pytest

from repro.experiments.registry import apply_overrides, get_preset
from repro.mobility.models import build_mobility
from repro.sim.randomness import RandomStreams

FLEETS = {
    "megacity-10k-quarter": ("megacity-10k", 0.25),
    "urban-full": ("urban-full", None),
}


@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_bench_mobility_build(benchmark, fleet):
    preset, scale = FLEETS[fleet]
    config = apply_overrides(get_preset(preset).config, scale=scale)
    spec = config.mobility_spec()

    def build():
        return build_mobility(spec, RandomStreams(config.seed).stream("mobility"))

    result = benchmark.pedantic(build, rounds=3, iterations=1)
    samples = sum(len(trace.points) for trace in result.traces.values())
    print(
        f"\n{fleet}: {len(result.traces)} traces, {samples} samples, "
        f"best {benchmark.stats.stats.min:.3f} s"
    )
    assert len(result.traces) == spec.network.num_routes * spec.network.trips_per_route
