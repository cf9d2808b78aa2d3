"""Allocation bound on building the London fleet's traces.

``build_mobility`` builds the traces of a block of trips at a time through a
padded step matrix of about ``TRIP_BLOCK_STEPS`` padded steps.  The
traces themselves hold three float64 arrays of samples; everything else the
build allocates (the timetable, the per-route waypoint table, the chunk's
transients, the trace objects) is held below half of those sample bytes.  A
whole-fleet padded matrix (~4x the sample bytes) or per-sample Python objects
(~10x) break the bound.  ``tracemalloc`` counts NumPy buffers too, so the
measurement is deterministic: no wall-clock, no RSS.
"""

import tracemalloc

from repro.experiments.registry import apply_overrides, get_preset
from repro.mobility.models import build_mobility
from repro.sim.randomness import RandomStreams

#: A quarter of megacity-10k: ~2,500 buses and ~750k samples (18 MB).
SCALE = 0.25

#: Peak traced bytes of the build, as a multiple of its sample bytes.
PEAK_OVER_SAMPLES = 1.5


def test_build_mobility_peak_stays_near_its_sample_bytes():
    config = apply_overrides(get_preset("megacity-10k").config, scale=SCALE)
    spec = config.mobility_spec()
    rng = RandomStreams(config.seed).stream("mobility")

    tracemalloc.start()
    try:
        build = build_mobility(spec, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    traces = list(build.traces.values())
    assert len(traces) == spec.network.num_routes * spec.network.trips_per_route
    sample_bytes = sum(
        t._times_array.nbytes + t._xs_array.nbytes + t._ys_array.nbytes for t in traces
    )
    assert sample_bytes > 10_000_000
    assert peak <= PEAK_OVER_SAMPLES * sample_bytes, (
        f"build_mobility peaked at {peak / 1e6:.1f} MB for "
        f"{sample_bytes / 1e6:.1f} MB of samples"
    )
