"""Allocation bound on the array engine's gateway candidacy.

The engine used to rebuild a dense ``(n_devices, n_gateways)`` distance
matrix, with same-sized temporaries, on every tick.  The static gateway grid
replaced it; this test keeps it from coming back.  ``tracemalloc`` counts
NumPy buffers too, so the measurement is deterministic: no wall-clock, no
RSS.  The retry chains' look-ahead table is held to one byte per (tick,
device), and the per-tick candidacy kept beside it for ``_refresh_tick`` to
a few bytes per (tick, device), released as the ticks are refreshed.
"""

import sys
import tracemalloc

from repro.engine.array_engine import ArrayMLoRaSimulation
from repro.experiments.registry import apply_overrides, get_preset
from repro.experiments.scenario import build_scenario

#: A quarter of megacity-10k: ~2,500 buses and 156 gateways, so one dense
#: float matrix is ~3 MB, well above the grid's transient allocations.
SCALE = 0.25


def test_init_and_tick_candidacy_never_allocate_a_fleet_by_gateway_matrix():
    config = apply_overrides(get_preset("megacity-10k").config, scale=SCALE)
    scenario = build_scenario(config)
    n_devices = len(scenario.devices)
    n_gateways = len(scenario.gateways)
    dense_bytes = n_devices * n_gateways * 8
    n_ticks = int(config.duration_s // config.engine.tick_s) + 1

    tracemalloc.start()
    try:
        sim = ArrayMLoRaSimulation(scenario)
        retained, init_peak = tracemalloc.get_traced_memory()
        held = sum(ptr.nbytes + gw.nbytes for ptr, gw in sim._tick_candidacy.values())
        tracemalloc.reset_peak()
        for tick in range(n_ticks):
            sim._refresh_tick(tick)
        _, tick_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert sim._current_tick == n_ticks - 1
    # The kept candidacy: 32-bit CSR rows, all taken by the refreshes.
    assert len(sim._tick_candidacy) == 0
    assert held <= 8 * (n_ticks * (n_devices + 1))
    # Memory allocated and freed again, above what stays allocated.
    assert init_peak - retained < dense_bytes
    assert tick_peak - retained < dense_bytes
    # The chain look-ahead: one compact byte per (tick, device), not lists.
    assert sim._chain_ok
    look_ahead = sim._tick_has_gw
    assert len(look_ahead) == n_ticks * n_devices
    assert sys.getsizeof(look_ahead) - sys.getsizeof(b"") <= n_ticks * n_devices
