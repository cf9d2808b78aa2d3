"""Serial versus parallel execution of the Fig. 9-style density sweep.

Runs the same (scheme × gateway count) grid through a ``workers=1`` and a
``workers=4`` :class:`SweepExecutor`, asserts the results are bit-identical,
and reports the wall-clock speedup.  The speedup assertion only arms on hosts
with at least eight CPUs (or ``REPRO_BENCH_STRICT=1``): single-shot timings on
small shared runners — 1-CPU dev boxes, 4-vCPU CI tenants — are too noisy to
gate a build on, while the equivalence assertion is exact everywhere.
"""

import os
import time

from benchmarks.conftest import SWEEP_SCALE
from repro.experiments.figures import URBAN_DEVICE_RANGE_M, ReproductionScale
from repro.experiments.parallel import SweepExecutor
from repro.experiments.registry import SweepAxis, SweepGrid, run_grid
from repro.experiments.reporting import format_table

#: A lighter cut of the shared benchmark scale: the sweep runs twice here.
PARALLEL_SCALE = ReproductionScale(
    spatial_scale=0.05,
    duration_s=1.5 * 3600.0,
    gateway_counts=SWEEP_SCALE.gateway_counts,
    seed=SWEEP_SCALE.seed,
)

#: The Fig. 9 density grid, urban range only.
URBAN_GRID = SweepGrid(
    title="Density sweep, urban",
    axes=(
        SweepAxis("scheme", "scheme"),
        SweepAxis("num_gateways", "num_gateways", values="gateway_counts"),
        SweepAxis("device_range_m", "device_range_m", values=(URBAN_DEVICE_RANGE_M,)),
    ),
)


def _sweep(workers):
    executor = SweepExecutor(workers=workers)
    return run_grid("parallel", URBAN_GRID, PARALLEL_SCALE, executor).raw


def test_bench_parallel_sweep_equivalence_and_speedup(benchmark):
    start = time.perf_counter()
    serial = _sweep(workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = benchmark.pedantic(_sweep, kwargs={"workers": 4}, rounds=1, iterations=1)
    parallel_s = time.perf_counter() - start

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print()
    print(
        format_table(
            ("executor", "runs", "wall [s]"),
            [
                ("workers=1", len(serial.runs), f"{serial_s:.2f}"),
                ("workers=4", len(parallel.runs), f"{parallel_s:.2f}"),
                (f"speedup (on {os.cpu_count()} cpus)", "", f"{speedup:.2f}x"),
            ],
        )
    )

    # Parallelism must never change results.
    assert set(serial.runs) == set(parallel.runs)
    for key, metrics in serial.runs.items():
        assert metrics == parallel.runs[key], f"run {key} diverged"

    # Wall-clock acceptance only where the hardware can express it reliably.
    strict = os.environ.get("REPRO_BENCH_STRICT") == "1"
    if strict or (os.cpu_count() or 1) >= 8:
        assert speedup >= 1.5, f"expected >=1.5x speedup, got {speedup:.2f}x"
