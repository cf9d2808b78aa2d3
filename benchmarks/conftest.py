"""Shared fixtures for the benchmark harness.

The benchmarks reproduce every figure of the paper's evaluation at a reduced
but density-preserving scale (see DESIGN.md / EXPERIMENTS.md).  Figures 8, 9,
12 and 13 are all views over the same gateway-density sweep, so that sweep is
run once per session into a shared result store.

Every benchmark session also writes a ``BENCH_results.json`` artifact with
the per-benchmark wall-clock times and peak resident set size (override the
location with the ``REPRO_BENCH_RESULTS`` environment variable, or set it to
an empty string to disable).  CI uploads the file per run, so the time and
memory trajectories are comparable across PRs without scraping pytest
output.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Dict, Optional

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.figures import ReproductionScale  # noqa: E402
from repro.experiments.parallel import SweepExecutor  # noqa: E402
from repro.experiments.registry import get_sweep  # noqa: E402

#: Scale used for the density sweep behind Figs. 8, 9, 12 and 13.
SWEEP_SCALE = ReproductionScale(
    spatial_scale=0.08,
    duration_s=2.0 * 3600.0,
    gateway_counts=(40, 70, 100),
    seed=7,
)

#: Scale used for the 24-hour style time-series figures (Figs. 10 and 11);
#: a smaller fleet over a longer horizon keeps the diurnal shape visible
#: while staying benchmark-sized.
TIMESERIES_SCALE = ReproductionScale(
    spatial_scale=0.05,
    duration_s=2.0 * 3600.0,
    timeseries_duration_s=10.0 * 3600.0,
    gateway_counts=(100,),
    seed=7,
)

#: Scale used for the ablation benchmarks.
ABLATION_SCALE = ReproductionScale(
    spatial_scale=0.06,
    duration_s=2.0 * 3600.0,
    gateway_counts=(70,),
    seed=7,
)


#: Default artifact path, relative to the invocation directory.
BENCH_RESULTS_ENV_VAR = "REPRO_BENCH_RESULTS"
DEFAULT_BENCH_RESULTS_PATH = "BENCH_results.json"

_BENCH_DURATIONS: Dict[str, Dict[str, object]] = {}
_BENCH_BEST: Dict[str, Dict[str, object]] = {}


def _results_path() -> str:
    return os.environ.get(BENCH_RESULTS_ENV_VAR, DEFAULT_BENCH_RESULTS_PATH)


def _peak_rss_mb() -> Optional[float]:
    """This process's peak resident set size so far, in MiB (``ru_maxrss``).

    The peak is process-wide and never falls, so a benchmark's value is the
    high-water mark of the session up to the end of that benchmark; run one
    benchmark per session (as the nightly megacity job does) to read its own
    peak.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Kilobytes on Linux, bytes on macOS.
    return round(peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0), 1)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Capture per-round benchmark stats so the artifact can record best-of-N.

    Tests using the ``benchmark`` fixture (the engine-core ladder runs
    ``pedantic`` with 3 rounds) get a ``best_wall_time_s`` field holding the
    minimum round time — the noise-robust number ``compare_bench.py`` diffs —
    next to the raw call-phase ``wall_time_s``.
    """
    yield
    benchmark = getattr(item, "funcargs", {}).get("benchmark")
    stats = getattr(benchmark, "stats", None) if benchmark is not None else None
    stats = getattr(stats, "stats", None)
    if stats is None or not getattr(stats, "data", None):
        return
    _BENCH_BEST[item.nodeid] = {
        "best_wall_time_s": round(stats.min, 6),
        "rounds": stats.rounds,
    }


def pytest_runtest_logreport(report):
    """Record the wall-clock and peak RSS of every benchmark test's call phase."""
    if report.when != "call":
        return
    _BENCH_DURATIONS[report.nodeid] = {
        "wall_time_s": round(report.duration, 6),
        "peak_rss_mb": _peak_rss_mb(),
        "outcome": report.outcome,
        **_BENCH_BEST.get(report.nodeid, {}),
    }


def pytest_sessionfinish(session, exitstatus):
    """Write the per-benchmark wall-clock artifact (one JSON per session)."""
    del session, exitstatus
    path = _results_path()
    if not path or not _BENCH_DURATIONS:
        return
    payload = {
        "schema_version": 1,
        "unix_time": time.time(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        # Which engine leg of the CI matrix produced this artifact (the env
        # override only applies to configs that don't pin an engine).
        "engine": os.environ.get("REPRO_ENGINE", "object") or "object",
        "benchmarks": [
            {"nodeid": nodeid, **record}
            for nodeid, record in sorted(_BENCH_DURATIONS.items())
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


@pytest.fixture(scope="session")
def density_sweep(tmp_path_factory):
    """An executor whose store holds the shared (scheme × gateway count ×
    device range) sweep.

    The Fig. 8, 9, 12 and 13 grids declare the same runs, so each figure's
    runner is served from this store.  Serial by default; exporting
    ``REPRO_SWEEP_WORKERS=n`` fans the 18 runs out over ``n`` processes
    without changing any result.
    """
    executor = SweepExecutor.from_env(
        cache_dir=tmp_path_factory.mktemp("density-sweep")
    )
    get_sweep("fig9").runner(SWEEP_SCALE, executor)
    return executor
