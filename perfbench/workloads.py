"""The benchmark's four workloads, run through the program's public entry points.

Every workload has the same shape:

* **set-up**, repeated ``SETUP_REPEATS`` times with the median reported as
  ``setup_s``: a fresh interpreter importing the program (what every
  ``repro`` invocation pays first), then a fresh result store and executor
  and a warm-up run that pays lazy imports — and for the service, store
  pre-population and the server start;
* **cold operations** (``miss_s``): what a user waits for when the result is
  not stored yet — a ``repro run`` or ``repro sweep`` into an empty store, or
  a service POST whose job computes.  Each cold operation of a run uses the
  next scenario seed of a sequence drawn from ``--seed``, so that no
  operation can be answered from anything an earlier one left in memory;
* **hit operations** (``hit_p90_ms``; the p50, p99 and throughput go to the
  info line): the same request answered from the store.

``--trace 1`` runs one cold operation untraced and the same operation again
inside :func:`tracing.instrument`; it requires both to produce the same
RunMetrics and reports the traced operation's per-layer numbers and the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import checks
from .tracing import Recorder, instrument

clock = time.perf_counter

SETUP_REPEATS = 3
#: Hit samples per run: enough for a p99 (kept in the info line) with ten
#: samples beyond it.
MIN_HITS = 1000
#: What a fresh ``repro`` process imports before it does any work.
IMPORT_PROBE = (
    "import repro.experiments.cli, repro.engine.array_engine, "
    "repro.experiments.service"
)


@dataclass
class Context:
    """What one benchmark invocation was asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    #: The checkout: program sources under ``src/``, benchmark output under
    #: ``.perfbench/``.
    root: Path
    nproc: int = field(default_factory=lambda: os.cpu_count() or 1)
    _dirs: int = 0

    @property
    def work_dir(self) -> Path:
        """This invocation's private directory of result stores."""
        return self.root / ".perfbench" / f"work-{self.workload}-{os.getpid()}"

    def fresh_dir(self, label: str) -> Path:
        """A new, empty directory for one result store."""
        self._dirs += 1
        path = self.work_dir / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path


@dataclass
class Result:
    """Raw measurements of one invocation, before they become metrics."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failed check fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            mismatches = self.notes.setdefault("mismatches", [])
            if len(mismatches) < 10:
                mismatches.append(what)


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_program(ctx: Context) -> None:
    """A fresh interpreter that imports the program and exits."""
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                   timeout=120)


def timed_setups(ctx: Context, setup: Callable[[], Any],
                 teardown: Callable[[Any], None] = lambda state: None) -> Tuple[Any, float]:
    """Run the set-up several times; keep the last state, return the median."""
    times: List[float] = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        start = clock()
        import_program(ctx)
        state = setup()
        times.append(clock() - start)
    return state, statistics.median(times)


#: Each cold operation is followed by a burst of cache hits lasting this
#: share of its time, so that hit samples spread over the whole run.
HIT_SHARE = 0.3


def measure(ctx: Context, result: Result, cold: Callable[[int], Any],
            hit: Callable[[Any], Any], same: Callable[[Any, Any], bool]) -> List[Any]:
    """Alternate cold operations ``cold(0)``, ``cold(1)``, … with hit bursts.

    Runs until ``ctx.seconds`` passed and at least three cold operations
    (one in smoke mode) ran, then tops the hits up to ``MIN_HITS``.  A hit
    repeats the request of the cold operation before it; ``same`` checks its
    answer outside the timed region.
    """
    min_ops, min_hits = (1, 20) if ctx.smoke else (3, MIN_HITS)
    cold_times: List[float] = []
    hit_times: List[float] = []
    values: List[Any] = []

    def hits_until(value: Any, until: float) -> None:
        while True:
            t0 = clock()
            answer = hit(value)
            hit_times.append(clock() - t0)
            result.check(same(value, answer), "cache hit differs from the computed result")
            if clock() >= until:
                return

    start = clock()
    while len(cold_times) < min_ops or clock() - start < ctx.seconds:
        t0 = clock()
        values.append(cold(len(cold_times)))
        cold_times.append(clock() - t0)
        hits_until(values[-1], clock() + HIT_SHARE * cold_times[-1])
    while len(hit_times) < min_hits:
        hits_until(values[-1], 0.0)
    result.metrics["miss_s"] = statistics.median(cold_times)
    result.notes["miss_times_s"] = cold_times
    hit_metrics(result, hit_times)
    return values


def hit_metrics(result: Result, latencies_s: List[float], window_s: float = 0.0) -> None:
    """Hit percentiles; throughput over ``window_s`` (a closed loop of one
    client when omitted: completed hits over their summed latency).

    The p90 is the metric: on a host whose speed flips between two states
    within seconds, the p50 falls between the two latency modes and the p99
    on the few worst stalls, and both move far more between runs.  So does
    the throughput, which outside the service is one over the mean latency.
    """
    result.metrics["hit_p90_ms"] = percentile(latencies_s, 90) * 1e3
    result.notes["hit_p50_ms"] = percentile(latencies_s, 50) * 1e3
    result.notes["hit_p99_ms"] = percentile(latencies_s, 99) * 1e3
    result.notes["hits_per_s"] = len(latencies_s) / (window_s or sum(latencies_s))
    result.notes["hit_samples"] = len(latencies_s)


# --------------------------------------------------------------------- #
# Per-layer metrics from a recorder
# --------------------------------------------------------------------- #
def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Every per-layer metric of one traced operation (zero where unused)."""

    def total(name: str) -> float:
        return rec.total_s.get(name, 0.0)

    def counted(name: str) -> float:
        return rec.counts.get(name, 0.0)

    def mean_call(name: str) -> float:
        calls = rec.calls.get(name, 0)
        return total(name) / calls if calls else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    transmissions = counted("engine.transmissions")
    forwards = counted("routing.forward")
    return {
        "mobility.build_s": total("mobility.build"),
        "mobility.traces": counted("mobility.traces"),
        "network.topology_build_s": total("network.topology_build"),
        "network.in_contact_calls": rec.calls.get("network.in_contact", 0),
        "network.in_contact_s": total("network.in_contact"),
        "network.range_query_calls": rec.calls.get("network.range_query", 0),
        "network.range_query_s": total("network.range_query"),
        "scenario.build_s": total("scenario.build"),
        "scenario.self_s": rec.self_s.get("scenario.build", 0.0),
        "engine.init_s": total("engine.init"),
        "engine.run_s": total("engine.run"),
        "engine.self_s": rec.self_s.get("engine.run", 0.0),
        "engine.generated": counted("engine.generated"),
        "engine.transmissions": transmissions,
        "engine.delivered": counted("engine.delivered"),
        "engine.handovers": counted("engine.handovers"),
        "engine.handed_over_messages": counted("engine.handed_over_messages"),
        "engine.delivered_per_tx": ratio(counted("engine.delivered"), transmissions),
        "engine.tx_per_s": ratio(transmissions, total("engine.run")),
        "routing.overhear_batches": counted("routing.overhear_batches"),
        "routing.overhear_pairs": counted("routing.overhear_pairs"),
        "routing.decide_s": total("routing.decide"),
        "routing.forward_share": ratio(forwards, counted("routing.overhear_pairs")),
        "routing.handover_share": ratio(counted("engine.handovers"), forwards),
        "analysis.metrics_s": total("analysis.metrics"),
        "sim.events": counted("sim.events"),
        "sim.run_s": total("sim.run"),
        "sim.events_per_s": ratio(counted("sim.events"), total("sim.run")),
        "radio.transmit_calls": counted("radio.transmit_calls"),
        "radio.medium_s": total("radio.medium"),
        "parallel.digest_s": mean_call("parallel.digest"),
        "parallel.pool_busy_share": 0.0,
        "store.read_s": mean_call("store.read"),
        "store.write_s": mean_call("store.write"),
        "store.entry_bytes": ratio(counted("store.entry_bytes"), counted("store.writes")),
        "store.hit_share": ratio(counted("store.read_hits"), counted("store.reads")),
        "service.route_s.runs": mean_call("service.route.runs"),
        "service.route_s.results": mean_call("service.route.results"),
        "service.queue_depth_max": 0.0,
    }


def traced(rec: Recorder, op: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``op`` once with every layer wrapped; return its result and time."""
    rec.op_id += 1
    with instrument(rec):
        start = clock()
        with rec.span("op"):
            value = op()
        return value, clock() - start


def traced_pair(rec: Recorder, cold: Callable[[], Any]) -> Tuple[Any, Dict[str, float]]:
    """The same cold operation untraced, then traced, with the tracing overhead."""
    start = clock()
    plain = cold()
    untraced_s = clock() - start
    value, traced_s = traced(rec, cold)
    layers = layer_metrics(rec)
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return (plain, value), layers


# --------------------------------------------------------------------- #
# repro run: robc-urban-960 and megacity-quarter
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunCase:
    """A ``repro run <target> --<override>…`` invocation."""

    target: str
    overrides: Dict[str, Any]
    preset_seed: int = 7


RUN_CASES = {
    ("robc-urban-960", False): RunCase(
        "urban-full", {"duration_s": 3600.0, "engine": "array"}),
    ("robc-urban-960", True): RunCase(
        "urban-full", {"scale": 0.05, "duration_s": 600.0, "engine": "array"}),
    ("megacity-quarter", False): RunCase("megacity-10k", {"scale": 0.25}),
    ("megacity-quarter", True): RunCase("megacity-10k", {"scale": 0.01}),
}


def run_workload(ctx: Context) -> Result:
    from repro.experiments.cli import build_executor, run_target

    case = RUN_CASES[(ctx.workload, ctx.smoke)]
    result = Result()

    def overrides(index: int) -> Dict[str, Any]:
        # Op 0 at the default seed runs the preset's own scenario seed.
        return dict(case.overrides, seed=case.preset_seed + ctx.seed * 1000 + index)

    def setup():
        # What `repro run --cache DIR` builds, plus a warm-up run that pays
        # the engine's lazy imports outside the timed region.
        executor = build_executor(1, str(ctx.fresh_dir("setup")))
        run_target("urban-smoke", executor, engine="array")

    _, result.metrics["setup_s"] = timed_setups(ctx, setup)

    def cold(index: int):
        executor = build_executor(1, str(ctx.fresh_dir("store")))
        outcome = run_target(case.target, executor, **overrides(index))
        result.check(
            outcome.ok and not outcome.from_cache and checks.sane(outcome.metrics),
            "cold run failed, was served from the cache, or broke an invariant",
        )
        return executor, index, outcome

    def hit(value):
        executor, index, _ = value
        return run_target(case.target, executor, **overrides(index))

    def same(value, answer) -> bool:
        return answer.from_cache and answer.metrics == value[2].metrics

    if ctx.trace:
        rec = Recorder()
        (plain, value), layers = traced_pair(rec, lambda: cold(0))
        outcome = value[2]
        result.check(outcome.metrics == plain[2].metrics,
                     "traced and untraced runs of one input disagree")
        answer, _ = traced(rec, lambda: hit(value))
        result.check(same(value, answer), "cache hit differs from the computed run")
        layers.update({name: metric for name, metric in layer_metrics(rec).items()
                       if name.startswith(("store.", "parallel."))})
        finish(ctx, result, [outcome.metrics], checks.fingerprint(outcome.metrics),
               rec, layers)
        return result

    values = measure(ctx, result, cold, hit, same)
    finish(ctx, result, [outcome.metrics for _, _, outcome in values],
           checks.fingerprint(values[0][2].metrics))
    return result


# --------------------------------------------------------------------- #
# repro sweep: sweep-campaign
# --------------------------------------------------------------------- #
#: Fig. 9 at a reduced spatial scale, on the default object engine.
SWEEP_NAME = "fig9"
SWEEP_SCALE = {False: 0.025, True: "smoke"}

#: Scenario seeds the workload's sweeps cycle through, starting at index
#: ``--seed``.  At 2.5 % spatial scale the fleet is three routes, and the
#: cost of a sweep swings by ±40 % between arbitrary seeds; these are the 8
#: seeds of 1…48 whose pool sweep and warm re-sweep both took within ±7 % of
#: the medians (three interleaved repetitions each), so that a seed changes
#: the inputs but not the amount of work.
SWEEP_SEEDS = (10, 13, 14, 15, 20, 27, 30, 48)


def sweep_once(scale_seed: int, smoke: bool, executor):
    """``repro sweep fig9 --scale <scale>`` at an explicit scenario seed.

    Restates :func:`repro.experiments.cli.run_sweep`, whose scale argument
    cannot carry a seed.
    """
    from repro.experiments.registry import get_sweep, resolve_scale

    scale = replace(resolve_scale(SWEEP_SCALE[smoke]), seed=scale_seed)
    return get_sweep(SWEEP_NAME).runner(scale, executor)


def sweep_workload(ctx: Context) -> Result:
    from repro.experiments.cli import build_executor, run_target
    from repro.experiments.parallel import SweepExecutor

    result = Result()

    def scale_seed(index: int) -> int:
        return SWEEP_SEEDS[(ctx.seed + index) % len(SWEEP_SEEDS)]

    def setup():
        # `repro sweep --workers N --cache DIR`, plus a warm-up run that pays
        # the object engine's imports outside the timed region.
        build_executor(ctx.nproc, str(ctx.fresh_dir("setup")))
        run_target("urban-smoke", build_executor(1, None))

    _, result.metrics["setup_s"] = timed_setups(ctx, setup)

    def cold(index: int, workers: int = ctx.nproc):
        executor = build_executor(workers, str(ctx.fresh_dir("store")))
        runs = sweep_once(scale_seed(index), ctx.smoke, executor).raw.runs
        result.check(bool(runs) and all(checks.sane(m) for m in runs.values()),
                     "sweep lost its runs or broke an invariant")
        return executor, index, runs

    if ctx.trace:
        # Wrappers do not reach pool workers, so the traced sweep runs its
        # specs in-process over the serial backend, beside an untraced serial
        # sweep for the overhead.  A pool sweep first gives the pool's busy
        # share: the summed run times over workers × its wall time.
        busy = [0.0]
        plain_iter = SweepExecutor.iter_outcomes

        def iter_and_sum(self, specs, **kwargs):
            for outcome in plain_iter(self, specs, **kwargs):
                busy[0] += 0.0 if outcome.from_cache else outcome.wall_time_s
                yield outcome

        SweepExecutor.iter_outcomes = iter_and_sum
        try:
            start = clock()
            _, _, pool_runs = cold(0)
            pool_s = clock() - start
        finally:
            SweepExecutor.iter_outcomes = plain_iter
        rec = Recorder()
        ((_, _, serial_runs), (_, _, runs)), layers = traced_pair(
            rec, lambda: cold(0, workers=1))
        result.check(pool_runs == serial_runs == runs,
                     "pool, serial and traced sweeps of one input disagree")
        layers["parallel.pool_busy_share"] = busy[0] / (ctx.nproc * pool_s)
        finish(ctx, result, list(runs.values()),
               checks.combined_fingerprint(runs.items()), rec, layers)
        return result

    values = measure(
        ctx, result, cold,
        lambda value: sweep_once(scale_seed(value[1]), ctx.smoke, value[0]).raw.runs,
        lambda value, runs: runs == value[2],
    )
    finish(ctx, result, [m for _, _, runs in values for m in runs.values()],
           checks.combined_fingerprint(values[0][2].items()))
    return result


# --------------------------------------------------------------------- #
# repro serve: service-mixed
# --------------------------------------------------------------------- #
SERVICE_PRESET = "urban-smoke"
#: Stored results the hits draw from.
SERVICE_STORED = {False: 8, True: 2}
#: Seeds of the stored results and of the misses (each plus 1000 × --seed).
SERVICE_STORED_SEED = 7
SERVICE_MISS_SEED = 10_000
SERVICE_MAX_MISSES = 400
#: Connection 0 turns every n-th of its requests into a miss.
SERVICE_MISS_EVERY = {False: 100, True: 5}


def service_specs(seed: int, count: int, first: int):
    from repro.experiments.parallel import RunSpec
    from repro.experiments.registry import get_preset

    config = get_preset(SERVICE_PRESET).config
    return [
        RunSpec(config=config.with_seed(first + seed * 1000 + index))
        for index in range(count)
    ]


class Server:
    """A CampaignService on an ephemeral loopback port, in a thread."""

    def __init__(self, executor) -> None:
        from repro.experiments.service import CampaignService

        self.service = CampaignService(executor, host="127.0.0.1", port=0)
        self.thread = threading.Thread(target=self.service.run_blocking, daemon=True)
        self.thread.start()
        if not self.service.ready.wait(30):
            raise RuntimeError("results service did not start")
        self.port = self.service.bound_port

    def close(self) -> None:
        self.service.stop()
        self.thread.join(120)
        if self.thread.is_alive():
            raise RuntimeError("results service did not stop")


def service_workload(ctx: Context) -> Result:
    from repro.experiments.cli import build_executor
    from repro.experiments.parallel import spec_to_dict
    from repro.experiments.reporting import metrics_to_dict

    result = Result()
    stored_specs = service_specs(ctx.seed, SERVICE_STORED[ctx.smoke], SERVICE_STORED_SEED)
    miss_specs = service_specs(ctx.seed, SERVICE_MAX_MISSES, SERVICE_MISS_SEED)

    def setup():
        # `repro serve --cache DIR` over a store holding the hit results.
        executor = build_executor(1, str(ctx.fresh_dir("store")))
        outcomes = executor.run(stored_specs)
        return Server(executor), outcomes

    (server, outcomes), result.metrics["setup_s"] = timed_setups(
        ctx, setup, lambda state: state[0].close())
    stored = {outcome.spec.cache_key(): outcome.metrics for outcome in outcomes}
    request_file = ctx.work_dir / "requests.json"
    request_file.write_text(json.dumps({
        "stored": [
            {
                "key": outcome.spec.cache_key(),
                "spec": spec_to_dict(outcome.spec),
                "metrics": checks.json_ready(
                    metrics_to_dict(outcome.metrics, include_arrays=False)),
            }
            for outcome in outcomes
        ],
        "misses": [spec_to_dict(spec) for spec in miss_specs],
    }), encoding="utf-8")

    def client(seconds: float, offset: int, health: bool) -> Dict[str, Any]:
        stats = run_client(ctx, server.port, request_file, seconds, offset, health)
        result.attempted += stats["attempted"]
        result.failed += stats["failed"]
        if stats["failed"]:
            result.correct = False
            result.notes.setdefault("mismatches", []).extend(stats["errors"][:5])
        return stats

    rec = Recorder()
    try:
        if ctx.trace:
            plain = client(ctx.seconds / 2, 0, False)
            rec.op_id = 1
            with instrument(rec), rec.span("op"):
                stats = client(ctx.seconds / 2, len(plain["miss_keys"]), True)
            miss_keys = plain["miss_keys"] + stats["miss_keys"]
        else:
            stats = client(ctx.seconds, 0, False)
            miss_keys = stats["miss_keys"]
    finally:
        server.close()

    executor = server.service.executor
    result.check(bool(miss_keys), "no miss completed in the window")
    for key in miss_keys:
        metrics = executor.store.load(key)
        result.check(metrics is not None and checks.sane(metrics),
                     f"miss {key} was not stored or broke an invariant")
    if miss_keys:
        first = {spec.cache_key(): spec for spec in miss_specs}[miss_keys[0]]
        local = build_executor(1, None).run([first])[0].metrics
        result.check(local == executor.store.load(miss_keys[0]),
                     "a served miss differs from a local run of its spec")

    fingerprint = checks.combined_fingerprint(stored.items())
    if ctx.trace:
        layers = layer_metrics(rec)
        layers["service.queue_depth_max"] = stats["queue_depth_max"]
        untraced = statistics.median(plain["hit_latencies_s"])
        traced_hit = statistics.median(stats["hit_latencies_s"])
        layers["trace.overhead_s"] = traced_hit - untraced
        layers["trace.overhead_share"] = (traced_hit - untraced) / untraced
        finish(ctx, result, list(stored.values()), fingerprint, rec, layers)
        return result
    hit_metrics(result, stats["hit_latencies_s"], stats["window_s"])
    result.metrics["miss_s"] = statistics.median(stats["miss_latencies_s"] or [0.0])
    result.notes["miss_samples"] = len(stats["miss_latencies_s"])
    finish(ctx, result, list(stored.values()), fingerprint)
    return result


def run_client(ctx: Context, port: int, request_file: Path, seconds: float,
               offset: int, health: bool) -> Dict[str, Any]:
    """Run the closed-loop client process and return its statistics."""
    command = [
        sys.executable, str(Path(__file__).with_name("service_client.py")),
        "--port", str(port),
        "--requests", str(request_file),
        "--seconds", repr(seconds),
        "--connections", str(ctx.nproc),
        "--seed", str(ctx.seed),
        "--miss-every", str(SERVICE_MISS_EVERY[ctx.smoke]),
        "--miss-offset", str(offset),
    ] + (["--health"] if health else [])
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=seconds + 120, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"service client failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# Shared tail
# --------------------------------------------------------------------- #
def finish(ctx: Context, result: Result, metrics_list, fingerprint: str,
           rec: Optional[Recorder] = None, layers: Optional[Dict[str, float]] = None) -> None:
    """Pinned fingerprint; simulated results and memory, or the trace."""
    result.notes["fingerprint"] = fingerprint
    pinned = checks.PINNED.get((ctx.workload, "smoke" if ctx.smoke else "full"))
    if ctx.seed == checks.DEFAULT_SEED and pinned is not None:
        result.check(fingerprint == pinned,
                     f"fingerprint {fingerprint} differs from the pinned {pinned}")
    ratio, delay = checks.aggregate(metrics_list)
    if rec is None:
        result.notes["delivery_ratio"] = ratio
        result.notes["mean_delay_s"] = delay
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        return
    result.metrics.update(layers)
    result.metrics["analysis.delivery_ratio"] = ratio
    result.metrics["analysis.mean_delay_s"] = delay
    trace_file = ctx.root / ".perfbench" / "traces" / f"{ctx.workload}-seed{ctx.seed}.json"
    rec.write(trace_file)
    result.notes["trace_file"] = str(trace_file)


WORKLOADS: Dict[str, Callable[[Context], Result]] = {
    "robc-urban-960": run_workload,
    "megacity-quarter": run_workload,
    "sweep-campaign": sweep_workload,
    "service-mixed": service_workload,
}


def run(ctx: Context) -> Result:
    """Run one workload in a private work directory, removed afterwards."""
    ctx.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return WORKLOADS[ctx.workload](ctx)
    finally:
        shutil.rmtree(ctx.work_dir, ignore_errors=True)
