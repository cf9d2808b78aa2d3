"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the program from the
benchmark's own files; nothing under ``src/`` knows it exists.  Each wrapped
call opens a *frame* on a per-thread stack.  When the frame closes, its
duration is charged to its parent, so every layer's self time is its own
duration minus the part its children covered.

Coarse calls (scenario build, engine run, one benchmark operation) are kept
as full spans — name, start, end, parent and the operation they belong to —
and written to a JSON file when the run ends.  Hot calls (range queries,
overhear batches, store reads) are only tallied per name (calls, total and
self seconds) so that tracing a 46k-batch run stays cheap.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

_clock = time.perf_counter


class _Frame:
    __slots__ = ("span_id", "name", "start", "child_s")

    def __init__(self, span_id: int, name: str, start: float) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0


class Recorder:
    """In-memory spans and per-name tallies, safe across threads."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """The name of the innermost open frame of this thread, if any."""
        stack = self._stack()
        return stack[-1].name if stack else None

    def _open(self, name: str) -> _Frame:
        frame = _Frame(next(self._ids), name, _clock())
        self._stack().append(frame)
        return frame

    def _close(self, frame: _Frame, keep: bool) -> float:
        end = _clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += duration
        with self._lock:
            self.calls[frame.name] += 1
            self.total_s[frame.name] += duration
            self.self_s[frame.name] += duration - frame.child_s
            if keep:
                self.spans.append({
                    "id": frame.span_id,
                    "name": frame.name,
                    "op": self.op_id,
                    "parent": parent.span_id if parent is not None else None,
                    "start": frame.start,
                    "end": end,
                    "self_s": duration - frame.child_s,
                })
        return duration

    @contextmanager
    def span(self, name: str, keep: bool = True) -> Iterator[None]:
        """Time a block as a frame (kept as a full span unless ``keep=False``)."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame, keep)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        name: str,
        function: Callable,
        keep: bool = False,
        after: Optional[Callable[[Any, tuple, dict], None]] = None,
    ) -> Callable:
        """``function`` timed as frame ``name``; ``after(result, args, kwargs)``
        runs outside the timed region to record counts."""

        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(frame, keep)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def write(self, path: Path) -> None:
        """Write every kept span and every tally as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "spans": self.spans,
            "tallies": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(document), encoding="utf-8")


@contextmanager
def patched(target: Any, attribute: str, replacement: Any) -> Iterator[None]:
    """Set ``target.attribute`` for the duration of the block, then restore."""
    original = target.__dict__[attribute] if isinstance(target, type) else getattr(target, attribute)
    setattr(target, attribute, replacement)
    try:
        yield
    finally:
        setattr(target, attribute, original)


@contextmanager
def instrument(recorder: Recorder) -> Iterator[None]:
    """Wrap every traced public entry point of the program; restore on exit.

    Module attributes are replaced where their callers look them up
    (``repro.experiments.runner.build_scenario`` is the name ``run_scenario``
    calls).  Per-scenario objects — the topology and the forwarding scheme —
    get instance-level wrappers as the scenario is built, so their class
    definitions stay untouched.
    """
    import repro.engine.array_engine as array_engine
    import repro.experiments.runner as runner
    import repro.experiments.scenario as scenario
    from repro.experiments.parallel import RunSpec
    from repro.experiments.service import CampaignService
    from repro.experiments.store import ResultStore
    from repro.radio.medium import RadioMedium
    from repro.sim.kernel import Simulator

    rec = recorder

    def count_traces(result, args, kwargs):
        rec.count("mobility.traces", len(result.traces))

    topology_class = scenario.TimeVaryingTopology

    def build_topology(*args, **kwargs):
        topology = rec.wrap("network.topology_build", topology_class, keep=True)(
            *args, **kwargs
        )
        topology.in_contact = rec.wrap("network.in_contact", topology.in_contact)
        topology.gateways_in_range = rec.wrap(
            "network.range_query", topology.gateways_in_range
        )
        topology.neighbours = rec.wrap("network.range_query", topology.neighbours)
        return topology

    def wrap_scheme(built, args, kwargs):
        scheme = built.scheme
        batch, scalar = scheme.on_overhear_batch, scheme.on_overhear

        def count_batch(decisions, args, kwargs):
            rec.count("routing.overhear_batches")
            rec.count("routing.overhear_pairs", len(decisions))
            rec.count("routing.forward", sum(1 for d in decisions if d.forward))

        timed_batch = rec.wrap("routing.decide", batch, after=count_batch)
        timed_scalar = rec.wrap("routing.decide", scalar)

        def on_overhear(*args, **kwargs):
            # The base-class batch hook loops over the scalar one: count the
            # outermost call only.
            if rec.current() == "routing.decide":
                return scalar(*args, **kwargs)
            decision = timed_scalar(*args, **kwargs)
            rec.count("routing.overhear_pairs")
            rec.count("routing.forward", int(decision.forward))
            return decision

        scheme.on_overhear_batch = timed_batch
        scheme.on_overhear = on_overhear

    def engine_counts(metrics, args, kwargs):
        engine = args[0]
        rec.count("engine.generated", metrics.messages_generated)
        rec.count("engine.delivered", metrics.messages_delivered)
        rec.count("engine.transmissions", sum(metrics.transmissions_per_device.values()))
        rec.count("engine.handovers", engine.handover_count)
        rec.count("engine.handed_over_messages", engine.handed_over_messages)

    def sim_events(events, args, kwargs):
        rec.count("sim.events", events)

    def store_read(metrics, args, kwargs):
        rec.count("store.reads")
        rec.count("store.read_hits", int(metrics is not None))

    def store_write(path, args, kwargs):
        rec.count("store.writes")
        rec.count("store.entry_bytes", path.stat().st_size)

    def service_route(service_route_fn):
        runs = rec.wrap("service.route.runs", service_route_fn)
        results = rec.wrap("service.route.results", service_route_fn)

        def route(self, method, path, body):
            if path.startswith("/runs"):
                return runs(self, method, path, body)
            if path.startswith("/results/"):
                return results(self, method, path, body)
            return service_route_fn(self, method, path, body)

        return route

    patches = [
        (scenario, "build_mobility",
         rec.wrap("mobility.build", scenario.build_mobility, keep=True, after=count_traces)),
        (scenario, "TimeVaryingTopology", build_topology),
        (runner, "build_scenario",
         rec.wrap("scenario.build", runner.build_scenario, keep=True, after=wrap_scheme)),
        (runner, "compute_run_metrics",
         rec.wrap("analysis.metrics", runner.compute_run_metrics, keep=True)),
        (array_engine, "compute_run_metrics",
         rec.wrap("analysis.metrics", array_engine.compute_run_metrics, keep=True)),
        (runner, "account_idle_energy",
         rec.wrap("analysis.metrics", runner.account_idle_energy, keep=True)),
        (Simulator, "run",
         rec.wrap("sim.run", Simulator.run, keep=True, after=sim_events)),
        (RunSpec, "cache_key", rec.wrap("parallel.digest", RunSpec.cache_key)),
        (ResultStore, "load", rec.wrap("store.read", ResultStore.load, after=store_read)),
        (ResultStore, "store",
         rec.wrap("store.write", ResultStore.store, after=store_write)),
        (CampaignService, "_route", service_route(CampaignService._route)),
    ]
    for engine_class in (array_engine.ArrayMLoRaSimulation, runner.MLoRaSimulation):
        patches.append((engine_class, "__init__",
                        rec.wrap("engine.init", engine_class.__init__, keep=True)))
        patches.append((engine_class, "run",
                        rec.wrap("engine.run", engine_class.run, keep=True,
                                 after=engine_counts)))
    for method in ("transmit", "resolve_gateway_reception", "is_decodable", "prune"):
        after = None
        if method == "transmit":
            def after(result, args, kwargs):
                rec.count("radio.transmit_calls")
        patches.append((RadioMedium, method,
                        rec.wrap("radio.medium", getattr(RadioMedium, method), after=after)))

    with ExitStack() as stack:
        for target, attribute, replacement in patches:
            stack.enter_context(patched(target, attribute, replacement))
        yield
