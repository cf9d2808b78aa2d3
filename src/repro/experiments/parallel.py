"""Campaign execution with deterministic seeds, durable caching and retry.

Every figure of the paper's evaluation is a batch of independent simulation
runs (scheme × gateway count × device range × seed).  :class:`SweepExecutor`
is the single execution path for such batches: it takes picklable
:class:`RunSpec` objects, dispatches the ones that are not already in its
:class:`~repro.experiments.store.ResultStore` to a pluggable
:class:`~repro.experiments.backends.ExecutionBackend` (``serial``,
``process-pool``, or the multi-host ``work-queue``), persists each
:class:`RunMetrics` *the moment its run finishes*, retries failures with
bounded backoff, and returns :class:`RunOutcome` objects in spec order.

Three properties make campaigns safe at scale:

* **Parallelism never changes results** — each run is fully described by its
  :class:`~repro.experiments.config.ScenarioConfig` (including the master
  seed every random stream derives from), so the same spec produces
  bit-identical metrics no matter which backend, process or host executes
  it.  ``tests/experiments/test_backends.py`` pins the full equivalence
  matrix.
* **A crash loses nothing finished** — outcomes are stored as they complete,
  so a failing sibling (or a dying submitter) never discards completed work;
  re-running the same specs resumes from the store.
* **Failures are per-spec, never batch-wide** — a run that still fails after
  its retries becomes a failure outcome (``outcome.error``); by default
  :meth:`SweepExecutor.run` raises :class:`SweepExecutionError` *after* the
  rest of the batch completed and was cached.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.metrics import RunMetrics
from repro.config_fields import config_to_dict
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import device_class_type
from repro.experiments.serialization import scenario_from_dict, scenario_to_dict
from repro.experiments.store import ResultStore
from repro.mobility.config import MobilityConfig
from repro.radio.config import RadioConfig
from repro.routing.config import RoutingConfig
from repro.routing.registry import scheme_factory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (backends → parallel)
    from repro.experiments.backends.base import ExecutionBackend, RetryPolicy

#: Result-affecting sections omitted from the digest while they hold their
#: defaults, so configurations that predate each subsystem keep their digests.
_OMITTED_WHILE_DEFAULT = {
    "radio": config_to_dict(RadioConfig()),
    "mobility": config_to_dict(MobilityConfig()),
    "routing": config_to_dict(RoutingConfig()),
}

#: Derived seeds stay in the positive signed-64-bit range.
_SEED_SPACE = 2**63

#: Environment knob for the default worker count of :meth:`SweepExecutor.from_env`.
WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"

#: Environment knob for the default backend of :meth:`SweepExecutor.from_env`.
BACKEND_ENV_VAR = "REPRO_SWEEP_BACKEND"

#: Part of every cache key.  Bump whenever simulation behaviour changes in a
#: way that makes archived RunMetrics stale for an unchanged configuration —
#: the configuration digest alone cannot see code changes.
CACHE_SCHEMA_VERSION = 1

#: Cache-key versions of schemes whose own results changed after the last
#: :data:`CACHE_SCHEMA_VERSION` bump; an entry retires only that scheme's
#: stored runs.  spray-and-wait: copies split their tickets.  Each value
#: exceeds CACHE_SCHEMA_VERSION; the next global bump must exceed every
#: value here and empty the table.
SCHEME_CACHE_VERSIONS: Dict[str, int] = {"spray-and-wait": 2}


def derive_run_seed(
    master_seed: int,
    scheme: str,
    num_gateways: int,
    device_range_m: float,
    replicate: int = 0,
) -> int:
    """A deterministic per-run seed from the sweep's master seed and run key.

    Hash-derived (not sequential) so that adding or reordering runs in a sweep
    never shifts the seed of an unrelated run, and distinct run keys get
    statistically independent streams.
    """
    payload = f"{int(master_seed)}:{scheme}:{int(num_gateways)}:{float(device_range_m)!r}:{int(replicate)}"
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % _SEED_SPACE


def _trace_file_content_digest(path: str) -> str:
    """SHA-256 of a mobility trace file's bytes (cache key material).

    A trace-file scenario is only fully described by the *contents* of the
    replayed file — the path alone would let an edited file silently replay
    stale cached metrics.  An unreadable file gets a per-path sentinel (two
    different broken paths must not collide on one cache key); the run itself
    will fail loudly later.
    """
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return f"unreadable:{path}"


def config_digest(config: ScenarioConfig) -> str:
    """A stable hex digest of every result-affecting field of ``config``.

    One rule: the ``engine`` section is never digested, and each section of
    :data:`_OMITTED_WHILE_DEFAULT` is omitted while it holds its default.
    The engines are result-identical (the differential harness in
    ``tests/engine/`` is the proof), so a result stored by one engine is a
    cache hit for the other; omitting default sections keeps the digests of
    configurations that predate each subsystem.  A ``trace-file`` mobility
    section additionally digests the trace file's contents, since those
    *are* the scenario's mobility.
    """
    payload_dict = config_to_dict(config)
    del payload_dict["engine"]
    for section, default in _OMITTED_WHILE_DEFAULT.items():
        if payload_dict[section] == default:
            del payload_dict[section]
    mobility = payload_dict.get("mobility")
    if mobility and mobility["model"] == "trace-file":
        mobility["trace_file_sha256"] = _trace_file_content_digest(
            mobility["trace_file"]
        )
    payload = json.dumps(payload_dict, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _is_int(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunSpec:
    """One picklable unit of sweep work.

    ``nominal_gateways`` carries the paper's x-axis label when the deployed
    count in ``config`` is scaled down (a grid sweep's ``num_gateways``
    axis); the
    executor writes it back onto the resulting metrics.  ``replicate``
    distinguishes replications of otherwise identical configurations.
    """

    config: ScenarioConfig
    nominal_gateways: Optional[int] = None
    replicate: int = 0

    def __post_init__(self) -> None:
        # Both fields are spelled into the cache key, whose grammar only
        # admits a positive gateway count and a non-negative replicate.
        if self.nominal_gateways is not None and not (
            _is_int(self.nominal_gateways) and self.nominal_gateways >= 1
        ):
            raise ValueError(
                "nominal_gateways must be None or an integer >= 1, "
                f"got {self.nominal_gateways!r}"
            )
        if not (_is_int(self.replicate) and self.replicate >= 0):
            raise ValueError(f"replicate must be an integer >= 0, got {self.replicate!r}")
        # Every entry point (CLI, sweeps, work-queue jobs, the HTTP service)
        # builds a spec, so a name that could only fail mid-build in a worker
        # is refused here.  Two dictionary lookups: this runs on every hit.
        scheme_factory(self.config.scheme)
        device_class_type(self.config.device_class)

    @property
    def key(self) -> Tuple[str, int, float, int]:
        """(scheme, reported gateway count, device range, replicate)."""
        gateways = (
            self.nominal_gateways
            if self.nominal_gateways is not None
            else self.config.num_gateways
        )
        return (self.config.scheme, gateways, self.config.device_range_m, self.replicate)

    def cache_key(self) -> str:
        """Filename-safe identity of this spec's result."""
        gateways = "n" if self.nominal_gateways is None else str(self.nominal_gateways)
        return (
            f"v{SCHEME_CACHE_VERSIONS.get(self.config.scheme, CACHE_SCHEMA_VERSION)}"
            f"-{config_digest(self.config)}"
            f"-{gateways}-{self.replicate}"
        )


def spec_to_dict(spec: RunSpec) -> Dict[str, Any]:
    """The JSON wire format of a spec (work-queue jobs, the HTTP service).

    Built on the digest-stable scenario serialization, so a spec that crosses
    a process or host boundary resolves to the same cache key on both sides.
    """
    return {
        "scenario": scenario_to_dict(spec.config),
        "nominal_gateways": spec.nominal_gateways,
        "replicate": spec.replicate,
    }


def spec_from_dict(data: Mapping[str, Any]) -> RunSpec:
    """Rebuild a :class:`RunSpec` from :func:`spec_to_dict` output.

    Every malformed payload is a ``ValueError``, whatever part is wrong.
    """
    if not isinstance(data, Mapping) or "scenario" not in data:
        raise ValueError("run spec payload must be an object with a 'scenario' table")
    return RunSpec(
        config=scenario_from_dict(data["scenario"]),
        nominal_gateways=data.get("nominal_gateways"),
        replicate=data.get("replicate", 0),
    )


@dataclass
class RunOutcome:
    """A finished, cache-served or failed run.

    ``metrics`` is ``None`` exactly when ``error`` is set; :attr:`ok`
    distinguishes the two without null checks at call sites.  ``attempts``
    counts dispatches of this spec in the producing execution (1 = first try).
    """

    spec: RunSpec
    metrics: Optional[RunMetrics]
    wall_time_s: float
    from_cache: bool = False
    error: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True for a run that produced metrics (fresh or cached)."""
        return self.error is None and self.metrics is not None


class SweepExecutionError(RuntimeError):
    """Raised when runs still fail after retries (the batch itself finished).

    Every *successful* sibling was stored before this is raised, so re-running
    the same specs resumes from the cache and recomputes nothing.
    """

    def __init__(self, failures: Sequence[RunOutcome], total: int) -> None:
        self.failures = list(failures)
        preview = "; ".join(
            f"{outcome.spec.key}: {outcome.error}" for outcome in self.failures[:3]
        )
        suffix = " …" if len(self.failures) > 3 else ""
        super().__init__(
            f"{len(self.failures)} of {total} runs failed after "
            f"{self.failures[0].attempts} attempt(s): {preview}{suffix} "
            "(completed runs are cached; re-running resumes without recomputation)"
        )


def execute_spec(spec: RunSpec) -> RunOutcome:
    """Run one spec in the current process (module-level, hence picklable)."""
    start = time.perf_counter()
    metrics = run_scenario(spec.config)
    if spec.nominal_gateways is not None:
        metrics.num_gateways = spec.nominal_gateways
    return RunOutcome(spec=spec, metrics=metrics, wall_time_s=time.perf_counter() - start)


class SweepExecutor:
    """Runs batches of :class:`RunSpec` over a pluggable execution backend.

    Parameters
    ----------
    workers:
        Sizes the default backend: ``1`` executes in-process over the
        ``serial`` backend (the reference path used by equivalence tests);
        ``n > 1`` fans runs out over a ``process-pool`` of ``n`` workers.
    cache_dir:
        When set, finished metrics live in a content-addressed
        :class:`ResultStore` under this directory, keyed by
        :meth:`RunSpec.cache_key`; later executions of the same spec are
        served from disk.  When unset and the backend owns durable storage
        (the work-queue spool), that store is adopted instead.
    backend:
        A backend name (``serial`` / ``process-pool`` / ``work-queue``, the
        keys of :data:`~repro.experiments.backends.EXECUTION_BACKENDS`) or a
        ready :class:`ExecutionBackend` instance.  ``None`` picks from
        ``workers`` as above.
    retry:
        A :class:`~repro.experiments.backends.RetryPolicy`; the default makes
        no retries and sets no timeout.  Failures that survive their retries
        become failure outcomes, and :meth:`run` raises
        :class:`SweepExecutionError` unless ``allow_failures=True``.
    spool_dir:
        The shared spool directory of the ``work-queue`` backend (ignored by
        backends that do not need one).
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        backend: Union[str, "ExecutionBackend", None] = None,
        retry: Optional["RetryPolicy"] = None,
        spool_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        from repro.experiments.backends import (
            EXECUTION_BACKENDS,
            ExecutionBackend,
            RetryPolicy,
        )

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.retry = RetryPolicy() if retry is None else retry
        if backend is None:
            backend = "serial" if self.workers == 1 else "process-pool"
        if isinstance(backend, str):
            try:
                build = EXECUTION_BACKENDS[backend]
            except KeyError:
                raise ValueError(
                    f"unknown execution backend {backend!r}; "
                    f"available: {sorted(EXECUTION_BACKENDS)}"
                ) from None
            backend = build(self.workers, self.retry.timeout_s, spool_dir)
        if not isinstance(backend, ExecutionBackend):
            raise TypeError(
                f"backend must be a backend name or an ExecutionBackend, "
                f"got {type(backend).__name__}"
            )
        self.backend = backend
        if cache_dir is not None:
            self.store: Optional[ResultStore] = ResultStore(cache_dir)
        else:
            self.store = backend.store
        self.cache_dir = self.store.root if self.store is not None else None

    @classmethod
    def from_env(
        cls,
        default_workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        backend: Union[str, "ExecutionBackend", None] = None,
        retry: Optional["RetryPolicy"] = None,
        spool_dir: Optional[Union[str, Path]] = None,
    ) -> "SweepExecutor":
        """An executor sized by ``REPRO_SWEEP_WORKERS``/``REPRO_SWEEP_BACKEND``."""
        raw = os.environ.get(WORKERS_ENV_VAR, "")
        if raw.strip():
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
        else:
            workers = default_workers
        if backend is None:
            backend = os.environ.get(BACKEND_ENV_VAR, "").strip() or None
        return cls(
            workers=workers,
            cache_dir=cache_dir,
            backend=backend,
            retry=retry,
            spool_dir=spool_dir,
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self, specs: Sequence[RunSpec], *, allow_failures: bool = False
    ) -> List[RunOutcome]:
        """Execute every spec and return outcomes in spec order.

        Every successful run is stored the moment it completes, before any
        failure is reported.  When runs still fail after the retry policy is
        exhausted, raises :class:`SweepExecutionError` — or, with
        ``allow_failures=True``, returns their failure outcomes in place.
        """
        specs = list(specs)
        outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
        for index, outcome in self._execute(specs):
            if outcomes[index] is not None:
                raise RuntimeError(
                    f"executor bookkeeping error: spec {index} produced two outcomes"
                )
            outcomes[index] = outcome
        missing = [index for index, outcome in enumerate(outcomes) if outcome is None]
        if missing:
            # A bookkeeping bug must fail loudly: silently returning fewer
            # outcomes than specs would let downstream zips misalign results.
            raise RuntimeError(
                f"executor bookkeeping error: {len(missing)} of {len(specs)} specs "
                f"produced no outcome (first missing indices: {missing[:5]})"
            )
        complete = [outcome for outcome in outcomes if outcome is not None]
        failures = [outcome for outcome in complete if not outcome.ok]
        if failures and not allow_failures:
            raise SweepExecutionError(failures, total=len(specs))
        return complete

    def run_metrics(self, specs: Sequence[RunSpec]) -> List[RunMetrics]:
        """Like :meth:`run` but returning only the metrics (raises on failure)."""
        return [outcome.metrics for outcome in self.run(specs)]

    def iter_outcomes(
        self, specs: Sequence[RunSpec], *, allow_failures: bool = False
    ) -> Iterator[RunOutcome]:
        """Yield outcomes *as runs complete* (cache hits first, then by finish).

        The streaming counterpart of :meth:`run` for aggregations that must
        not hold a whole campaign in memory: consumers see each outcome once,
        in completion order rather than spec order.  Failure outcomes are
        collected and raised as one :class:`SweepExecutionError` after the
        batch drains (they are yielded instead under ``allow_failures=True``).
        """
        specs = list(specs)
        seen = 0
        failures: List[RunOutcome] = []
        for _, outcome in self._execute(specs):
            seen += 1
            if outcome.ok or allow_failures:
                yield outcome
            else:
                failures.append(outcome)
        if seen != len(specs):
            raise RuntimeError(
                f"executor bookkeeping error: saw {seen} outcomes for {len(specs)} specs"
            )
        if failures:
            raise SweepExecutionError(failures, total=len(specs))

    def _execute(
        self, specs: Sequence[RunSpec]
    ) -> Iterator[Tuple[int, RunOutcome]]:
        """Cache-check, dispatch, store-on-completion and retry loop.

        Yields ``(index, outcome)`` pairs: cache hits immediately, fresh runs
        as their backend completes them (each stored *before* it is yielded),
        and — only after the retry budget is spent — per-spec failure
        outcomes.  A crash in one run therefore never discards a sibling's
        finished result.
        """
        pending: List[int] = []
        for index, spec in enumerate(specs):
            cached = self._load_cached(spec)
            if cached is not None:
                yield index, cached
            else:
                pending.append(index)

        attempt = 1
        while pending:
            failed: Dict[int, RunOutcome] = {}
            for index, outcome in self.backend.execute(
                [(index, specs[index]) for index in pending]
            ):
                outcome.attempts = attempt
                if outcome.ok:
                    self._store_cached(outcome)
                    yield index, outcome
                else:
                    failed[index] = outcome
            if not failed:
                return
            if attempt > self.retry.retries:
                for index in sorted(failed):
                    yield index, failed[index]
                return
            time.sleep(self.retry.delay_for(attempt))
            attempt += 1
            pending = sorted(failed)

    # ------------------------------------------------------------------ #
    # Caching
    # ------------------------------------------------------------------ #
    def _load_cached(self, spec: RunSpec) -> Optional[RunOutcome]:
        if self.store is None:
            return None
        metrics = self.store.load(spec.cache_key())
        if metrics is None:
            return None
        return RunOutcome(spec=spec, metrics=metrics, wall_time_s=0.0, from_cache=True)

    def _store_cached(self, outcome: Optional[RunOutcome]) -> None:
        if outcome is None or not outcome.ok or self.store is None:
            return
        self.store.store(outcome.spec.cache_key(), outcome.metrics)


# --------------------------------------------------------------------- #
# Spec builders
# --------------------------------------------------------------------- #
def replication_specs(config: ScenarioConfig, num_replications: int) -> List[RunSpec]:
    """Specs for ``num_replications`` runs of one configuration.

    Each replicate's seed is derived with :func:`derive_run_seed`, so the set
    of seeds is a pure function of the configuration's master seed and key.
    """
    if num_replications < 1:
        raise ValueError(f"num_replications must be >= 1, got {num_replications}")
    specs: List[RunSpec] = []
    for replicate in range(num_replications):
        seed = derive_run_seed(
            config.seed,
            config.scheme,
            config.num_gateways,
            config.device_range_m,
            replicate,
        )
        specs.append(RunSpec(config=config.with_seed(seed), replicate=replicate))
    return specs
