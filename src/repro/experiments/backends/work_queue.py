"""Multi-worker execution over a shared filesystem spool.

The ``work-queue`` backend turns a directory (local disk or a shared mount,
so several hosts can participate) into a crash-safe job queue::

    spool/
      todo/<job>.json     submitted, unclaimed work (one spec per file)
      active/<job>.json   claimed by a worker; mtime records the claim time
      done/<job>.json     completion marker: error or a pointer into store/
      store/              shared ResultStore holding the finished RunMetrics

Every transition is a single atomic :func:`os.rename` / :func:`os.replace`
on one filesystem, which is the whole concurrency story:

* **Claiming.**  A worker claims a job by renaming ``todo/x.json`` to
  ``active/x.json``; exactly one claimant wins, the losers get
  ``FileNotFoundError`` and move on.  No locks, no daemons.
* **Completion.**  The worker stores the metrics into ``store/`` *before*
  publishing the ``done`` marker, so a marker always points at a readable
  result no matter when the worker dies.
* **Worker death.**  A worker that dies mid-run leaves its ``active`` file
  behind.  The submitter renames actives older than the lease timeout back
  into ``todo/``, so another worker picks the run up.  Results the dead
  worker already finished are in the store and are never recomputed.

Job ids are the spec's cache key, so resubmitting the same campaign after a
submitter crash dedupes against both the queue and the store — resumption
costs only the runs that never finished.

Workers are started with ``repro worker SPOOL`` (any number, any host that
sees the directory) or programmatically via :func:`run_worker`.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.experiments.backends.base import ExecutionBackend, failure_outcome
from repro.experiments.parallel import (
    RunOutcome,
    RunSpec,
    execute_spec,
    spec_from_dict,
    spec_to_dict,
)
from repro.experiments.store import ResultStore

#: Spool subdirectories (see the module docstring for the protocol).
TODO_DIR = "todo"
ACTIVE_DIR = "active"
DONE_DIR = "done"
STORE_DIR = "store"

#: Default lease on a claimed job before the submitter requeues it.  Must
#: comfortably exceed the longest single run; ``timeout_s`` overrides it.
DEFAULT_LEASE_TIMEOUT_S = 900.0


def _write_json_atomic(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        prefix=f"{path.stem}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            json.dump(payload, tmp)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


class Spool:
    """Path bookkeeping shared by the backend (submitter) and the workers."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.todo = self.root / TODO_DIR
        self.active = self.root / ACTIVE_DIR
        self.done = self.root / DONE_DIR
        self.store = ResultStore(self.root / STORE_DIR)

    def ensure_layout(self) -> None:
        for directory in (self.todo, self.active, self.done):
            directory.mkdir(parents=True, exist_ok=True)

    def todo_path(self, job_id: str) -> Path:
        return self.todo / f"{job_id}.json"

    def active_path(self, job_id: str) -> Path:
        return self.active / f"{job_id}.json"

    def done_path(self, job_id: str) -> Path:
        return self.done / f"{job_id}.json"


class WorkQueueBackend(ExecutionBackend):
    """Submit runs into a spool directory and wait for workers to finish them.

    The backend never executes anything itself — start at least one
    ``repro worker`` on the spool, or dispatch blocks until one appears.
    """

    name = "work-queue"

    def __init__(
        self,
        spool_dir: Union[str, Path, None],
        poll_interval_s: float = 0.1,
        lease_timeout_s: Optional[float] = None,
    ) -> None:
        if spool_dir is None:
            raise ValueError(
                "the work-queue backend needs a spool directory "
                "(--spool DIR on the CLI)"
            )
        if poll_interval_s <= 0:
            raise ValueError(f"poll_interval_s must be positive, got {poll_interval_s}")
        self.spool = Spool(spool_dir)
        self.poll_interval_s = float(poll_interval_s)
        self.lease_timeout_s = (
            float(lease_timeout_s) if lease_timeout_s else DEFAULT_LEASE_TIMEOUT_S
        )
        #: The spool's result store doubles as the executor's cache (see
        #: SweepExecutor: a backend-owned store is adopted when no cache_dir
        #: is given), which is what makes campaigns resumable end to end.
        self.store = self.spool.store

    # ------------------------------------------------------------------ #
    # Submission + polling (the ExecutionBackend contract)
    # ------------------------------------------------------------------ #
    def execute(
        self, items: Sequence[Tuple[int, RunSpec]]
    ) -> Iterator[Tuple[int, RunOutcome]]:
        self.spool.ensure_layout()
        indices_by_job: Dict[str, List[int]] = {}
        spec_by_job: Dict[str, RunSpec] = {}
        for index, spec in items:
            job_id = spec.cache_key()
            indices_by_job.setdefault(job_id, []).append(index)
            spec_by_job[job_id] = spec
        for job_id, spec in spec_by_job.items():
            self._submit(job_id, spec)

        pending = set(spec_by_job)
        while pending:
            progressed = False
            for job_id in sorted(pending):
                marker = _read_json(self.spool.done_path(job_id))
                if marker is None:
                    continue
                outcome = self._outcome_from_marker(job_id, spec_by_job[job_id], marker)
                for index in indices_by_job[job_id]:
                    yield index, outcome
                pending.discard(job_id)
                progressed = True
            if pending and not progressed:
                self._requeue_stale_actives()
                time.sleep(self.poll_interval_s)

    def _submit(self, job_id: str, spec: RunSpec) -> None:
        done_path = self.spool.done_path(job_id)
        marker = _read_json(done_path)
        if marker is not None:
            if not marker.get("error") and job_id in self.store:
                return  # finished earlier (e.g. before a submitter restart)
            # A failed or dangling marker from a previous round: clear it so
            # this round's completion is unambiguous, then resubmit.
            try:
                done_path.unlink()
            except OSError:
                pass
        if self.spool.active_path(job_id).is_file():
            return  # a worker is already on it; the lease recovers stalls
        _write_json_atomic(
            self.spool.todo_path(job_id),
            {"job_id": job_id, "spec": spec_to_dict(spec)},
        )

    def _outcome_from_marker(
        self, job_id: str, spec: RunSpec, marker: dict
    ) -> RunOutcome:
        error = marker.get("error")
        if error:
            return failure_outcome(spec, str(error), float(marker.get("wall_time_s", 0.0)))
        metrics = self.store.load(job_id)
        if metrics is None:
            return failure_outcome(
                spec, f"worker reported completion but {job_id} is not in the store"
            )
        return RunOutcome(
            spec=spec,
            metrics=metrics,
            wall_time_s=float(marker.get("wall_time_s", 0.0)),
            from_cache=bool(marker.get("served_from_store", False)),
        )

    def _requeue_stale_actives(self) -> None:
        if not self.spool.active.is_dir():
            return
        deadline = time.time() - self.lease_timeout_s
        for active in self.spool.active.glob("*.json"):
            try:
                if active.stat().st_mtime > deadline:
                    continue
                os.rename(active, self.spool.todo / active.name)
            except FileNotFoundError:
                continue  # the worker finished (or another submitter requeued)
            except OSError:
                continue


# --------------------------------------------------------------------- #
# Worker loop (the `repro worker` entry point)
# --------------------------------------------------------------------- #
def claim_next_job(spool: Spool) -> Optional[str]:
    """Claim the oldest unclaimed job via atomic rename; None when idle."""
    if not spool.todo.is_dir():
        return None
    for todo in sorted(spool.todo.glob("*.json")):
        job_id = todo.stem
        try:
            os.rename(todo, spool.active_path(job_id))
        except FileNotFoundError:
            continue  # another worker won the claim
        except OSError:
            continue
        return job_id
    return None


def process_job(spool: Spool, job_id: str) -> bool:
    """Execute one claimed job; returns False when its payload is unusable.

    The result lands in the spool's store *before* the ``done`` marker is
    published, so a marker is always backed by a readable result.  Failures
    (bad payload, a run that raises) publish an error marker instead —
    per-job, never fatal to the worker.
    """
    active = spool.active_path(job_id)
    payload = _read_json(active)
    started = time.perf_counter()
    marker: dict = {"job_id": job_id, "error": None, "wall_time_s": 0.0}
    ok = True
    try:
        if job_id in spool.store:
            # Another worker (or a previous life of this campaign) already
            # finished this configuration: serve it without recomputing.
            marker["served_from_store"] = True
        elif payload is None or "spec" not in payload:
            raise ValueError(f"unreadable job payload for {job_id}")
        else:
            spec = spec_from_dict(payload["spec"])
            outcome = execute_spec(spec)
            spool.store.store(job_id, outcome.metrics)
            marker["wall_time_s"] = outcome.wall_time_s
    except Exception as exc:
        marker["error"] = f"{type(exc).__name__}: {exc}"
        marker["wall_time_s"] = time.perf_counter() - started
        ok = False
    _write_json_atomic(spool.done_path(job_id), marker)
    try:
        active.unlink()
    except OSError:
        pass
    return ok


def run_worker(
    spool_dir: Union[str, Path],
    max_jobs: Optional[int] = None,
    idle_timeout_s: Optional[float] = None,
    poll_interval_s: float = 0.1,
) -> int:
    """Process spool jobs until ``max_jobs`` are done or the queue stays idle.

    ``max_jobs`` bounds the worker's lifetime (useful for tests and for
    rolling restarts); ``idle_timeout_s`` exits after that long without
    claimable work (``None`` serves forever).  Returns the number of jobs
    processed (including store-served and failed ones).
    """
    spool = Spool(spool_dir)
    spool.ensure_layout()
    processed = 0
    idle_since = time.monotonic()
    while max_jobs is None or processed < max_jobs:
        job_id = claim_next_job(spool)
        if job_id is None:
            if (
                idle_timeout_s is not None
                and time.monotonic() - idle_since >= idle_timeout_s
            ):
                break
            time.sleep(poll_interval_s)
            continue
        process_job(spool, job_id)
        processed += 1
        idle_since = time.monotonic()
    return processed
