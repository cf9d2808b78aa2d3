"""Execution backends for the campaign engine.

* :mod:`repro.experiments.backends.base` — the :class:`ExecutionBackend`
  contract, :class:`RetryPolicy` and per-spec failure outcomes.
* :mod:`repro.experiments.backends.serial` — in-process reference execution.
* :mod:`repro.experiments.backends.process_pool` — single-machine fan-out
  over a fork-based process pool.
* :mod:`repro.experiments.backends.work_queue` — multi-worker (multi-host)
  execution over a shared filesystem spool, driven by ``repro worker``.

All backends are bit-identical on results: a run is fully determined by its
:class:`~repro.experiments.config.ScenarioConfig`, so *where* it executes can
never change *what* it computes (pinned by
``tests/experiments/test_backends.py``).
"""

from repro.experiments.backends.base import (
    ExecutionBackend,
    RetryPolicy,
    failure_outcome,
)
from repro.experiments.backends.serial import SerialBackend
from repro.experiments.backends.process_pool import ProcessPoolBackend
from repro.experiments.backends.work_queue import (
    WorkQueueBackend,
    claim_next_job,
    process_job,
    run_worker,
)

#: The backends ``SweepExecutor(backend=name)`` and ``--backend`` accept, each
#: built from the executor's worker count, per-run timeout and spool directory.
EXECUTION_BACKENDS = {
    "serial": lambda workers, timeout_s, spool_dir: SerialBackend(),
    "process-pool": lambda workers, timeout_s, spool_dir: ProcessPoolBackend(
        workers=workers, timeout_s=timeout_s
    ),
    "work-queue": lambda workers, timeout_s, spool_dir: WorkQueueBackend(
        spool_dir=spool_dir, lease_timeout_s=timeout_s
    ),
}

__all__ = [
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "RetryPolicy",
    "SerialBackend",
    "ProcessPoolBackend",
    "WorkQueueBackend",
    "claim_next_job",
    "failure_outcome",
    "process_job",
    "run_worker",
]
