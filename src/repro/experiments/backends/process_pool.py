"""Single-machine fan-out over a :class:`ProcessPoolExecutor`.

Outcomes are yielded as futures complete (not in submission order), so the
executor can cache each finished run immediately — a worker crashing later in
the batch can no longer lose results that already finished.  A crashed
worker process (``BrokenProcessPool``) fails only the runs that were in
flight; everything already completed has been yielded, and the executor's
retry loop re-dispatches the casualties on a fresh pool.

When ``timeout_s`` is set, a run whose future has not resolved within its
wall-clock budget (measured from submission, so queueing time counts toward
it) is abandoned with a ``timeout`` failure outcome.  A genuinely running
task cannot be killed through :mod:`concurrent.futures`; the pool is shut
down without waiting so the batch finishes promptly, and the orphaned worker
process exits on its own when (if) the run completes.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.experiments.backends.base import ExecutionBackend, failure_outcome
from repro.experiments.parallel import RunOutcome, RunSpec, execute_spec


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context used for worker pools.

    Fork keeps the parent's ``sys.path`` (the tests and benchmarks rely on a
    conftest path insert rather than an installed package); fall back to the
    platform default where fork does not exist.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class ProcessPoolBackend(ExecutionBackend):
    """Fan-out over ``workers`` local processes."""

    name = "process-pool"

    def __init__(self, workers: int = 2, timeout_s: Optional[float] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.timeout_s = timeout_s

    def execute(
        self, items: Sequence[Tuple[int, RunSpec]]
    ) -> Iterator[Tuple[int, RunOutcome]]:
        items = list(items)
        if not items:
            return
        pool = ProcessPoolExecutor(
            max_workers=min(self.workers, len(items)), mp_context=pool_context()
        )
        timed_out = False
        try:
            submitted_at = time.monotonic()
            future_map: Dict[Future, Tuple[int, RunSpec]] = {
                pool.submit(execute_spec, spec): (index, spec)
                for index, spec in items
            }
            outstanding = set(future_map)
            while outstanding:
                poll = None
                if self.timeout_s is not None:
                    poll = max(
                        0.05, self.timeout_s - (time.monotonic() - submitted_at)
                    )
                done, outstanding = wait(
                    outstanding, timeout=poll, return_when=FIRST_COMPLETED
                )
                for future in done:
                    index, spec = future_map[future]
                    try:
                        yield index, future.result()
                    except Exception as exc:
                        yield index, failure_outcome(spec, exc)
                if (
                    self.timeout_s is not None
                    and not done
                    and time.monotonic() - submitted_at >= self.timeout_s
                ):
                    timed_out = True
                    for future in outstanding:
                        future.cancel()
                        index, spec = future_map[future]
                        yield index, failure_outcome(
                            spec,
                            f"timeout: run exceeded {self.timeout_s:g}s wall-clock budget",
                            wall_time_s=time.monotonic() - submitted_at,
                        )
                    outstanding = set()
        finally:
            # After a timeout we must not block on abandoned runs; otherwise
            # draining normally is the clean shutdown.
            pool.shutdown(wait=not timed_out, cancel_futures=True)
