"""In-process serial execution — the reference backend.

Runs every spec in the calling process, one after the other.  This is the
path the equivalence tests treat as ground truth: the other backends must be
bit-identical to it.  A run that raises becomes a per-spec failure outcome;
the rest of the batch continues.

``timeout_s`` is *not* enforced here: preempting arbitrary Python in the
calling process would require signals (unavailable off the main thread, e.g.
under the results service) and could corrupt in-progress state.  Campaigns
that need hard timeouts use the ``process-pool`` or ``work-queue`` backends,
whose runs live in killable processes.
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence, Tuple

from repro.experiments.backends.base import ExecutionBackend, failure_outcome
from repro.experiments.parallel import RunOutcome, RunSpec, execute_spec


class SerialBackend(ExecutionBackend):
    """One-at-a-time execution in the calling process."""

    name = "serial"

    def execute(
        self, items: Sequence[Tuple[int, RunSpec]]
    ) -> Iterator[Tuple[int, RunOutcome]]:
        for index, spec in items:
            start = time.perf_counter()
            try:
                outcome = execute_spec(spec)
            except Exception as exc:
                outcome = failure_outcome(spec, exc, time.perf_counter() - start)
            yield index, outcome
