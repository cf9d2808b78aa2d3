"""The pluggable execution-backend seam of the campaign engine.

An :class:`ExecutionBackend` answers one question — *where do pending runs
execute?* — and nothing else.  Caching, retry, backoff and completeness
accounting all live in :class:`~repro.experiments.parallel.SweepExecutor`,
which makes every backend interchangeable: the executor hands a batch of
``(index, spec)`` items to :meth:`ExecutionBackend.execute` and consumes
``(index, outcome)`` pairs *as runs finish*, in any order.  A run that fails
becomes a failure outcome (:func:`failure_outcome`) instead of an exception,
so one crashed run can never abort the batch or lose its siblings' results.
"""

from __future__ import annotations

import math
import traceback
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterator, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (parallel → backends)
    from repro.experiments.parallel import RunOutcome, RunSpec
    from repro.experiments.store import ResultStore


@dataclass(frozen=True)
class RetryPolicy:
    """Per-run failure handling of a campaign.

    ``retries`` is the number of *additional* attempts after the first
    failure; the delay before attempt ``n`` grows exponentially from
    ``backoff_base_s`` but never exceeds ``backoff_cap_s`` (bounded backoff —
    a long campaign must not sleep unboundedly between rounds).
    ``timeout_s`` is the wall-clock budget of one dispatched run; how strictly
    it is enforced is backend-specific (the work-queue lease, the pool's
    abandonment deadline; the in-process serial path cannot preempt a run).
    """

    retries: int = 0
    timeout_s: Optional[float] = None
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        # NaN fails every comparison, so the range checks reject it too: a NaN
        # budget would disarm every deadline.
        if self.timeout_s is not None and not 0 < self.timeout_s < math.inf:
            raise ValueError(
                f"timeout_s must be positive and finite, got {self.timeout_s}"
            )
        for name in ("backoff_base_s", "backoff_cap_s"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def delay_for(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based), bounded."""
        if attempt < 1 or self.backoff_base_s == 0.0:
            return 0.0
        return min(self.backoff_cap_s, self.backoff_base_s * 2.0 ** (attempt - 1))


class ExecutionBackend(ABC):
    """Executes batches of run specs; yields outcomes as they complete."""

    #: Name of the backend (set by subclasses; ``/health`` reports it).
    name: ClassVar[str] = "abstract"

    #: A backend that owns durable result storage (the work-queue spool)
    #: exposes it here so the executor can adopt it as its cache store.
    store: Optional["ResultStore"] = None

    @abstractmethod
    def execute(
        self, items: Sequence[Tuple[int, "RunSpec"]]
    ) -> Iterator[Tuple[int, "RunOutcome"]]:
        """Run every item, yielding ``(index, outcome)`` as each finishes.

        Must yield exactly one outcome per item, in any order.  Failures are
        reported as failure outcomes (``outcome.error`` set, ``metrics``
        ``None``) — implementations must not raise for a failed *run*, only
        for backend misconfiguration.
        """


def failure_outcome(
    spec: "RunSpec", error: Union[str, BaseException], wall_time_s: float = 0.0
) -> "RunOutcome":
    """A per-spec failure outcome (the batch-abort replacement).

    Exceptions are rendered with their type name so ``repro`` output and the
    results service can distinguish a timeout from a crash at a glance.
    """
    from repro.experiments.parallel import RunOutcome

    if isinstance(error, BaseException):
        message = f"{type(error).__name__}: {error}"
        detail = traceback.format_exception_only(type(error), error)[-1].strip()
        if detail != message:  # pragma: no cover - exotic __str__ overrides
            message = detail
    else:
        message = str(error)
    return RunOutcome(
        spec=spec, metrics=None, wall_time_s=wall_time_s, error=message
    )
