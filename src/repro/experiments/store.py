"""Content-addressed, crash-safe storage for finished :class:`RunMetrics`.

:class:`ResultStore` is the campaign engine's system of record: every
finished run is pickled under its spec's cache key — a digest of the full
scenario configuration plus the reporting identity (see
:meth:`repro.experiments.parallel.RunSpec.cache_key`) — so any executor,
worker process or host that shares the store directory resolves the same
configuration to the same entry.  Three properties make it safe for
million-run campaigns:

* **Atomic writes.**  Entries are written to a unique temporary file and
  published with :func:`os.replace`, so concurrent writers (several worker
  hosts finishing the same spec, a worker dying mid-write) can never leave a
  half-written entry behind under the final name.
* **Self-healing reads.**  A corrupt entry (truncated pickle, wrong type) is
  unlinked on load failure so the next execution recomputes and rewrites it,
  instead of re-reading and re-discarding the damaged bytes forever.
* **Streaming aggregation.**  :meth:`ResultStore.iter_metrics` and
  :meth:`ResultStore.summarize` stream entries one at a time through a
  constant-size :class:`MetricsAccumulator`, so summarising a grid of
  millions of runs never holds more than one :class:`RunMetrics` in memory.

The on-disk layout shards entries into 256 subdirectories keyed by the first
byte of the SHA-256 of the cache key (``<root>/<xx>/<key>.pkl``), keeping
directory listings bounded at campaign scale.  There is no other layout:
entries are recomputable, so the flat pre-sharding layout is not read.

Keys come from outside the process (work-queue spools, the HTTP service),
so every keyed operation first checks the key against the
``v<schema>-<sha256>-<n|gateways>-<replicate>`` grammar of
:meth:`~repro.experiments.parallel.RunSpec.cache_key` and raises
:class:`ValueError` otherwise: a key can never name a path outside its shard.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Union

from repro.analysis.metrics import RunMetrics


#: The grammar of :meth:`repro.experiments.parallel.RunSpec.cache_key`.
_KEY_PATTERN = re.compile(r"v\d+-[0-9a-f]{64}-(n|\d+)-\d+", re.ASCII)


def _shard_name(key: str) -> str:
    """The 2-hex-character shard directory of a cache key."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:2]


class ResultStore:
    """A directory of finished :class:`RunMetrics`, keyed by cache key.

    The store is deliberately dumb about *what* a key means — the executor
    derives keys from configuration digests — so it can also archive results
    produced on other hosts via the work-queue spool.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        """The sharded on-disk location of ``key``.

        Every keyed operation goes through here, so a malformed key raises
        :class:`ValueError` before any file is touched.
        """
        if not isinstance(key, str) or not _KEY_PATTERN.fullmatch(key):
            raise ValueError(f"malformed cache key {key!r}")
        return self.root / _shard_name(key) / f"{key}.pkl"

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def load(self, key: str) -> Optional[RunMetrics]:
        """The stored metrics for ``key``, or ``None`` when absent.

        A damaged entry — unreadable pickle or a pickle of the wrong type —
        is deleted before returning ``None``: leaving it in place would make
        every future execution re-read and re-discard it, silently turning a
        one-off truncation into a permanent cache miss.

        The entry is opened without a stat first: an absent entry (or a
        directory in its place) is the open's ``OSError``, so a hit costs one
        system call less and nothing can vanish between a check and the open.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                metrics = pickle.loads(handle.read())
        except (pickle.UnpicklingError, EOFError, ValueError, IndexError):
            self._discard_damaged(path)
            return None
        except OSError:
            # A miss, or a transient read failure (permissions, racing
            # unlink): never destroy what may be a healthy entry.
            return None
        if not isinstance(metrics, RunMetrics):
            self._discard_damaged(path)
            return None
        return metrics

    @staticmethod
    def _discard_damaged(path: Path) -> None:
        try:
            path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - racing unlink/permissions
            pass

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def store(self, key: str, metrics: RunMetrics) -> Path:
        """Atomically publish ``metrics`` under ``key`` and return its path.

        Safe against concurrent writers: each write goes to a unique
        temporary file in the destination directory and lands with one
        :func:`os.replace`; last writer wins with a complete entry either
        way (equal configurations produce equal metrics, so the race is
        benign).
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            prefix=f"{key}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(handle, "wb") as tmp:
                pickle.dump(metrics, tmp)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------ #
    # Enumeration and streaming aggregation
    # ------------------------------------------------------------------ #
    def iter_keys(self) -> Iterator[str]:
        """Every stored cache key, streamed (stray files are skipped)."""
        if not self.root.is_dir():
            return
        for shard in sorted(p for p in self.root.iterdir() if p.is_dir()):
            for entry in sorted(shard.glob("*.pkl")):
                if _KEY_PATTERN.fullmatch(entry.stem):
                    yield entry.stem

    def iter_metrics(
        self, keys: Optional[Iterable[str]] = None
    ) -> Iterator[RunMetrics]:
        """Stream stored metrics one entry at a time (skipping misses)."""
        for key in keys if keys is not None else self.iter_keys():
            metrics = self.load(key)
            if metrics is not None:
                yield metrics

    def summarize(self, keys: Optional[Iterable[str]] = None) -> Dict[str, Any]:
        """A constant-memory aggregate over (a subset of) the store."""
        accumulator = MetricsAccumulator()
        for metrics in self.iter_metrics(keys):
            accumulator.add(metrics)
        return accumulator.summary()


@dataclass
class MetricsAccumulator:
    """Streaming (constant-size) aggregation of many :class:`RunMetrics`.

    Holds only running sums and counts — never the per-delivery arrays — so
    aggregating a million-run campaign costs the same memory as aggregating
    one run.  Delay and hop means are weighted by delivery (every delivered
    message counts once, matching a concatenation of the per-run arrays).
    """

    runs: int = 0
    messages_generated: int = 0
    messages_delivered: int = 0
    messages_dropped_full: int = 0
    messages_rejected_duplicate: int = 0
    messages_expired_ttl: int = 0
    delay_sum_s: float = 0.0
    delay_count: int = 0
    hop_sum: int = 0
    hop_count: int = 0
    wall_time_s: float = 0.0

    def add(self, metrics: RunMetrics, wall_time_s: float = 0.0) -> None:
        """Fold one run into the aggregate."""
        self.runs += 1
        self.messages_generated += metrics.messages_generated
        self.messages_delivered += metrics.messages_delivered
        self.messages_dropped_full += metrics.messages_dropped_full
        self.messages_rejected_duplicate += metrics.messages_rejected_duplicate
        self.messages_expired_ttl += metrics.messages_expired_ttl
        self.delay_sum_s += float(sum(metrics.delays_s))
        self.delay_count += len(metrics.delays_s)
        self.hop_sum += int(sum(metrics.hop_counts))
        self.hop_count += len(metrics.hop_counts)
        self.wall_time_s += wall_time_s

    def summary(self) -> Dict[str, Any]:
        """The aggregate as a JSON-ready mapping."""
        return {
            "runs": self.runs,
            "messages_generated": self.messages_generated,
            "messages_delivered": self.messages_delivered,
            "messages_dropped_full": self.messages_dropped_full,
            "messages_rejected_duplicate": self.messages_rejected_duplicate,
            "messages_expired_ttl": self.messages_expired_ttl,
            "delivery_ratio": (
                self.messages_delivered / self.messages_generated
                if self.messages_generated
                else 0.0
            ),
            "mean_delay_s": (
                self.delay_sum_s / self.delay_count if self.delay_count else None
            ),
            "mean_hop_count": (
                self.hop_sum / self.hop_count if self.hop_count else None
            ),
            "wall_time_s": self.wall_time_s,
        }
