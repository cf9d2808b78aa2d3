"""The always-on results service behind ``repro serve``.

A thin asyncio HTTP front on the campaign engine: clients POST a scenario
(or just its digest-derived cache key) and either get the cached
:class:`RunMetrics` back instantly or a job handle to poll.  The service
holds no science of its own — every byte it serves comes from the shared
:class:`~repro.experiments.store.ResultStore`, and every computation goes
through the same :class:`~repro.experiments.parallel.SweepExecutor` (and
therefore the same pluggable backend) as the CLI and the Python API, so a
served result is bit-identical to a locally computed one.

Endpoints (all JSON)::

    GET  /health              liveness + queue depth
    POST /runs                {"preset": name} | {"scenario": {...}} |
                              {"cache_key": "..."}   → metrics | job handle
    GET  /jobs/<job_id>       job status (metrics included once done)
    GET  /results/<cache_key> cached metrics only (404 on miss, 400 on a
                              malformed key)
    GET  /summary             streaming aggregate over the whole store

The HTTP layer is deliberately minimal — one request per connection, parsed
with :mod:`asyncio` streams, standard library only — because the heavy
lifting (simulation) runs outside the event loop in executor threads; the
loop only routes, serves cache hits and tracks jobs, which is what lets one
service instance absorb large volumes of duplicate-scenario traffic as pure
store lookups.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.analysis.metrics import RunMetrics
from repro.experiments.parallel import RunSpec, SweepExecutor, spec_from_dict
from repro.experiments.reporting import json_safe, metrics_to_dict
from repro.experiments.serialization import scenario_from_dict

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

_MAX_BODY_BYTES = 8 * 1024 * 1024


class ServiceError(Exception):
    """An HTTP-visible request failure."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _metrics_payload(metrics: RunMetrics) -> Dict[str, Any]:
    # Scalar summary only: the per-delivery arrays of a large run would turn
    # every poll into a megabyte download; `repro run --out` exports those.
    return metrics_to_dict(metrics, include_arrays=False)


@dataclass
class JobRecord:
    """One submitted computation, keyed by its spec's cache key."""

    spec: RunSpec
    cache_key: str
    status: str = QUEUED
    error: Optional[str] = None
    wall_time_s: float = 0.0
    submitted_at: float = field(default_factory=time.time)

    def payload(self) -> Dict[str, Any]:
        return {
            "job_id": self.cache_key,
            "status": self.status,
            "error": self.error,
            "wall_time_s": self.wall_time_s,
            "cache_key": self.cache_key,
        }


class CampaignService:
    """The asyncio server: routing, the job table and the drain task.

    ``executor`` must own a :class:`ResultStore` (``cache_dir`` or a
    store-backed backend such as the work-queue): the store is both the
    instant-hit fast path and where finished jobs are read back from.
    """

    def __init__(
        self,
        executor: SweepExecutor,
        host: str = "127.0.0.1",
        port: int = 8765,
    ) -> None:
        if executor.store is None:
            raise ValueError(
                "the results service needs an executor with a result store "
                "(pass cache_dir=... or use a store-backed backend)"
            )
        self.executor = executor
        self.host = host
        self.port = port
        self.bound_port: Optional[int] = None
        self.jobs: Dict[str, JobRecord] = {}
        self.ready = threading.Event()
        self._queue: "asyncio.Queue[str]" = asyncio.Queue()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def run_blocking(self) -> None:
        """Serve until :meth:`stop` is called (the ``repro serve`` loop)."""
        asyncio.run(self._serve())

    def stop(self) -> None:
        """Thread-safe shutdown request."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        self.bound_port = server.sockets[0].getsockname()[1]
        drain = asyncio.create_task(self._drain())
        self.ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            drain.cancel()
            self.ready.clear()

    async def _drain(self) -> None:
        """Execute queued jobs one at a time, off the event loop.

        One consumer is enough: parallelism belongs to the executor's
        backend (``--workers``/``--backend``), not to the service, and a
        single consumer keeps the job table free of write races.
        """
        loop = asyncio.get_running_loop()
        while True:
            job_id = await self._queue.get()
            record = self.jobs[job_id]
            record.status = RUNNING
            try:
                outcome = (
                    await loop.run_in_executor(
                        None,
                        lambda: self.executor.run(
                            [record.spec], allow_failures=True
                        ),
                    )
                )[0]
            except Exception as exc:  # defensive: run() should not raise here
                record.status = FAILED
                record.error = f"{type(exc).__name__}: {exc}"
                continue
            record.wall_time_s = outcome.wall_time_s
            if outcome.ok:
                record.status = DONE
            else:
                record.status = FAILED
                record.error = outcome.error

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except ServiceError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except Exception as exc:  # malformed request, client disconnect, …
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        # The one JSON boundary: non-finite floats (a run with no deliveries
        # has a NaN mean delay) become null here, for every route.
        body = json.dumps(json_safe(payload)).encode("utf-8")
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 500: "Internal Server Error"}
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, Any]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            raise ServiceError(400, f"malformed request line {request_line!r}")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = -1
                if content_length < 0:
                    raise ServiceError(400, f"bad Content-Length {value.strip()!r}")
        if content_length > _MAX_BODY_BYTES:
            raise ServiceError(400, f"request body exceeds {_MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(content_length) if content_length else b""
        except asyncio.IncompleteReadError as exc:
            raise ServiceError(
                400,
                f"request body ended after {len(exc.partial)} of "
                f"{content_length} Content-Length bytes",
            ) from None
        return self._route(method, path, body)

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/health":
            return 200, {
                "status": "ok",
                "jobs": len(self.jobs),
                "queue_depth": self._queue.qsize(),
                "backend": self.executor.backend.name,
            }
        if method == "GET" and path == "/summary":
            return 200, self.executor.store.summarize()
        if method == "GET" and path.startswith("/results/"):
            return self._get_result(path.removeprefix("/results/"))
        if method == "GET" and path.startswith("/jobs/"):
            return self._get_job(path.removeprefix("/jobs/"))
        if method == "POST" and path == "/runs":
            return self._post_run(body)
        if path in ("/health", "/summary", "/runs") or path.startswith(("/jobs/", "/results/")):
            raise ServiceError(405, f"{method} not allowed on {path}")
        raise ServiceError(404, f"no route for {method} {path}")

    def _get_result(self, cache_key: str) -> Tuple[int, Dict[str, Any]]:
        try:
            metrics = self.executor.store.load(cache_key)
        except ValueError as exc:  # a malformed client-supplied key
            raise ServiceError(400, str(exc))
        if metrics is None:
            raise ServiceError(404, f"no stored result for {cache_key!r}")
        return 200, {
            "status": DONE,
            "cache_key": cache_key,
            "metrics": _metrics_payload(metrics),
        }

    def _get_job(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        record = self.jobs.get(job_id)
        if record is None:
            raise ServiceError(404, f"unknown job {job_id!r}")
        payload = record.payload()
        if record.status == DONE:
            metrics = self.executor.store.load(record.cache_key)
            if metrics is not None:
                payload["metrics"] = _metrics_payload(metrics)
        return 200, payload

    def _post_run(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            request = json.loads(body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(400, f"invalid JSON body: {exc}")
        if not isinstance(request, dict):
            raise ServiceError(400, "request body must be a JSON object")

        if "cache_key" in request and not (
            "scenario" in request or "preset" in request or "spec" in request
        ):
            # Digest-only lookup: the client knows the identity but not the
            # configuration, so a miss cannot be computed — only reported.
            cache_key = str(request["cache_key"])
            record = self.jobs.get(cache_key)
            if record is not None and record.status not in (DONE,):
                return 202, record.payload()
            return self._get_result(cache_key)

        spec = self._spec_from_request(request)
        cache_key = spec.cache_key()
        metrics = self.executor.store.load(cache_key)
        if metrics is not None:
            return 200, {
                "status": DONE,
                "cached": True,
                "cache_key": cache_key,
                "metrics": _metrics_payload(metrics),
            }
        record = self.jobs.get(cache_key)
        if record is None or record.status == FAILED:
            # FAILED jobs are resubmittable (the failure may be transient);
            # QUEUED/RUNNING jobs dedupe onto the in-flight record.
            record = JobRecord(spec=spec, cache_key=cache_key)
            self.jobs[cache_key] = record
            self._queue.put_nowait(cache_key)
        payload = record.payload()
        payload["poll"] = f"/jobs/{cache_key}"
        return 202, payload

    def _spec_from_request(self, request: Mapping[str, Any]) -> RunSpec:
        if not ("spec" in request or "preset" in request or "scenario" in request):
            raise ServiceError(
                400, "submit {'preset': name}, {'scenario': {...}}, "
                "{'spec': {...}} or {'cache_key': '...'}"
            )
        try:
            if "spec" in request:
                return spec_from_dict(request["spec"])
            if "preset" in request:
                from repro.experiments.registry import get_preset

                config = get_preset(str(request["preset"])).config
            else:
                config = scenario_from_dict(request["scenario"])
            return RunSpec(
                config=config,
                nominal_gateways=request.get("nominal_gateways"),
                replicate=request.get("replicate", 0),
            )
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
            raise ServiceError(400, f"bad run request: {message}")

