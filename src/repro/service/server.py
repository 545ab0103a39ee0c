"""The asyncio HTTP job server: partitioning as a service.

A long-running, stdlib-only front door over the request API
(:mod:`repro.request` / :func:`repro.api.run_request`): clients submit
:class:`~repro.request.PartitionRequest` documents over HTTP, the server
serves cache hits instantly from :mod:`repro.cache`, queues misses by
priority, fans them out on the batch process pool
(:class:`~repro.perf.parallel.BatchJobPool`) and streams per-job
lifecycle events as chunked JSONL or SSE.

Endpoints (all JSON; the request schema is ``repro-partition-request/1``):

* ``GET  /v1/health`` -- liveness + config;
* ``GET  /v1/stats``  -- counters, queue depth, per-state job counts,
  rolling queue-wait and end-to-end latency quantiles;
* ``GET  /v1/metrics`` -- Prometheus text exposition: service gauges
  (queue depth, worker utilization, latency quantiles), the lifecycle
  counters, and -- when the server runs traced -- every registry
  metric, labeled series included;
* ``POST /v1/jobs``   -- submit: either a bare request document or
  ``{"request": {...}, "priority": int, "client": str}``; an
  ``X-Repro-Trace-Id`` header (or a ``trace_id`` on the request
  document) names the job's trace context, one is minted otherwise;
  returns ``200`` with the full result on an instant cache hit, else
  ``202`` with the queued job's id and its ``trace_id``;
* ``GET  /v1/jobs``           -- list job snapshots;
* ``GET  /v1/jobs/<id>``      -- one job's status (+ result when done);
* ``DELETE /v1/jobs/<id>``    -- cancel (queued: guaranteed; running:
  the job's cancel flag is raised and the worker's budget checkpoints
  wind the solve down promptly -- solver processes are never killed);
* ``GET  /v1/jobs/<id>/events`` -- replay + follow the job's event
  stream until it reaches a terminal state (``?format=sse`` or an
  ``Accept: text/event-stream`` header selects SSE framing, default is
  chunked JSONL).

Design rules: all job/queue state is touched only on the event loop
thread; anything blocking (technology mapping, cache reads, pool
collection) runs in executor threads; results travel through the
solution cache (workers store, the parent re-reads), so a service
response is bit-identical to the same request run through ``repro.api``
directly.  Refusals are explicit: malformed requests get 400, unknown
jobs 404, rate/quota breaches 429 + ``Retry-After``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import tempfile
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import api
from repro.obs.metrics import get_registry
from repro.obs.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    QuantileWindow,
    new_trace_id,
    prometheus_exposition,
    series,
)
from repro.request import PartitionRequest, RequestError
from repro.robust.budget import Budget
from repro.service.jobs import Job, JobQueue, JobTable
from repro.service.quota import ClientQuota

#: Largest request body the server will read, in bytes.
MAX_BODY_BYTES = 1 << 20

#: Hot result documents memoized per cache key (O(1) repeat hits).
_RESULT_MEMO_CAP = 1024

#: Histogram bounds (seconds) for queue-wait / end-to-end job latency.
LATENCY_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class PartitionService:
    """One service instance: HTTP listener + queue + worker pool."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache: str = "use",
        cache_dir: Optional[str] = None,
        rate: float = 20.0,
        burst: float = 40.0,
        max_inflight: int = 16,
        keep_finished: int = 512,
    ) -> None:
        from repro.cache.store import SolutionCache, resolve_cache

        self.host = host
        self.port = port
        self.workers = max(1, int(workers))
        self.policy = cache
        if cache == "off":
            self.store = None
        else:
            self.store = SolutionCache(cache_dir) if cache_dir else resolve_cache()
        self.table = JobTable(keep_finished=keep_finished)
        self.queue = JobQueue()
        self.quota = ClientQuota(rate=rate, burst=burst, max_inflight=max_inflight)
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "instant_hits": 0,
            "done": 0,
            "failed": 0,
            "cancelled": 0,
            "expired": 0,
            "rejected": 0,
        }
        self.started_ts = time.time()
        #: Rolling windows behind the ``/v1/stats`` and ``/v1/metrics``
        #: latency quantiles (the ``stats`` dict only counts).
        self.queue_wait = QuantileWindow()
        self.latency = QuantileWindow()
        self._seq = 0
        self._active = 0
        self._running = False
        # Loop-bound objects, created in start() on the serving loop
        # (Any: None only before start()/after stop()).
        self._server: Any = None
        self._pool: Any = None
        self._cancel_dir: Optional[str] = None
        self._wake: Any = None
        self._cond: Any = None
        self._dispatcher: Any = None
        self._result_memo: Dict[str, Dict[str, Any]] = {}

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener, build the pool, start the dispatcher."""
        from repro.perf.parallel import BatchJobPool

        self._wake = asyncio.Event()
        self._cond = asyncio.Condition()
        # Sentinel-file directory for cancelling *running* jobs: DELETE
        # touches <dir>/<job_id>.cancel and the pool worker's budgets
        # notice within one CancelFlag poll interval.
        self._cancel_dir = tempfile.mkdtemp(prefix="repro-cancel-")
        pool_dir = self.store.root if self.store is not None else None
        self._pool = BatchJobPool(pool_dir, self.policy, self.workers)
        self._running = True
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, cancel the dispatcher, shut the pool down."""
        self._running = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._dispatcher is not None:
            self._wake.set()
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self._pool is not None:
            self._pool.close()
        if self._cancel_dir is not None:
            shutil.rmtree(self._cancel_dir, ignore_errors=True)
            self._cancel_dir = None
        async with self._cond:
            self._cond.notify_all()

    async def serve_forever(self) -> None:
        """:meth:`start` then block until cancelled (Ctrl-C)."""
        await self.start()
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # -- blocking helpers (executor threads only) -----------------------

    def _hot_result(self, request: PartitionRequest) -> Optional[Dict[str, Any]]:
        """The serialized result of a trustworthy cache hit, else ``None``.

        Repeat hits on the same key are O(1): the verified result
        document is memoized, so the hot path costs one dict lookup
        after the first request.  The base netlist comes from the
        process-wide mapped-netlist index (:mod:`repro.cache.index`).
        """
        if self.store is None or self.policy != "use":
            return None
        mapped = api.map(
            request.circuit, scale=request.scale, seed=request.mapping_seed
        ).solution
        key = request.cache_key(mapped)
        memo = self._result_memo.get(key)
        if memo is not None:
            return memo
        result = api.cached_result(request, store=self.store, mapped=mapped)
        if result is None:
            return None
        doc = result.to_dict()
        if len(self._result_memo) >= _RESULT_MEMO_CAP:
            self._result_memo.pop(next(iter(self._result_memo)))
        self._result_memo[key] = doc
        return doc

    def _collect(self, future: Any) -> Any:
        from repro.perf.parallel import BatchJobPool

        return BatchJobPool.collect(future)

    # -- job lifecycle (event loop thread only) -------------------------

    def _post(self, job: Job, event: str, **fields: Any) -> None:
        """Append a lifecycle event to the job's stream, mirror it to the
        observability registry (under the job's trace context), wake
        stream followers."""
        payload = {"ts": time.time(), "event": event, "job_id": job.job_id}
        if job.request.trace_id is not None:
            payload["trace_id"] = job.request.trace_id
        payload.update(fields)
        job.events.append(payload)
        reg = get_registry()
        if reg.enabled:
            name = event if event.startswith("service.") else f"service.{event}"
            fields_out = {
                k: v for k, v in payload.items() if k not in ("event", "trace_id")
            }
            with reg.trace_scope(job.request.trace_id):
                reg.emit_event(name, **fields_out)
        loop = asyncio.get_running_loop()
        loop.create_task(self._notify())

    async def _notify(self) -> None:
        async with self._cond:
            self._cond.notify_all()

    def _finish(self, job: Job, state: str, **fields: Any) -> None:
        job.state = state
        job.finished_ts = time.time()
        self.stats[state] = self.stats.get(state, 0) + 1
        latency = job.finished_ts - job.submitted_ts
        self.latency.observe(latency)
        reg = get_registry()
        if reg.enabled:
            reg.histogram("service.latency_seconds", LATENCY_BUCKETS).observe(latency)
            reg.counter(series("service.finished", state=state)).inc()
        self.table.finish(job)
        self._post(job, f"job.{state}", latency_seconds=latency, **fields)

    async def _dispatch_loop(self) -> None:
        while self._running:
            await self._wake.wait()
            self._wake.clear()
            while self._active < self.workers:
                job = self.queue.pop()
                if job is None:
                    break
                if job.budget is not None and job.budget.expired:
                    self._finish(job, "expired", reason="deadline expired in queue")
                    continue
                self._active += 1
                asyncio.create_task(self._run_job(job))

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        try:
            job.state = "running"
            job.started_ts = time.time()
            wait = job.started_ts - job.submitted_ts
            self.queue_wait.observe(wait)
            reg = get_registry()
            if reg.enabled:
                reg.histogram(
                    "service.queue_wait_seconds", LATENCY_BUCKETS
                ).observe(wait)
            self._post(
                job, "job.start",
                worker_pool=self.workers, queue_wait_seconds=wait,
            )
            if self._cancel_dir is not None:
                job.cancel_path = os.path.join(
                    self._cancel_dir, f"{job.job_id}.cancel"
                )
            job.future = self._pool.submit(job.to_batch_job())
            try:
                outcome = await loop.run_in_executor(None, self._collect, job.future)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - worker-death boundary
                if job.state == "cancelled":
                    return
                self._finish(
                    job, "failed", error=f"worker died: {type(exc).__name__}: {exc}"
                )
                return
            if job.state == "cancelled":
                # The future could not be cancelled in time; the solve
                # finished anyway (and, with caching, was memoized for
                # the next asker) but the verdict stays "cancelled".
                return
            if outcome.status in ("ok", "degraded"):
                doc = None
                if self.store is not None:
                    doc = await loop.run_in_executor(
                        None, self._hot_result, job.request
                    )
                if doc is None:
                    # Cache off (or the entry vanished): the distilled
                    # outcome is all that travels back.
                    doc = {"outcome": outcome.as_dict()}
                job.result = doc
                job.error = outcome.error
                self._finish(
                    job,
                    "done",
                    status=outcome.status,
                    cache_status=outcome.cache_status,
                    elapsed_seconds=outcome.elapsed_seconds,
                )
            else:
                self._finish(job, "failed", error=outcome.error)
        finally:
            if job.cancel_path is not None:
                try:
                    os.remove(job.cancel_path)
                except OSError:
                    pass
                job.cancel_path = None
            self._active -= 1
            self._wake.set()

    def _submit_job(
        self, request: PartitionRequest, client: str, priority: int
    ) -> Tuple[int, Dict[str, Any], Job]:
        self._seq += 1
        job = Job(
            job_id=f"j{self._seq:06d}-{request.verb}-{request.circuit}",
            request=request,
            client=client,
            priority=priority,
        )
        if request.deadline is not None:
            job.budget = Budget(request.deadline)
        self.table.add(job)
        self.stats["submitted"] += 1
        self._post(job, "job.queued", client=client, priority=priority)
        payload: Dict[str, Any] = {"job_id": job.job_id, "state": "queued"}
        if request.trace_id is not None:
            payload["trace_id"] = request.trace_id
        return 202, payload, job

    # -- HTTP plumbing --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.TimeoutError:
            with _suppress_io():
                await _respond(writer, 408, {"error": "request timed out"})
        except Exception as exc:  # noqa: BLE001 - connection isolation
            with _suppress_io():
                await _respond(writer, 500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            with _suppress_io():
                writer.close()
                await writer.wait_closed()

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request_line = await asyncio.wait_for(reader.readline(), timeout=30)
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            await _respond(writer, 400, {"error": "malformed request line"})
            return
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=30)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            await _respond(writer, 413, {"error": "request body too large"})
            return
        body = b""
        if length:
            body = await asyncio.wait_for(reader.readexactly(length), timeout=30)
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        await self._route(writer, method, path, query, headers, body)

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        if path == "/v1/health" and method == "GET":
            await _respond(writer, 200, self._health())
            return
        if path == "/v1/stats" and method == "GET":
            await _respond(writer, 200, self._stats())
            return
        if path == "/v1/metrics" and method == "GET":
            await _respond_text(writer, 200, self._metrics_text())
            return
        if path == "/v1/jobs":
            if method == "POST":
                await self._handle_submit(writer, headers, body)
                return
            if method == "GET":
                await _respond(
                    writer,
                    200,
                    {"jobs": [job.snapshot() for job in self.table.jobs()]},
                )
                return
            await _respond(writer, 405, {"error": f"{method} not allowed here"})
            return
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                job_id, stream = rest[: -len("/events")], True
            else:
                job_id, stream = rest, False
            job = self.table.get(job_id)
            if job is None:
                await _respond(writer, 404, {"error": f"unknown job {job_id!r}"})
                return
            if stream and method == "GET":
                sse = query.get("format") == "sse" or (
                    "text/event-stream" in headers.get("accept", "")
                )
                await self._handle_stream(writer, job, sse)
                return
            if not stream and method == "GET":
                await _respond(writer, 200, self._job_doc(job))
                return
            if not stream and method == "DELETE":
                await self._handle_cancel(writer, job)
                return
            await _respond(writer, 405, {"error": f"{method} not allowed here"})
            return
        await _respond(writer, 404, {"error": f"no route for {method} {path}"})

    def _health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "service": "repro-partition-service/1",
            "uptime_seconds": time.time() - self.started_ts,
            "workers": self.workers,
            "cache_policy": self.policy,
        }

    def _stats(self) -> Dict[str, Any]:
        return {
            **self._health(),
            "counters": dict(self.stats),
            "queue_depth": len(self.queue),
            "active": self._active,
            "states": self.table.counts(),
            "jobs_retained": len(self.table),
            "queue_wait_seconds": self.queue_wait.summary(),
            "latency_seconds": self.latency.summary(),
        }

    def _metrics_text(self) -> str:
        """The ``/v1/metrics`` exposition body.

        Always carries the service-level counters and gauges; when the
        server runs under an enabled registry the full metric snapshot
        (trace-labeled counters included) rides along.
        """
        reg = get_registry()
        snapshot: Dict[str, Any] = (
            reg.snapshot() if reg.enabled
            else {"counters": {}, "gauges": {}, "histograms": {}}
        )
        counters = dict(snapshot.get("counters", {}))
        for state, value in self.stats.items():
            counters[series("service.jobs", state=state)] = value
        snapshot = {**snapshot, "counters": counters}
        extra: Dict[str, float] = {
            "service.queue_depth": float(len(self.queue)),
            "service.active_jobs": float(self._active),
            "service.worker_utilization": self._active / self.workers,
            "service.uptime_seconds": time.time() - self.started_ts,
        }
        extra.update(self.queue_wait.gauges("service.queue_wait_seconds"))
        extra.update(self.latency.gauges("service.latency_seconds"))
        return prometheus_exposition(snapshot, extra_gauges=extra)

    def _job_doc(self, job: Job) -> Dict[str, Any]:
        doc = job.snapshot()
        if job.result is not None:
            doc["result"] = job.result
        return doc

    async def _handle_submit(
        self,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        try:
            doc = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await _respond(writer, 400, {"error": f"body is not valid JSON: {exc}"})
            return
        priority = 0
        client = headers.get("x-client", "anonymous")
        if isinstance(doc, dict) and "request" in doc:
            envelope, doc = doc, doc["request"]
            priority = envelope.get("priority", 0)
            client = str(envelope.get("client", client))
            if isinstance(priority, bool) or not isinstance(priority, int):
                await _respond(writer, 400, {"error": "'priority' must be an int"})
                return
        reason = self.quota.admit(client, self.table.inflight(client))
        if reason is not None:
            self.stats["rejected"] += 1
            retry = max(0.05, self.quota.retry_after(client))
            await _respond(
                writer,
                429,
                {"error": reason},
                extra_headers={"Retry-After": f"{retry:.2f}"},
            )
            return
        try:
            request = PartitionRequest.from_dict(doc)
        except RequestError as exc:
            await _respond(writer, 400, {"error": str(exc)})
            return
        # Trace context: the header wins, then a trace_id already on the
        # request document; every accepted job gets one either way.
        trace_id = headers.get("x-repro-trace-id") or request.trace_id
        request = request.with_trace(trace_id or new_trace_id())
        status, payload, job = self._submit_job(request, client, priority)
        loop = asyncio.get_running_loop()
        try:
            hot = await loop.run_in_executor(None, self._hot_result, request)
        except Exception as exc:  # noqa: BLE001 - bad circuit names etc.
            self._finish(job, "failed", error=f"{type(exc).__name__}: {exc}")
            await _respond(writer, 400, {"error": f"{type(exc).__name__}: {exc}"})
            return
        if hot is not None:
            job.cached = True
            job.result = hot
            self.stats["instant_hits"] += 1
            self._finish(job, "done", status="ok", cache_status="hit")
            await _respond(writer, 200, self._job_doc(job))
            return
        self.queue.push(job)
        self._wake.set()
        await _respond(writer, status, payload)

    async def _handle_cancel(
        self, writer: asyncio.StreamWriter, job: Job
    ) -> None:
        if job.terminal:
            await _respond(
                writer,
                200,
                {"job_id": job.job_id, "state": job.state, "cancelled": False},
            )
            return
        was_queued = job.state == "queued"
        if not was_queued:
            if job.future is not None:
                # Only succeeds while the pool has not started executing;
                # a solving worker process is never killed.
                job.future.cancel()
            if job.cancel_path is not None:
                # The worker may already be mid-solve: raise its cancel
                # flag so every Budget checkpoint in the solve reports
                # expired and the worker slot frees promptly instead of
                # running to the job's deadline.
                def _touch(path: str = job.cancel_path) -> None:
                    with open(path, "a", encoding="utf-8"):
                        pass

                await asyncio.get_running_loop().run_in_executor(None, _touch)
        self._finish(job, "cancelled", was_queued=was_queued)
        await _respond(
            writer,
            200,
            {"job_id": job.job_id, "state": "cancelled", "cancelled": True},
        )

    async def _handle_stream(
        self, writer: asyncio.StreamWriter, job: Job, sse: bool
    ) -> None:
        content_type = "text/event-stream" if sse else "application/x-ndjson"
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: " + content_type.encode() + b"\r\n"
            b"Cache-Control: no-store\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        sent = 0
        while True:
            while sent < len(job.events):
                _write_chunk(writer, _frame_event(job.events[sent], sse))
                sent += 1
            await writer.drain()
            if job.terminal or not self._running:
                break
            async with self._cond:
                try:
                    await asyncio.wait_for(self._cond.wait(), timeout=0.5)
                except asyncio.TimeoutError:
                    pass
        _write_chunk(
            writer,
            _frame_event(
                {"ts": time.time(), "event": "stream.end", "state": job.state}, sse
            ),
        )
        writer.write(b"0\r\n\r\n")
        await writer.drain()


def _frame_event(payload: Dict[str, Any], sse: bool) -> bytes:
    line = json.dumps(payload, sort_keys=True, default=str)
    if sse:
        return f"event: {payload.get('event', 'message')}\ndata: {line}\n\n".encode()
    return (line + "\n").encode()


def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Dict[str, Any],
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


async def _respond_text(
    writer: asyncio.StreamWriter,
    status: int,
    text: str,
    content_type: str = PROMETHEUS_CONTENT_TYPE,
) -> None:
    """A plain-text responder (the JSON one would quote the exposition)."""
    body = text.encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


class _suppress_io:
    """Swallow connection teardown races (client went away mid-write)."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return exc_type is not None and issubclass(
            exc_type, (ConnectionError, OSError, asyncio.TimeoutError)
        )


def run_service(**kwargs: Any) -> None:
    """Blocking entry point: build a :class:`PartitionService` and serve
    until interrupted (the CLI's ``repro serve`` calls this).

    SIGTERM takes the same path as Ctrl-C: the serving task is cancelled
    and :meth:`PartitionService.stop` shuts the worker pool down, so no
    pool worker outlives the server.
    """
    service = PartitionService(**kwargs)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        main_task = asyncio.current_task()
        assert main_task is not None
        loop.add_signal_handler(signal.SIGTERM, main_task.cancel)
        try:
            await service.start()
            print(
                f"repro-service listening on http://{service.host}:{service.port} "
                f"({service.workers} workers, cache={service.policy})",
                flush=True,
            )
            await service._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


__all__ = ["MAX_BODY_BYTES", "PartitionService", "run_service"]
