"""A blocking stdlib client for the partition service.

Thin ``http.client`` wrapper over the server's JSON endpoints -- used by
the smoke drill, the load benchmark and the tests, and convenient from
scripts::

    from repro.request import PartitionRequest
    from repro.service.client import ServiceClient

    client = ServiceClient("127.0.0.1", 8377)
    reply = client.submit(
        PartitionRequest(verb="partition", circuit="s5378", scale=0.1)
    )
    doc = client.wait(reply["job_id"], timeout=120)

Every method opens a fresh connection (the server closes after each
response), so one client object is safe to share across threads.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, Optional

from repro.request import PartitionRequest


class ServiceError(RuntimeError):
    """A non-2xx service reply; carries the HTTP status and body."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Blocking JSON client for one :class:`PartitionService` endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8377,
        client_id: str = "anonymous",
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        ok: tuple = (200, 202),
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None
            headers = {"X-Client": self.client_id}
            headers.update(extra_headers or {})
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            doc = json.loads(raw.decode("utf-8")) if raw else {}
            if response.status not in ok:
                raise ServiceError(response.status, doc)
            doc["_http_status"] = response.status
            return doc
        finally:
            conn.close()

    # -- endpoints ------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def metrics(self) -> str:
        """The raw ``GET /v1/metrics`` Prometheus exposition text."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", "/v1/metrics", headers={"X-Client": self.client_id})
            response = conn.getresponse()
            raw = response.read()
            if response.status != 200:
                doc = json.loads(raw.decode("utf-8") or "{}")
                raise ServiceError(response.status, doc)
            return raw.decode("utf-8")
        finally:
            conn.close()

    def submit(
        self,
        request: PartitionRequest,
        priority: int = 0,
        client: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a request; ``200`` replies carry the full result
        (instant cache hit), ``202`` replies carry the queued job id.
        ``trace_id`` travels as ``X-Repro-Trace-Id`` and names the trace
        context every server-side record of this job is stamped with
        (the reply echoes it, server-minted when not supplied)."""
        body = {
            "request": request.to_dict(),
            "priority": priority,
            "client": client or self.client_id,
        }
        extra = {"X-Repro-Trace-Id": trace_id} if trace_id else None
        return self._request("POST", "/v1/jobs", body=body, extra_headers=extra)

    def jobs(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/jobs")

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def stream(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield the job's lifecycle events (JSONL framing) until the
        server ends the stream at a terminal state."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request(
                "GET", f"/v1/jobs/{job_id}/events", headers={"X-Client": self.client_id}
            )
            response = conn.getresponse()
            if response.status != 200:
                doc = json.loads(response.read().decode("utf-8") or "{}")
                raise ServiceError(response.status, doc)
            # http.client de-chunks transparently; read line by line.
            buffer = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()

    def wait(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.2
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns the final
        status document (with ``result`` when done)."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.status(job_id)
            if doc.get("state") in ("done", "failed", "cancelled", "expired"):
                return doc
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {doc.get('state')!r}")
            time.sleep(poll)


__all__ = ["ServiceClient", "ServiceError"]
