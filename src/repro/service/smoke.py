"""End-to-end service smoke drill (the CI ``service-smoke`` gate).

``python -m repro.service.smoke`` starts a real server subprocess
(``repro serve --port 0``), then drives the acceptance scenario over
actual sockets:

1. **mixed burst** -- three submissions: one cold partition request
   (misses, solves on the pool), the same request again (must be served
   as a cache hit), and one distinct cold request;
2. **bit-identity** -- the service's result document must equal, byte
   for byte, ``repro.api.run_request`` replayed on the same cache store;
3. **live telemetry** -- ``GET /v1/metrics`` mid-load must parse as
   Prometheus text with populated latency quantile gauges and lifecycle
   counters, and an ``X-Repro-Trace-Id`` submitted with a job must echo
   through the 202 reply and the job's status document;
4. **clean cancellation** -- with one worker busy, a queued job is
   cancelled via ``DELETE`` and must finish in state ``cancelled``
   without ever running;
5. **mid-solve cancellation** -- a *running* job with a generous
   deadline is cancelled via ``DELETE``; its cancel flag must wind the
   worker down at the next budget checkpoint, freeing the worker slot
   far sooner than the job's deadline (the pre-fix behaviour was a
   busy worker until the deadline expired);
6. **event stream** -- the done job's JSONL stream replays
   ``job.queued -> job.start -> job.done`` and terminates;
7. **no survivors** -- the server runs in its own session; after a
   SIGTERM shutdown no process of that session (the server or any pool
   worker it forked) may still exist.

Exit code 0 on success; any assertion failure prints the reason and
exits 1.  Everything runs against a throwaway cache directory.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

from repro import api
from repro.cache.store import SolutionCache, use_cache
from repro.obs.telemetry import parse_exposition
from repro.request import PartitionRequest
from repro.service.client import ServiceClient, ServiceError

#: Tiny quick-turnaround workload: small scaled s5378 carves.
COLD_A = dict(circuit="s5378", scale=0.08, seed=7, threshold=1, n_solutions=1)
COLD_B = dict(circuit="s5378", scale=0.08, seed=11, threshold=1, n_solutions=1)
#: A deliberately slower job to occupy the single worker during the
#: cancellation drill.
SLOW = dict(circuit="s5378", scale=0.3, seed=3, threshold=1, n_solutions=2)
#: The mid-solve cancellation victim: big enough that DELETE lands
#: while the worker is solving, with a deadline long enough that a
#: prompt slot release is unambiguously the cancel flag's doing.
RUNNING_VICTIM = dict(
    circuit="s5378", scale=0.45, seed=9, threshold=1, n_solutions=2,
    deadline=240.0,
)
#: Ceiling for the worker slot to free after a mid-solve DELETE --
#: generous for CI, but a small fraction of RUNNING_VICTIM's deadline.
CANCEL_RELEASE_SECONDS = 45.0


def _fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _start_server(cache_dir: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            "1",
            "--cache",
            "use",
            "--cache-dir",
            cache_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        # Its own session (and process group): pool workers it forks
        # join that group, so one killpg probe finds every survivor.
        start_new_session=True,
    )


def _stop_server(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """SIGTERM the server, then require its whole session to be gone.

    The server must shut its worker pool down on SIGTERM; a process of
    its group still alive ``grace`` seconds later is an orphan.  It is
    killed so the drill leaves nothing behind, then reported.
    """
    pgid = proc.pid
    proc.terminate()
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        _fail(f"server ignored SIGTERM for {grace:.0f}s")
    deadline = time.monotonic() + grace
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            break
        time.sleep(0.1)
    os.killpg(pgid, signal.SIGKILL)
    _fail(f"processes of the server's group {pgid} outlived its shutdown")


def _await_port(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """Parse the bound port from the server's startup line."""
    deadline = time.monotonic() + timeout
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                _fail(f"server exited early (rc={proc.returncode})")
            time.sleep(0.05)
            continue
        if "listening on http://" in line:
            return int(line.rsplit(":", 1)[1].split()[0])
    _fail("server never printed its listening address")
    raise AssertionError  # unreachable


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as cache_dir:
        proc = _start_server(cache_dir)
        try:
            port = _await_port(proc)
            client = ServiceClient("127.0.0.1", port, client_id="smoke")
            health = client.health()
            if health.get("status") != "ok":
                _fail(f"health check: {health}")
            print(f"server healthy on port {port}")

            # 1. Mixed burst: cold, hot (same request), cold.
            req_a = PartitionRequest(verb="partition", **COLD_A)
            req_b = PartitionRequest(verb="partition", **COLD_B)
            reply = client.submit(req_a)
            if reply["_http_status"] != 202:
                _fail(f"cold submit should queue (202), got {reply}")
            done_a = client.wait(reply["job_id"], timeout=300)
            if done_a["state"] != "done":
                _fail(f"cold job ended {done_a['state']}: {done_a.get('error')}")

            hot = client.submit(req_a)
            if hot["_http_status"] != 200 or not hot.get("cached"):
                _fail(f"repeat submit should be an instant cache hit, got {hot}")
            print("cache hit served instantly on repeat submission")

            reply_b = client.submit(req_b, trace_id="smoketrace01")
            if reply_b.get("trace_id") != "smoketrace01":
                _fail(f"submit did not echo X-Repro-Trace-Id: {reply_b}")
            done_b = client.wait(reply_b["job_id"], timeout=300)
            if done_b["state"] != "done":
                _fail(f"second cold job ended {done_b['state']}")
            if done_b.get("trace_id") != "smoketrace01":
                _fail(f"status lost the submitted trace id: {done_b}")
            print("X-Repro-Trace-Id echoed through submit reply and status")

            stats = client.stats()
            if stats["counters"]["instant_hits"] < 1:
                _fail(f"expected >=1 instant hit, stats={stats['counters']}")
            if stats["latency_seconds"]["p50"] is None:
                _fail(f"stats latency quantiles unpopulated: {stats}")

            # Live telemetry: the exposition must parse mid-load and
            # carry populated latency quantiles + lifecycle counters.
            try:
                samples = parse_exposition(client.metrics())
            except ValueError as exc:
                _fail(f"/v1/metrics does not parse: {exc}")
            if "service_queue_depth" not in samples:
                _fail(f"exposition missing service_queue_depth: {sorted(samples)}")
            quantiles = [
                name for name in samples
                if name.startswith('service_latency_seconds{quantile=')
            ]
            if not quantiles:
                _fail(f"no latency quantile gauges in exposition: {sorted(samples)}")
            if samples.get('service_jobs_total{state="done"}', 0) < 2:
                _fail(f"done counter not exposed: {sorted(samples)}")
            print(f"/v1/metrics parsed: {len(samples)} samples, "
                  f"{len(quantiles)} latency quantiles")

            # 2. Bit-identity vs the direct API on the same store.
            with use_cache(SolutionCache(cache_dir)):
                direct = api.run_request(req_a, cache="use")
            if direct.cache_info.get("status") != "hit":
                _fail("direct replay should hit the service's cache")
            service_doc = json.dumps(hot["result"], sort_keys=True)
            direct_doc = json.dumps(direct.to_dict(), sort_keys=True)
            if service_doc != direct_doc:
                _fail("service result != direct api result (bit-identity broken)")
            print("service result bit-identical to direct repro.api run")

            # 3. Clean cancellation: occupy the worker, cancel a queued job.
            slow = client.submit(PartitionRequest(verb="partition", **SLOW))
            victim = client.submit(
                PartitionRequest(verb="partition", circuit="s5378", scale=0.3, seed=5)
            )
            if victim["_http_status"] != 202:
                _fail(f"victim should queue behind the slow job, got {victim}")
            cancelled = client.cancel(victim["job_id"])
            if not cancelled.get("cancelled"):
                _fail(f"cancel refused: {cancelled}")
            final = client.status(victim["job_id"])
            if final["state"] != "cancelled" or final["started_ts"] is not None:
                _fail(f"victim should be cancelled unstarted: {final}")
            print("queued job cancelled cleanly")
            if slow["_http_status"] == 202:
                client.wait(slow["job_id"], timeout=300)

            # 4. Mid-solve cancellation: DELETE a *running* job and
            # require the worker slot back long before its deadline.
            runner = client.submit(
                PartitionRequest(verb="partition", **RUNNING_VICTIM)
            )
            if runner["_http_status"] != 202:
                _fail(f"running-victim should queue (202), got {runner}")
            start_deadline = time.monotonic() + 60.0
            while time.monotonic() < start_deadline:
                doc = client.status(runner["job_id"])
                if doc["state"] == "running":
                    break
                if doc["state"] != "queued":
                    _fail(f"running-victim ended early: {doc}")
                time.sleep(0.1)
            else:
                _fail("running-victim never started")
            time.sleep(1.0)  # let the worker get into the solve proper
            cancelled = client.cancel(runner["job_id"])
            if not cancelled.get("cancelled"):
                _fail(f"running cancel refused: {cancelled}")
            cancel_ts = time.monotonic()
            while True:
                released = time.monotonic() - cancel_ts
                if client.stats()["active"] == 0:
                    break
                if released > CANCEL_RELEASE_SECONDS:
                    _fail(
                        "worker slot still busy "
                        f"{released:.1f}s after cancelling a running job "
                        f"(deadline was {RUNNING_VICTIM['deadline']}s)"
                    )
                time.sleep(0.2)
            final = client.status(runner["job_id"])
            if final["state"] != "cancelled":
                _fail(f"running-victim should end cancelled: {final}")
            print(
                "running job cancelled mid-solve; worker slot freed in "
                f"{released:.1f}s (deadline {RUNNING_VICTIM['deadline']:.0f}s)"
            )

            # 5. Event stream of the finished job replays and terminates.
            events = [e.get("event") for e in client.stream(done_a["job_id"])]
            for expected in ("job.queued", "job.start", "job.done", "stream.end"):
                if expected not in events:
                    _fail(f"event stream missing {expected!r}: {events}")
            print(f"event stream ok ({len(events)} events)")
            try:
                client.status("no-such-job")
            except ServiceError as exc:
                if exc.status != 404:
                    _fail(f"unknown job should 404, got {exc.status}")
            else:
                _fail("unknown job id did not 404")

        finally:
            _stop_server(proc)
        print("server and its workers exited on SIGTERM")
        print("service smoke: OK")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
