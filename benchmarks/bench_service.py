"""Service load harness: mixed hot/cold traffic with p50/p99 SLO gates.

Runs an in-process :class:`~repro.service.server.PartitionService` (own
event-loop thread, throwaway cache directory), warms a few tiny
partition requests, then fires a 200-request mixed workload (~85% hot
repeats / 15% cold variants) through the blocking client and reports
per-class latency percentiles.

SLOs gated with ``--gate`` (the CI ``service-smoke`` job):

* cache-hit p50 below 50 ms (hot requests are one dict lookup + one
  HTTP round trip -- if this moves, the O(1) hot path regressed);
* every request completes inside its deadline budget (no job expires,
  no request's wall latency exceeds the deadline it carried);
* the service's result document is bit-identical to a direct
  ``repro.api.run_request`` replay of the same request on the same
  store.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--gate] \
        [--requests 200] [--out benchmarks/BENCH_service.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import tempfile
import threading
import time

from repro import api
from repro.cache.store import SolutionCache, use_cache
from repro.request import PartitionRequest
from repro.service.client import ServiceClient
from repro.service.server import PartitionService

CIRCUIT = "s5378"
SCALE = 0.08
DEADLINE = 120.0
HOT_SEEDS = (101, 102, 103)
COLD_SEED_BASE = 500
HOT_FRACTION = 0.85

HIT_P50_SLO_S = 0.050


class _ServiceThread:
    def __init__(self, **kwargs):
        self.service = PartitionService(host="127.0.0.1", port=0, **kwargs)
        self._ready = threading.Event()
        self._stop = None
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.service.start()
        self._ready.set()
        await self._stop.wait()
        await self.service.stop()

    def __enter__(self):
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("service failed to start")
        return ServiceClient(
            "127.0.0.1", self.service.port, client_id="bench", timeout=DEADLINE
        )

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)


def _request_for(seed):
    return PartitionRequest(
        verb="partition",
        circuit=CIRCUIT,
        scale=SCALE,
        seed=seed,
        threshold=1,
        n_solutions=1,
        deadline=DEADLINE,
    )


def _percentiles(samples):
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)

    def pct(p):
        return ordered[min(len(ordered) - 1, int(p * len(ordered)))]

    return {
        "count": len(samples),
        "p50_s": round(statistics.median(ordered), 6),
        "p99_s": round(pct(0.99), 6),
        "max_s": round(ordered[-1], 6),
        "mean_s": round(statistics.mean(ordered), 6),
    }


def run_bench(n_requests, cache_dir, workers=2):
    problems = []
    with _ServiceThread(
        workers=workers,
        cache="use",
        cache_dir=cache_dir,
        rate=10_000.0,
        burst=10_000.0,
        max_inflight=1_000,
    ) as client:
        # Warm-up: solve the hot set once so repeats are pure cache hits.
        warm_start = time.perf_counter()
        for seed in HOT_SEEDS:
            reply = client.submit(_request_for(seed))
            if reply["_http_status"] == 202:
                doc = client.wait(reply["job_id"], timeout=DEADLINE)
                if doc["state"] != "done":
                    problems.append(f"warm-up seed {seed} ended {doc['state']}")
        warm_seconds = time.perf_counter() - warm_start

        # Mixed workload: deterministic hot/cold interleave (~85% hot).
        hot_latencies, cold_latencies = [], []
        pending = []  # (job_id, submitted_at, deadline)
        n_hot = 0
        hot_doc = None
        for i in range(n_requests):
            hot = (i % 20) < round(HOT_FRACTION * 20)
            if hot:
                request = _request_for(HOT_SEEDS[i % len(HOT_SEEDS)])
            else:
                request = _request_for(COLD_SEED_BASE + i)
            start = time.perf_counter()
            reply = client.submit(request)
            latency = time.perf_counter() - start
            if hot:
                n_hot += 1
                hot_latencies.append(latency)
                if reply["_http_status"] != 200:
                    problems.append(
                        f"hot request {i} missed the cache "
                        f"(HTTP {reply['_http_status']})"
                    )
                elif hot_doc is None:
                    hot_doc = (request, reply["result"])
            else:
                if reply["_http_status"] == 200:
                    cold_latencies.append(latency)
                else:
                    pending.append((reply["job_id"], start, DEADLINE))
        for job_id, start, deadline in pending:
            doc = client.wait(job_id, timeout=DEADLINE)
            latency = time.perf_counter() - start
            cold_latencies.append(latency)
            if doc["state"] != "done":
                problems.append(f"cold job {job_id} ended {doc['state']}")
            elif latency > deadline:
                problems.append(
                    f"cold job {job_id} took {latency:.1f}s > {deadline}s deadline"
                )
        stats = client.stats()

    # Bit-identity: the served hot document vs a direct api replay.
    if hot_doc is None:
        problems.append("no hot request was served (cannot check bit-identity)")
    else:
        request, served = hot_doc
        with use_cache(SolutionCache(cache_dir)):
            direct = api.run_request(request, cache="use")
        if direct.cache_info.get("status") != "hit":
            problems.append("direct replay missed the service's cache")
        elif json.dumps(served, sort_keys=True) != json.dumps(
            direct.to_dict(), sort_keys=True
        ):
            problems.append("service result != direct api result")

    hit_stats = _percentiles(hot_latencies)
    report = {
        "workload": {
            "requests": n_requests,
            "hot": n_hot,
            "cold": n_requests - n_hot,
            "circuit": CIRCUIT,
            "scale": SCALE,
            "workers": workers,
            "warm_seconds": round(warm_seconds, 3),
        },
        "latency": {"hit": hit_stats, "cold": _percentiles(cold_latencies)},
        "service": stats.get("counters", {}),
        "slo": {
            "hit_p50_target_s": HIT_P50_SLO_S,
            "hit_p50_s": hit_stats.get("p50_s"),
        },
        "problems": problems,
    }
    if hit_stats.get("p50_s") is not None and hit_stats["p50_s"] > HIT_P50_SLO_S:
        problems.append(
            f"cache-hit p50 {1000 * hit_stats['p50_s']:.1f}ms "
            f"> {1000 * HIT_P50_SLO_S:.0f}ms SLO"
        )
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--gate", action="store_true", help="exit 1 on SLO misses")
    parser.add_argument(
        "--out", default="benchmarks/BENCH_service.json", metavar="PATH"
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as cache_dir:
        report = run_bench(args.requests, cache_dir, workers=args.workers)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    hit, cold = report["latency"]["hit"], report["latency"]["cold"]
    print(f"service bench: {report['workload']['requests']} requests "
          f"({report['workload']['hot']} hot / {report['workload']['cold']} cold), "
          f"{report['workload']['workers']} workers")
    if hit.get("count"):
        print(f"  hit  p50 {1000 * hit['p50_s']:.1f}ms  "
              f"p99 {1000 * hit['p99_s']:.1f}ms  max {1000 * hit['max_s']:.1f}ms")
    if cold.get("count"):
        print(f"  cold p50 {cold['p50_s']:.2f}s  p99 {cold['p99_s']:.2f}s  "
              f"max {cold['max_s']:.2f}s")
    print(f"  counters: {report['service']}")
    print(f"  report written to {args.out}")
    for problem in report["problems"]:
        print(f"  SLO FAIL: {problem}", file=sys.stderr)
    if report["problems"] and args.gate:
        return 1
    if not report["problems"]:
        print("  all SLOs met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
