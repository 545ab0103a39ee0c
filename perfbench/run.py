"""End-to-end benchmark of the partitioning stack, with a per-layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_kway --seed 1 --seconds 30 --trace 0

``--workload`` is ``cold_kway``, ``rent_vcycle`` or ``eco_service`` (see
``workloads.py`` for what each sends and why).  Inputs are generated from
``--seed``; the same seed gives the same inputs and the same quality
metrics.  The measured process runs under a ``PYTHONHASHSEED`` derived from
the seed (the script re-executes itself to set it) and records it.

``--trace 0`` measures with tracing off and prints the end-to-end metrics.
``--trace 1`` first repeats the workload untraced for half the time, then
installs the span tracer and sends the same requests again; it prints the
per-layer metrics, the tracing overhead, and on ``rent_vcycle`` whether a
process under another hash seed gives the same answer.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run also appends one line
to ``perfbench/history.jsonl`` (git revision, seed, hash seed, every
metric, and the ``host.calib_s`` calibration loop time).  The run exits
non-zero, printing no result, when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from tracer import LAYERS, ROOT_SPAN, Tracer, request_profile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: A run that has not finished by then stops with an error.
WATCHDOG_S = 170

#: End-to-end metrics: ``name -> unit``.  Every workload prints all of them.
#: On ``rent_vcycle`` the cache is off and bipartition requests carry no
#: ECO, so a repeated or edited request is solved again: ``hit_*`` and
#: ``warm_p50_s`` read the same request latencies as ``cold_p50_s``.  On
#: ``eco_service`` the cold requests are the new designs of its stream.  The
#: quality metrics are sums over the first (core) requests of a run, so
#: they repeat exactly for a seed: ``total_cost`` and ``warm_cost`` sum eq. 1
#: over cold and ECO k-way solutions, ``cut`` sums the V-cycle cuts.  A
#: workload without such solutions reads ``NOT_APPLICABLE`` there.
#: The hit tail is p90: on eco_service about 4-5% of hot hits absorb a full
#: garbage collection, so p95 sits on the edge of that mode and flips
#: between runs, and p99 of cold_kway's few dozen hits is their maximum.
END_TO_END = {
    "setup_s": "s",
    "cold_p50_s": "s",
    "hit_p50_s": "s",
    "hit_p90_s": "s",
    "warm_p50_s": "s",
    "throughput_rps": "1/s",
    "total_cost": "cost",
    "warm_cost": "cost",
    "cut": "nets",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
NOT_APPLICABLE = 1.0

#: Per-layer metrics from the traced run: ``name -> (unit, what it should
#: move)``.  Times are self seconds per request.
PER_LAYER = {
    "netlist.load_s": ("s", "cold_p50_s on rent_vcycle, hit_p50_s on cold_kway"),
    "techmap.decompose_s": ("s", "cold_p50_s on rent_vcycle, hit_p50_s on cold_kway"),
    "techmap.cover_s": ("s", "cold_p50_s on rent_vcycle, hit_p50_s on cold_kway"),
    "techmap.pack_s": ("s", "cold_p50_s on rent_vcycle, hit_p50_s on cold_kway"),
    "netlist.loads_per_req": ("count", "hit_p50_s on cold_kway (wasted work)"),
    "techmap.maps_per_req": ("count", "hit_p50_s on cold_kway (wasted work)"),
    "hypergraph.build_s": ("s", "cold_p50_s on rent_vcycle"),
    "hypergraph.csr_s": ("s", "cold_p50_s on rent_vcycle"),
    "hypergraph.pins": ("count", "cold_p50_s on rent_vcycle"),
    "partition.coarsen_s": ("s", "cold_p50_s on rent_vcycle"),
    "partition.vcycle_s": ("s", "cold_p50_s on rent_vcycle"),
    "partition.levels": ("count", "cold_p50_s on rent_vcycle"),
    "partition.kway_s": ("s", "cold_p50_s on cold_kway; not rent_vcycle"),
    "partition.carves": ("count", "cold_p50_s on cold_kway; not rent_vcycle"),
    "partition.replication_s": ("s", "cold_p50_s on cold_kway; not rent_vcycle"),
    "partition.replication_calls": ("count", "cold_p50_s on cold_kway; not rent_vcycle"),
    "partition.fm_s": ("s", "cold_p50_s on rent_vcycle (the V-cycle refines with FM)"),
    "partition.verify_s": ("s", "hit_p50_s on cold_kway and eco_service"),
    "partition.verifies_per_req": ("count", "hit_p50_s on cold_kway and eco_service"),
    "partition.incremental_s": ("s", "warm_p50_s on eco_service"),
    "partition.warm_share": ("ratio", "warm_p50_s on eco_service"),
    "techmap.delta_apply_s": ("s", "warm_p50_s on eco_service"),
    "cache.ancestor_s": ("s", "warm_p50_s on eco_service"),
    "cache.key_s": ("s", "hit_p50_s"),
    "obs.fingerprint_s": ("s", "hit_p50_s"),
    "cache.get_s": ("s", "hit_p50_s"),
    "cache.decode_s": ("s", "hit_p50_s"),
    "cache.put_s": ("s", "warm_p50_s on eco_service"),
    "cache.encode_s": ("s", "warm_p50_s on eco_service"),
    "cache.entry_bytes": ("bytes", "warm_p50_s on eco_service"),
    "cache.hit_ratio": ("ratio", "hit_p50_s"),
    "obs.ledger_append_s": ("s", "cold_p50_s on cold_kway"),
    "service.queue_wait_s": ("s", "hit_p90_s, warm_p50_s, throughput_rps on eco_service"),
    "service.run_s": ("s", "hit_p90_s, warm_p50_s, throughput_rps on eco_service"),
    "service.overhead_s": ("s", "hit_p90_s, warm_p50_s, throughput_rps on eco_service"),
    "service.hot_share": ("ratio", "hit_p90_s, warm_p50_s, throughput_rps on eco_service"),
    "layer.netlist_s": ("s", "sum of the netlist layer's self time"),
    "layer.techmap_s": ("s", "sum of the techmap layer's self time"),
    "layer.hypergraph_s": ("s", "sum of the hypergraph layer's self time"),
    "layer.partition_s": ("s", "sum of the partition layer's self time"),
    "layer.cache_s": ("s", "sum of the cache layer's self time"),
    "layer.obs_s": ("s", "sum of the obs layer's self time"),
    "layer.service_s": ("s", "sum of the service layer's self time"),
    "api.self_s": ("s", "every latency; the front door's own time"),
    "unattributed_s": ("s", "request time inside no layer span"),
    "trace.overhead_frac": ("ratio", "traced over untraced latency of the same requests, minus 1"),
    "trace.outside_s": ("s", "span time outside its request (clock or id errors)"),
    "determinism.hashseed_mismatch": ("count", "cut on rent_vcycle, once fixed"),
    "fail_frac": ("ratio", "ok_frac"),
    "host.calib_s": ("s", "host drift in the history"),
}

#: Spans whose self time is reported under ``<name>_s``.
SPAN_METRICS = (
    "netlist.load", "techmap.decompose", "techmap.cover", "techmap.pack",
    "techmap.delta_apply", "hypergraph.build", "hypergraph.csr",
    "partition.coarsen", "partition.vcycle", "partition.kway",
    "partition.replication", "partition.fm", "partition.verify",
    "partition.incremental", "cache.ancestor", "cache.key", "obs.fingerprint",
    "cache.get", "cache.decode", "cache.put", "cache.encode", "obs.ledger_append",
)


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: the host's speed today."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(run: Any) -> Dict[str, float]:
    cold = run.samples("cold")
    hit = run.samples("hit") or cold
    warm = run.samples("warm") or cold
    return {
        "setup_s": statistics.median(run.setup_s),
        "cold_p50_s": statistics.median(cold),
        "hit_p50_s": statistics.median(hit),
        "hit_p90_s": percentile(hit, 0.90),
        "warm_p50_s": statistics.median(warm),
        "throughput_rps": run.measured_requests / run.measure_s,
        "total_cost": run.quality.get("total_cost", NOT_APPLICABLE),
        "warm_cost": run.quality.get("warm_cost", NOT_APPLICABLE),
        "cut": run.quality.get("cut", NOT_APPLICABLE),
        "ok_frac": 1.0 - run.failed / run.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Any, tracer: Any, profile: Dict[str, Any], overhead: float,
              mismatch: int) -> Dict[str, float]:
    n = max(1, profile["requests"])
    rids = profile["rids"]
    selfs = profile["self"]

    def count(name: str) -> float:
        return sum(v for (rid, key), v in tracer.counts.items()
                   if key == name and rid in rids)

    def mean(key: str) -> float:
        values = [s[key] for s in run.service]
        return statistics.fmean(values) if values else 0.0

    out: Dict[str, float] = {f"{name}_s": selfs.get(name, 0.0) / n
                             for name in SPAN_METRICS}
    for layer in LAYERS:
        total = sum(v for name, v in selfs.items() if name.split(".")[0] == layer)
        out["api.self_s" if layer == "api" else f"layer.{layer}_s"] = total / n
    vcycles = count("partition.vcycle")
    out.update({
        "netlist.loads_per_req": count("netlist.load") / n,
        "techmap.maps_per_req": count("techmap.map") / n,
        "hypergraph.pins": count("hypergraph.pins") / n,
        "partition.levels": count("partition.levels") / vcycles if vcycles else 0.0,
        "partition.carves": count("partition.carve") / n,
        "partition.replication_calls": count("partition.replication") / n,
        "partition.verifies_per_req": count("partition.verify") / n,
        "partition.warm_share": (count("partition.warm") / run.eco_requests
                                 if run.eco_requests else 0.0),
        "cache.entry_bytes": (count("cache.entry_bytes") / count("cache.put")
                              if count("cache.put") else 0.0),
        "cache.hit_ratio": (count("cache.hits") / count("cache.lookup")
                            if count("cache.lookup") else 0.0),
        "service.queue_wait_s": mean("queue"),
        "service.run_s": mean("run"),
        "service.overhead_s": mean("latency") - mean("queue") - mean("run"),
        "service.hot_share": mean("hot"),
        "unattributed_s": selfs.get(ROOT_SPAN, 0.0) / n,
        "trace.overhead_frac": overhead,
        "trace.outside_s": profile["outside"] / n,
        "determinism.hashseed_mismatch": float(mismatch),
    })
    return out


def git_revision() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _watchdog(signum: int, frame: Any) -> None:
    raise TimeoutError(f"run exceeded {WATCHDOG_S}s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_kway", "rent_vcycle", "eco_service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    parser.add_argument("--history", default=os.path.join(HERE, "history.jsonl"),
                        help="trajectory file the run appends to")
    parser.add_argument("--hash-seed", type=int, default=None,
                        help="PYTHONHASHSEED to run under (default: from --seed)")
    parser.add_argument("--probe", action="store_true",
                        help="print the first rent_vcycle answer's digest and exit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package at {SRC}/repro", file=sys.stderr)
        return 2
    hash_seed = args.seed % (1 << 32) if args.hash_seed is None else args.hash_seed
    if os.environ.get("PYTHONHASHSEED") != str(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__),
                                   *sys.argv[1:]], env)

    sys.path.insert(0, SRC)
    for name in ("REPRO_CACHE", "REPRO_LEDGER"):
        os.environ.pop(name, None)
    work_parent = os.path.join(HERE, ".work")
    os.makedirs(work_parent, exist_ok=True)
    workspace = tempfile.mkdtemp(prefix="run-", dir=work_parent)
    tmp = os.path.join(workspace, "tmp")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)

    import workloads

    try:
        size = workloads.SIZES[args.size]
        workload = workloads.WORKLOADS[args.workload]
        if args.probe:
            run = workloads.Run(tempfile.mkdtemp(dir=workspace))
            digest = workloads.rent_vcycle(run, args.seed, size, None, 1, 1)
            print(json.dumps({"digest": digest}))
            return 0
        calib = calibrate()
        if not args.trace:
            run = workloads.Run(tempfile.mkdtemp(dir=workspace))
            workload(run, args.seed, size, args.seconds, None,
                     size["setups"][args.workload])
            metrics = end_to_end(run)
            runs = [run]
        else:
            plain = workloads.Run(tempfile.mkdtemp(dir=workspace))
            first = workload(plain, args.seed, size, args.seconds / 2, None, 1)
            tracer = Tracer(os.path.join(workspace, "spans"))
            tracer.install()
            traced = workloads.Run(tempfile.mkdtemp(dir=workspace), tracer)
            workload(traced, args.seed, size, None, plain.cycles, 1)
            tracer.load_workers()
            mismatch = 0
            if args.workload == "rent_vcycle":
                probe_args = ["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", "1", "--size", args.size]
                other = workloads.hashseed_probe(
                    os.path.abspath(__file__), probe_args, (hash_seed + 1) % (1 << 32),
                    timeout=WATCHDOG_S)
                mismatch = int(other != first)
            # Same requests in both passes: compare their summed latency.
            overhead = traced.measured_latency_s / plain.measured_latency_s - 1.0
            profile = request_profile(tracer)
            metrics = per_layer(traced, tracer, profile, overhead, mismatch)
            metrics["host.calib_s"] = calib
            if profile["coverage_error"] > 1e-6:
                traced.check([f"layer self times miss the wall time by "
                              f"{profile['coverage_error']:.3g}s"])
            runs = [plain, traced]
    finally:
        signal.alarm(0)
        shutil.rmtree(workspace, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    if args.trace:
        metrics["fail_frac"] = failed / attempted
    for problem in [p for r in runs for p in r.problems][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = dict(END_TO_END)
    units.update((name, unit) for name, (unit, _) in PER_LAYER.items())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    history = {
        "ts": time.time(),
        "rev": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": hash_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host.calib_s": calib,
        "samples": {cls: len(runs[-1].samples(cls)) for cls in ("cold", "hit", "warm")},
        "setups": len(runs[-1].setup_s),
        **{k: result[k] for k in ("correct", "attempted", "failed")},
        "metrics": dict(metrics),
    }
    with open(args.history, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(history, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
