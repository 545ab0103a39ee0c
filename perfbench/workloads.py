"""The benchmark's three workloads and the checks on their answers.

Each workload drives the program only through its front doors --
``repro.api.run_request`` in process, or the HTTP ``PartitionService`` --
with one closed-loop client: the next request is sent when the previous
reply has arrived.  In-process requests use ``jobs=1``; the service runs
2 pool workers.  Every answer is checked, and a request whose answer fails
a check counts as failed.

* ``cold_kway`` -- cold k-way requests for s5378 and s9234 (each request
  seed maps a different netlist) against an empty cache with a ledger, each
  replayed in process as cache hits, then 1% ECOs of the s5378 netlist and
  their replays.
* ``rent_vcycle`` -- generated ~3k-cell Rent netlists, several per seed,
  bipartitioned with the multilevel V-cycle, cache off.
* ``eco_service`` -- over HTTP: cold solves of new designs, hot repeats of
  two cached s5378 base requests, 1% ``seeded_delta`` ECOs of the bases that
  warm-repair and store, and replays of earlier ECOs, against a store padded
  with many unrelated entries.  All of it is one circuit at one scale, so
  each latency class is one mode and its median and tail stay inside it.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import itertools
import multiprocessing
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro import api
from repro.cache import codec
from repro.cache.store import SolutionCache, build_entry, use_cache
from repro.core.flow import map_circuit
from repro.hypergraph.metrics import cut_size
from repro.netlist.generate import random_logic
from repro.obs.ledger import Ledger, read_jsonl, use_ledger, validate_record
from repro.partition.verify import verify_solution
from repro.request import PartitionRequest
from repro.service.client import ServiceClient
from repro.service.server import PartitionService
from repro.techmap.delta import seeded_delta

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` exists
#: for the self-test.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        # Set-ups per untraced run; setup_s is their median.
        "setups": {"cold_kway": 3, "rent_vcycle": 3, "eco_service": 2},
        "kway_core": 2,
        "kway_ecos": 2,
        "kway_circuits": (("s5378", 0.25), ("s9234", 0.15)),
        "kway_warmup": ("s5378", 0.25),
        "kway_replays": 6,
        "rent_cells": 3000,
        "rent_netlists": 8,
        "rent_warmup_cells": 300,
        "rent_core": 2,
        "eco_bases": (("s5378", 0.25), ("s5378", 0.25)),
        "eco_cold": ("s5378", 0.25),
        "eco_fill": 2000,
        "eco_rounds": 3,
        "eco_hits_per_round": 15,
        "eco_core": 2,
    },
    "tiny": {
        "setups": {"cold_kway": 2, "rent_vcycle": 2, "eco_service": 2},
        "kway_core": 1,
        "kway_ecos": 1,
        "kway_circuits": (("s5378", 0.05), ("s9234", 0.05)),
        "kway_warmup": ("s5378", 0.05),
        "kway_replays": 1,
        "rent_cells": 300,
        "rent_netlists": 2,
        "rent_warmup_cells": 100,
        "rent_core": 1,
        "eco_bases": (("s5378", 0.05), ("s5378", 0.05)),
        "eco_cold": ("s5378", 0.05),
        "eco_fill": 20,
        "eco_rounds": 1,
        "eco_hits_per_round": 3,
        "eco_core": 1,
    },
}

#: Fraction of cells an ECO edits.
ECO_FRACTION = 0.01
#: Gates per mapped cell of ``random_logic`` netlists.
GATES_PER_CELL = 2.1
#: Service pool workers: the host's core count.
SERVICE_WORKERS = 2
#: Client timeout for one HTTP call, seconds.
HTTP_TIMEOUT = 150.0


# -- checks ---------------------------------------------------------------

def solution_doc(payload: Any) -> str:
    """Canonical bytes of an encoded solution document."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def kway_problems(mapped: Any, solution: Any) -> List[str]:
    """Independent re-check of a k-way solution against its netlist."""
    return [f"verify: {p}" for p in verify_solution(mapped, solution)]


def replay_problems(stored: str, status: Optional[str], replay: str) -> List[str]:
    """A replay must be a hit whose document equals the one stored."""
    problems = []
    if status != "hit":
        problems.append(f"replay was {status!r}, not a hit")
    if replay != stored:
        problems.append("replay document differs from the stored solve")
    return problems


def cut_problems(hg: Any, assignment: List[int], reported: int) -> List[str]:
    """The cut recomputed from the assignment must equal the reported one."""
    recomputed = cut_size(hg, assignment)
    if recomputed != reported:
        return [f"cut {reported} reported, {recomputed} recomputed"]
    return []


def ledger_problems(path: str, solves: int) -> List[str]:
    """Every solve appended one record, and each passes the ledger's own
    schema check."""
    records = read_jsonl(path) if os.path.exists(path) else []
    problems = [f"ledger record {i}: {p}" for i, record in enumerate(records)
                for p in validate_record(record)]
    if len(records) != solves:
        problems.append(f"{len(records)} ledger records for {solves} solves")
    return problems


# -- run state --------------------------------------------------------------

class Run:
    """Samples, quality, counts and check results of one workload run."""

    def __init__(self, workspace: str, tracer: Any = None) -> None:
        self.workspace = workspace
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: ``(latency class, group) -> latencies``; a sample is a group's mean.
        self.groups: Dict[tuple, List[float]] = defaultdict(list)
        self.setup_s: List[float] = []
        self.quality: Dict[str, float] = {}
        #: Per-request service timings (``queue``, ``run``, ``latency``) and
        #: reply codes.
        self.service: List[Dict[str, float]] = []
        self.eco_requests = 0
        self.requests = 0
        self.latency_s = 0.0
        self.last_latency = 0.0
        #: Requests answered, their summed latency, and the wall seconds of
        #: the measured loop (set-up excluded).
        self.measured_requests = 0
        self.measured_latency_s = 0.0
        self.measure_s = 0.0
        self.cycles = 0
        self._rid = 0

    def next_rid(self) -> str:
        self._rid += 1
        return f"{os.getpid():08x}{self._rid:08x}"

    def samples(self, cls: str) -> List[float]:
        return [statistics.fmean(v) for (c, _), v in self.groups.items() if c == cls]

    def check(self, problems: List[str]) -> None:
        """Count one answered request and whether it passed its checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def timed(self, cls: str, group: Any, call: Callable[[str], Any]) -> Any:
        """Run one request as a root span (when traced) and keep its latency."""
        rid = self.next_rid()
        span = self.tracer.root(rid) if self.tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            out = call(rid)
            latency = time.perf_counter() - start
        self.groups[(cls, group)].append(latency)
        self.requests += 1
        self.latency_s += latency
        self.last_latency = latency
        return out


def _loop(run: Run, seconds: Optional[float], cycles: Optional[int], core: int,
          cycle: Callable[[int], None]) -> None:
    """Run ``cycle(i)`` for ``cycles`` cycles, or while it fits ``seconds``.

    The first ``core`` cycles always run: quality metrics come from them, so
    they repeat exactly for a seed.  Timed mode starts no cycle that the
    previous one says would end after ``seconds``.
    """
    start = time.perf_counter()
    before, before_latency = run.requests, run.latency_s
    i = 0
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if cycles is not None:
            if i >= cycles:
                break
        elif i >= core and elapsed + last > seconds:
            break
        t0 = time.perf_counter()
        cycle(i)
        last = time.perf_counter() - t0
        i += 1
    run.measure_s = time.perf_counter() - start
    run.measured_requests = run.requests - before
    run.measured_latency_s = run.latency_s - before_latency
    run.cycles = i


# -- cold_kway --------------------------------------------------------------

def cold_kway(run: Run, seed: int, size: Dict[str, Any], seconds: Optional[float],
              cycles: Optional[int], setups: int) -> None:
    ledger = Ledger(os.path.join(run.workspace, "ledger.jsonl"))
    stores = itertools.count()

    def fresh_store() -> SolutionCache:
        return SolutionCache(os.path.join(run.workspace, "cache", str(next(stores))))

    for _ in range(setups):
        # Set-up: an empty store and a warm-up cold request that carves,
        # plus its hit, so lazy imports and first-call costs stay out of the
        # timings.  The warm-up is the same for every seed, so set-up does
        # the same work in every run.
        t0 = time.perf_counter()
        circuit, scale = size["kway_warmup"]
        warm = PartitionRequest(verb="partition", circuit=circuit, scale=scale,
                                seed=1, cache="use", jobs=1)
        with use_cache(fresh_store()):
            api.run_request(warm)
            api.run_request(warm)
        run.setup_s.append(time.perf_counter() - t0)

    def cycle(i: int) -> None:
        request_seed = seed * 1000 + i + 1
        for c, (circuit, scale) in enumerate(size["kway_circuits"]):
            req = PartitionRequest(verb="partition", circuit=circuit, scale=scale,
                                   seed=request_seed, cache="use", jobs=1)
            mapped = map_circuit(circuit, scale=scale, seed=req.mapping_seed)
            with use_cache(fresh_store()), use_ledger(ledger):
                cold = run.timed("cold", i, lambda rid: api.run_request(req))
                stored = solution_doc(codec.encode_solution(cold.solution))
                problems = kway_problems(mapped, cold.solution)
                if cold.cache_info.get("status") != "miss":
                    problems.append(f"cold request was {cold.cache_info.get('status')!r}")
                run.check(problems)
                core = i < size["kway_core"]
                if core:
                    _add(run.quality, "total_cost", cold.solution.cost.total_cost)
                for r in range(size["kway_replays"]):
                    hit = run.timed("hit", (i, r), lambda rid: api.run_request(req))
                    run.check(replay_problems(
                        stored, hit.cache_info.get("status"),
                        solution_doc(codec.encode_solution(hit.solution))))
                # ECOs edit the first circuit only.  On s9234 at this scale
                # some 1% edits leave the warm repair infeasible and fall
                # back to a cold solve 15x slower; a few of those among a
                # dozen samples move the warm median from run to run.
                for k in range(size["kway_ecos"] if c == 0 else 0):
                    delta = seeded_delta(mapped, ECO_FRACTION, seed=request_seed * 10 + k)
                    eco = dataclasses.replace(req, delta=delta)
                    run.eco_requests += 1
                    warm = run.timed("warm", (i, k), lambda rid: api.run_request(eco))
                    run.check(kway_problems(delta.apply(mapped)[0], warm.solution))
                    if core:
                        _add(run.quality, "warm_cost", warm.solution.cost.total_cost)
                    eco_doc = solution_doc(codec.encode_solution(warm.solution))
                    replay = run.timed("eco_replay", (i, k),
                                       lambda rid: api.run_request(eco))
                    run.check(replay_problems(
                        eco_doc, replay.cache_info.get("status"),
                        solution_doc(codec.encode_solution(replay.solution))))

    _loop(run, seconds, cycles, size["kway_core"], cycle)
    # Cold and ECO requests solve and append; replays are hits and do not.
    solves = run.cycles * (len(size["kway_circuits"]) + size["kway_ecos"])
    run.check(ledger_problems(ledger.path, solves))


def _add(quality: Dict[str, float], name: str, value: float) -> None:
    quality[name] = quality.get(name, 0) + value


# -- rent_vcycle ------------------------------------------------------------

def rent_netlist(seed: int, cells: int) -> Any:
    n_gates = int(cells * GATES_PER_CELL)
    n_io = max(1, n_gates // 50)
    return random_logic(f"rent{cells}", n_gates, n_io, n_io, seed=seed)


def rent_request(netlist: Any, seed: int, i: int) -> PartitionRequest:
    return PartitionRequest(verb="bipartition", circuit=netlist.name,
                            seed=seed * 1000 + i + 1, algorithm="fm",
                            multilevel="on", runs=1, cache="off", jobs=1)


def bipartition_digest(report: Any) -> str:
    """The solution document minus its wall-clock field."""
    doc = codec.encode_solution(report)
    doc.pop("elapsed_seconds", None)
    return solution_doc(doc)


def rent_vcycle(run: Run, seed: int, size: Dict[str, Any], seconds: Optional[float],
                cycles: Optional[int], setups: int) -> str:
    """Returns the first request's digest, for the hash-seed probe.

    Request ``i`` bipartitions netlist ``i % rent_netlists``, so a run's
    median spans several netlists of the seed rather than one.
    """
    netlists: List[Any] = []
    for _ in range(setups):
        # Set-up: generate the netlists, and send one small request so lazy
        # imports and first-call costs stay out of the timings.
        t0 = time.perf_counter()
        netlists = [rent_netlist(seed * 100 + n, size["rent_cells"])
                    for n in range(size["rent_netlists"])]
        small = rent_netlist(seed, size["rent_warmup_cells"])
        api.run_request(rent_request(small, seed, 0), circuit=small)
        run.setup_s.append(time.perf_counter() - t0)
    if run.tracer is not None:
        run.tracer.vcycles.clear()
    digests: List[str] = []

    def cycle(i: int) -> None:
        netlist = netlists[i % len(netlists)]
        req = rent_request(netlist, seed, i)
        result = run.timed("cold", i, lambda rid: api.run_request(req, circuit=netlist))
        report = result.solution
        problems = [] if len(report.cuts) == 1 else [f"{len(report.cuts)} cuts"]
        if run.tracer is not None:
            # The V-cycle's own result, kept by the tracer's hook.
            for _, hg, ml in run.tracer.vcycles:
                problems += cut_problems(hg, ml.assignment, ml.final_cut)
                if report.cuts != [ml.final_cut]:
                    problems.append(f"report cut {report.cuts} != V-cycle {ml.final_cut}")
            if len(run.tracer.vcycles) != 1:
                problems.append(f"{len(run.tracer.vcycles)} V-cycles ran, expected 1")
            run.tracer.vcycles.clear()
        run.check(problems)
        if i < size["rent_core"]:
            _add(run.quality, "cut", report.cuts[0])
        digests.append(bipartition_digest(report))

    _loop(run, seconds, cycles, size["rent_core"], cycle)
    return digests[0]


def hashseed_probe(script: str, args: List[str], hash_seed: int, timeout: float) -> str:
    """The first rent_vcycle digest computed by a fresh process under another
    ``PYTHONHASHSEED``."""
    out = subprocess.run(
        [sys.executable, script, *args, "--probe", "--hash-seed", str(hash_seed)],
        capture_output=True, text=True, timeout=timeout, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["digest"]


# -- eco_service ------------------------------------------------------------

class ServiceThread:
    """A ``PartitionService`` on its own event-loop thread."""

    def __init__(self, cache_dir: str) -> None:
        self.service = PartitionService(
            host="127.0.0.1", port=0, workers=SERVICE_WORKERS, cache="use",
            cache_dir=cache_dir, rate=1e9, burst=1e9, max_inflight=1 << 20,
        )
        self._ready = threading.Event()
        self._loop: Any = None
        self._stop: Any = None
        self._closed = False
        self._thread = threading.Thread(target=lambda: asyncio.run(self._main()),
                                        daemon=True)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.service.start()
        self._ready.set()
        await self._stop.wait()
        await self.service.stop()

    def start(self) -> ServiceClient:
        self._thread.start()
        if not self._ready.wait(60):
            raise RuntimeError("service did not start")
        return ServiceClient("127.0.0.1", self.service.port, client_id="perfbench",
                             timeout=HTTP_TIMEOUT)

    def close(self) -> None:
        """Stop the service and wait for its thread and pool workers."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(60)
        # The pool shuts down without waiting; wait for its workers here.
        for child in multiprocessing.active_children():
            child.join(30)
            if child.is_alive():
                child.terminate()
                child.join(5)


def fill_store(root: str, n: int, seed: int) -> None:
    """Write ``n`` small entries for unrelated netlists straight to disk."""
    rng = random.Random(seed)
    store = SolutionCache(root)
    for i in range(n):
        key = "%012x" % rng.getrandbits(48)
        entry = build_entry(
            kind="partition", key=key, circuit=f"filler{i}",
            netlist_hash="%016x" % rng.getrandbits(64),
            config={"verb": "partition", "filler": True}, seed=i,
            solution={"type": "filler", "index": i}, elapsed_seconds=0.001,
        )
        path = store.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True, separators=(",", ":"))


def http_request(run: Run, client: ServiceClient, req: PartitionRequest, cls: str,
                 group: Any, tracer_offset: float) -> Dict[str, Any]:
    """Submit, follow the job's event stream if queued, fetch the result."""
    replies: Dict[str, Any] = {}

    def call(rid: str) -> Dict[str, Any]:
        replies["rid"] = rid
        reply = client.submit(req, trace_id=rid)
        replies["code"] = reply["_http_status"]
        if reply["_http_status"] == 200:
            return reply
        for _ in client.stream(reply["job_id"]):
            pass
        return client.status(reply["job_id"])

    doc = run.timed(cls, group, call)
    started = doc.get("started_ts") or doc["submitted_ts"]
    timing = {
        "queue": started - doc["submitted_ts"],
        "run": (doc.get("finished_ts") or started) - started,
        "latency": run.last_latency,
        "hot": replies["code"] == 200,
    }
    run.service.append(timing)
    if run.tracer is not None and doc.get("started_ts"):
        run.tracer.record("service.queue", doc["submitted_ts"] - tracer_offset,
                          doc["started_ts"] - tracer_offset, replies["rid"])
    return doc


def _result_solution(doc: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    if doc.get("state") != "done":
        return None
    return (doc.get("result") or {}).get("solution")


def eco_setup(run: Run, seed: int, size: Dict[str, Any], index: int,
              offset: float) -> Dict[str, Any]:
    """A fresh store padded with unrelated entries, a running service, and
    the base circuits solved cold through it."""
    root = os.path.join(run.workspace, f"eco{index}")
    fill_store(os.path.join(root, "cache"), size["eco_fill"], seed)
    env: Dict[str, Any] = {"service": ServiceThread(os.path.join(root, "cache"))}
    env["client"] = env["service"].start()
    env["bases"] = []
    for b, (circuit, scale) in enumerate(size["eco_bases"]):
        req = PartitionRequest(verb="partition", circuit=circuit, scale=scale,
                               seed=seed * 1000 + index * 10 + b + 1, cache="use")
        mapped = map_circuit(circuit, scale=scale, seed=req.mapping_seed)
        doc = http_request(run, env["client"], req, "base", (index, b), offset)
        payload = _result_solution(doc)
        if payload is None:
            env["service"].close()
            raise RuntimeError(f"base solve ended {doc.get('state')!r}: "
                               f"{doc.get('error')}")
        run.check(kway_problems(mapped, codec.decode_solution(payload)))
        env["bases"].append((req, mapped, solution_doc(payload), payload))
    return env


def eco_service(run: Run, seed: int, size: Dict[str, Any], seconds: Optional[float],
                cycles: Optional[int], setups: int) -> None:
    offset = time.time() - time.perf_counter()
    env = None
    try:
        for index in range(setups):
            if env is not None:
                env["service"].close()
            t0 = time.perf_counter()
            env = eco_setup(run, seed, size, index, offset)
            run.setup_s.append(time.perf_counter() - t0)
            for _, _, _, payload in env["bases"]:
                _add(run.quality, "total_cost",
                     codec.decode_solution(payload).cost.total_cost)
        client, bases = env["client"], env["bases"]
        rng = random.Random(seed)
        ecos: List[tuple] = []

        def cycle(i: int) -> None:
            # A new design: a cold solve in a pool worker, which stores.
            circuit, scale = size["eco_cold"]
            req = PartitionRequest(verb="partition", circuit=circuit, scale=scale,
                                   seed=seed * 1000 + 100 + i, cache="use")
            mapped = map_circuit(circuit, scale=scale, seed=req.mapping_seed)
            doc = http_request(run, client, req, "cold", i, offset)
            payload = _result_solution(doc)
            if payload is None:
                run.check([f"new design ended {doc.get('state')!r}: {doc.get('error')}"])
            else:
                problems = kway_problems(mapped, codec.decode_solution(payload))
                if doc.get("cached"):
                    problems.append("new design was answered from the hot path")
                run.check(problems)
            for r in range(size["eco_rounds"]):
                eco_round(i, i * size["eco_rounds"] + r)

        def eco_round(i: int, j: int) -> None:
            base_req, mapped, _, _ = bases[j % len(bases)]
            delta = seeded_delta(mapped, ECO_FRACTION, seed=seed * 1000 + j)
            eco = dataclasses.replace(base_req, delta=delta)
            run.eco_requests += 1
            doc = http_request(run, client, eco, "warm", j, offset)
            payload = _result_solution(doc)
            if payload is None:
                run.check([f"ECO ended {doc.get('state')!r}: {doc.get('error')}"])
            else:
                run.check(kway_problems(delta.apply(mapped)[0],
                                        codec.decode_solution(payload)))
                ecos.append((eco, solution_doc(payload)))
                if i < size["eco_core"]:
                    _add(run.quality, "warm_cost",
                         codec.decode_solution(payload).cost.total_cost)
            if ecos:
                eco_req, stored = ecos[rng.randrange(len(ecos))]
                doc = http_request(run, client, eco_req, "hit", (j, "eco"), offset)
                run.check(_hot_problems(doc, stored))
            for h in range(size["eco_hits_per_round"]):
                req, _, stored, _ = bases[h % len(bases)]
                doc = http_request(run, client, req, "hit", (j, h), offset)
                run.check(_hot_problems(doc, stored))

        _loop(run, seconds, cycles, size["eco_core"], cycle)
    finally:
        if env is not None:
            env["service"].close()


def _hot_problems(doc: Dict[str, Any], stored: str) -> List[str]:
    payload = _result_solution(doc)
    status = ((doc.get("result") or {}).get("cache_info") or {}).get("status")
    if not doc.get("cached"):
        status = f"{status} (not served from the hot path)"
    return replay_problems(stored, status, solution_doc(payload))


WORKLOADS: Dict[str, Callable[..., Any]] = {
    "cold_kway": cold_kway,
    "rent_vcycle": rent_vcycle,
    "eco_service": eco_service,
}
