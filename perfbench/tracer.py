"""In-memory span tracer that wraps each layer's public functions.

The benchmark measures layers without touching the program: ``Tracer.install``
replaces the functions named in ``TARGETS`` (in their defining module and in
every ``repro`` module that imported them by name) with wrappers that record
one span per call: name, start, end, parent span, request id and process id.
Spans stay in memory.  Service pool workers are forked from the traced
process, so they inherit the wrappers; each writes its spans to
``<span_dir>/worker-<pid>.jsonl`` when it exits.

A span's self time is the part of its interval during which it is the
innermost open span of its request (the open span that started last).  For
nested calls this is the span minus its children; where spans of one request
overlap across threads or processes each instant is still counted once, so
the self times of a request's spans always add up to its wall time.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The layers, in request order.  A span belongs to the layer its name
#: starts with; the client's ``request`` span is the root of each request.
LAYERS = (
    "netlist", "techmap", "hypergraph", "partition", "cache", "obs",
    "service", "api",
)
ROOT_SPAN = "request"


def _trace_id(args: tuple, kwargs: dict) -> Optional[str]:
    """Request id of an ``api.run_request`` / ``cached_result`` call."""
    request = args[0] if args else kwargs.get("request")
    return getattr(request, "trace_id", None)


def _job_trace_id(args: tuple, kwargs: dict) -> Optional[str]:
    job = args[1] if len(args) > 1 else args[0]
    request = getattr(job, "request", None)
    return getattr(request, "trace_id", None) or getattr(job, "trace_id", None)


def _header_trace_id(args: tuple, kwargs: dict) -> Optional[str]:
    """Request id of ``PartitionService._handle_submit(writer, headers, body)``."""
    return args[2].get("x-repro-trace-id")


def _service_request_id(args: tuple, kwargs: dict) -> Optional[str]:
    """Request id of ``PartitionService._hot_result(request)``."""
    return getattr(args[1], "trace_id", None)


# Result hooks run after the span closes; they only count.
def _count_pins(tracer: "Tracer", rid: str, args: tuple, result: Any) -> None:
    tracer.add(rid, "hypergraph.pins", len(result.net_nodes))


def _count_entry_bytes(tracer: "Tracer", rid: str, args: tuple, result: Any) -> None:
    tracer.add(rid, "cache.entry_bytes", os.path.getsize(result))


def _count_hit(tracer: "Tracer", rid: str, args: tuple, result: Any) -> None:
    tracer.add(rid, "cache.hits", result is not None)


def _count_warm(tracer: "Tracer", rid: str, args: tuple, result: Any) -> None:
    tracer.add(rid, "partition.warm", result[0] is not None)


def _keep_vcycle(tracer: "Tracer", rid: str, args: tuple, result: Any) -> None:
    tracer.add(rid, "partition.levels", result.levels)
    tracer.vcycles.append((rid, args[0], result))


#: ``(module, attribute, span name, request-id getter, result hook, kind)``.
#: ``kind`` is ``"sync"``, ``"async"`` (coroutine function) or ``"count"``
#: (no span, only a call count).
TARGETS: Tuple[Tuple[str, str, str, Any, Any, str], ...] = (
    ("repro.netlist.benchmarks", "benchmark_circuit", "netlist.load", None, None, "sync"),
    ("repro.techmap.mapped", "technology_map", "techmap.map", None, None, "sync"),
    ("repro.techmap.decompose", "decompose_netlist", "techmap.decompose", None, None, "sync"),
    ("repro.techmap.cover", "cover_netlist", "techmap.cover", None, None, "sync"),
    ("repro.techmap.pack", "pack_cells", "techmap.pack", None, None, "sync"),
    ("repro.techmap.delta", "NetlistDelta.apply", "techmap.delta_apply", None, None, "sync"),
    ("repro.hypergraph.build", "build_hypergraph", "hypergraph.build", None, None, "sync"),
    ("repro.hypergraph.compact", "CompactHypergraph.from_hypergraph", "hypergraph.csr",
     None, _count_pins, "sync"),
    ("repro.partition.kway", "partition_heterogeneous", "partition.kway", None, None, "sync"),
    ("repro.partition.kway", "_scan_carve_candidates", "partition.carve", None, None, "count"),
    ("repro.partition.fm_replication", "ReplicationEngine.run", "partition.replication",
     None, None, "sync"),
    ("repro.partition.fm", "fm_bipartition", "partition.fm", None, None, "sync"),
    ("repro.partition.multilevel", "MultilevelHierarchy.__init__", "partition.coarsen",
     None, None, "sync"),
    ("repro.partition.multilevel", "vcycle_bipartition", "partition.vcycle",
     None, _keep_vcycle, "sync"),
    ("repro.partition.incremental", "incremental_partition", "partition.incremental",
     None, _count_warm, "sync"),
    ("repro.partition.verify", "verify_solution", "partition.verify", None, None, "sync"),
    ("repro.cache.store", "cache_key", "cache.key", None, None, "sync"),
    ("repro.cache.store", "SolutionCache.get", "cache.get", None, None, "sync"),
    ("repro.cache.store", "SolutionCache.put", "cache.put", None, _count_entry_bytes, "sync"),
    ("repro.cache.store", "nearest_ancestor", "cache.ancestor", None, None, "sync"),
    ("repro.cache.codec", "encode_solution", "cache.encode", None, None, "sync"),
    ("repro.cache.codec", "decode_solution", "cache.decode", None, None, "sync"),
    ("repro.api", "_cache_try_hit", "cache.lookup", None, _count_hit, "sync"),
    ("repro.obs.ledger", "netlist_fingerprint", "obs.fingerprint", None, None, "sync"),
    ("repro.obs.ledger", "build_record", "obs.ledger_record", None, None, "sync"),
    ("repro.obs.ledger", "Ledger.append", "obs.ledger_append", None, None, "sync"),
    ("repro.api", "run_request", "api.request", _trace_id, None, "sync"),
    ("repro.api", "cached_result", "api.cached", _trace_id, None, "sync"),
    ("repro.api", "map", "api.map", None, None, "sync"),
    ("repro.batch.worker", "execute_job", "service.worker", _job_trace_id, None, "sync"),
    ("repro.service.server", "PartitionService._hot_result", "service.hot",
     _service_request_id, None, "sync"),
    ("repro.service.server", "PartitionService._handle_submit", "service.submit",
     _header_trace_id, None, "async"),
    ("repro.service.server", "PartitionService._run_job", "service.run",
     _job_trace_id, None, "async"),
)

#: A span record: ``(span id, name, start, end, parent id, request id, pid)``.
Span = Tuple[str, str, float, float, Optional[str], Optional[str], int]


class Tracer:
    """Records spans and per-request counts of one benchmark process."""

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir
        self.spans: List[Span] = []
        #: ``(request id, name) -> count`` of calls and of counted results.
        self.counts: Counter = Counter()
        #: ``(request id, hypergraph, MultilevelResult)`` per V-cycle run,
        #: for the benchmark's cut check.
        self.vcycles: List[Tuple[Optional[str], Any, Any]] = []
        #: Request id of the in-process client's current request.
        self.request: Optional[str] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._pid = os.getpid()

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[Tuple[str, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> str:
        return f"{self._pid}:{next(self._ids)}"

    def add(self, rid: Optional[str], name: str, amount: float = 1) -> None:
        self.counts[(rid, name)] += amount

    def record(self, name: str, start: float, end: float, rid: Optional[str]) -> None:
        """Append one finished span without a parent (coroutines, and
        intervals taken from timestamps)."""
        self.spans.append((self._new_id(), name, start, end, None, rid, self._pid))

    @contextlib.contextmanager
    def root(self, rid: str) -> Iterator[None]:
        """One client request: its root span, and the id that spans opened
        on this thread without an explicit one inherit."""
        self.request = rid
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(ROOT_SPAN, start, time.perf_counter(), rid)
            self.request = None

    def _wrap_sync(self, fn: Callable, name: str, rid_of: Any, hook: Any) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            rid = rid_of(args, kwargs) if rid_of is not None else None
            if rid is None:
                rid = parent[1] if parent is not None else tracer.request
            sid = tracer._new_id()
            stack.append((sid, rid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent[0] if parent else None, rid,
                     tracer._pid)
                )
                tracer.counts[(rid, name)] += 1
            if hook is not None:
                hook(tracer, rid, args, result)
            return result

        return traced

    def _wrap_async(self, fn: Callable, name: str, rid_of: Any) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            # Coroutines interleave on the loop thread, so they take no
            # part in the thread's span stack: parents come from timing.
            rid = rid_of(args, kwargs)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.record(name, start, time.perf_counter(), rid)
                tracer.counts[(rid, name)] += 1

        return traced

    def _wrap_count(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            rid = stack[-1][1] if stack else tracer.request
            tracer.counts[(rid, name)] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every target; forked children reset and dump at exit."""
        for module_name, attr, name, rid_of, hook, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[fn_name] if owner_name else getattr(module, fn_name)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if kind == "async":
                wrapped = self._wrap_async(fn, name, rid_of)
            elif kind == "count":
                wrapped = self._wrap_count(fn, name)
            else:
                wrapped = self._wrap_sync(fn, name, rid_of, hook)
            if owner_name:
                setattr(owner, fn_name, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            # Rebind every ``from module import fn`` copy in the package.
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and (
                    getattr(mod, fn_name, None) is fn
                ):
                    setattr(mod, fn_name, wrapped)
        # Runs in each multiprocessing child after it clears the parent's
        # finalizers, so the dump registered there survives.
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.vcycles = []
        self._local = threading.local()
        self._pid = os.getpid()
        mp_util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        """Write this process's spans and counts (a worker, at exit)."""
        os.makedirs(self.span_dir, exist_ok=True)
        path = os.path.join(self.span_dir, f"worker-{self._pid}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"span": span}) + "\n")
            for (rid, name), value in self.counts.items():
                fh.write(json.dumps({"count": [rid, name, value]}) + "\n")

    def load_workers(self) -> None:
        """Merge the span files the exited workers wrote."""
        if not os.path.isdir(self.span_dir):
            return
        for entry in sorted(os.listdir(self.span_dir)):
            with open(os.path.join(self.span_dir, entry), encoding="utf-8") as fh:
                for line in fh:
                    doc = json.loads(line)
                    if "span" in doc:
                        self.spans.append(tuple(doc["span"]))
                    else:
                        rid, name, value = doc["count"]
                        self.counts[(rid, name)] += value
            os.remove(os.path.join(self.span_dir, entry))


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time per span id of one request's spans, clipped to its root.

    Sweeps the request's interval and gives each instant to the open span
    that started last (ties: the one that ends first), so the self times
    sum exactly to the root span's duration.
    """
    root = next(s for s in spans if s[1] == ROOT_SPAN)
    lo, hi = root[2], root[3]
    bounds = []
    for span in spans:
        start, end = max(span[2], lo), min(span[3], hi)
        if end > start or span is root:
            bounds.append((start, 0, span))
            bounds.append((end, 1, span))
    bounds.sort(key=lambda b: (b[0], b[1]))
    out: Dict[str, float] = defaultdict(float)
    open_heap: List[Tuple[float, float, str]] = []
    closed = set()
    last = lo
    for t, kind, span in bounds:
        while open_heap and open_heap[0][2] in closed:
            heapq.heappop(open_heap)
        if open_heap and t > last:
            out[open_heap[0][2]] += t - last
        last = t
        if kind == 0:
            heapq.heappush(open_heap, (-span[2], span[3], span[0]))
        else:
            closed.add(span[0])
    return out


def request_profile(tracer: Tracer) -> Dict[str, Any]:
    """Self time per span name summed over the client requests, with checks.

    Returns ``requests`` (count) and ``rids`` (their ids), ``self`` (span
    name -> total self seconds), ``outside`` (span seconds that fell outside
    their request's root span) and ``coverage_error`` (the largest gap, over
    requests, between the sum of self times and the request's wall time).
    """
    by_rid: Dict[Optional[str], List[Span]] = defaultdict(list)
    for span in tracer.spans:
        by_rid[span[5]].append(span)
    totals: Dict[str, float] = defaultdict(float)
    outside = coverage_error = 0.0
    rids = set()
    for rid, spans in by_rid.items():
        roots = [s for s in spans if s[1] == ROOT_SPAN]
        if len(roots) != 1:
            # Work that ran outside any client request (set-up, checks).
            continue
        rids.add(rid)
        root = roots[0]
        name_of = {s[0]: s[1] for s in spans}
        st = self_times(spans)
        for sid, seconds in st.items():
            totals[name_of[sid]] += seconds
        duration = root[3] - root[2]
        coverage_error = max(coverage_error, abs(sum(st.values()) - duration))
        for s in spans:
            outside += max(0.0, root[2] - s[2]) + max(0.0, s[3] - root[3])
    return {
        "requests": len(rids),
        "rids": rids,
        "self": dict(totals),
        "outside": outside,
        "coverage_error": coverage_error,
    }


__all__ = ["LAYERS", "ROOT_SPAN", "TARGETS", "Tracer", "request_profile", "self_times"]
