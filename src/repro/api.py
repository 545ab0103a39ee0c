"""The stable, versioned entry point to the partitioning stack.

``repro.api`` is the recommended way to drive the reproduction
programmatically.  Every solve is described by one frozen,
schema-versioned :class:`~repro.request.PartitionRequest` -- the
serializable form of a run that the CLI, batch manifests and the job
service (:mod:`repro.service`) all normalize into -- and executed by
:func:`run_request`::

    from repro import api

    request = api.PartitionRequest(verb="partition", circuit="s5378",
                                   scale=0.5, threshold=1, seed=7)
    result = api.run_request(request)
    result.solution.cost.total_cost      # the paper's eq. (1) objective
    result.metrics                       # observability snapshot (if tracing)
    result.run_log                       # orchestration log (if resilient)
    api.RunResult.from_json(result.to_json())   # round-trippable results

* :func:`load` -- resolve a benchmark name / ``.bench`` path / netlist;
* :func:`map` -- technology-map a circuit into XC3000 CLBs;
* :func:`run_request` -- execute a request: ``verb="bipartition"`` is
  the paper's experiment 1 (Table III), ``verb="partition"`` the k-way
  heterogeneous flow (Tables IV-VII);
* :func:`cached_result` -- serve a request from the solution cache only;
* :func:`analyze` -- validate and summarize an observability trace.

Every verb returns a :class:`RunResult` stamped with
``schema_version`` so downstream consumers can detect shape changes.
A request carrying any of ``deadline`` / ``max_retries`` / ``fallback``
runs through :class:`~repro.robust.runner.ResilientRunner` (deadline
splitting, retry with seed perturbation, engine degradation,
checkpointing) and attaches the :class:`~repro.robust.runner.RunLog` to
the result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Hashable, Optional, Tuple, Union

from repro.cache import codec as cache_codec
from repro.cache import store as cache_store
from repro.cache.index import MAPPED_INDEX
from repro.core.flow import bipartition_experiment, kway_solution
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.bench_io import bench_name, loads_bench
from repro.netlist.netlist import Netlist
from repro.obs import ledger as obs_ledger
from repro.obs.events import validate_jsonl_file
from repro.obs.metrics import get_registry
from repro.obs.summary import summarize_events
from repro.obs.telemetry import new_trace_id, series
from repro.partition.devices import (
    XC3000_LIBRARY,
    XC4000_LIBRARY,
    DeviceLibrary,
)
from repro.partition.verify import verify_solution
from repro.robust.budget import ambient_budget
from repro.robust.budget import cancelled as _job_cancelled
from repro.robust.errors import DeltaError
from repro.request import (
    Algorithm,
    CachePolicy,
    MultilevelMode,
    PartitionRequest,
)
from repro.robust.runner import ResilientRunner, RunLog
from repro.techmap.mapped import MappedNetlist, technology_map

#: Version of the :class:`RunResult` shape.  Bumped on any breaking
#: change to the dataclass fields or their meaning.
SCHEMA_VERSION = 1

#: Document identifier written in every serialized :class:`RunResult`.
RESULT_SCHEMA_NAME = "repro-run-result/1"


@dataclass
class RunResult:
    """Uniform envelope returned by every ``repro.api`` verb.

    ``solution`` holds the verb's primary artifact (a
    :class:`~repro.netlist.netlist.Netlist`, a
    :class:`~repro.techmap.mapped.MappedNetlist`, a
    :class:`~repro.core.results.BipartitionReport`, a
    :class:`~repro.partition.kway.KWaySolution`, or the analyze verdict
    dict).  ``run_log`` is populated only when the run went through the
    resilient runner; ``metrics`` is the active observability registry's
    snapshot (empty when tracing is disabled).
    """

    kind: str  # "load" | "map" | "bipartition" | "partition" | "analyze"
    solution: Any
    run_log: Optional[RunLog] = None
    metrics: Dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION
    #: The quality record appended to the run ledger, when one was
    #: enabled (``repro.obs.ledger``); ``None`` otherwise.  Additive
    #: field -- existing consumers of the version-1 shape are unaffected.
    run_record: Optional[Dict[str, Any]] = None
    #: Solution-cache interaction of this call (:mod:`repro.cache`):
    #: ``None`` with ``cache="off"``, otherwise a dict with ``status``
    #: (``"hit"`` | ``"miss"`` | ``"refreshed"``), ``key``, ``path`` and
    #: -- on a hit -- ``saved_seconds`` (the original solve wall-clock).
    #: Additive field, same compatibility note as ``run_record``.
    cache_info: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """True unless the solution itself reports a failure state."""
        feasible = getattr(self.solution, "feasible", True)
        truncated = getattr(self.solution, "truncated", False)
        return bool(feasible) and not truncated

    def to_dict(self) -> Dict[str, Any]:
        """The schema-versioned JSON document form, in stable field order.

        Only the solver verbs (``bipartition`` / ``partition``) serialize:
        their solutions round-trip through the solution-cache codec, which
        is exactly the representation cache entries and service responses
        already carry -- one serialization instead of three near-copies.
        The resilient-runner log travels one-way as its ``as_record()``
        summary under ``"runner"`` (the live :class:`RunLog` object is not
        reconstructible); raises ``TypeError`` for the other verbs.
        """
        return {
            "schema": RESULT_SCHEMA_NAME,
            "v": self.schema_version,
            "kind": self.kind,
            "ok": self.ok,
            "elapsed_seconds": self.elapsed_seconds,
            "solution": cache_codec.encode_solution(self.solution),
            "runner": self.run_log.as_record() if self.run_log else None,
            "metrics": self.metrics,
            "run_record": self.run_record,
            "cache_info": self.cache_info,
        }

    def to_json(self) -> str:
        """One-line JSON of :meth:`to_dict` (stable field order)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: Any) -> "RunResult":
        """Rebuild a result from its document form.

        ``run_log`` is always ``None`` on the way back (the ``"runner"``
        summary is one-way; it stays available in the source document).
        Raises ``ValueError`` on a wrong schema or undecodable solution.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"result is {type(doc).__name__}, expected object")
        schema = doc.get("schema", RESULT_SCHEMA_NAME)
        if schema != RESULT_SCHEMA_NAME:
            raise ValueError(
                f"result schema {schema!r}, expected {RESULT_SCHEMA_NAME!r}"
            )
        return cls(
            kind=doc["kind"],
            solution=cache_codec.decode_solution(doc["solution"]),
            run_log=None,
            metrics=doc.get("metrics") or {},
            elapsed_seconds=float(doc.get("elapsed_seconds", 0.0)),
            schema_version=int(doc.get("v", SCHEMA_VERSION)),
            run_record=doc.get("run_record"),
            cache_info=doc.get("cache_info"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Parse a serialized result; raises ``ValueError`` on bad input."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"result is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


def _metrics_snapshot() -> Dict[str, Any]:
    reg = get_registry()
    return reg.snapshot() if reg.enabled else {}


def _wants_runner(
    deadline: Optional[float],
    max_retries: Optional[int],
    fallback: Optional[bool],
) -> bool:
    return deadline is not None or max_retries is not None or fallback is not None


def _make_runner(
    deadline: Optional[float],
    max_retries: Optional[int],
    fallback: Optional[bool],
) -> ResilientRunner:
    return ResilientRunner(
        deadline=deadline,
        max_retries=2 if max_retries is None else max_retries,
        fallback=True if fallback is None else fallback,
    )


def _cache_try_hit(
    kind: str,
    store: cache_store.SolutionCache,
    key: str,
    mapped: MappedNetlist,
) -> Optional[tuple]:
    """``(solution, entry)`` when a trustworthy hit exists, else ``None``.

    A hit is trusted only after it survives decoding *and* -- for k-way
    solutions -- the independent checker
    :func:`~repro.partition.verify.verify_solution` against the live
    mapped netlist.  Anything less is deleted and treated as a miss, so
    a corrupted/stale entry can cost a recompute but never poison a run.
    """
    entry = store.get(key)
    if entry is None or entry.get("kind") != kind:
        return None
    try:
        solution = cache_codec.decode_solution(entry["solution"])
    except cache_codec.CacheDecodeError:
        store.delete(key)
        return None
    if kind == "partition" and verify_solution(mapped, solution):
        store.delete(key)
        return None
    store.touch(key)
    return solution, entry


def _cache_hit_result(
    kind: str,
    store: cache_store.SolutionCache,
    key: str,
    solution: Any,
    entry: Dict[str, Any],
) -> RunResult:
    """Reconstruct the :class:`RunResult` a fresh solve would return.

    ``elapsed_seconds`` is the *original* solve wall-clock from the
    entry, so anything derived downstream (Table IV CPU columns, ledger
    diffs) is bit-identical between cold and warm runs.
    """
    saved = float(entry["elapsed_seconds"])
    reg = get_registry()
    reg.counter("cache.hits").inc()
    reg.emit_event(
        "cache.hit",
        key=key,
        kind=kind,
        circuit=entry.get("circuit"),
        saved_seconds=saved,
    )
    return RunResult(
        kind=kind,
        solution=solution,
        metrics=_metrics_snapshot(),
        elapsed_seconds=saved,
        cache_info={
            "status": "hit",
            "key": key,
            "path": store.path_for(key),
            "saved_seconds": saved,
        },
    )


def _cache_store_result(
    kind: str,
    cache: str,
    store: cache_store.SolutionCache,
    key: str,
    mapped: MappedNetlist,
    config: Dict[str, Any],
    seed: int,
    solution: Any,
    elapsed: float,
) -> Dict[str, Any]:
    """Memoize a fresh solve; returns the ``cache_info`` dict."""
    path = store.put(
        cache_store.build_entry(
            kind=kind,
            key=key,
            circuit=mapped.name,
            netlist_hash=obs_ledger.netlist_fingerprint(mapped),
            config=config,
            seed=seed,
            solution=cache_codec.encode_solution(solution),
            elapsed_seconds=elapsed,
        )
    )
    reg = get_registry()
    reg.counter("cache.misses" if cache == "use" else "cache.refreshes").inc()
    reg.counter("cache.stores").inc()
    reg.emit_event("cache.store", key=key, kind=kind, circuit=mapped.name)
    return {
        "status": "miss" if cache == "use" else "refreshed",
        "key": key,
        "path": path,
    }


def _try_warm_solve(
    request: PartitionRequest,
    store: Optional[cache_store.SolutionCache],
    base_mapped: MappedNetlist,
    mapped: MappedNetlist,
    dirty: Any,
    config: Dict[str, Any],
) -> tuple:
    """Attempt an incremental warm-start solve for a delta request.

    Returns ``(solution, warm_info)``; ``solution`` is ``None`` when no
    usable prior exists or the repair declined (``warm_info["reason"]``
    says why) and the caller falls back to the cold path.  The prior is
    the entry named by ``request.warm_start`` (when it is an explicit
    key) or the cache's nearest ancestor by *base* netlist hash --
    warm-starting always needs the cache, so ``cache="off"`` requests
    solve cold regardless of ``warm_start``.
    """
    from repro.partition.incremental import IncrementalConfig, incremental_partition

    if store is None:
        return None, {"mode": "cold", "reason": "cache disabled"}
    explicit = request.warm_start not in (None, "auto")
    if explicit:
        entry = store.get(request.warm_start)
        miss = f"warm-start key {request.warm_start!r} not in cache"
    else:
        entry = cache_store.nearest_ancestor(
            store,
            obs_ledger.netlist_fingerprint(base_mapped),
            config_fp=obs_ledger.config_fingerprint(obs_ledger._jsonable(config)),
            seed=request.seed,
        )
        miss = "no cached ancestor for the base netlist"
    if entry is None or entry.get("kind") != "partition":
        return None, {"mode": "cold", "reason": miss}
    try:
        previous = cache_codec.decode_solution(entry["solution"])
    except cache_codec.CacheDecodeError:
        return None, {"mode": "cold", "reason": "ancestor entry undecodable"}
    solution, info = incremental_partition(
        mapped,
        previous,
        dirty,
        IncrementalConfig(seed=request.seed, max_passes=request.max_passes),
    )
    info["ancestor_key"] = entry.get("key")
    info["ancestor_elapsed"] = entry.get("elapsed_seconds")
    return solution, info


def _circuit_source(
    circuit: str, scale: float, seed: int
) -> Tuple[Hashable, Callable[[], Netlist]]:
    """How a circuit string becomes a netlist: its identity in the
    mapped-netlist index and a loader.

    A name ending in ``.bench`` is a file, identified by its circuit name
    and the sha256 of its bytes (``scale`` and ``seed`` do not apply);
    anything else is a bundled benchmark, identified by
    ``(name, scale, seed)``.
    """
    if circuit.endswith(".bench"):
        with open(circuit, "rb") as handle:
            data = handle.read()
        name = bench_name(circuit)
        # The loader parses the bytes that were hashed, so the netlist
        # matches its identity even if the file changes in between.
        return (
            (".bench", name, hashlib.sha256(data).hexdigest()),
            lambda: loads_bench(data.decode("utf-8"), name, source=circuit),
        )
    return (
        (circuit, float(scale), int(seed)),
        lambda: benchmark_circuit(circuit, scale=scale, seed=seed),
    )


def load(
    circuit: Union[str, Netlist],
    scale: float = 1.0,
    seed: int = 1994,
) -> RunResult:
    """Resolve ``circuit`` into a gate-level netlist.

    Accepts a benchmark name (see ``repro.BENCHMARK_NAMES``), a path to
    an ISCAS ``.bench`` file, or an already-built
    :class:`~repro.netlist.netlist.Netlist` (returned unchanged).
    """
    start = perf_counter()
    if isinstance(circuit, Netlist):
        netlist = circuit
    else:
        netlist = _circuit_source(circuit, scale, seed)[1]()
    return RunResult(
        kind="load",
        solution=netlist,
        metrics=_metrics_snapshot(),
        elapsed_seconds=perf_counter() - start,
    )


def map(  # noqa: A001 - deliberate: api.map reads naturally at call sites
    circuit: Union[str, Netlist, MappedNetlist],
    scale: float = 1.0,
    seed: int = 1994,
) -> RunResult:
    """Technology-map ``circuit`` into XC3000 CLBs.

    Benchmark names and ``.bench`` paths resolve through the process-wide
    mapped-netlist index (:mod:`repro.cache.index`), so repeated calls
    return one shared, immutable :class:`MappedNetlist`.  An in-memory
    :class:`Netlist` is mapped afresh on every call.
    """
    start = perf_counter()
    if isinstance(circuit, MappedNetlist):
        mapped = circuit
    elif isinstance(circuit, Netlist):
        mapped = technology_map(circuit)
    else:
        identity, build = _circuit_source(circuit, scale, seed)
        mapped = MAPPED_INDEX.get(identity, lambda: technology_map(build()))
    return RunResult(
        kind="map",
        solution=mapped,
        metrics=_metrics_snapshot(),
        elapsed_seconds=perf_counter() - start,
    )


def _bundled_library(name: str) -> DeviceLibrary:
    """A bundled device library by name (the request wire spelling)."""
    for lib in (XC3000_LIBRARY, XC4000_LIBRARY):
        if lib.name == name:
            return lib
    known = sorted(lib.name for lib in (XC3000_LIBRARY, XC4000_LIBRARY))
    raise ValueError(f"unknown device library {name!r}; known: {known}")


def run_request(
    request: PartitionRequest,
    *,
    circuit: Union[str, Netlist, MappedNetlist, None] = None,
    library: Optional[DeviceLibrary] = None,
    cache: Union[CachePolicy, str, None] = None,
    jobs: Optional[int] = None,
) -> RunResult:
    """Execute a :class:`~repro.request.PartitionRequest`.

    This is the single execution path for both solver verbs: ledger
    resolution, technology mapping, multilevel resolution, cache lookup
    (verify-before-trust), the solve itself (resilient runner when the
    request carries any of ``deadline`` / ``max_retries`` / ``fallback``),
    cache store and ledger append.  Every front door -- library callers,
    the CLI, batch jobs, the service -- normalizes into a request and
    lands here, so they are bit-identical by construction.

    ``cache="use"`` serves a trustworthy hit (k-way hits are re-verified
    against the live mapped netlist) and skips both the solve and the
    ledger append; ``"refresh"`` recomputes and overwrites the entry;
    ``"off"`` bypasses the store.  A V-cycle that resolves on adds a
    ``multilevel`` marker to the config fingerprint, so multilevel and
    flat records never collide.  A carried ``delta`` applies to the
    mapped netlist first and, with the cache enabled, warm-starts from
    the nearest cached ancestor (see ``docs/INCREMENTAL.md``).

    ``circuit`` and ``library`` are optional side-channels for callers
    that already hold the live objects (an in-memory netlist, a custom
    :class:`~repro.partition.devices.DeviceLibrary`); by default both
    resolve from the request's ``circuit`` / ``library`` names.  ``cache``
    and ``jobs`` override the request's execution-only fields (useful for
    a scheduler re-running the same request under a different policy)
    without changing its identity.

    **Trace correlation:** the run executes under one ``trace_id`` --
    the request's own (minted by the service or a client) or a fresh one
    when tracing is enabled -- stamped on every observability line the
    run emits (solver spans, ``cache.hit``/``cache.store`` events,
    worker-pool fan-outs) and on the ledger record, so a single id links
    a service job to its solve, cache entry and ledger row.
    """
    if not isinstance(request, PartitionRequest):
        raise TypeError(
            f"run_request() takes a PartitionRequest, got {type(request).__name__}"
        )
    reg = get_registry()
    trace_id = request.trace_id
    if trace_id is None and reg.enabled:
        trace_id = new_trace_id()
    with reg.trace_scope(trace_id):
        result = _execute_request(
            request,
            circuit=circuit,
            library=library,
            cache=cache,
            jobs=jobs,
            trace_id=trace_id,
        )
        if reg.enabled and trace_id is not None:
            reg.counter(
                series("runs.completed", trace=trace_id, verb=request.verb)
            ).inc()
    return result


def _execute_request(
    request: PartitionRequest,
    *,
    circuit: Union[str, Netlist, MappedNetlist, None],
    library: Optional[DeviceLibrary],
    cache: Union[CachePolicy, str, None],
    jobs: Optional[int],
    trace_id: Optional[str],
) -> RunResult:
    """:func:`run_request` minus trace-context management."""
    policy = request.cache if cache is None else CachePolicy.coerce(cache)
    n_jobs = request.jobs if jobs is None else jobs
    kind = request.verb
    start = perf_counter()
    ledger = obs_ledger.resolve_ledger()
    mapped = map(
        circuit if circuit is not None else request.circuit,
        scale=request.scale,
        seed=request.mapping_seed,
    ).solution
    # Incremental front door: apply a carried ECO delta before anything
    # that depends on the netlist (multilevel resolution, cache identity,
    # the solve itself).  An empty delta leaves ``mapped`` untouched, so
    # its key equals the base request's key -- a pure cache hit.
    base_mapped = mapped
    dirty = None
    if request.delta is not None:
        if request.delta.base is not None:
            live = obs_ledger.netlist_fingerprint(base_mapped)
            if request.delta.base != live:
                raise DeltaError(
                    f"delta was computed against netlist "
                    f"{request.delta.base[:12]}..., but the live netlist "
                    f"is {live[:12]}..."
                )
        mapped, dirty = request.apply_delta(base_mapped)
    use_ml = request.resolve_multilevel(mapped.n_cells)
    # The request's config() is byte-compatible with the dicts the verbs
    # built inline pre-redesign, so fingerprints and cache keys carry over.
    config = request.config(use_ml)
    store = cache_store.resolve_cache() if policy is not CachePolicy.OFF else None
    key = (
        cache_store.cache_key(mapped, config, request.seed)
        if store is not None
        else ""
    )
    if policy is CachePolicy.USE and store is not None:
        hit = _cache_try_hit(kind, store, key, mapped)
        if hit is not None:
            return _cache_hit_result(kind, store, key, hit[0], hit[1])
    if library is None and kind == "partition":
        if request.library != XC3000_LIBRARY.name:
            library = _bundled_library(request.library)
    log: Optional[RunLog] = None
    warm_info: Optional[Dict[str, Any]] = None
    wants_runner = _wants_runner(
        request.deadline, request.max_retries, request.fallback
    )
    with obs_ledger.capture_events(enabled=ledger is not None) as events:
        if kind == "bipartition":
            if wants_runner:
                outcome = _make_runner(
                    request.deadline, request.max_retries, request.fallback
                ).bipartition(
                    mapped,
                    algorithm=request.algorithm.value,
                    runs=request.runs,
                    threshold=request.threshold,
                    seed=request.seed,
                    balance_tolerance=request.balance_tolerance,
                    max_passes=request.max_passes,
                    max_growth=request.max_growth,
                    jobs=n_jobs,
                    multilevel=use_ml,
                )
                solution, log = outcome.report, outcome.log
            else:
                solution = bipartition_experiment(
                    mapped,
                    algorithm=request.algorithm.value,
                    runs=request.runs,
                    threshold=request.threshold,
                    seed=request.seed,
                    balance_tolerance=request.balance_tolerance,
                    max_passes=request.max_passes,
                    max_growth=request.max_growth,
                    budget=ambient_budget(),
                    jobs=n_jobs,
                    multilevel=use_ml,
                )
        else:
            solution = None
            if (
                dirty is not None
                and not wants_runner
                and (request.warm_start or "auto") != "off"
            ):
                solution, warm_info = _try_warm_solve(
                    request, store, base_mapped, mapped, dirty, config
                )
            if solution is not None:
                pass  # warm repair succeeded; skip the cold solve
            elif wants_runner:
                outcome = _make_runner(
                    request.deadline, request.max_retries, request.fallback
                ).kway(
                    mapped,
                    threshold=request.threshold,
                    library=library,
                    algorithm=request.algorithm.value,
                    seed=request.seed,
                    seeds_per_carve=request.seeds_per_carve,
                    devices_per_carve=request.devices_per_carve,
                    jobs=n_jobs,
                    multilevel=request.multilevel.tri,
                )
                solution, log = outcome.solution, outcome.log
            else:
                solution = kway_solution(
                    mapped,
                    threshold=request.threshold,
                    library=library,
                    n_solutions=request.n_solutions,
                    seed=request.seed,
                    seeds_per_carve=request.seeds_per_carve,
                    algorithm=request.algorithm.value,
                    devices_per_carve=request.devices_per_carve,
                    budget=ambient_budget(),
                    jobs=n_jobs,
                    multilevel=request.multilevel.tri,
                )
    elapsed = perf_counter() - start
    if warm_info is not None and warm_info.get("mode") == "warm":
        prev_elapsed = warm_info.get("ancestor_elapsed")
        if isinstance(prev_elapsed, (int, float)) and elapsed > 0:
            warm_info["speedup"] = round(float(prev_elapsed) / elapsed, 3)
        reg = get_registry()
        if reg.enabled:
            # Counters are integers; the exact ratio rides the event.
            reg.counter("incr.warm_speedup").inc(
                max(1, round(float(warm_info.get("speedup", 1.0))))
            )
            reg.emit_event(
                "incr.warm",
                circuit=mapped.name,
                dirty_cells=int(warm_info.get("dirty_cells", 0)),
                speedup=float(warm_info.get("speedup", 0.0)),
                ancestor=str(warm_info.get("ancestor_key", "")),
            )
    cache_info = None
    if store is not None and _job_cancelled():
        # A cancelled solve wound down early: whatever it returned is
        # truncated, and memoizing it under the canonical key would
        # poison the cache for every future asker of the same request.
        cache_info = {"status": "skipped", "reason": "cancelled"}
    elif store is not None:
        cache_info = _cache_store_result(
            kind,
            policy.value,
            store,
            key,
            mapped,
            config,
            request.seed,
            solution,
            elapsed,
        )
        if warm_info is not None:
            cache_info["warm"] = warm_info
    record = None
    if ledger is not None:
        quality = (
            obs_ledger.quality_from_bipartition(solution)
            if kind == "bipartition"
            else obs_ledger.quality_from_kway(solution)
        )
        record = ledger.append(
            obs_ledger.build_record(
                kind=kind,
                circuit=mapped.name,
                mapped=mapped,
                config=config,
                seed=request.seed,
                quality=quality,
                convergence=obs_ledger.distill_convergence(events),
                elapsed_seconds=elapsed,
                runner_summary=log.as_record() if log is not None else None,
                trace_id=trace_id,
            )
        )
    return RunResult(
        kind=kind,
        solution=solution,
        run_log=log,
        metrics=_metrics_snapshot(),
        elapsed_seconds=elapsed,
        run_record=record,
        cache_info=cache_info,
    )


def cached_result(
    request: PartitionRequest,
    *,
    store: Optional[cache_store.SolutionCache] = None,
    mapped: Optional[MappedNetlist] = None,
) -> Optional[RunResult]:
    """A :class:`RunResult` for ``request`` served purely from the
    solution cache, or ``None`` when no trustworthy entry exists.

    No solve ever happens here: a hit is decoded, re-verified
    (verify-before-trust, like :func:`run_request`'s ``cache="use"``
    path) and wrapped exactly as a warm :func:`run_request` call would
    return it -- ``elapsed_seconds`` is the original solve wall-clock.
    ``mapped`` defaults to the request's base netlist from the
    mapped-netlist index, so a repeat lookup is one shard read plus the
    verify, independent of how expensive the netlist was to build.
    """
    if store is None:
        store = cache_store.resolve_cache()
    if mapped is None:
        mapped = map(
            request.circuit, scale=request.scale, seed=request.mapping_seed
        ).solution
    # ``mapped`` is the *base* netlist; a carried delta applies here so
    # the key and the verify target are both the post-delta netlist.
    key = request.cache_key(mapped)
    mapped, _ = request.apply_delta(mapped)
    reg = get_registry()
    with reg.trace_scope(request.trace_id):
        hit = _cache_try_hit(request.verb, store, key, mapped)
        if hit is None:
            return None
        result = _cache_hit_result(request.verb, store, key, hit[0], hit[1])
        if reg.enabled and request.trace_id is not None:
            reg.counter(
                series("runs.completed", trace=request.trace_id, verb=request.verb)
            ).inc()
    return result


def analyze(metrics_path: str) -> RunResult:
    """Validate a JSONL observability trace and summarize it.

    ``solution`` is a dict with ``events`` (parsed event dicts),
    ``problems`` (schema violations, empty for a conforming stream) and
    ``summary`` (the human-readable report).
    """
    start = perf_counter()
    events, problems = validate_jsonl_file(metrics_path)
    summary = summarize_events(events) if events else ""
    return RunResult(
        kind="analyze",
        solution={"events": events, "problems": problems, "summary": summary},
        metrics=_metrics_snapshot(),
        elapsed_seconds=perf_counter() - start,
    )


__all__ = [
    "SCHEMA_VERSION",
    "RESULT_SCHEMA_NAME",
    "RunResult",
    "PartitionRequest",
    "Algorithm",
    "CachePolicy",
    "MultilevelMode",
    "load",
    "map",
    "run_request",
    "cached_result",
    "analyze",
]
