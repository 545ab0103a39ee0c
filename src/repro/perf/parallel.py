"""Deterministic process-pool fan-out for the multi-start partitioners.

Three fan-out points, all with the same contract:

* :func:`parallel_best_of_runs_fm` -- plain FM multi-start;
* :func:`parallel_best_of_runs_replication` -- replication-aware multi-start;
* :class:`CarveBandPool` -- the k-way carver's per-fill-band candidate scan;
* :class:`BatchJobPool` -- whole-job fan-out for the batch scheduler
  (:mod:`repro.batch.scheduler`), one ``repro.api.run_request`` per task
  with a worker-local solution cache.

**Determinism.**  Work items (derived seeds, carve candidates) are
generated in exactly the order the sequential loop would generate them,
dispatched to a :class:`concurrent.futures.ProcessPoolExecutor`, and
reduced *in submission order* with the same comparison the sequential
loop uses.  For a given seed the winner is therefore identical to
``jobs=1`` -- parallelism changes wall-clock, never results -- as long as
no deadline expires mid-scan (an expired :class:`~repro.robust.budget.Budget`
truncates the sequential scan at a timing-dependent point, so no mode is
deterministic then).

**Budgets.**  Monotonic-clock deadlines are process-local, so a parent
``Budget`` object cannot be shipped to workers.  Instead each fan-out
captures ``budget.remaining()`` once at dispatch and every worker builds
a fresh budget with that allotment; workers then wind down cooperatively
on their own clocks, within a second-order skew of the parent deadline.

Workers receive the (picklable) hypergraph once via the pool initializer
and rebuild the shared read-only tables
(:class:`~repro.hypergraph.compact.CompactHypergraph`,
:class:`~repro.partition.fm_replication.ReplicationTables`) locally, so
per-task payloads stay a few dozen bytes.

**Fault injection.**  Every pool captures the parent's active
:mod:`repro.robust.faults` plans (:func:`~repro.robust.faults.export_spec`)
at construction and replays them through each worker's initializer
(:func:`~repro.robust.faults.install_spec`), so injected faults fire in
children, not just the parent.  Hit counters are per-worker -- a fresh
plan per process keeps drills deterministic regardless of job placement.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.robust import faults
from repro.robust.budget import Budget


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0``/negative mean "all cores"."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _budget_allotment(budget: Optional[Budget]) -> Tuple[Optional[float], bool]:
    """Capture a budget as picklable (remaining seconds, graceful) state."""
    if budget is None:
        return None, True
    remaining = budget.remaining()
    return (None if remaining == float("inf") else remaining), budget.graceful


def _rebuild_budget(
    remaining: Optional[float], graceful: bool, limited: bool
) -> Optional[Budget]:
    """Worker-side budget from the captured allotment."""
    if not limited:
        return None
    return Budget(remaining, graceful=graceful)


# ---------------------------------------------------------------------------
# Per-worker metric aggregation
# ---------------------------------------------------------------------------
#
# Worker processes start with the disabled default registry, so solver
# metrics recorded inside a worker would be lost.  When the *parent's*
# registry is enabled at dispatch, each task runs under a fresh enabled
# worker-local registry and ships its picklable snapshot back with the
# result; the parent folds the snapshots into its active registry in
# submission order (counters add, gauges last-write-wins, histograms
# bucket-wise), so ``jobs=N`` metrics match ``jobs=1`` up to span records
# (worker spans stay in the worker; only metric values travel).
#
# The context shipped through the initializer also carries the parent's
# trace id (stamped onto every worker-side record) and, when set, a
# ``trace_dir``: each worker then appends its spans/events to a
# per-process ``worker-<pid>.jsonl`` stream in that directory, which
# ``repro.obs.export`` merges back into one timeline on the trace id.


def _parent_obs_context() -> Optional[Dict[str, Any]]:
    """Picklable observability context for pool workers (``None`` = off)."""
    from repro.obs.metrics import get_registry

    reg = get_registry()
    if not reg.enabled:
        return None
    return {"trace": reg.trace_id, "trace_dir": reg.trace_dir}


def _call_with_obs(obs_ctx: Optional[Dict[str, Any]], fn):
    """Run ``fn`` in a worker; returns ``(result, snapshot-or-None)``."""
    if not obs_ctx:
        return fn(), None
    from repro.obs.events import JsonlEmitter
    from repro.obs.metrics import MetricsRegistry, use_registry

    emitter = None
    trace_dir = obs_ctx.get("trace_dir")
    if trace_dir:
        emitter = JsonlEmitter(
            os.path.join(trace_dir, f"worker-{os.getpid()}.jsonl"), append=True
        )
    reg = MetricsRegistry(
        enabled=True, emitter=emitter, trace_id=obs_ctx.get("trace")
    )
    try:
        with use_registry(reg):
            reg.emit_meta()
            result = fn()
        return result, reg.snapshot()
    finally:
        if emitter is not None:
            reg.close()


def _merge_worker_pairs(pairs: List[Tuple[Any, Optional[Dict[str, Any]]]]) -> List[Any]:
    """Unwrap ``(result, snapshot)`` pairs, folding snapshots into the
    parent's active registry in submission order."""
    from repro.obs.metrics import get_registry

    reg = get_registry()
    merge = reg.enabled
    results: List[Any] = []
    for result, snap in pairs:
        results.append(result)
        if merge and snap:
            reg.merge_snapshot(snap)
    if merge:
        reg.counter("parallel.tasks").inc(len(results))
    return results


# ---------------------------------------------------------------------------
# FM multi-start
# ---------------------------------------------------------------------------

_FM_CTX: Optional[
    Tuple[Any, Any, Any, Optional[float], bool, bool, Optional[Dict[str, Any]]]
] = None


def _fm_init(
    hg, base_config, remaining, graceful, limited, obs_ctx, fault_spec
) -> None:
    from repro.hypergraph.compact import CompactHypergraph

    global _FM_CTX
    faults.install_spec(fault_spec)
    compact = CompactHypergraph.from_hypergraph(hg)
    _FM_CTX = (hg, compact, base_config, remaining, graceful, limited, obs_ctx)


def _fm_task(seed: int):
    from repro.partition.fm import fm_bipartition

    assert _FM_CTX is not None
    hg, compact, base, remaining, graceful, limited, obs_ctx = _FM_CTX
    config = replace(
        base, seed=seed, budget=_rebuild_budget(remaining, graceful, limited)
    )
    return _call_with_obs(
        obs_ctx, lambda: fm_bipartition(hg, config, compact=compact)
    )


def parallel_fm_results(hg, base_config, seeds: Sequence[int], jobs: int) -> List[Any]:
    """Run one FM per seed over a process pool; results in seed order."""
    remaining, graceful = _budget_allotment(base_config.budget)
    limited = base_config.budget is not None
    ship = replace(base_config, budget=None)
    workers = max(1, min(resolve_jobs(jobs), len(seeds)))
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_fm_init,
        initargs=(
            hg, ship, remaining, graceful, limited,
            _parent_obs_context(), faults.export_spec(),
        ),
    ) as ex:
        return _merge_worker_pairs(list(ex.map(_fm_task, seeds)))


def parallel_best_of_runs_fm(hg, runs: int, base_config, jobs: int):
    """Process-pool counterpart of :func:`repro.partition.fm.best_of_runs`.

    Returns ``(best FMResult, all cut sizes)`` with the winner the
    sequential loop would pick (ordered reduction, ``<`` on cut size).
    """
    seeds = [base_config.seed * 7919 + run for run in range(runs)]
    results = parallel_fm_results(hg, base_config, seeds, jobs)
    best = None
    cuts: List[int] = []
    for result in results:
        cuts.append(result.cut_size)
        if best is None or result.cut_size < best.cut_size:
            best = result
    assert best is not None
    return best, cuts


# ---------------------------------------------------------------------------
# Replication multi-start
# ---------------------------------------------------------------------------

_REPL_CTX: Optional[
    Tuple[Any, Any, Any, Optional[float], bool, bool, Optional[Dict[str, Any]]]
] = None


def _repl_init(
    hg, base_config, remaining, graceful, limited, obs_ctx, fault_spec
) -> None:
    from repro.partition.fm_replication import ReplicationTables

    global _REPL_CTX
    faults.install_spec(fault_spec)
    tables = ReplicationTables(hg)
    _REPL_CTX = (hg, tables, base_config, remaining, graceful, limited, obs_ctx)


def _repl_task(seed: int):
    from repro.partition.fm_replication import replication_bipartition

    assert _REPL_CTX is not None
    hg, tables, base, remaining, graceful, limited, obs_ctx = _REPL_CTX
    config = replace(
        base, seed=seed, budget=_rebuild_budget(remaining, graceful, limited)
    )
    return _call_with_obs(
        obs_ctx, lambda: replication_bipartition(hg, config, tables=tables)
    )


def parallel_replication_results(
    hg, base_config, seeds: Sequence[int], jobs: int
) -> List[Any]:
    """Run one replication-FM per seed over a process pool, in seed order."""
    remaining, graceful = _budget_allotment(base_config.budget)
    limited = base_config.budget is not None
    ship = replace(base_config, budget=None)
    workers = max(1, min(resolve_jobs(jobs), len(seeds)))
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_repl_init,
        initargs=(
            hg, ship, remaining, graceful, limited,
            _parent_obs_context(), faults.export_spec(),
        ),
    ) as ex:
        return _merge_worker_pairs(list(ex.map(_repl_task, seeds)))


def parallel_best_of_runs_replication(hg, runs: int, base_config, jobs: int):
    """Process-pool counterpart of
    :func:`repro.partition.fm_replication.best_of_runs`."""
    seeds = [base_config.seed * 7919 + run for run in range(runs)]
    results = parallel_replication_results(hg, base_config, seeds, jobs)
    best = None
    cuts: List[int] = []
    for result in results:
        cuts.append(result.cut_size)
        if best is None or result.cut_size < best.cut_size:
            best = result
    assert best is not None
    return best, cuts


# ---------------------------------------------------------------------------
# Multilevel V-cycle multi-start
# ---------------------------------------------------------------------------

_ML_CTX: Optional[
    Tuple[Any, Any, Any, Optional[float], bool, bool, Optional[Dict[str, Any]]]
] = None


def _ml_init(
    hg, base_config, remaining, graceful, limited, obs_ctx, fault_spec
) -> None:
    from repro.hypergraph.compact import CompactHypergraph

    global _ML_CTX
    faults.install_spec(fault_spec)
    compact = CompactHypergraph.from_hypergraph(hg)
    _ML_CTX = (hg, compact, base_config, remaining, graceful, limited, obs_ctx)


def _ml_task(seed: int):
    from repro.partition.multilevel import vcycle_bipartition

    assert _ML_CTX is not None
    hg, compact, base, remaining, graceful, limited, obs_ctx = _ML_CTX
    config = replace(
        base, seed=seed, budget=_rebuild_budget(remaining, graceful, limited)
    )
    return _call_with_obs(
        obs_ctx, lambda: vcycle_bipartition(hg, config, compact=compact)
    )


def parallel_multilevel_results(
    hg, base_config, seeds: Sequence[int], jobs: int
) -> List[Any]:
    """Run one multilevel V-cycle per seed over a process pool, in seed order."""
    remaining, graceful = _budget_allotment(base_config.budget)
    limited = base_config.budget is not None
    ship = replace(base_config, budget=None)
    workers = max(1, min(resolve_jobs(jobs), len(seeds)))
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_ml_init,
        initargs=(
            hg, ship, remaining, graceful, limited,
            _parent_obs_context(), faults.export_spec(),
        ),
    ) as ex:
        return _merge_worker_pairs(list(ex.map(_ml_task, seeds)))


# ---------------------------------------------------------------------------
# K-way carve candidate scan
# ---------------------------------------------------------------------------

_CARVE_CTX: Optional[
    Tuple[
        Any, Any, frozenset, Dict[str, Any], Any,
        Optional[float], bool, bool, Optional[Dict[str, Any]],
    ]
] = None


def _carve_init(
    hg, pseudo, proto, ml_spec, remaining, graceful, limited, obs_ctx, fault_spec
) -> None:
    from repro.partition.fm_replication import ReplicationTables

    global _CARVE_CTX
    faults.install_spec(fault_spec)
    tables = ReplicationTables(hg)
    hierarchy = None
    if ml_spec is not None:
        # Same construction as the sequential scan: seeded from the k-way
        # config seed with the scan's fixed set, so every worker builds
        # the identical coarsening stack and jobs=N candidates match
        # jobs=1 bit for bit.
        from repro.hypergraph.compact import CompactHypergraph
        from repro.partition.multilevel import (
            MultilevelConfig,
            MultilevelHierarchy,
        )

        hierarchy = MultilevelHierarchy(
            CompactHypergraph.from_hypergraph(hg),
            MultilevelConfig(
                seed=ml_spec["seed"],
                max_passes=ml_spec["max_passes"],
                fixed=dict(proto["fixed"]),
                budget=_rebuild_budget(remaining, graceful, limited),
            ),
        )
    _CARVE_CTX = (
        hg, tables, frozenset(pseudo), proto, hierarchy,
        remaining, graceful, limited, obs_ctx,
    )


def _carve_task(task: Tuple[int, int, int, int]):
    from repro.partition.fm_replication import ReplicationConfig, ReplicationEngine
    from repro.partition.kway import _engine_outcome

    assert _CARVE_CTX is not None
    (
        hg, tables, pseudo, proto, hierarchy,
        remaining, graceful, limited, obs_ctx,
    ) = _CARVE_CTX
    device_index, seed, lo0, hi0 = task
    config = ReplicationConfig(
        seed=seed,
        side0_bounds=(lo0, hi0),
        budget=_rebuild_budget(remaining, graceful, limited),
        **proto,
    )

    def run():
        initial = None
        if hierarchy is not None:
            initial, _, _ = hierarchy.solve(seed, side0_bounds=(lo0, hi0))
        engine = ReplicationEngine(hg, config, initial=initial, tables=tables)
        engine.run()
        return _engine_outcome(engine, pseudo, device_index)

    return _call_with_obs(obs_ctx, run)


# ---------------------------------------------------------------------------
# Batch job fan-out
# ---------------------------------------------------------------------------

_BATCH_CTX: Optional[Tuple[Optional[str], str, Optional[Dict[str, Any]]]] = None


def _batch_init(
    cache_dir: Optional[str],
    cache_policy: str,
    obs_ctx: Optional[Dict[str, Any]],
    fault_spec: Optional[List[Dict[str, Any]]] = None,
) -> None:
    global _BATCH_CTX
    faults.install_spec(fault_spec)
    _BATCH_CTX = (cache_dir, cache_policy, obs_ctx)
    if cache_dir:
        from repro.cache.store import SolutionCache, set_cache

        set_cache(SolutionCache(cache_dir))


def _batch_task(job):
    from repro.batch.worker import execute_job
    from repro.robust.budget import CancelFlag, cancel_scope

    assert _BATCH_CTX is not None
    _, policy, obs_ctx = _BATCH_CTX
    # Install the job's cancellation sentinel for the duration of the
    # solve: any Budget the solvers poll reports expired once the
    # submitting side (the service's DELETE handler) touches the file,
    # so a cancelled job frees its worker slot at the next checkpoint
    # instead of running to its deadline.
    flag = CancelFlag(job.cancel_path) if getattr(job, "cancel_path", None) else None
    with cancel_scope(flag):
        return _call_with_obs(obs_ctx, lambda: execute_job(job, cache=policy))


class BatchJobPool:
    """A process pool running whole batch jobs (one ``run_request`` each).

    Unlike the solver-level pools above, tasks here are coarse -- a full
    ``partition``/``bipartition`` run -- so the pool is built once per
    batch and jobs are ``submit``-ed individually (the scheduler needs
    per-job futures for deadline-aware collection, not an ordered map).
    Each worker installs the batch's solution cache at startup
    (:func:`repro.cache.store.set_cache`), so every job in every worker
    reads and writes the same sharded store; the atomic tmp+rename
    writes make concurrent same-key stores race benignly.

    :meth:`collect` unwraps a future's ``(outcome, metrics snapshot)``
    pair, folding worker metrics into the parent registry exactly like
    the solver pools do.
    """

    def __init__(
        self,
        cache_dir: Optional[str],
        cache_policy: str,
        jobs: int,
    ) -> None:
        self._ex = ProcessPoolExecutor(
            max_workers=resolve_jobs(jobs),
            initializer=_batch_init,
            initargs=(
                cache_dir, cache_policy, _parent_obs_context(),
                faults.export_spec(),
            ),
        )

    def submit(self, job):
        return self._ex.submit(_batch_task, job)

    @staticmethod
    def collect(future, timeout: Optional[float] = None):
        """The job outcome from a future (may raise ``TimeoutError``)."""
        pair = future.result(timeout=timeout)
        return _merge_worker_pairs([pair])[0]

    def close(self) -> None:
        self._ex.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "BatchJobPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CarveBandPool:
    """A per-carve-level worker pool for the candidate scan.

    Built once per carve level (the hypergraph changes between levels);
    :meth:`evaluate` maps a band's candidate plan -- ``(device index,
    seed, lo0, hi0)`` tuples in sequential scan order -- to
    :class:`~repro.partition.kway._CarveOutcome` records (or ``None`` for
    no-progress candidates) *in plan order*, so the caller's reduction
    sees exactly the sequential sequence.
    """

    def __init__(
        self,
        hg,
        pseudo: Sequence[int],
        proto: Dict[str, Any],
        budget: Optional[Budget],
        jobs: int,
        ml_spec: Optional[Dict[str, Any]] = None,
    ) -> None:
        remaining, graceful = _budget_allotment(budget)
        self._ex = ProcessPoolExecutor(
            max_workers=resolve_jobs(jobs),
            initializer=_carve_init,
            initargs=(
                hg, tuple(pseudo), proto, ml_spec, remaining, graceful,
                budget is not None, _parent_obs_context(), faults.export_spec(),
            ),
        )

    def evaluate(self, plan: Sequence[Tuple[int, int, int, int]]) -> List[Any]:
        return _merge_worker_pairs(list(self._ex.map(_carve_task, plan)))

    def close(self) -> None:
        self._ex.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "CarveBandPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
