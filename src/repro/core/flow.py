"""End-to-end flows: the two experiments of the paper's Section IV.

* :func:`bipartition_experiment` -- experiment 1: bipartition into two
  equal-sized partitions minimizing the cut set with terminal constraints
  completely relaxed, comparing plain F-M min-cut against F-M min-cut with
  functional replication over N runs (Table III).
* :func:`kway_experiment` -- experiment 2: the k-way device-cost/interconnect
  flow for a given threshold replication potential T (Tables IV-VII).
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro.core.results import BipartitionReport, KWayReport
from repro.hypergraph.build import build_hypergraph
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.netlist import Netlist
from repro.partition.devices import DeviceLibrary, XC3000_LIBRARY
from repro.partition.fm import FMConfig, fm_bipartition
from repro.partition.fm_replication import (
    FUNCTIONAL,
    NONE,
    TRADITIONAL,
    ReplicationConfig,
    replication_bipartition,
)
from repro.partition.kway import KWayConfig, KWaySolution, best_heterogeneous_partition
from repro.partition.multilevel import (
    MultilevelConfig,
    resolve_multilevel,
    vcycle_bipartition,
)
from repro.robust.budget import Budget
from repro.robust.errors import ConfigError
from repro.techmap.mapped import MappedNetlist, technology_map

#: Engines accepted by :func:`bipartition_experiment`, strongest first.
BIPARTITION_ALGORITHMS = ("fm+functional", "fm+traditional", "fm")

#: Canonical algorithm name -> replication style of the inner engine.
_ALGORITHM_STYLE = {
    "fm+functional": FUNCTIONAL,
    "fm+traditional": TRADITIONAL,
    "fm": NONE,
}


def map_circuit(circuit: Union[str, Netlist], scale: float = 1.0, seed: int = 1994) -> MappedNetlist:
    """Resolve a benchmark name or netlist into a mapped netlist."""
    if isinstance(circuit, str):
        circuit = benchmark_circuit(circuit, scale=scale, seed=seed)
    return technology_map(circuit)


def bipartition_experiment(
    mapped: MappedNetlist,
    algorithm: str = "fm+functional",
    runs: int = 20,
    threshold: Union[int, float] = 0,
    seed: int = 0,
    balance_tolerance: float = 0.02,
    max_passes: int = 16,
    max_growth: Optional[float] = None,
    budget: Optional[Budget] = None,
    jobs: int = 1,
    multilevel: Optional[bool] = None,
) -> BipartitionReport:
    """Experiment 1: N equal-size min-cut bipartitioning runs.

    ``algorithm`` is one of ``"fm"`` (the [15] baseline), ``"fm+functional"``
    (this paper) or ``"fm+traditional"`` (the [13]-style ablation).
    Terminal constraints are relaxed by building the hypergraph without
    terminal nodes, exactly as the paper's first experiment does.

    A ``budget`` is threaded into every inner run (which then winds down
    cooperatively) and checked between runs: when it expires, the report
    covers the runs completed so far (always at least one).

    ``jobs > 1`` fans the runs out over a process pool; run seeds and the
    result order are identical to the sequential loop, so the report is
    deterministic per seed (as long as no budget expires mid-sweep).

    ``multilevel`` is tri-state: ``True`` runs every inner solve as a
    coarsen-solve-uncoarsen V-cycle (replication algorithms finish with a
    replication pass at the finest level), ``False`` keeps the flat
    engines, ``None`` (default) auto-enables the V-cycle on large
    netlists (:data:`repro.partition.multilevel.MULTILEVEL_AUTO_MIN_CELLS`).
    """
    if algorithm not in BIPARTITION_ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    hg = build_hypergraph(mapped, include_terminals=False)
    use_ml = resolve_multilevel(multilevel, hg.n_cells)
    cuts = []
    replicated = []
    start = time.perf_counter()
    if use_ml:
        style = _ALGORITHM_STYLE[algorithm]
        base_ml = MultilevelConfig(
            balance_tolerance=balance_tolerance,
            max_passes=max_passes,
            threshold=threshold,
            style=style if algorithm != "fm" else FUNCTIONAL,
            replication_refine=algorithm != "fm",
            max_growth=max_growth,
            budget=budget,
        )
        seeds = [seed * 7919 + run for run in range(runs)]
        if jobs > 1:
            from repro.perf.parallel import parallel_multilevel_results

            results = parallel_multilevel_results(hg, base_ml, seeds, jobs)
        else:
            from dataclasses import replace as _replace

            from repro.hypergraph.compact import CompactHypergraph

            compact = CompactHypergraph.from_hypergraph(hg)
            results = []
            for run_seed in seeds:
                if results and budget is not None and budget.expired:
                    break
                results.append(
                    vcycle_bipartition(
                        hg, _replace(base_ml, seed=run_seed), compact=compact
                    )
                )
        cuts = [r.final_cut for r in results]
        replicated = [
            r.replication.n_replicated if r.replication is not None else 0
            for r in results
        ]
        elapsed = time.perf_counter() - start
        return BipartitionReport(
            circuit=mapped.name,
            algorithm=algorithm,
            runs=len(cuts),
            cuts=cuts,
            replicated_counts=replicated,
            elapsed_seconds=elapsed,
            n_cells=hg.n_cells,
        )
    if jobs > 1:
        from repro.perf.parallel import (
            parallel_fm_results,
            parallel_replication_results,
        )

        seeds = [seed * 7919 + run for run in range(runs)]
        if algorithm == "fm":
            base = FMConfig(
                balance_tolerance=balance_tolerance,
                max_passes=max_passes,
                budget=budget,
            )
            results = parallel_fm_results(hg, base, seeds, jobs)
            cuts = [r.cut_size for r in results]
            replicated = [0] * len(results)
        else:
            style = FUNCTIONAL if algorithm == "fm+functional" else TRADITIONAL
            base = ReplicationConfig(
                threshold=threshold,
                style=style,
                balance_tolerance=balance_tolerance,
                max_passes=max_passes,
                max_growth=max_growth,
                budget=budget,
            )
            results = parallel_replication_results(hg, base, seeds, jobs)
            cuts = [r.cut_size for r in results]
            replicated = [r.n_replicated for r in results]
        elapsed = time.perf_counter() - start
        return BipartitionReport(
            circuit=mapped.name,
            algorithm=algorithm,
            runs=len(cuts),
            cuts=cuts,
            replicated_counts=replicated,
            elapsed_seconds=elapsed,
            n_cells=hg.n_cells,
        )
    for run in range(runs):
        if cuts and budget is not None and budget.expired:
            break
        run_seed = seed * 7919 + run
        if algorithm == "fm":
            result = fm_bipartition(
                hg,
                FMConfig(
                    seed=run_seed,
                    balance_tolerance=balance_tolerance,
                    max_passes=max_passes,
                    budget=budget,
                ),
            )
            cuts.append(result.cut_size)
            replicated.append(0)
        else:
            style = FUNCTIONAL if algorithm == "fm+functional" else TRADITIONAL
            result = replication_bipartition(
                hg,
                ReplicationConfig(
                    seed=run_seed,
                    threshold=threshold,
                    style=style,
                    balance_tolerance=balance_tolerance,
                    max_passes=max_passes,
                    max_growth=max_growth,
                    budget=budget,
                ),
            )
            cuts.append(result.cut_size)
            replicated.append(result.n_replicated)
    elapsed = time.perf_counter() - start
    return BipartitionReport(
        circuit=mapped.name,
        algorithm=algorithm,
        runs=len(cuts),
        cuts=cuts,
        replicated_counts=replicated,
        elapsed_seconds=elapsed,
        n_cells=hg.n_cells,
    )


def kway_experiment(
    mapped: MappedNetlist,
    threshold: Union[int, float],
    library: Optional[DeviceLibrary] = None,
    n_solutions: int = 2,
    seed: int = 0,
    seeds_per_carve: int = 3,
    algorithm: str = "fm+functional",
    devices_per_carve: int = 3,
    budget: Optional[Budget] = None,
    jobs: int = 1,
    multilevel: Optional[bool] = None,
) -> KWayReport:
    """Experiment 2: one k-way heterogeneous partitioning data point.

    ``threshold=float('inf')`` reproduces the no-replication baseline
    (the "In [3]" columns of Tables IV-VII).  A graceful ``budget`` makes
    the flow return its best (possibly truncated) solution at expiry.
    ``jobs > 1`` fans each carve level's candidate scan over a process
    pool (deterministic per seed).

    ``algorithm`` takes the same names as :func:`bipartition_experiment`
    (``"fm+functional"``, ``"fm+traditional"``, ``"fm"``).
    """
    start = time.perf_counter()
    solution = kway_solution(
        mapped,
        threshold,
        library=library,
        n_solutions=n_solutions,
        seed=seed,
        seeds_per_carve=seeds_per_carve,
        algorithm=algorithm,
        devices_per_carve=devices_per_carve,
        budget=budget,
        jobs=jobs,
        multilevel=multilevel,
    )
    elapsed = time.perf_counter() - start
    return KWayReport(
        circuit=mapped.name,
        threshold=float(threshold),
        k=solution.k,
        total_cost=solution.cost.total_cost,
        device_counts=solution.cost.device_counts,
        avg_clb_utilization=solution.cost.avg_clb_utilization,
        avg_iob_utilization=solution.cost.avg_iob_utilization,
        replicated_fraction=solution.replicated_fraction,
        n_cells=solution.n_original_cells,
        n_instances=solution.n_instances,
        feasible=solution.feasible,
        elapsed_seconds=elapsed,
    )


def kway_solution(
    mapped: MappedNetlist,
    threshold: Union[int, float],
    library: Optional[DeviceLibrary] = None,
    n_solutions: int = 2,
    seed: int = 0,
    seeds_per_carve: int = 3,
    algorithm: str = "fm+functional",
    devices_per_carve: int = 3,
    budget: Optional[Budget] = None,
    jobs: int = 1,
    multilevel: Optional[bool] = None,
) -> KWaySolution:
    """Like :func:`kway_experiment` but returning the full solution object."""
    if algorithm not in _ALGORITHM_STYLE:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    config = KWayConfig(
        library=library or XC3000_LIBRARY,
        threshold=threshold,
        style=NONE if threshold == float("inf") else _ALGORITHM_STYLE[algorithm],
        seed=seed,
        seeds_per_carve=seeds_per_carve,
        devices_per_carve=devices_per_carve,
        budget=budget,
        jobs=jobs,
        multilevel=multilevel,
    )
    return best_heterogeneous_partition(mapped, config, n_solutions=n_solutions)
