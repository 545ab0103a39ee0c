"""Ablation: multilevel clustering + replication (the paper's suggested combo).

The paper's conclusion: combining functional replication with clustering
"may potentially reduce the size of the cut even further".  Compare flat
FM, multilevel FM, and multilevel FM finished with a functional-replication
refinement pass; the combined flow should dominate.
"""

import statistics

from benchmarks.conftest import run_once
from repro.experiments.common import load_suite
from repro.partition.multilevel import MultilevelConfig, vcycle_bipartition
from repro.partition.fm import FMConfig, fm_bipartition

SEEDS = (0, 1, 2)


def test_bench_multilevel(benchmark, circuits, scale):
    suite = load_suite(circuits[:3], scale)

    def compute():
        rows = {}
        for sc in suite:
            flat = statistics.mean(
                fm_bipartition(sc.hg_relaxed, FMConfig(seed=s)).cut_size
                for s in SEEDS
            )
            ml = statistics.mean(
                vcycle_bipartition(
                    sc.hg_relaxed, MultilevelConfig(seed=s)
                ).cut_size
                for s in SEEDS
            )
            ml_repl = statistics.mean(
                vcycle_bipartition(
                    sc.hg_relaxed,
                    MultilevelConfig(seed=s, replication_refine=True),
                ).final_cut
                for s in SEEDS
            )
            rows[sc.name] = (flat, ml, ml_repl)
        return rows

    rows = run_once(benchmark, compute)
    print()
    for name, (flat, ml, ml_repl) in rows.items():
        print(f"{name}: flat FM={flat:.0f}  multilevel={ml:.0f}  "
              f"multilevel+replication={ml_repl:.0f}")
    flat_avg = statistics.mean(r[0] for r in rows.values())
    ml_avg = statistics.mean(r[1] for r in rows.values())
    mlr_avg = statistics.mean(r[2] for r in rows.values())
    assert ml_avg <= flat_avg * 1.05
    assert mlr_avg <= ml_avg  # replication refinement only improves
    assert mlr_avg < flat_avg  # the combined flow beats plain FM
