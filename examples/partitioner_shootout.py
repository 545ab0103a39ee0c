#!/usr/bin/env python3
"""Partitioner shootout: FM vs spectral vs annealing vs multilevel vs
FM + functional replication, on one circuit.

Situates the DAC'94 engine among the era's alternatives (the paper's
related-work section) and shows the combined multilevel + replication flow
the paper's conclusion anticipates.

Run:  python examples/partitioner_shootout.py [circuit] [scale]
"""

import sys
import time

from repro import benchmark_circuit, build_hypergraph, technology_map
from repro.partition.annealing import AnnealingConfig, annealing_bipartition
from repro.partition.multilevel import MultilevelConfig, vcycle_bipartition
from repro.partition.fm import FMConfig, fm_bipartition
from repro.partition.fm_replication import ReplicationConfig, replication_bipartition
from repro.partition.spectral import SpectralConfig, spectral_bipartition


def main() -> None:
    circuit = sys.argv[1] if len(sys.argv) > 1 else "s9234"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.25
    netlist = benchmark_circuit(circuit, scale=scale, seed=1)
    mapped = technology_map(netlist)
    hg = build_hypergraph(mapped, include_terminals=False)
    print(f"{circuit} @ scale {scale}: {hg.n_cells} CLB cells, "
          f"{len(hg.nets)} nets\n")
    print(f"{'algorithm':<28} {'cut':>6} {'seconds':>8}  notes")

    def show(label, fn, note=""):
        start = time.perf_counter()
        cut = fn()
        elapsed = time.perf_counter() - start
        print(f"{label:<28} {cut:>6} {elapsed:>8.2f}  {note}")

    show("FM min-cut [15]", lambda: fm_bipartition(hg, FMConfig(seed=1)).cut_size)
    if hg.n_cells <= 3000:
        show(
            "spectral + FM [8]",
            lambda: spectral_bipartition(hg, SpectralConfig(seed=1)).cut_size,
        )
    show(
        "simulated annealing",
        lambda: annealing_bipartition(hg, AnnealingConfig(seed=1)).cut_size,
    )
    show(
        "multilevel FM [17]",
        lambda: vcycle_bipartition(hg, MultilevelConfig(seed=1)).cut_size,
    )
    show(
        "FM + functional repl (DAC'94)",
        lambda: replication_bipartition(
            hg, ReplicationConfig(seed=1, threshold=0)
        ).cut_size,
    )
    show(
        "multilevel + functional repl",
        lambda: vcycle_bipartition(
            hg, MultilevelConfig(seed=1, replication_refine=True)
        ).final_cut,
        note="the paper's suggested combination",
    )


if __name__ == "__main__":
    main()
