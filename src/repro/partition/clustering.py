"""Legacy object-graph multilevel bipartitioning (the parity reference).

The production multilevel engine lives in
:mod:`repro.partition.multilevel`
(:func:`~repro.partition.multilevel.vcycle_bipartition`): the same
classic coarsen-solve-uncoarsen scheme, but run entirely on flat
:class:`~repro.hypergraph.compact.CompactHypergraph` arrays (an order of
magnitude faster on large netlists).  This module keeps the original
object-graph implementation as the reference the parity tests compare
the CSR engine against:

* :func:`coarsen_once` / :func:`_affinity_matching` -- the original
  object-graph coarsening step;
* :func:`_legacy_multilevel_bipartition` -- the original V-cycle.

``MultilevelConfig`` / ``MultilevelResult`` are re-exported from the
new module (the new config is a strict superset of the old one).

Terminals are never clustered, so terminal-relaxed and terminal-bearing
hypergraphs both work.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph, NodeKind, PIN_OUT
from repro.partition.fm import FMConfig, fm_bipartition
from repro.partition.fm_replication import (
    FUNCTIONAL,
    ReplicationConfig,
    ReplicationEngine,
    ReplicationResult,
)
from repro.partition.multilevel import (
    _MAX_SCORING_DEGREE,
    MultilevelConfig,
    MultilevelResult,
)

__all__ = [
    "MultilevelConfig",
    "MultilevelResult",
    "coarsen_once",
]


def _affinity_matching(
    hg: Hypergraph, rng: random.Random
) -> List[List[int]]:
    """Greedy heavy-connectivity matching; returns the coarse groups."""
    scores: List[Dict[int, float]] = [dict() for _ in hg.nodes]
    for net in hg.nets:
        members = [
            idx for idx in net.node_indices() if hg.nodes[idx].is_cell
        ]
        if len(members) < 2 or len(members) > _MAX_SCORING_DEGREE:
            continue
        w = 1.0 / (len(members) - 1)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                scores[u][v] = scores[u].get(v, 0.0) + w
                scores[v][u] = scores[v].get(u, 0.0) + w

    order = [n.index for n in hg.nodes if n.is_cell]
    rng.shuffle(order)
    matched = [False] * len(hg.nodes)
    groups: List[List[int]] = []
    for u in order:
        if matched[u]:
            continue
        best_v = -1
        best_score = 0.0
        u_weight = hg.nodes[u].weight
        for v, score in scores[u].items():
            if matched[v]:
                continue
            # Prefer light partners: keeps coarse weights balanced.
            adj = score / (1.0 + 0.1 * (hg.nodes[v].weight + u_weight))
            if adj > best_score:
                best_score = adj
                best_v = v
        matched[u] = True
        if best_v >= 0:
            matched[best_v] = True
            groups.append([u, best_v])
        else:
            groups.append([u])
    return groups


def coarsen_once(
    hg: Hypergraph, rng: random.Random
) -> Tuple[Hypergraph, List[List[int]]]:
    """One coarsening level: returns (coarse hypergraph, coarse -> fine map).

    Terminals map one-to-one; only cells merge.  Nets internal to a group
    vanish; surviving nets keep one pin per (coarse node, direction).
    """
    groups = _affinity_matching(hg, rng)
    coarse = Hypergraph(f"{hg.name}|coarse")
    fine_to_coarse: Dict[int, int] = {}
    mapping: List[List[int]] = []

    for group in groups:
        node = coarse.add_node(f"g{len(mapping)}", NodeKind.CELL)
        node.weight = sum(hg.nodes[f].weight for f in group)
        for fine in group:
            fine_to_coarse[fine] = node.index
        mapping.append(list(group))
    for fine_node in hg.nodes:
        if fine_node.is_cell:
            continue
        node = coarse.add_node(fine_node.name, fine_node.kind)
        fine_to_coarse[fine_node.index] = node.index
        mapping.append([fine_node.index])

    for net in hg.nets:
        drivers: List[int] = []
        sinks: List[int] = []
        for node_idx, direction, _ in net.pins:
            cidx = fine_to_coarse[node_idx]
            if direction == PIN_OUT:
                drivers.append(cidx)
            else:
                sinks.append(cidx)
        coarse_nodes = set(drivers) | set(sinks)
        if len(coarse_nodes) < 2:
            continue  # internal (or dead) net: vanishes at this level
        cnet = coarse.add_net(net.name)
        seen_out = set()
        seen_in = set()
        for cidx in drivers:
            if cidx not in seen_out:
                seen_out.add(cidx)
                coarse.connect_output(coarse.nodes[cidx], cnet)
        for cidx in sinks:
            if cidx in seen_in or cidx in seen_out:
                continue
            seen_in.add(cidx)
            coarse.connect_input(coarse.nodes[cidx], cnet)
    # Coarse super-cells carry no functional structure; give every output a
    # full support so the structure stays check()-clean.
    for node in coarse.nodes:
        if node.is_cell:
            node.supports = [
                tuple(range(node.n_inputs)) for _ in node.output_nets
            ]
            if not node.output_nets:
                # A group may drive only internal nets; add a dead stub so
                # the node remains a legal cell.
                stub = coarse.add_net(f"__stub:{node.name}")
                coarse.connect_output(node, stub)
                node.supports = [tuple(range(node.n_inputs))]
    return coarse, mapping


def _legacy_multilevel_bipartition(
    hg: Hypergraph,
    config: Optional[MultilevelConfig] = None,
) -> MultilevelResult:
    """The original object-graph V-cycle, kept as the parity reference."""
    config = config or MultilevelConfig()
    rng = random.Random(config.seed)

    levels: List[Tuple[Hypergraph, List[List[int]]]] = []
    current = hg
    for _ in range(config.max_levels):
        if current.n_cells <= config.min_nodes:
            break
        coarse, mapping = coarsen_once(current, rng)
        if coarse.n_cells >= current.n_cells * config.coarsening_stall_ratio:
            break
        levels.append((coarse, mapping))
        current = coarse

    # Initial solution at the coarsest level.
    result = fm_bipartition(
        current,
        FMConfig(
            seed=rng.randrange(1 << 30),
            balance_tolerance=config.balance_tolerance,
            max_passes=config.max_passes,
        ),
    )
    assignment = result.assignment

    # Uncoarsen with per-level FM refinement.
    for coarse, mapping in reversed(levels):
        fine_hg = _fine_of(levels, coarse, hg)
        fine_assignment = [0] * len(fine_hg.nodes)
        for cidx, fines in enumerate(mapping):
            for fidx in fines:
                fine_assignment[fidx] = assignment[cidx]
        refined = fm_bipartition(
            fine_hg,
            FMConfig(
                seed=rng.randrange(1 << 30),
                balance_tolerance=config.balance_tolerance,
                max_passes=config.max_passes,
            ),
            initial=fine_assignment,
        )
        assignment = refined.assignment

    final = fm_bipartition(
        hg,
        FMConfig(
            seed=rng.randrange(1 << 30),
            balance_tolerance=config.balance_tolerance,
            max_passes=config.max_passes,
        ),
        initial=assignment,
    )
    assignment = final.assignment
    replication: Optional[ReplicationResult] = None
    if config.replication_refine:
        engine = ReplicationEngine(
            hg,
            ReplicationConfig(
                seed=rng.randrange(1 << 30),
                threshold=config.threshold,
                style=FUNCTIONAL,
                balance_tolerance=config.balance_tolerance,
                max_passes=config.max_passes,
                warm_start_moves_only=False,
            ),
            initial=assignment,
        )
        replication = engine.run()

    return MultilevelResult(
        assignment=assignment,
        cut_size=final.cut_size,
        levels=len(levels) + 1,
        replication=replication,
    )


def _fine_of(
    levels: List[Tuple[Hypergraph, List[List[int]]]],
    coarse: Hypergraph,
    original: Hypergraph,
) -> Hypergraph:
    """The hypergraph one level finer than ``coarse``."""
    for i, (level_hg, _) in enumerate(levels):
        if level_hg is coarse:
            return levels[i - 1][0] if i > 0 else original
    raise ValueError("level not found")
