"""Spectral bipartitioning baseline (paper reference [8], Chan-Schlag-Zien).

The paper's related work includes spectral ratio-cut partitioning; this
module provides a compact Fiedler-vector bipartitioner as an additional
baseline for the experiment harness:

1. expand the hypergraph to a weighted clique graph (each net of degree d
   contributes edges of weight 1/(d-1) among its cells -- the standard
   net model, the same one the clustering pass uses);
2. compute the Fiedler vector (second-smallest Laplacian eigenvector) with
   ``numpy``;
3. sweep the sorted vector for the best balanced split, then (optionally)
   polish with one FM refinement.

Pure-numpy dense eigendecomposition bounds the practical size to a few
thousand cells, which covers the benchmark suite at experiment scales.
numpy is imported on first use, so the rest of the package works
without it; calling the baseline then raises a :class:`ReproError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import cut_size
from repro.partition.fm import FMConfig, fm_bipartition
from repro.robust.errors import ReproError


def _numpy() -> Any:
    """The numpy module, or a :class:`ReproError` saying it is missing."""
    try:
        import numpy
    except ImportError as exc:
        raise ReproError(
            "the spectral baseline needs numpy, which is not installed"
        ) from exc
    return numpy


@dataclass
class SpectralConfig:
    """Knobs for the spectral bipartitioner."""

    balance_tolerance: float = 0.02
    refine_with_fm: bool = True
    seed: int = 0
    max_cells: int = 4000  # dense eigensolve guard


@dataclass
class SpectralResult:
    assignment: List[int]
    cut_size: int
    fiedler_value: float


def _clique_laplacian(hg: Hypergraph, cells: List[int]) -> Any:
    np = _numpy()
    index = {v: i for i, v in enumerate(cells)}
    n = len(cells)
    adj = np.zeros((n, n), dtype=float)
    for net in hg.nets:
        members = [
            index[v] for v in net.node_indices() if v in index
        ]
        if len(members) < 2:
            continue
        w = 1.0 / (len(members) - 1)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                adj[u, v] += w
                adj[v, u] += w
    lap = np.diag(adj.sum(axis=1)) - adj
    return lap


def spectral_bipartition(
    hg: Hypergraph, config: Optional[SpectralConfig] = None
) -> SpectralResult:
    """Fiedler-vector bipartition of the hypergraph's cells.

    Terminals (zero-weight nodes) are assigned greedily to the side where
    most of their net's cells landed.
    """
    config = config or SpectralConfig()
    cells = hg.cell_indices()
    if len(cells) > config.max_cells:
        raise ValueError(
            f"{len(cells)} cells exceed the dense-eigensolve guard "
            f"({config.max_cells}); use FM or multilevel for this size"
        )
    if len(cells) < 2:
        assignment = [0] * len(hg.nodes)
        return SpectralResult(assignment, cut_size(hg, assignment), 0.0)

    np = _numpy()
    lap = _clique_laplacian(hg, cells)
    eigenvalues, eigenvectors = np.linalg.eigh(lap)
    fiedler = eigenvectors[:, 1]
    fiedler_value = float(eigenvalues[1])

    # Sweep the sorted Fiedler vector for the best balanced prefix.
    order = np.argsort(fiedler)
    weights = np.array([hg.nodes[cells[i]].clb_weight for i in order], dtype=float)
    total = weights.sum()
    slack = max(1.0, config.balance_tolerance * total)
    prefix = np.cumsum(weights)
    best_split = None
    best_cut = None
    assignment = [0] * len(hg.nodes)
    candidates = [
        k
        for k in range(1, len(order))
        if abs(prefix[k - 1] - total / 2) <= slack
    ]
    if not candidates:
        # fall back to the median split
        candidates = [len(order) // 2]
    for k in candidates:
        for i, pos in enumerate(order):
            assignment[cells[pos]] = 0 if i < k else 1
        cut = cut_size(hg, assignment)
        if best_cut is None or cut < best_cut:
            best_cut = cut
            best_split = k
    assert best_split is not None
    for i, pos in enumerate(order):
        assignment[cells[pos]] = 0 if i < best_split else 1

    # Terminals follow the majority side of their net.
    for node in hg.nodes:
        if node.is_cell:
            continue
        votes = [0, 0]
        for net_idx in node.adjacent_nets():
            for other, _, _ in hg.nets[net_idx].pins:
                if hg.nodes[other].is_cell:
                    votes[assignment[other]] += 1
        assignment[node.index] = 0 if votes[0] >= votes[1] else 1

    if config.refine_with_fm:
        refined = fm_bipartition(
            hg,
            FMConfig(
                seed=config.seed,
                balance_tolerance=config.balance_tolerance,
            ),
            initial=assignment,
        )
        assignment = refined.assignment

    return SpectralResult(
        assignment=assignment,
        cut_size=cut_size(hg, assignment),
        fiedler_value=fiedler_value,
    )
