"""Warm-start repartitioning: the repair engine and the api front door."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import api
from repro.cache.store import SolutionCache, build_entry, nearest_ancestor, use_cache
from repro.core.flow import kway_solution
from repro.netlist.benchmarks import benchmark_circuit
from repro.partition.incremental import (
    DEFAULT_MAX_DIRTY_FRACTION,
    IncrementalConfig,
    incremental_partition,
)
from repro.partition.verify import verify_solution
from repro.request import PartitionRequest
from repro.robust.errors import DeltaError
from repro.techmap.delta import DeltaOp, DirtyRegion, NetlistDelta, seeded_delta
from repro.techmap.mapped import technology_map


@pytest.fixture(scope="module")
def eco_mapped():
    """s5378 at the scale where the cold carve replicates (k=2)."""
    return technology_map(benchmark_circuit("s5378", scale=0.25, seed=7))


@pytest.fixture(scope="module")
def previous(eco_mapped):
    return kway_solution(eco_mapped, threshold=1, n_solutions=1, seed=7)


def _removal_delta(mapped, previous):
    """A delta removing one replicated, non-PO cell (readers rewired)."""
    po = set(mapped.primary_outputs)
    victim = next(
        c
        for name in sorted(previous.replicated_cells)
        for c in mapped.cells
        if c.name == name and not set(c.outputs) & po
    )
    outs = set(victim.outputs)
    pis = sorted(mapped.primary_inputs)
    ops = [DeltaOp(op="remove_cell", cell=victim.name)]
    for cell in mapped.cells:
        if cell.name == victim.name:
            continue
        for pin, net in enumerate(cell.inputs):
            if net in outs:
                target = next(p for p in pis if p not in cell.inputs)
                ops.append(
                    DeltaOp(op="rewire_pin", cell=cell.name, pin=pin, net=target)
                )
    return victim.name, NetlistDelta(ops=tuple(ops))


class TestRepairEngine:
    def test_warm_repair_verifies_and_keeps_cost(self, eco_mapped, previous):
        delta = seeded_delta(eco_mapped, fraction=0.01, seed=0)
        new_mapped, dirty = delta.apply(eco_mapped)
        solution, info = incremental_partition(
            new_mapped, previous, dirty, IncrementalConfig(seed=7)
        )
        assert info["mode"] == "warm", info
        assert solution is not None and solution.feasible
        assert verify_solution(new_mapped, solution) == []
        assert solution.cost.total_cost <= previous.cost.total_cost * 1.25

    def test_removing_a_replicated_cell_collapses_it(
        self, eco_mapped, previous
    ):
        assert previous.replicated_cells, "fixture must replicate"
        victim, delta = _removal_delta(eco_mapped, previous)
        new_mapped, dirty = delta.apply(eco_mapped)
        assert all(c.name != victim for c in new_mapped.cells)
        solution, info = incremental_partition(
            new_mapped, previous, dirty, IncrementalConfig(seed=7)
        )
        assert info["mode"] == "warm", info
        instances = [
            orig for block in solution.blocks for orig in block.originals
            if orig == victim
        ]
        assert instances == []
        assert victim not in solution.replicated_cells
        assert verify_solution(new_mapped, solution) == []

    def test_large_dirty_region_declines(self, eco_mapped, previous):
        names = frozenset(c.name for c in eco_mapped.cells)
        dirty = DirtyRegion(
            cells=names, touched_nets=frozenset(), n_cells=len(names)
        )
        assert dirty.fraction > DEFAULT_MAX_DIRTY_FRACTION
        solution, info = incremental_partition(
            eco_mapped, previous, dirty, IncrementalConfig(seed=7)
        )
        assert solution is None
        assert info["mode"] == "cold"
        assert "dirty fraction" in info["reason"]

    def test_truncated_previous_declines(self, eco_mapped, previous):
        truncated = dataclasses.replace(previous, truncated=True)
        delta = seeded_delta(eco_mapped, fraction=0.01, seed=0)
        new_mapped, dirty = delta.apply(eco_mapped)
        solution, info = incremental_partition(
            new_mapped, truncated, dirty, IncrementalConfig(seed=7)
        )
        assert solution is None
        assert "truncated" in info["reason"]


class TestApiFrontDoor:
    @pytest.fixture()
    def store(self, tmp_path):
        return SolutionCache(str(tmp_path / "cache"))

    @pytest.fixture()
    def base_request(self):
        return PartitionRequest(
            verb="partition", circuit="s5378", scale=0.25, seed=7, threshold=1,
            n_solutions=1,
        )

    def _eco_request(self, delta, **kwargs):
        return PartitionRequest(
            verb="partition", circuit="s5378", scale=0.25, seed=7, threshold=1,
            n_solutions=1, delta=delta.to_dict(), **kwargs,
        )

    def test_empty_delta_is_a_pure_cache_hit(
        self, eco_mapped, store, base_request
    ):
        empty = NetlistDelta()
        with use_cache(store):
            cold = api.run_request(
                base_request, circuit=eco_mapped, cache="use"
            )
            assert cold.cache_info["status"] == "miss"
            hit = api.run_request(
                self._eco_request(empty), circuit=eco_mapped, cache="use"
            )
        assert hit.cache_info["status"] == "hit"
        assert json.dumps(
            hit.to_dict()["solution"], sort_keys=True
        ) == json.dumps(cold.to_dict()["solution"], sort_keys=True)

    def test_warm_solve_and_bit_identical_replay(
        self, eco_mapped, store, base_request
    ):
        delta = seeded_delta(eco_mapped, fraction=0.01, seed=0)
        with use_cache(store):
            api.run_request(base_request, circuit=eco_mapped, cache="use")
            warm = api.run_request(
                self._eco_request(delta), circuit=eco_mapped, cache="use"
            )
            replay = api.run_request(
                self._eco_request(delta), circuit=eco_mapped, cache="use"
            )
        warm_info = warm.cache_info["warm"]
        assert warm_info["mode"] == "warm"
        assert warm_info["dirty_cells"] > 0
        assert replay.cache_info["status"] == "hit"
        assert json.dumps(
            replay.to_dict()["solution"], sort_keys=True
        ) == json.dumps(warm.to_dict()["solution"], sort_keys=True)

    def test_warm_start_off_forces_a_cold_solve(
        self, eco_mapped, store, base_request
    ):
        delta = seeded_delta(eco_mapped, fraction=0.01, seed=0)
        with use_cache(store):
            api.run_request(base_request, circuit=eco_mapped, cache="use")
            cold = api.run_request(
                self._eco_request(delta, warm_start="off"),
                circuit=eco_mapped,
                cache="use",
            )
        assert "warm" not in (cold.cache_info or {})
        assert cold.cache_info["status"] == "miss"

    def test_oversized_delta_falls_back_to_cold(
        self, eco_mapped, store, base_request
    ):
        delta = seeded_delta(eco_mapped, fraction=0.6, seed=0)
        with use_cache(store):
            api.run_request(base_request, circuit=eco_mapped, cache="use")
            result = api.run_request(
                self._eco_request(delta), circuit=eco_mapped, cache="use"
            )
        warm_info = result.cache_info["warm"]
        assert warm_info["mode"] == "cold"
        assert "dirty fraction" in warm_info["reason"]
        assert result.ok and result.solution.feasible

    def test_fixed_terminal_delta_rejected(self, eco_mapped, base_request):
        po_driver = next(
            c for c in eco_mapped.cells
            if set(c.outputs) & set(eco_mapped.primary_outputs)
        )
        delta = NetlistDelta(
            ops=(DeltaOp(op="remove_cell", cell=po_driver.name),)
        )
        with pytest.raises(DeltaError, match="fixed terminals"):
            api.run_request(
                self._eco_request(delta), circuit=eco_mapped, cache="off"
            )

    def test_stale_base_hash_rejected(self, eco_mapped):
        delta = NetlistDelta(base="0" * 64)
        request = PartitionRequest(
            verb="partition", circuit="s5378", scale=0.25, seed=7, threshold=1,
            n_solutions=1, delta=delta.to_dict(),
        )
        with pytest.raises(DeltaError, match="live netlist"):
            api.run_request(request, circuit=eco_mapped, cache="off")


class TestNearestAncestor:
    @staticmethod
    def _entry(key, netlist_hash, config_fp, seed):
        entry = build_entry(
            kind="partition",
            key=key,
            circuit="c",
            netlist_hash=netlist_hash,
            config={"verb": "partition"},
            seed=seed,
            solution={"stub": key},
            elapsed_seconds=1.0,
        )
        # nearest_ancestor ranks by the *stored* fingerprint field
        entry["config_fingerprint"] = config_fp
        return entry

    def test_prefers_exact_config_and_seed(self, tmp_path):
        store = SolutionCache(str(tmp_path))
        store.put(self._entry("aaa1", "h1", "cfgA", 1))
        store.put(self._entry("bbb2", "h1", "cfgA", 7))
        store.put(self._entry("ccc3", "h1", "cfgB", 7))
        best = nearest_ancestor(store, "h1", config_fp="cfgA", seed=7)
        assert best["key"] == "bbb2"

    def test_config_match_beats_hash_only(self, tmp_path):
        store = SolutionCache(str(tmp_path))
        store.put(self._entry("aaa1", "h1", "cfgB", 1))
        store.put(self._entry("bbb2", "h1", "cfgA", 1))
        best = nearest_ancestor(store, "h1", config_fp="cfgA", seed=7)
        assert best["key"] == "bbb2"

    def test_other_netlists_never_match(self, tmp_path):
        store = SolutionCache(str(tmp_path))
        store.put(self._entry("aaa1", "h2", "cfgA", 7))
        assert nearest_ancestor(store, "h1", config_fp="cfgA", seed=7) is None

    def test_empty_store_returns_none(self, tmp_path):
        assert nearest_ancestor(SolutionCache(str(tmp_path)), "h1") is None
