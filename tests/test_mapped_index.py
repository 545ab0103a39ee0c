"""The per-process mapped-netlist index behind every front door.

Covers the identity rules (bundled names, ``.bench`` content, in-memory
netlists), the build-once guarantee on the hit path, verify-before-trust
on indexed netlists, and the index's bound and thread safety.
"""

import json
import os
import signal
import sys
import threading
import time

import pytest

from repro import api
from repro.cache import index as mapped_index_mod
from repro.cache.index import MAPPED_INDEX, MAPPED_INDEX_CAP, MappedIndex
from repro.cache.store import SolutionCache, use_cache
from repro.netlist.bench_io import save_bench
from repro.netlist.benchmarks import benchmark_circuit
from repro.obs import ledger as obs_ledger
from repro.partition.verify import verify_solution
from repro.request import PartitionRequest
from repro.service.server import PartitionService
from repro.techmap.mapped import technology_map

CIRCUIT = "s5378"
SCALE = 0.1


@pytest.fixture
def empty_index():
    """The process-wide index, emptied before and after the test."""
    MAPPED_INDEX.clear()
    yield MAPPED_INDEX
    MAPPED_INDEX.clear()


@pytest.fixture
def store(tmp_path):
    return SolutionCache(str(tmp_path / "cache"))


def _request(seed=5, **fields):
    return PartitionRequest(
        verb="partition", circuit=CIRCUIT, scale=SCALE, seed=seed,
        n_solutions=1, seeds_per_carve=2, devices_per_carve=2, cache="use",
        **fields,
    )


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` so calls are counted; returns the counter."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# -- identity rules ---------------------------------------------------------

def test_bundled_names_share_one_object_per_identity(empty_index):
    a = api.map(CIRCUIT, scale=SCALE, seed=3).solution
    assert api.map(CIRCUIT, scale=SCALE, seed=3).solution is a
    assert api.map(CIRCUIT, scale=SCALE, seed=4).solution is not a
    assert api.map(CIRCUIT, scale=0.12, seed=3).solution is not a


def test_in_memory_netlists_are_not_indexed(empty_index):
    netlist = benchmark_circuit(CIRCUIT, scale=SCALE, seed=3)
    first = api.map(netlist).solution
    assert api.map(netlist).solution is not first
    assert len(empty_index) == 0


def test_fingerprint_is_memoized_per_object(monkeypatch):
    mapped = technology_map(benchmark_circuit(CIRCUIT, scale=SCALE, seed=3))
    payloads = _counting(monkeypatch, obs_ledger, "_netlist_payload")
    digest = obs_ledger.netlist_fingerprint(mapped)
    assert obs_ledger.netlist_fingerprint(mapped) == digest
    assert len(payloads) == 1
    # An equal but separate object hashes to the same digest.
    twin = technology_map(benchmark_circuit(CIRCUIT, scale=SCALE, seed=3))
    assert obs_ledger.netlist_fingerprint(twin) == digest
    assert len(payloads) == 2


# -- the hit path builds nothing ----------------------------------------------

def test_hits_neither_remap_nor_rehash(empty_index, store, monkeypatch):
    maps = _counting(monkeypatch, api, "technology_map")
    payloads = _counting(monkeypatch, obs_ledger, "_netlist_payload")
    request = _request()
    with use_cache(store):
        cold = api.run_request(request)
        hits = [api.run_request(request) for _ in range(3)]
    assert cold.cache_info["status"] == "miss"
    assert [h.cache_info["status"] for h in hits] == ["hit"] * 3
    assert len(maps) == 1
    assert len(payloads) == 1


def test_tampered_entry_is_still_rejected_on_an_indexed_netlist(
    empty_index, store, monkeypatch
):
    request = _request()
    with use_cache(store):
        cold = api.run_request(request)
        assert api.run_request(request).cache_info["status"] == "hit"
        path = store.path_for(cold.cache_info["key"])
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        # Decodes fine but fails the independent checker: drop a cell.
        block = entry["solution"]["blocks"][0]
        for field in ("cells", "originals", "cell_inputs", "cell_outputs"):
            block[field] = block[field][1:]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        verdicts = []
        real_verify = api.verify_solution

        def spy(mapped, solution):
            problems = real_verify(mapped, solution)
            verdicts.append(problems)
            return problems

        monkeypatch.setattr(api, "verify_solution", spy)
        again = api.run_request(request)
    assert verdicts and verdicts[0]  # the tampered hit was checked and failed
    assert again.cache_info["status"] == "miss"
    assert again.solution.summary() == cold.solution.summary()
    fresh = technology_map(
        benchmark_circuit(CIRCUIT, scale=SCALE, seed=request.mapping_seed)
    )
    assert verify_solution(fresh, again.solution) == []


# -- .bench identity is the file's content ----------------------------------

def _write_bench(path, seed):
    save_bench(benchmark_circuit(CIRCUIT, scale=0.05, seed=seed), str(path))


def test_edited_bench_file_gets_a_new_key_and_a_fresh_solve(
    empty_index, store, tmp_path
):
    path = tmp_path / "design.bench"
    _write_bench(path, seed=1)
    request = PartitionRequest(
        verb="partition", circuit=str(path), seed=3, n_solutions=1,
        seeds_per_carve=2, devices_per_carve=2, cache="use",
    )
    service = PartitionService(cache="use", cache_dir=store.root)
    with use_cache(store):
        first = api.run_request(request)
        assert first.cache_info["status"] == "miss"
        hot = service._hot_result(request)
        assert hot["cache_info"]["key"] == first.cache_info["key"]

        _write_bench(path, seed=2)  # same path, different circuit
        assert service._hot_result(request) is None  # no stale hit
        second = api.run_request(request)
        assert second.cache_info["status"] == "miss"
        assert second.cache_info["key"] != first.cache_info["key"]
        hot = service._hot_result(request)
        assert hot["cache_info"]["key"] == second.cache_info["key"]
    edited = api.load(str(path)).solution
    assert verify_solution(technology_map(edited), second.solution) == []


def test_identical_bench_bytes_share_one_netlist(empty_index, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _write_bench(tmp_path / "a" / "design.bench", seed=1)
    _write_bench(tmp_path / "b" / "design.bench", seed=1)
    a = api.map(str(tmp_path / "a" / "design.bench")).solution
    assert api.map(str(tmp_path / "b" / "design.bench")).solution is a


# -- bound and thread safety -------------------------------------------------

def test_index_cap_is_eight(empty_index):
    assert MAPPED_INDEX_CAP == 8
    for seed in range(MAPPED_INDEX_CAP + 1):
        MAPPED_INDEX.get(("net", seed), object)
    assert len(MAPPED_INDEX) == MAPPED_INDEX_CAP


def test_index_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(mapped_index_mod, "MAPPED_INDEX_CAP", 2)
    index = MappedIndex()
    index.get("a", object)
    index.get("b", object)
    index.get("a", lambda: pytest.fail("'a' was evicted too early"))
    index.get("c", object)  # evicts "b", the least recently used
    assert len(index) == 2
    rebuilt = []
    index.get("b", lambda: rebuilt.append(1) or object())
    assert rebuilt == [1]


def _slow_build(builds, identity):
    def run():
        builds.append(identity)
        time.sleep(0.01)  # widen the window for racing builds
        return object()
    return run


def _run_threads(n, target):
    """Run ``target(i)`` on ``n`` threads released together, with frequent
    thread switches so interleavings a lock must guard actually occur."""
    barrier = threading.Barrier(n)

    def run(i):
        barrier.wait(timeout=30)
        target(i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_threads_share_one_object_per_identity():
    index = MappedIndex()
    identities = ["shared", "a", "b", "c"]
    builds = []
    seen = {identity: set() for identity in identities}
    kept = []  # keeps every returned object alive, so ids stay distinct

    def worker(i):
        # Every thread resolves all identities, each in its own order.
        for identity in identities[i % 4:] + identities[:i % 4]:
            mapped = index.get(identity, _slow_build(builds, identity))
            kept.append(mapped)
            seen[identity].add(id(mapped))

    _run_threads(12, worker)
    assert set(builds) == set(identities)
    assert all(len(objs) == 1 for objs in seen.values())


def test_threads_never_push_the_index_past_its_cap(monkeypatch):
    monkeypatch.setattr(mapped_index_mod, "MAPPED_INDEX_CAP", 3)
    index = MappedIndex()
    builds = []
    sizes = []

    def worker(i):
        for j in range(6):
            index.get(f"net{(i + j) % 10}", _slow_build(builds, i))
            sizes.append(len(index))

    _run_threads(8, worker)
    assert max(sizes) <= 3
    assert len(index) == 3


def test_failed_build_is_not_cached():
    index = MappedIndex()

    def boom():
        raise RuntimeError("mapping failed")

    with pytest.raises(RuntimeError):
        index.get("x", boom)
    assert len(index) == 0
    value = object()
    assert index.get("x", lambda: value) is value


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_resolves_while_the_parent_is_mid_build(empty_index):
    # Process-pool workers fork from a parent whose executor threads may
    # be building, or holding the index lock, at that moment.
    started, release = threading.Event(), threading.Event()

    def slow():
        started.set()
        release.wait(30)
        return object()

    builder = threading.Thread(target=MAPPED_INDEX.get, args=("x", slow))
    builder.start()
    assert started.wait(30)
    with MAPPED_INDEX._lock:  # the fork also lands with the lock held
        pid = os.fork()
        if pid == 0:  # child: must resolve "x" itself, not hang
            try:
                signal.alarm(20)
                value = object()
                os._exit(0 if MAPPED_INDEX.get("x", lambda: value) is value else 1)
            finally:
                os._exit(2)
    release.set()
    builder.join(30)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
