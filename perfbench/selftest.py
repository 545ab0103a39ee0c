"""Self-test of the benchmark at a tiny input size.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that:

* for every workload in ``BENCHMARK.json``, the command prints every
  end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) with the unit ``BENCHMARK.json`` gives, and its answers
  pass their checks;
* the correctness checks fail on a corrupted cache entry and on a wrong cut;
* the command exits non-zero without printing a result in a directory that
  holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def run_command(cwd: str, workload: str, trace: int, history: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny",
         "--history", history],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_outputs(spec: dict, workdir: str) -> None:
    history = os.path.join(workdir, "history.jsonl")
    for workload in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_command(ROOT, workload["name"], trace, history)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert result["attempted"] >= 1
            units = {m["name"]: m["unit"] for m in wanted}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == units, (workload["name"], trace, set(got) ^ set(units))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            print(f"ok: {workload['name']} trace={trace} prints {len(units)} metrics")
    with open(history, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == 2 * len(spec["workloads"])
    assert all("host.calib_s" in line and "hash_seed" in line for line in lines)


def check_corrupt_entry(workdir: str) -> None:
    from repro import api
    from repro.cache.codec import encode_solution
    from repro.cache.store import SolutionCache, use_cache
    from repro.request import PartitionRequest

    import workloads

    req = PartitionRequest(verb="partition", circuit="s5378", scale=0.05, seed=1,
                           cache="use")
    with use_cache(SolutionCache(os.path.join(workdir, "cache"))):
        cold = api.run_request(req)
        stored = workloads.solution_doc(encode_solution(cold.solution))
        hit = api.run_request(req)
        assert not workloads.replay_problems(
            stored, hit.cache_info["status"],
            workloads.solution_doc(encode_solution(hit.solution)))
        path = cold.cache_info["path"]
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["solution"]["blocks"][0]["terminals"] += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        replay = api.run_request(req)
        problems = workloads.replay_problems(
            stored, replay.cache_info["status"],
            workloads.solution_doc(encode_solution(replay.solution)))
    assert problems, "a corrupted cache entry passed the replay check"
    print(f"ok: corrupted cache entry is caught ({problems[0]})")


def check_wrong_cut() -> None:
    from repro.hypergraph.build import build_hypergraph
    from repro.partition.multilevel import MultilevelConfig, vcycle_bipartition
    from repro.techmap.mapped import technology_map

    import workloads

    hg = build_hypergraph(technology_map(workloads.rent_netlist(3, 300)),
                          include_terminals=False)
    result = vcycle_bipartition(hg, MultilevelConfig(seed=1))
    assert not workloads.cut_problems(hg, result.assignment, result.final_cut)
    problems = workloads.cut_problems(hg, result.assignment, result.final_cut + 1)
    assert problems, "a wrong cut passed the cut check"
    print(f"ok: wrong cut is caught ({problems[0]})")


def check_fails_without_source(workdir: str) -> None:
    bare = os.path.join(workdir, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_command(bare, "cold_kway", 0, os.path.join(bare, "h.jsonl"))
    assert proc.returncode != 0, "ran without the package source"
    assert '"correct"' not in proc.stdout, "printed a result without the source"
    print("ok: exits non-zero without the package source")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, ".work"))
    try:
        check_outputs(spec, workdir)
        check_corrupt_entry(workdir)
        check_wrong_cut()
        check_fails_without_source(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
