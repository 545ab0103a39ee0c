"""Observability layer: registry semantics, tracing, JSONL schema, and the
guarantee that instrumentation never changes solver results."""

import json

import pytest

from repro.core.flow import bipartition_experiment, kway_solution, map_circuit
from repro.hypergraph.build import build_hypergraph
from repro.obs.events import (
    EVENT_SCHEMA_NAME,
    JsonlEmitter,
    ListEmitter,
    meta_event,
    validate_event,
    validate_events,
    validate_jsonl_file,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.summary import summarize_events
from repro.obs.trace import NULL_SPAN
from repro.partition.fm import FMConfig, fm_bipartition
from repro.partition.fm_replication import ReplicationConfig, replication_bipartition


@pytest.fixture
def small_mapped():
    return map_circuit("s5378", scale=0.08, seed=1994)


@pytest.fixture
def small_hg(small_mapped):
    return build_hypergraph(small_mapped, include_terminals=False)


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry(enabled=True)
    reg.counter("a").inc()
    reg.counter("a").inc(4)
    reg.gauge("g").set(2.5)
    reg.gauge("g").set(7.0)
    h = reg.histogram("h", (1.0, 10.0))
    for v in (0.5, 5.0, 50.0, 10.0):
        h.observe(v)
    snap = reg.snapshot()
    assert snap["counters"] == {"a": 5}
    assert snap["gauges"] == {"g": 7.0}
    hs = snap["histograms"]["h"]
    # bisect_left: a value equal to a bound lands in that bound's bucket
    assert hs["counts"] == [1, 2, 1]
    assert hs["count"] == 4 and hs["min"] == 0.5 and hs["max"] == 50.0


def test_histogram_rejects_unsorted_buckets():
    reg = MetricsRegistry(enabled=True)
    with pytest.raises(ValueError):
        reg.histogram("bad", (2.0, 1.0))


def test_instruments_are_cached_per_name():
    reg = MetricsRegistry(enabled=True)
    assert reg.counter("x") is reg.counter("x")
    assert reg.gauge("y") is reg.gauge("y")
    assert reg.histogram("z", (1.0,)) is reg.histogram("z", (1.0,))


def test_disabled_registry_is_inert():
    reg = MetricsRegistry(enabled=False)
    # shared null instruments, no allocation per call
    assert reg.counter("a") is reg.counter("b")
    assert reg.gauge("a") is reg.gauge("b")
    assert reg.histogram("a", (1.0,)) is reg.histogram("b", (2.0,))
    reg.counter("a").inc(100)
    reg.gauge("a").set(9)
    reg.histogram("a", (1.0,)).observe(3)
    assert reg.span("s") is NULL_SPAN
    reg.emit_event("nope", x=1)
    reg.emit_meta()
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert reg.finished_spans == []


def test_registry_installation_is_scoped():
    assert get_registry() is NULL_REGISTRY
    mine = MetricsRegistry(enabled=True)
    with use_registry(mine):
        assert get_registry() is mine
    assert get_registry() is NULL_REGISTRY
    set_registry(mine)
    try:
        assert get_registry() is mine
    finally:
        set_registry(None)
    assert get_registry() is NULL_REGISTRY


def test_merge_snapshot_folds_worker_metrics():
    worker = MetricsRegistry(enabled=True)
    worker.counter("c").inc(3)
    worker.gauge("g").set(1.5)
    worker.histogram("h", (1.0, 2.0)).observe(0.5)
    parent = MetricsRegistry(enabled=True)
    parent.counter("c").inc(1)
    parent.histogram("h", (1.0, 2.0)).observe(5.0)
    parent.merge_snapshot(worker.snapshot())
    snap = parent.snapshot()
    assert snap["counters"]["c"] == 4
    assert snap["gauges"]["g"] == 1.5
    h = snap["histograms"]["h"]
    assert h["count"] == 2 and h["min"] == 0.5 and h["max"] == 5.0
    assert h["counts"] == [1, 0, 1]


def test_merge_snapshot_rejects_mismatched_buckets():
    worker = MetricsRegistry(enabled=True)
    worker.histogram("h", (1.0,)).observe(0.5)
    parent = MetricsRegistry(enabled=True)
    parent.histogram("h", (2.0,)).observe(0.5)
    with pytest.raises(ValueError):
        parent.merge_snapshot(worker.snapshot())


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def test_span_nesting_records_parent_and_depth():
    reg = MetricsRegistry(enabled=True)
    with reg.span("outer", level=0):
        with reg.span("inner"):
            pass
        with reg.span("inner"):
            pass
    names = [s["name"] for s in reg.finished_spans]
    assert names == ["inner", "inner", "outer"]  # exit order
    outer = reg.finished_spans[-1]
    inner1, inner2 = reg.finished_spans[:2]
    assert outer["parent"] is None and outer["depth"] == 0
    assert inner1["parent"] == outer["id"] and inner1["depth"] == 1
    assert inner2["parent"] == outer["id"] and inner2["depth"] == 1
    assert inner1["id"] != inner2["id"]
    assert outer["attrs"] == {"level": 0}
    assert all(s["dur_s"] >= 0 for s in reg.finished_spans)


def test_profile_mode_adds_cpu_seconds():
    reg = MetricsRegistry(enabled=True, profile=True)
    with reg.span("work"):
        sum(range(1000))
    record = reg.finished_spans[0]
    assert "cpu_s" in record and record["cpu_s"] >= 0
    plain = MetricsRegistry(enabled=True)
    with plain.span("work"):
        pass
    assert "cpu_s" not in plain.finished_spans[0]


# ---------------------------------------------------------------------------
# Event schema
# ---------------------------------------------------------------------------


def test_meta_event_conforms():
    assert validate_event(meta_event()) == []


def test_validate_event_rejects_malformed():
    assert validate_event([]) != []
    assert validate_event({"v": 2, "ts": 0, "kind": "meta", "name": "x"}) != []
    assert validate_event({"v": 1, "ts": 0, "kind": "wat", "name": "x"}) != []
    bad_span = {"v": 1, "ts": 0, "kind": "span", "name": "s", "id": "no",
                "parent": None, "depth": 0, "dur_s": 0.1, "attrs": {}}
    assert any("span id" in p for p in validate_event(bad_span))


def test_validate_events_requires_meta_header():
    reg = MetricsRegistry(enabled=True, emitter=ListEmitter())
    reg.counter("c").inc()
    reg.flush_metrics()
    assert any("meta" in p for p in validate_events(reg.emitter.events))
    assert validate_events([]) == ["empty event stream"]


def test_flush_metrics_and_spans_validate(tmp_path):
    path = tmp_path / "events.jsonl"
    reg = MetricsRegistry(enabled=True, emitter=JsonlEmitter(str(path)))
    reg.emit_meta()
    with reg.span("run", circuit="x"):
        reg.counter("runs").inc()
        reg.histogram("secs", (0.1, 1.0)).observe(0.05)
        reg.gauge("temp").set(3.0)
        reg.emit_event("milestone", step=1)
    reg.close()
    events, problems = validate_jsonl_file(str(path))
    assert problems == []
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "meta"
    for kind in ("span", "event", "counter", "gauge", "histogram"):
        assert kind in kinds
    # the file is valid JSON line by line (Infinity etc. would break this)
    for line in path.read_text().splitlines():
        json.loads(line)


def test_summarize_events_mentions_spans_and_counters():
    reg = MetricsRegistry(enabled=True, emitter=ListEmitter())
    reg.emit_meta()
    with reg.span("fm.run", seed=3):
        reg.counter("fm.passes").inc(2)
    reg.flush_metrics()
    text = summarize_events(reg.emitter.events)
    assert "fm.run" in text and "fm.passes" in text


# ---------------------------------------------------------------------------
# Instrumented solvers: metrics appear, results never change
# ---------------------------------------------------------------------------


def test_fm_metrics_and_equivalence(small_hg):
    config = FMConfig(seed=11)
    plain = fm_bipartition(small_hg, config)
    reg = MetricsRegistry(enabled=True)
    with use_registry(reg):
        traced = fm_bipartition(small_hg, config)
    assert traced.assignment == plain.assignment
    assert traced.cut_size == plain.cut_size
    counters = reg.snapshot()["counters"]
    assert counters["fm.runs"] == 1
    assert counters["fm.passes"] >= 1
    assert counters["fm.moves"] >= 1
    hist = reg.snapshot()["histograms"]["fm.pass_seconds"]
    assert hist["count"] == counters["fm.passes"]
    assert [s["name"] for s in reg.finished_spans] == ["fm.run"]


def test_replication_metrics_and_equivalence(small_hg):
    config = ReplicationConfig(seed=5, threshold=1)
    plain = replication_bipartition(small_hg, config)
    reg = MetricsRegistry(enabled=True)
    with use_registry(reg):
        traced = replication_bipartition(small_hg, config)
    assert traced.sides == plain.sides
    assert traced.replicas == plain.replicas
    assert traced.cut_size == plain.cut_size
    counters = reg.snapshot()["counters"]
    assert counters["repl.runs"] == 1
    assert counters["repl.passes"] >= 1
    moves = (
        counters.get("repl.moves.single", 0)
        + counters.get("repl.moves.replicate", 0)
        + counters.get("repl.moves.unreplicate", 0)
    )
    assert moves >= 1
    assert counters["repl.sgain_updates"] >= 0
    assert reg.finished_spans[-1]["name"] == "repl.run"


def test_kway_metrics_and_equivalence(small_mapped):
    def shape(solution):
        return [
            (b.device.name, sorted(b.cells), sorted(b.pads))
            for b in solution.blocks
        ]

    plain = kway_solution(small_mapped, threshold=1, seed=2, n_solutions=1)
    reg = MetricsRegistry(enabled=True, emitter=ListEmitter())
    with use_registry(reg):
        traced = kway_solution(small_mapped, threshold=1, seed=2, n_solutions=1)
    assert shape(traced) == shape(plain)
    assert traced.cost.total_cost == plain.cost.total_cost
    counters = reg.snapshot()["counters"]
    assert counters["kway.carve_levels"] == len(plain.blocks)
    assert [s["name"] for s in reg.finished_spans if s["depth"] == 0] == [
        "kway.partition"
    ]
    final_events = [
        e for e in reg.emitter.events if e.get("name") == "kway.final_block"
    ]
    assert len(final_events) == 1
    assert validate_events([meta_event()] + reg.emitter.events) == []


def test_runner_events_mirrored_into_registry(small_mapped):
    from repro.robust.runner import ResilientRunner

    reg = MetricsRegistry(enabled=True, emitter=ListEmitter())
    with use_registry(reg):
        result = ResilientRunner(max_retries=1).kway(
            small_mapped, threshold=1, seed=2
        )
    assert result.solution.feasible
    counters = reg.snapshot()["counters"]
    assert counters["runner.attempt"] == len(result.log.attempts())
    attempt_events = [
        e for e in reg.emitter.events if e.get("name") == "runner.attempt"
    ]
    assert len(attempt_events) == counters["runner.attempt"]
    assert attempt_events[0]["fields"]["kind"] == "attempt"


def test_parallel_jobs_aggregate_worker_metrics(small_mapped):
    reg = MetricsRegistry(enabled=True)
    with use_registry(reg):
        report = bipartition_experiment(
            small_mapped, algorithm="fm+functional", runs=3, seed=1, jobs=2
        )
    counters = reg.snapshot()["counters"]
    assert report.runs == 3
    assert counters["repl.runs"] == 3
    assert counters["parallel.tasks"] == 3
    assert reg.snapshot()["histograms"]["repl.pass_seconds"]["count"] >= 3


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_trace_partition_and_analyze(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "run.jsonl"
    code = main(
        [
            "partition", "s5378", "--scale", "0.08",
            "--trace", "--metrics-out", str(trace),
        ]
    )
    assert code == 0
    events, problems = validate_jsonl_file(str(trace))
    assert problems == [] and events[0]["schema"] == EVENT_SCHEMA_NAME
    capsys.readouterr()

    assert main(["analyze", "--metrics", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "kway.partition" in out

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"v": 1, "ts": 0, "kind": "wat", "name": "x"}\n')
    assert main(["analyze", "--metrics", str(bad), "--json"]) == 1


def test_cli_analyze_requires_circuit_or_metrics():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["analyze"])


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


def test_flow_rejects_unknown_algorithm(small_mapped):
    from repro.robust.errors import ConfigError

    with pytest.raises(ConfigError):
        kway_solution(small_mapped, threshold=1, algorithm="simulated-annealing")


# ---------------------------------------------------------------------------
# Edge cases: torn streams, disjoint merges, interleaved workers
# ---------------------------------------------------------------------------


def test_validate_jsonl_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    events, problems = validate_jsonl_file(str(path))
    assert events == []
    assert any("empty event stream" in p for p in problems)


def test_validate_jsonl_reports_truncated_line(tmp_path):
    from repro.obs.events import read_jsonl

    path = tmp_path / "torn.jsonl"
    path.write_text(
        json.dumps(meta_event()) + "\n"
        + json.dumps({"v": 1, "ts": 0.0, "kind": "counter",
                      "name": "c", "value": 3}) + "\n"
        + '{"v": 1, "ts": 0.0, "kind": "coun'  # torn tail, no newline
    )
    events, problems = validate_jsonl_file(str(path))
    assert events == [] and len(problems) == 1
    assert "not valid JSON" in problems[0] and ":3:" in problems[0]
    # skip_invalid drops only the torn line (the ledger reads this way)
    survivors = read_jsonl(str(path), skip_invalid=True)
    assert [e["kind"] for e in survivors] == ["meta", "counter"]


def test_merge_snapshot_adopts_unknown_histogram_buckets():
    worker = MetricsRegistry(enabled=True)
    worker.histogram("only.in.worker", (1.0, 2.0)).observe(1.5)
    parent = MetricsRegistry(enabled=True)
    parent.histogram("only.in.parent", (5.0,)).observe(0.1)
    parent.merge_snapshot(worker.snapshot())
    snap = parent.snapshot()
    adopted = snap["histograms"]["only.in.worker"]
    assert adopted["bounds"] == [1.0, 2.0]
    assert adopted["count"] == 1 and adopted["counts"] == [0, 1, 0]
    # the parent's own disjoint histogram is untouched
    assert snap["histograms"]["only.in.parent"]["count"] == 1


def test_summarize_interleaved_multi_worker_events():
    """Per-worker streams concatenated out of order still summarize."""
    streams = []
    for pid in (101, 202):
        reg = MetricsRegistry(enabled=True, emitter=ListEmitter())
        reg.emit_meta()
        with use_registry(reg):
            with reg.span("carve", worker=pid):
                reg.counter("fm.moves").inc(10 + pid)
        reg.close()
        streams.append(reg.emitter.events)
    # interleave the two workers' events line by line
    interleaved = [e for pair in zip(streams[0], streams[1]) for e in pair]
    assert validate_events(interleaved) == []
    text = summarize_events(interleaved)
    assert "carve" in text and "fm.moves" in text
    # both workers' counter lines survive, not just the last one
    assert text.count("fm.moves") == 2
