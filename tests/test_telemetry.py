"""End-to-end trace correlation and live telemetry.

Covers the Prometheus exposition encoder, quantile windows, the Chrome
trace exporter, trace-context propagation into pool workers / the cache /
the ledger, and the four-surface acceptance drill against a live
:class:`~repro.service.server.PartitionService`: one trace id submitted
via ``X-Repro-Trace-Id`` must show up on the ``job.*`` lifecycle events,
inside worker-side span streams, on the ledger record, and as a labeled
counter in ``GET /v1/metrics``.
"""

import glob
import json
import os

import pytest

from repro import api
from repro.cli import main
from repro.obs.events import (
    JsonlEmitter,
    ListEmitter,
    read_jsonl,
    validate_jsonl_file,
)
from repro.obs.export import export_chrome_trace, stream_events
from repro.obs.ledger import Ledger, use_ledger
from repro.obs.metrics import MetricsRegistry, set_registry, use_registry
from repro.obs.telemetry import (
    QuantileWindow,
    new_trace_id,
    parse_exposition,
    prometheus_exposition,
    series,
    split_series,
)
from repro.request import PartitionRequest

from tests.test_service import ServiceThread, quick_request

TRACE = "feedc0ffee123456"


def traced_request(seed=7, jobs_scale=0.08, **overrides):
    base = dict(
        circuit="s5378", scale=jobs_scale, seed=seed, threshold=1, n_solutions=1
    )
    base.update(overrides)
    return PartitionRequest(verb="partition", **base).with_trace(TRACE)


# ---------------------------------------------------------------------------
# Series names and the exposition encoder
# ---------------------------------------------------------------------------


def test_series_round_trip():
    name = series("runs.completed", verb="partition", trace="abc")
    assert name == 'runs.completed{trace="abc",verb="partition"}'
    base, labels = split_series(name)
    assert base == "runs.completed"
    assert labels == {"trace": "abc", "verb": "partition"}
    assert split_series("plain") == ("plain", {})


def test_prometheus_exposition_round_trip():
    reg = MetricsRegistry(enabled=True)
    reg.counter(series("runs.completed", verb="partition")).inc(3)
    reg.counter("cache.hits").inc()
    reg.gauge("queue.depth").set(4.0)
    h = reg.histogram("latency.seconds", (0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        h.observe(v)
    text = prometheus_exposition(reg.snapshot())
    assert "# TYPE runs_completed_total counter" in text
    assert "# TYPE latency_seconds histogram" in text
    samples = parse_exposition(text)
    assert samples['runs_completed_total{verb="partition"}'] == 3.0
    assert samples["cache_hits_total"] == 1.0
    assert samples["queue_depth"] == 4.0
    # Cumulative buckets plus the +Inf catch-all, _sum and _count.
    assert samples['latency_seconds_bucket{le="0.1"}'] == 1.0
    assert samples['latency_seconds_bucket{le="1.0"}'] == 2.0
    assert samples['latency_seconds_bucket{le="+Inf"}'] == 3.0
    assert samples["latency_seconds_count"] == 3.0
    assert samples["latency_seconds_sum"] == pytest.approx(5.55)


def test_exposition_extra_gauges_and_sanitizing():
    text = prometheus_exposition(
        {"counters": {}, "gauges": {}, "histograms": {}},
        extra_gauges={"service.queue-depth": 2.0},
    )
    samples = parse_exposition(text)
    assert samples["service_queue_depth"] == 2.0


def test_parse_exposition_rejects_garbage():
    with pytest.raises(ValueError):
        parse_exposition("this is not prometheus text\n")


def test_quantile_window_nearest_rank():
    window = QuantileWindow(size=8)
    assert window.quantile(0.5) is None
    assert window.summary()["p50"] is None
    for v in (1.0, 2.0, 3.0, 4.0):
        window.observe(v)
    # Nearest-rank: ceil(0.5 * 4) = 2nd smallest.
    assert window.quantile(0.5) == 2.0
    assert window.quantile(0.99) == 4.0
    summary = window.summary()
    assert summary["count"] == 4 and summary["p50"] == 2.0
    gauges = window.gauges("latency.seconds")
    assert gauges['latency.seconds{quantile="0.5"}'] == 2.0
    # Rolling: only the newest ``size`` observations count.
    for v in (10.0,) * 8:
        window.observe(v)
    assert window.quantile(0.5) == 10.0


def test_new_trace_id_shape():
    a, b = new_trace_id(), new_trace_id()
    assert len(a) == 16 and int(a, 16) >= 0
    assert a != b


# ---------------------------------------------------------------------------
# Trace stamping and schema
# ---------------------------------------------------------------------------


def test_spans_carry_start_ts_and_trace():
    emitter = ListEmitter()
    reg = MetricsRegistry(enabled=True, emitter=emitter)
    with reg.trace_scope(TRACE):
        with reg.span("unit.work"):
            pass
        reg.emit_event("unit.event", detail=1)
    spans = [e for e in emitter.events if e.get("kind") == "span"]
    assert spans and all(e["trace"] == TRACE for e in spans)
    assert all(isinstance(e["start_ts"], float) for e in spans)
    events = [e for e in emitter.events if e.get("kind") == "event"]
    assert events and all(e["trace"] == TRACE for e in events)
    # Outside the scope nothing is stamped.
    reg.emit_event("unit.unscoped")
    assert "trace" not in emitter.events[-1]


def test_trace_scope_noop_when_disabled():
    reg = MetricsRegistry(enabled=False)
    with reg.trace_scope(TRACE):
        assert reg.trace_id is None


# ---------------------------------------------------------------------------
# Pool-worker propagation and the Chrome exporter
# ---------------------------------------------------------------------------


@pytest.fixture
def traced_run(tmp_path):
    """One traced jobs=2 multi-start run; yields (trace_dir, main_path,
    result).  ``runs=4`` across two pool workers guarantees worker-side
    streams."""
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    main_path = str(trace_dir / "main.jsonl")
    reg = MetricsRegistry(
        enabled=True,
        emitter=JsonlEmitter(main_path),
        trace_dir=str(trace_dir),
    )
    reg.emit_meta()
    request = PartitionRequest(
        verb="bipartition", circuit="s5378", scale=0.08, seed=7, runs=4
    ).with_trace(TRACE)
    with use_registry(reg):
        result = api.run_request(request, cache="off", jobs=2)
    reg.close()
    return trace_dir, main_path, result


def test_trace_id_spans_pool_worker_streams(traced_run):
    trace_dir, main_path, result = traced_run
    worker_files = sorted(glob.glob(str(trace_dir / "worker-*.jsonl")))
    assert worker_files, "pool workers wrote no trace streams"
    all_stamped = []
    for path in [main_path, *worker_files]:
        events, problems = validate_jsonl_file(path)
        assert problems == [], f"{path}: {problems}"
        all_stamped.extend(e for e in events if "trace" in e)
    assert all_stamped
    assert {e["trace"] for e in all_stamped} == {TRACE}
    # Worker streams carry solver spans under the submitted trace id.
    worker_spans = []
    for path in worker_files:
        events, _ = validate_jsonl_file(path)
        worker_spans.extend(
            e for e in events if e.get("kind") == "span" and e.get("trace") == TRACE
        )
    assert worker_spans


def test_chrome_trace_export_merges_streams(traced_run, tmp_path):
    trace_dir, main_path, _ = traced_run
    paths = [main_path, *sorted(glob.glob(str(trace_dir / "worker-*.jsonl")))]
    out = str(tmp_path / "trace.chrome.json")
    summary = export_chrome_trace(paths, out, trace_id=TRACE)
    assert summary["streams"] == len(paths)
    assert summary["spans"] >= 1 and summary["events"] >= summary["spans"]
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["trace_id"] == TRACE
    rows = doc["traceEvents"]
    spans = [r for r in rows if r["ph"] == "X"]
    assert spans and all(r["dur"] >= 0 for r in spans)
    # Both worker streams contribute a named process lane (the parent
    # stream holds only unstamped metric flushes, which the trace filter
    # drops along with its lane).
    names = [r for r in rows if r["ph"] == "M" and r["name"] == "process_name"]
    assert len({r["pid"] for r in names}) >= 2
    # Deterministic merge: timestamps are sorted.
    stamps = [(r["ts"], r["pid"]) for r in rows if r["ph"] != "M"]
    assert stamps == sorted(stamps)


def test_stream_events_trace_filter(tmp_path):
    path = str(tmp_path / "mix.jsonl")
    emitter = JsonlEmitter(path)
    reg = MetricsRegistry(enabled=True, emitter=emitter)
    reg.emit_meta()
    with reg.trace_scope("aaaa"), reg.span("keep"):
        pass
    with reg.trace_scope("bbbb"), reg.span("drop"):
        pass
    reg.close()
    rows = stream_events(read_jsonl(path), trace_id="aaaa", default_pid=1)
    kept = [r for r in rows if r["ph"] == "X"]
    assert [r["name"] for r in kept] == ["keep"]


def test_traced_run_solution_identical_to_untraced():
    request = traced_request(seed=9)
    baseline = api.run_request(request.with_trace(None), cache="off")
    reg = MetricsRegistry(enabled=True, emitter=ListEmitter())
    with use_registry(reg):
        traced = api.run_request(request, cache="off")
    assert (
        traced.to_dict()["solution"] == baseline.to_dict()["solution"]
    ), "tracing changed the solve"


# ---------------------------------------------------------------------------
# Ledger + cache correlation
# ---------------------------------------------------------------------------


def test_traced_run_stamps_ledger_and_cache(tmp_path):
    from repro.cache.store import SolutionCache, use_cache

    emitter = ListEmitter()
    reg = MetricsRegistry(enabled=True, emitter=emitter)
    ledger = Ledger(str(tmp_path / "ledger"))
    request = traced_request(seed=13)
    with use_registry(reg), use_ledger(ledger), use_cache(
        SolutionCache(str(tmp_path / "cache"))
    ):
        cold = api.run_request(request, cache="use")
        hot = api.run_request(request, cache="use")
    assert cold.cache_info["status"] == "miss"
    assert hot.cache_info["status"] == "hit"
    records = ledger.records()
    assert len(records) == 1 and records[0]["trace_id"] == TRACE
    cache_events = [
        e
        for e in emitter.events
        if e.get("kind") == "event" and str(e.get("name", "")).startswith("cache.")
    ]
    assert {e["name"] for e in cache_events} >= {"cache.store", "cache.hit"}
    assert all(e.get("trace") == TRACE for e in cache_events)
    counters = reg.snapshot()["counters"]
    assert counters[series("runs.completed", trace=TRACE, verb="partition")] == 2


def test_merged_snapshot_is_order_independent():
    def snap(counts, gauge=None):
        reg = MetricsRegistry(enabled=True)
        for name, n in counts.items():
            reg.counter(name).inc(n)
        h = reg.histogram("h", (1.0, 10.0))
        for v in counts.values():
            h.observe(float(v))
        if gauge:
            reg.gauge(gauge[0]).set(gauge[1])
        return reg.snapshot()

    a = snap({series("runs.completed", trace="t1"): 2}, gauge=("g.a", 1.0))
    b = snap({series("runs.completed", trace="t1"): 3, "cache.hits": 1},
             gauge=("g.b", 2.0))
    forward = MetricsRegistry(enabled=True)
    for s in (a, b):
        forward.merge_snapshot(s)
    backward = MetricsRegistry(enabled=True)
    for s in (b, a):
        backward.merge_snapshot(s)
    assert forward.snapshot() == backward.snapshot()
    merged = forward.snapshot()
    assert merged["counters"][series("runs.completed", trace="t1")] == 5
    assert merged["histograms"]["h"]["count"] == 3


# ---------------------------------------------------------------------------
# CLI: repro obs validate / export / metrics
# ---------------------------------------------------------------------------


def test_cli_obs_validate_reports_line_numbers(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    emitter = JsonlEmitter(str(good))
    reg = MetricsRegistry(enabled=True, emitter=emitter)
    reg.emit_meta()
    reg.emit_event("ok")
    reg.close()
    assert main(["obs", "validate", str(good)]) == 0
    assert "ok (" in capsys.readouterr().out

    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        good.read_text() + json.dumps({"kind": "span", "name": "broken"}) + "\n"
    )
    assert main(["obs", "validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "line 3" in out


def test_cli_obs_export_and_metrics(traced_run, tmp_path, capsys):
    trace_dir, main_path, _ = traced_run
    out = str(tmp_path / "export.chrome.json")
    assert main(["obs", "export", "--chrome", str(trace_dir), "--out", out]) == 0
    capsys.readouterr()  # drain the export summary line
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["traceEvents"] and doc["displayTimeUnit"] == "ms"

    assert main(["obs", "metrics", main_path]) == 0
    samples = parse_exposition(capsys.readouterr().out)
    assert any(name.startswith("runs_completed_total") for name in samples)


# ---------------------------------------------------------------------------
# The four-surface acceptance drill (live service)
# ---------------------------------------------------------------------------


def test_service_trace_visible_on_all_four_surfaces(tmp_path, monkeypatch):
    """One ``X-Repro-Trace-Id`` must correlate the service job events,
    the worker-side solver spans, the ledger record, and the labeled
    ``/v1/metrics`` counter."""
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    ledger_path = str(tmp_path / "ledger")
    # Pool workers inherit the environment at fork, so the worker-side
    # ``run_request`` resolves this ledger.
    monkeypatch.setenv("REPRO_LEDGER", ledger_path)
    reg = MetricsRegistry(
        enabled=True,
        emitter=JsonlEmitter(str(trace_dir / "main.jsonl")),
        trace_dir=str(trace_dir),
    )
    reg.emit_meta()
    set_registry(reg)
    trace_id = "svc0trace0abcdef"
    try:
        with ServiceThread(
            workers=1, cache="use", cache_dir=str(tmp_path / "cache")
        ) as client:
            reply = client.submit(quick_request(seed=41), trace_id=trace_id)
            assert reply["_http_status"] == 202
            assert reply["trace_id"] == trace_id
            done = client.wait(reply["job_id"], timeout=300)
            assert done["state"] == "done"

            # Surface 1: service lifecycle events carry the trace id.
            events = list(client.stream(reply["job_id"]))
            lifecycle = [e for e in events if str(e.get("event", "")).startswith("job.")]
            assert lifecycle
            assert all(e.get("trace_id") == trace_id for e in lifecycle)

            # Surface 4: the labeled counter in the live exposition.
            samples = parse_exposition(client.metrics())
            labeled = [
                name
                for name in samples
                if name.startswith("runs_completed_total{")
                and f'trace="{trace_id}"' in name
            ]
            assert labeled, f"no trace-labeled counter in {sorted(samples)}"
    finally:
        set_registry(None)
        reg.close()

    # Surface 2: worker span streams in the shared trace dir.
    worker_spans = []
    for path in sorted(glob.glob(str(trace_dir / "worker-*.jsonl"))):
        events, problems = validate_jsonl_file(path)
        assert problems == [], f"{path}: {problems}"
        worker_spans.extend(
            e
            for e in events
            if e.get("kind") == "span" and e.get("trace") == trace_id
        )
    assert worker_spans, "no worker spans under the submitted trace id"

    # Surface 3: the ledger record written by the worker-side solve.
    records = Ledger(ledger_path).records()
    assert any(r.get("trace_id") == trace_id for r in records)

    # The merged streams export into one Perfetto-loadable timeline.
    out = str(tmp_path / "service.chrome.json")
    paths = sorted(glob.glob(str(trace_dir / "*.jsonl")))
    summary = export_chrome_trace(paths, out, trace_id=trace_id)
    assert summary["spans"] >= 1
    assert os.path.exists(out)
