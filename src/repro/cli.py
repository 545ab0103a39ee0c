"""Command-line interface: ``repro-fpga`` / ``python -m repro``.

Subcommands
-----------
stats        Table II characteristics for a benchmark or .bench file.
map          Technology-map a circuit and report CLB/IOB/net counts.
bipartition  Min-cut bipartitioning with or without functional replication.
partition    Heterogeneous k-way partitioning (cost + interconnect).
experiment   Regenerate a paper table/figure (table1..table7, figure3).
runs         Inspect the persistent run ledger (list/show/diff/report).
batch        Run job manifests against the solution cache (run/manifest/check).
cache        Inspect or trim the on-disk solution cache (stats/evict).
serve        Partitioning-as-a-service: the async HTTP job server
             (see docs/SERVICE.md).
obs          Observability utilities: validate JSONL event streams,
             export merged Perfetto/Chrome timelines, render or scrape
             Prometheus metrics.

``bipartition`` and ``partition`` flags are normalized through one
parse point -- a :class:`repro.request.PartitionRequest` -- so the CLI,
``repro.api``, batch manifests and the service all speak the same
schema-versioned request language.

``bipartition`` and ``partition`` accept ``--ledger [PATH]`` to append
the run's quality record to the ledger (``results/ledger`` by default);
``repro-fpga runs diff`` then gates quality drift between any two
records with per-metric tolerances.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Any, Iterator, List, Optional, Tuple

from repro.core.flow import bipartition_experiment, kway_experiment
from repro.netlist.bench_io import load_bench
from repro.netlist.benchmarks import BENCHMARK_NAMES, benchmark_circuit
from repro.netlist.netlist import Netlist
from repro.netlist.stats import mapped_stats, netlist_stats
from repro.techmap.mapped import technology_map


def _resolve_circuit(spec: str, scale: float, seed: int) -> Netlist:
    """A circuit spec is either a benchmark name or a .bench file path."""
    if spec in BENCHMARK_NAMES:
        return benchmark_circuit(spec, scale=scale, seed=seed)
    if spec.endswith(".bench"):
        from repro.robust.errors import ParseError

        try:
            return load_bench(spec)
        except ParseError as exc:
            raise SystemExit(str(exc)) from exc
        except OSError as exc:
            raise SystemExit(f"cannot read {spec!r}: {exc}") from exc
    raise SystemExit(
        f"unknown circuit {spec!r}: expected one of {', '.join(BENCHMARK_NAMES)} "
        "or a path ending in .bench"
    )


def _add_circuit_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("circuit", help="benchmark name or .bench file")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the multi-start/candidate scans "
        "(1 = sequential, 0 = all cores; results are identical per seed)",
    )


def _add_multilevel_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--multilevel",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="coarsen-solve-uncoarsen V-cycle engine; default: auto-on for "
        "netlists with >= 20k cells (--no-multilevel forces the flat engines)",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="overall wall-clock budget; routes through the resilient runner "
        "and returns the best solution found in time",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="extra attempts per engine before degrading (resilient runner)",
    )
    parser.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable the fm+functional -> fm+traditional -> fm cascade",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record metrics/spans/events for this run as JSONL "
        "(see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="JSONL trace destination (implies --trace; default trace.jsonl)",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="directory for per-process JSONL streams (implies --trace): "
        "the parent writes main.jsonl, pool workers append "
        "worker-<pid>.jsonl; merge with 'repro-fpga obs export'",
    )
    from repro.obs.ledger import DEFAULT_LEDGER_DIR

    parser.add_argument(
        "--ledger",
        nargs="?",
        const=DEFAULT_LEDGER_DIR,
        default=None,
        metavar="PATH",
        help="append this run's quality record to the run ledger "
        f"(directory or .jsonl file; bare flag = {DEFAULT_LEDGER_DIR}; "
        "REPRO_LEDGER env var also enables it)",
    )


def _cli_ledger(args: argparse.Namespace):
    """The Ledger in effect for this invocation, or ``None``."""
    from repro.obs.ledger import resolve_ledger

    return resolve_ledger(getattr(args, "ledger", None))


@contextlib.contextmanager
def _observability(
    args: argparse.Namespace, capture: bool = False
) -> Iterator[Tuple[Optional[str], List[dict]]]:
    """Install an enabled registry when tracing or ledger capture is on.

    Yields ``(trace_path, events)``: the JSONL destination (``None`` when
    tracing is off) and the live in-memory event list feeding the ledger's
    convergence distillation (empty and inert when ``capture`` is off).
    With both active, a :class:`~repro.obs.events.TeeEmitter` fans the
    stream out to the file and the list.  Final metric values are flushed
    and the file closed on the way out.
    """
    trace_dir = getattr(args, "trace_dir", None)
    trace = bool(
        getattr(args, "trace", False)
        or getattr(args, "metrics_out", None)
        or trace_dir
    )
    if not trace and not capture:
        yield None, []
        return
    from repro.obs.events import JsonlEmitter, ListEmitter, TeeEmitter
    from repro.obs.metrics import MetricsRegistry, use_registry

    path = None
    if trace:
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
            trace_dir = os.path.abspath(trace_dir)
        path = args.metrics_out or (
            os.path.join(trace_dir, "main.jsonl") if trace_dir else "trace.jsonl"
        )
    collector = ListEmitter() if capture else None
    if trace and capture:
        emitter = TeeEmitter(JsonlEmitter(path), collector)
    elif trace:
        emitter = JsonlEmitter(path)
    else:
        emitter = collector
    registry = MetricsRegistry(enabled=True, emitter=emitter, trace_dir=trace_dir)
    registry.emit_meta()
    try:
        with use_registry(registry):
            yield path, (collector.events if collector is not None else [])
    finally:
        registry.close()


def _ledger_log(
    ledger,
    events: List[dict],
    kind: str,
    mapped,
    config: dict,
    seed: int,
    quality: dict,
    elapsed_seconds: Optional[float] = None,
    runner_summary: Optional[dict] = None,
) -> None:
    """Append one record to ``ledger`` and announce it on stderr."""
    from repro.obs import ledger as obs_ledger

    record = ledger.append(
        obs_ledger.build_record(
            kind=kind,
            circuit=mapped.name,
            mapped=mapped,
            config=config,
            seed=seed,
            quality=quality,
            convergence=obs_ledger.distill_convergence(events),
            elapsed_seconds=elapsed_seconds,
            runner_summary=runner_summary,
        )
    )
    print(f"logged run {record['run_id']} to {ledger.path}", file=sys.stderr)


def _resilient_runner(args: argparse.Namespace):
    """Build a ResilientRunner when any resilience flag was given, else None."""
    if args.deadline is None and args.max_retries is None and not args.no_fallback:
        return None
    from repro.robust.errors import ConfigError
    from repro.robust.runner import ResilientRunner

    if args.deadline is not None and args.deadline < 0:
        raise SystemExit("--deadline must be non-negative")
    try:
        return ResilientRunner(
            deadline=args.deadline,
            max_retries=2 if args.max_retries is None else args.max_retries,
            fallback=not args.no_fallback,
        )
    except ConfigError as exc:
        raise SystemExit(f"bad resilience flags: {exc}") from exc


def _cmd_stats(args: argparse.Namespace) -> int:
    netlist = _resolve_circuit(args.circuit, args.scale, args.seed)
    stats = netlist_stats(netlist)
    if args.json:
        print(json.dumps(stats.as_dict(), indent=2))
    else:
        for key, value in stats.as_dict().items():
            print(f"{key:>12}: {value}")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    netlist = _resolve_circuit(args.circuit, args.scale, args.seed)
    mapped = technology_map(netlist)
    stats = mapped_stats(mapped)
    payload = stats.as_dict()
    payload["multi_output_cells"] = mapped.n_multi_output_cells
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key:>20}: {value}")
    return 0


def _cmd_bipartition(args: argparse.Namespace) -> int:
    ledger = _cli_ledger(args)
    with _observability(args, capture=ledger is not None) as (trace_path, events):
        code = _run_bipartition(args, ledger, events)
    if trace_path is not None:
        print(f"trace written to {trace_path}", file=sys.stderr)
    return code


def _run_bipartition(args: argparse.Namespace, ledger=None, events=()) -> int:
    from repro.obs.ledger import quality_from_bipartition
    from repro.request import PartitionRequest, RequestError

    # The single parse point: flags normalize into a PartitionRequest
    # (enum spellings, threshold, tri-state multilevel).  Execution and
    # the ledger config dict below stay byte-identical to the historical
    # CLI behaviour -- the request only vouches for the inputs.
    try:
        request = PartitionRequest(
            verb="bipartition",
            circuit=args.circuit,
            scale=args.scale,
            seed=args.seed,
            algorithm=args.algorithm,
            runs=args.runs,
            threshold=args.threshold,
            multilevel=args.multilevel,
            jobs=args.jobs,
        )
    except RequestError as exc:
        raise SystemExit(str(exc)) from exc
    netlist = _resolve_circuit(request.circuit, request.scale, request.seed)
    mapped = technology_map(netlist)
    config = {
        "verb": "bipartition",
        "algorithm": request.algorithm.value,
        "runs": request.runs,
        "threshold": request.threshold,
        "scale": request.scale,
    }
    if request.resolve_multilevel(mapped.n_cells):
        # Fingerprint marker, present only when the V-cycle is active.
        config["multilevel"] = True
    runner = _resilient_runner(args)
    if runner is not None:
        result = runner.bipartition(
            mapped,
            algorithm=request.algorithm.value,
            runs=request.runs,
            threshold=request.threshold,
            seed=request.seed,
            jobs=request.jobs,
            multilevel=request.multilevel.tri,
        )
        report = result.report
        if ledger is not None:
            _ledger_log(
                ledger,
                list(events),
                kind="bipartition",
                mapped=mapped,
                config=config,
                seed=request.seed,
                quality=quality_from_bipartition(report),
                elapsed_seconds=result.elapsed,
                runner_summary=result.log.as_record(),
            )
        if args.json:
            payload = report.as_dict()
            payload["engine"] = result.engine
            payload["run_log"] = result.log.as_dicts()
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"{report.circuit}: {result.engine}, {report.runs} runs -> "
                f"best cut {report.best_cut}, avg cut {report.avg_cut:.1f} "
                f"({result.elapsed:.2f}s, "
                f"{len(result.log.attempts())} attempt(s))"
            )
        return 0
    report = bipartition_experiment(
        mapped,
        algorithm=request.algorithm.value,
        runs=request.runs,
        threshold=request.threshold,
        seed=request.seed,
        jobs=request.jobs,
        multilevel=request.multilevel.tri,
    )
    if ledger is not None:
        _ledger_log(
            ledger,
            list(events),
            kind="bipartition",
            mapped=mapped,
            config=config,
            seed=request.seed,
            quality=quality_from_bipartition(report),
            elapsed_seconds=report.elapsed_seconds,
        )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"{report.circuit}: {report.algorithm}, {report.runs} runs -> "
            f"best cut {report.best_cut}, avg cut {report.avg_cut:.1f}, "
            f"avg replicated {report.avg_replicated:.1f} "
            f"({report.elapsed_seconds:.2f}s)"
        )
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    ledger = _cli_ledger(args)
    with _observability(args, capture=ledger is not None) as (trace_path, events):
        code = _run_partition(args, ledger, events)
    if trace_path is not None:
        print(f"trace written to {trace_path}", file=sys.stderr)
    return code


def _run_partition(args: argparse.Namespace, ledger=None, events=()) -> int:
    from repro.obs.ledger import quality_from_kway, quality_from_kway_report
    from repro.request import PartitionRequest, RequestError

    # Single parse point (see _run_bipartition).  The CLI historically
    # floats numeric thresholds ("1" -> 1.0); keep that spelling so the
    # committed golden ledger fingerprints never move.
    try:
        threshold = (
            args.threshold if args.threshold == "inf" else float(args.threshold)
        )
    except ValueError as exc:
        raise SystemExit(
            f"threshold {args.threshold!r} is not a number or 'inf'"
        ) from exc
    delta_doc = None
    if getattr(args, "delta", None):
        try:
            with open(args.delta, "r", encoding="utf-8") as handle:
                delta_doc = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read delta {args.delta!r}: {exc}") from exc
    try:
        request = PartitionRequest(
            verb="partition",
            circuit=args.circuit,
            scale=args.scale,
            seed=args.seed,
            threshold=threshold,
            n_solutions=args.solutions,
            multilevel=args.multilevel,
            jobs=args.jobs,
            delta=delta_doc,
            warm_start=getattr(args, "warm_start", None),
        )
    except RequestError as exc:
        raise SystemExit(str(exc)) from exc
    if (
        delta_doc is not None
        or request.warm_start is not None
        or getattr(args, "cache", "off") != "off"
    ):
        # ECO / cached runs route through the one canonical execution
        # path (api.run_request): delta application, warm-start repair
        # and verify-before-trust cache hits all live there, and the
        # result document is bit-identical to a service or batch run of
        # the same request.
        return _run_partition_request(args, request)
    netlist = _resolve_circuit(request.circuit, request.scale, request.seed)
    mapped = technology_map(netlist)
    threshold = request.threshold
    config = {
        "verb": "partition",
        "threshold": threshold,
        "solutions": request.n_solutions,
        "scale": request.scale,
    }
    if request.resolve_multilevel(mapped.n_cells):
        # Fingerprint marker, present only when multilevel carving is active.
        config["multilevel"] = True
    runner = _resilient_runner(args)
    if runner is not None:
        result = runner.kway(
            mapped,
            threshold=threshold,
            seed=request.seed,
            jobs=request.jobs,
            multilevel=request.multilevel.tri,
        )
        solution = result.solution
        if ledger is not None:
            _ledger_log(
                ledger,
                list(events),
                kind="partition",
                mapped=mapped,
                config=config,
                seed=request.seed,
                quality=quality_from_kway(solution),
                elapsed_seconds=result.elapsed,
                runner_summary=result.log.as_record(),
            )
        payload = solution.summary()
        payload["engine"] = result.engine
        payload["run_log_summary"] = result.log.summary()
        if args.json:
            payload["run_log"] = result.log.as_dicts()
            print(json.dumps(payload, indent=2, default=str))
        else:
            for key, value in payload.items():
                print(f"{key:>16}: {value}")
        return 0
    if args.verify:
        from repro.core.flow import kway_solution
        from repro.partition.verify import verify_solution

        solution = kway_solution(
            mapped,
            threshold=threshold,
            n_solutions=request.n_solutions,
            seed=request.seed,
            jobs=request.jobs,
            multilevel=request.multilevel.tri,
        )
        problems = verify_solution(mapped, solution)
        if ledger is not None:
            _ledger_log(
                ledger,
                list(events),
                kind="partition",
                mapped=mapped,
                config=config,
                seed=request.seed,
                quality=quality_from_kway(solution),
            )
        payload = solution.summary()
        payload["violations"] = problems
        if args.json:
            print(json.dumps(payload, indent=2, default=str))
        else:
            for key, value in payload.items():
                print(f"{key:>14}: {value}")
        return 0 if not problems else 1
    report = kway_experiment(
        mapped,
        threshold=threshold,
        n_solutions=request.n_solutions,
        seed=request.seed,
        jobs=request.jobs,
        multilevel=request.multilevel.tri,
    )
    if ledger is not None:
        _ledger_log(
            ledger,
            list(events),
            kind="partition",
            mapped=mapped,
            config=config,
            seed=request.seed,
            quality=quality_from_kway_report(report),
            elapsed_seconds=report.elapsed_seconds,
        )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"{report.circuit}: k={report.k} cost={report.total_cost:.0f} "
            f"devices={report.device_counts} "
            f"CLB util {100 * report.avg_clb_utilization:.1f}% "
            f"IOB util {100 * report.avg_iob_utilization:.1f}% "
            f"replicated {100 * report.replicated_fraction:.1f}% "
            f"feasible={report.feasible} ({report.elapsed_seconds:.1f}s)"
        )
    return 0


def _run_partition_request(args: argparse.Namespace, request) -> int:
    """Execute a partition request through :func:`repro.api.run_request`.

    Used whenever the invocation carries ECO state (``--delta`` /
    ``--warm-start``) or a cache policy: those paths need the canonical
    execution flow, not the CLI's direct solver calls.
    """
    from repro import api
    from repro.robust.errors import ReproError

    cache = getattr(args, "cache", "off") or "off"

    def _go() -> Any:
        return api.run_request(request, cache=cache)

    try:
        if getattr(args, "cache_dir", None):
            from repro.cache.store import SolutionCache, use_cache

            with use_cache(SolutionCache(args.cache_dir)):
                result = _go()
        else:
            result = _go()
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True, default=str))
        return 0 if result.ok else 1
    solution = result.solution
    cache_info = result.cache_info or {}
    warm = cache_info.get("warm") or {}
    line = (
        f"{request.circuit}: k={len(solution.blocks)} "
        f"cost={solution.cost.total_cost:.0f} feasible={solution.feasible} "
        f"({result.elapsed_seconds:.2f}s)"
    )
    if cache_info:
        line += f" cache={cache_info.get('status')}"
    if warm.get("mode") == "warm":
        line += (
            f" warm-start: {warm.get('dirty_cells')} dirty cells, "
            f"{warm.get('speedup', 0.0):.1f}x vs ancestor"
        )
    elif warm:
        line += f" warm-start declined: {warm.get('reason')}"
    print(line)
    return 0 if result.ok else 1


def _cmd_delta(args: argparse.Namespace) -> int:
    from repro.obs.ledger import netlist_fingerprint
    from repro.robust.errors import DeltaError
    from repro.techmap.delta import NetlistDelta, diff_mapped, seeded_delta

    if args.delta_cmd == "diff":
        old = technology_map(_resolve_circuit(args.old, args.scale, args.seed))
        new = technology_map(_resolve_circuit(args.new, args.scale, args.seed))
        try:
            delta = diff_mapped(old, new, base=netlist_fingerprint(old))
        except DeltaError as exc:
            raise SystemExit(str(exc)) from exc
        source = old
    else:  # gen
        source = technology_map(
            _resolve_circuit(args.circuit, args.scale, args.seed)
        )
        delta = seeded_delta(
            source,
            fraction=args.fraction,
            seed=args.delta_seed,
            base=netlist_fingerprint(source),
        )
    try:
        _, dirty = delta.apply(source)
    except DeltaError as exc:
        raise SystemExit(f"delta does not apply: {exc}") from exc
    doc = delta.to_dict()
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    print(
        f"{len(delta.ops)} ops -> {len(dirty.cells)} dirty cells "
        f"({100 * dirty.fraction:.1f}% of {dirty.n_cells} post-delta cells), "
        f"{len(dirty.touched_nets)} touched nets"
        + (f"; written to {args.out}" if args.out else ""),
        file=sys.stderr,
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.metrics is not None:
        return _analyze_metrics(args)
    if args.circuit is None:
        raise SystemExit("analyze: provide a circuit or --metrics PATH")
    from repro.hypergraph.build import build_hypergraph
    from repro.netlist.rent import fit_rent, rent_points
    from repro.replication.potential import cell_distribution

    netlist = _resolve_circuit(args.circuit, args.scale, args.seed)
    mapped = technology_map(netlist)
    hg = build_hypergraph(mapped, include_terminals=False)
    dist = cell_distribution(hg, name=mapped.name)
    fit = fit_rent(rent_points(hg, seed=args.seed))
    payload = {
        "circuit": mapped.name,
        "clbs": mapped.n_cells,
        "multi_output_cells": mapped.n_multi_output_cells,
        "psi_distribution": {label: count for label, count, _ in dist.rows()},
        "rent_exponent": round(fit.exponent, 3) if fit else None,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        from repro.experiments.figure3 import ascii_histogram

        print(ascii_histogram(dist))
        if fit:
            print(f"Rent exponent: {fit.exponent:.3f} "
                  f"(coefficient {fit.coefficient:.2f}, "
                  f"{len(fit.points)} sample blocks)")
    return 0


def _analyze_metrics(args: argparse.Namespace) -> int:
    """Validate a JSONL observability trace and print a summary."""
    from repro.obs.events import validate_jsonl_file
    from repro.obs.summary import summarize_events

    try:
        events, problems = validate_jsonl_file(args.metrics)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.metrics!r}: {exc}") from exc
    if args.json:
        print(
            json.dumps(
                {"path": args.metrics, "events": len(events), "problems": problems},
                indent=2,
            )
        )
    else:
        print(summarize_events(events) if events else "(empty trace)")
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
    return 0 if not problems else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import table1, table2, table3, figure3, tables4to7

    name = args.name
    if name == "table1":
        print(table1.run().text())
    elif name == "table2":
        print(table2.run(args.circuits, args.scale, args.seed).text())
    elif name == "figure3":
        print(figure3.run(args.circuits, args.scale, args.seed).text())
    elif name == "table3":
        print(
            table3.run(args.circuits, args.scale, args.seed, runs=args.runs).text()
        )
    elif name in ("table4", "table5", "table6", "table7"):
        data = tables4to7.sweep(args.circuits, args.scale, args.seed)
        table_fn = {
            "table4": tables4to7.table4,
            "table5": tables4to7.table5,
            "table6": tables4to7.table6,
            "table7": tables4to7.table7,
        }[name]
        print(table_fn(data, args.scale).text())
    else:
        raise SystemExit(f"unknown experiment {name!r}")
    return 0


# ---------------------------------------------------------------------------
# runs: the persistent ledger
# ---------------------------------------------------------------------------


def _runs_ledger(args: argparse.Namespace):
    """Ledger for the ``runs`` subcommands (always resolves to one)."""
    from repro.obs.ledger import Ledger, resolve_ledger

    return resolve_ledger(getattr(args, "ledger", None)) or Ledger()


def _quality_brief(record: dict) -> str:
    """One-line quality summary keyed by record kind."""
    quality = record.get("quality") or {}
    if record.get("kind") == "bipartition":
        return (
            f"best_cut={quality.get('best_cut')} "
            f"avg_cut={quality.get('avg_cut')}"
        )
    if "table" in quality:
        return f"table={quality.get('table')}"
    return (
        f"k={quality.get('k')} cost={quality.get('total_cost')} "
        f"feasible={quality.get('feasible')}"
    )


def _cmd_runs_list(args: argparse.Namespace) -> int:
    ledger = _runs_ledger(args)
    rows = ledger.records()
    if args.kind:
        rows = [r for r in rows if r.get("kind") == args.kind]
    if args.circuit:
        rows = [r for r in rows if r.get("circuit") == args.circuit]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "run_id": r.get("run_id"),
                        "run_key": r.get("run_key"),
                        "kind": r.get("kind"),
                        "circuit": r.get("circuit"),
                        "seed": r.get("seed"),
                        "iso_ts": r.get("iso_ts"),
                        "git_rev": r.get("git_rev"),
                        "quality": r.get("quality"),
                    }
                    for r in rows
                ],
                indent=2,
            )
        )
        return 0
    if not rows:
        print(f"(no records in {ledger.path})")
        return 0
    for i, record in enumerate(rows):
        print(
            f"{i:>3}  {record.get('run_id')}  {record.get('iso_ts')}  "
            f"{record.get('kind'):<11} {str(record.get('circuit')):<10} "
            f"seed={record.get('seed')}  {_quality_brief(record)}"
        )
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    from repro.obs.compare import flatten

    ledger = _runs_ledger(args)
    try:
        record = ledger.find(args.token)
    except (LookupError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    for key in ("run_id", "run_key", "kind", "circuit", "seed", "iso_ts",
                "git_rev", "netlist_hash", "config_fingerprint"):
        print(f"{key:>18}: {record.get(key)}")
    print(f"{'config':>18}: {json.dumps(record.get('config'), sort_keys=True)}")
    for metric, value in sorted(flatten(record.get("quality") or {}).items()):
        print(f"{'quality.' + metric:>40}: {value}")
    convergence = record.get("convergence") or {}
    carves = convergence.get("carves") or []
    for carve in carves:
        print(
            f"{'carve':>18}: level={carve.get('level')} "
            f"device={carve.get('device')} clbs={carve.get('clbs')} "
            f"cut={carve.get('cut')} terminals={carve.get('terminals')}"
        )
    ml_levels = convergence.get("multilevel") or []
    for entry in ml_levels:
        print(
            f"{'vcycle':>18}: level={entry.get('level')} "
            f"cells={entry.get('cells')} nets={entry.get('nets')} "
            f"cut={entry.get('cut')} match_rate={entry.get('match_rate')}"
        )
    if convergence.get("multilevel_dropped"):
        print(
            f"{'vcycle':>18}: "
            f"(+{convergence['multilevel_dropped']} more levels dropped)"
        )
    return 0


def _parse_tolerances(specs: List[str]) -> dict:
    from repro.obs.compare import parse_tolerance

    tolerances = {}
    for spec in specs:
        try:
            metric, tol = parse_tolerance(spec)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
        tolerances[metric] = tol
    return tolerances


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.obs.compare import diff_records, gate_exit_code, render_text

    ledger = _runs_ledger(args)
    try:
        baseline = ledger.find(args.baseline)
        current = ledger.find(args.current)
    except (LookupError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    diff = diff_records(baseline, current, _parse_tolerances(args.tolerance))
    if args.json:
        print(json.dumps(diff.as_dict(), indent=2))
    else:
        print(render_text(diff, show_same=args.show_same))
    return gate_exit_code(diff, strict=args.strict)


def _cmd_runs_report(args: argparse.Namespace) -> int:
    from repro.obs.compare import diff_records, render_html

    ledger = _runs_ledger(args)
    try:
        if args.tokens:
            records = [ledger.find(token) for token in args.tokens]
        else:
            records = ledger.records()[-args.last:]
        baseline = ledger.find(args.baseline) if args.baseline else None
    except (LookupError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    if not records:
        raise SystemExit(f"no records to report on in {ledger.path}")
    diffs = [
        diff_records(baseline, record, _parse_tolerances(args.tolerance))
        for record in records
    ] if baseline is not None else []
    page = render_html(records, diffs, title=f"Run ledger report: {ledger.path}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(page)
    print(f"report written to {args.out} "
          f"({len(records)} run(s), {len(diffs)} diff(s))")
    return 0


# ---------------------------------------------------------------------------
# batch & cache: manifest-driven sweeps against the solution cache
# ---------------------------------------------------------------------------


def _cmd_batch_run(args: argparse.Namespace) -> int:
    from repro.batch.manifest import ManifestError, load_manifest
    from repro.batch.scheduler import run_batch

    try:
        manifest = load_manifest(args.manifest)
    except ManifestError as exc:
        raise SystemExit(str(exc)) from exc

    from repro.obs.events import LineWriter

    done = [0]
    # One writer, one write() per line: progress callbacks fire from
    # collector threads when --jobs > 1, and bare print() (two writes:
    # text then newline) interleaves mid-line under that concurrency.
    writer = LineWriter(sys.stderr)

    def progress(payload: dict) -> None:
        if args.quiet:
            return
        event = payload.get("event")
        if event in ("job.done", "job.skipped"):
            done[0] += 1
            status = payload.get("status", "skipped")
            cache_status = payload.get("cache_status", "-")
            wall = payload.get("wall_seconds", 0.0)
            writer.write_line(
                f"  [{done[0]}] {payload.get('job_id')}: {status} "
                f"(cache {cache_status}, {wall:.2f}s)"
            )

    with _observability(args) as (trace_path, _events):
        report = run_batch(
            manifest,
            jobs=args.jobs,
            cache=args.cache,
            cache_dir=args.cache_dir,
            deadline=args.deadline,
            on_event=progress,
        )
    if args.report:
        report.write(args.report)
        print(f"report written to {args.report}", file=sys.stderr)
    if trace_path is not None:
        print(f"trace written to {trace_path}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    verdicts = report.counts("status")
    clean = not verdicts.get("failed") and not verdicts.get("skipped")
    return 0 if clean or args.keep_going else 1


def _cmd_batch_manifest(args: argparse.Namespace) -> int:
    from repro.batch.manifest import ManifestError, expand_manifest
    from repro.experiments import tables4to7

    thresholds = []
    for spec in args.thresholds:
        thresholds.append(float("inf") if spec == "inf" else float(spec))
    manifest = tables4to7.sweep_manifest(
        circuits=args.circuits,
        scale=args.scale,
        seed=args.seed,
        thresholds=thresholds,
        n_solutions=args.solutions,
        seeds_per_carve=args.seeds_per_carve,
        devices_per_carve=args.devices_per_carve,
    )
    try:
        n_jobs = len(expand_manifest(manifest))
    except ManifestError as exc:
        raise SystemExit(str(exc)) from exc
    text = json.dumps(manifest, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"manifest with {n_jobs} job(s) written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_batch_check(args: argparse.Namespace) -> int:
    from repro.batch.scheduler import check_reports

    reports = []
    for path in (args.first, args.second):
        try:
            with open(path, encoding="utf-8") as fh:
                reports.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read report {path}: {exc}") from exc
    problems = check_reports(reports[0], reports[1], args.min_hit_rate)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    rate = reports[1].get("cache", {}).get("hit_rate", 0.0)
    print(
        f"OK: runs are bit-identical, warm hit rate {rate:.0%} "
        f">= {args.min_hit_rate:.0%}"
    )
    return 0


def _cli_cache(args: argparse.Namespace):
    from repro.cache.store import SolutionCache, resolve_cache

    if args.cache_dir:
        return SolutionCache(args.cache_dir)
    return resolve_cache()


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    stats = _cli_cache(args).stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        for key, value in stats.items():
            print(f"{key:>12}: {value}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_service

    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    try:
        with _observability(args):
            run_service(
                host=args.host,
                port=args.port,
                workers=args.workers,
                cache=args.cache,
                cache_dir=args.cache_dir,
                rate=args.rate,
                burst=args.burst,
                max_inflight=args.max_inflight,
            )
    except OSError as exc:
        raise SystemExit(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    return 0


def _expand_stream_paths(paths: List[str]) -> List[str]:
    """Flatten trace directories into their ``*.jsonl`` streams."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            out.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".jsonl")
            )
        else:
            out.append(path)
    return out


def _cmd_obs_validate(args: argparse.Namespace) -> int:
    from repro.obs.events import validate_jsonl_file

    failed = False
    for path in _expand_stream_paths(args.paths):
        events, problems = validate_jsonl_file(path)
        if problems:
            failed = True
            print(f"{path}: INVALID ({len(problems)} problem(s)): {problems[0]}")
            if args.verbose:
                for problem in problems[1:]:
                    print(f"  {problem}")
        else:
            print(f"{path}: ok ({len(events)} event(s))")
    return 1 if failed else 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs.export import export_chrome_trace

    paths = _expand_stream_paths(args.paths)
    if not paths:
        raise SystemExit("obs export: no JSONL event streams found")
    try:
        summary = export_chrome_trace(paths, args.out, trace_id=args.trace_id)
    except OSError as exc:
        raise SystemExit(f"obs export: {exc}") from exc
    print(
        f"wrote {summary['events']} event(s) ({summary['spans']} span(s)) "
        f"from {summary['streams']} stream(s) to {summary['out']}"
    )
    return 0


def _snapshot_from_stream(path: str) -> dict:
    """Rebuild a metrics snapshot from a stream's flushed final values."""
    from repro.obs.events import read_jsonl

    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    for record in read_jsonl(path, skip_invalid=True):
        kind = record.get("kind")
        name = record.get("name")
        if not isinstance(name, str):
            continue
        if kind == "counter":
            counters[name] = record.get("value", 0)
        elif kind == "gauge":
            gauges[name] = record.get("value", 0)
        elif kind == "histogram":
            pairs = record.get("buckets") or []
            histograms[name] = {
                "bounds": [p[0] for p in pairs if p[0] is not None],
                "counts": [p[1] for p in pairs],
                "count": record.get("count", 0),
                "sum": record.get("sum", 0.0),
            }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def _cmd_obs_metrics(args: argparse.Namespace) -> int:
    if (args.url is None) == (args.path is None):
        raise SystemExit("obs metrics: give a JSONL PATH or --url, not both")
    if args.url is not None:
        from urllib.error import URLError
        from urllib.request import urlopen

        url = args.url
        if not url.rstrip("/").endswith("/v1/metrics"):
            url = url.rstrip("/") + "/v1/metrics"
        try:
            with urlopen(url, timeout=30) as response:
                sys.stdout.write(response.read().decode("utf-8"))
        except (OSError, URLError) as exc:
            raise SystemExit(f"obs metrics: cannot scrape {url}: {exc}") from exc
        return 0
    from repro.obs.telemetry import prometheus_exposition

    try:
        snapshot = _snapshot_from_stream(args.path)
    except OSError as exc:
        raise SystemExit(f"obs metrics: {exc}") from exc
    sys.stdout.write(prometheus_exposition(snapshot))
    return 0


def _cmd_cache_evict(args: argparse.Namespace) -> int:
    store = _cli_cache(args)
    evicted = store.evict(0 if args.all else args.max_bytes)
    stats = store.stats()
    print(
        f"evicted {len(evicted)} entrie(s); "
        f"{stats['entries']} left ({stats['bytes']} bytes) in {store.root}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fpga",
        description="Heterogeneous-FPGA netlist partitioning (DAC'94 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="gate-level circuit statistics")
    _add_circuit_args(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_map = sub.add_parser("map", help="technology-map into XC3000 CLBs")
    _add_circuit_args(p_map)
    p_map.set_defaults(func=_cmd_map)

    p_bi = sub.add_parser("bipartition", help="equal-size min-cut bipartitioning")
    _add_circuit_args(p_bi)
    p_bi.add_argument(
        "--algorithm",
        choices=["fm", "fm+functional", "fm+traditional"],
        default="fm+functional",
    )
    p_bi.add_argument("--runs", type=int, default=5)
    p_bi.add_argument("--threshold", type=int, default=0)
    _add_multilevel_arg(p_bi)
    _add_jobs_arg(p_bi)
    _add_resilience_args(p_bi)
    _add_obs_args(p_bi)
    p_bi.set_defaults(func=_cmd_bipartition)

    p_kw = sub.add_parser("partition", help="heterogeneous k-way partitioning")
    _add_circuit_args(p_kw)
    p_kw.add_argument("--threshold", default="1", help="T (int or 'inf')")
    p_kw.add_argument("--solutions", type=int, default=2)
    p_kw.add_argument(
        "--verify",
        action="store_true",
        help="run the independent solution checker; non-zero exit on violations",
    )
    p_kw.add_argument(
        "--delta",
        metavar="PATH",
        default=None,
        help="apply an ECO delta document (repro-netlist-delta/1) to the "
        "mapped netlist before solving; enables warm-start repair from a "
        "cached ancestor solve",
    )
    p_kw.add_argument(
        "--warm-start",
        dest="warm_start",
        metavar="KEY",
        default=None,
        help="warm-start policy for delta solves: a cache key to seed from, "
        "'auto' (nearest cached ancestor, the default), or 'off'",
    )
    p_kw.add_argument(
        "--cache",
        choices=("off", "use", "refresh"),
        default="off",
        help="solution cache policy (default off; 'use' is required for "
        "warm-start repair)",
    )
    p_kw.add_argument(
        "--cache-dir",
        dest="cache_dir",
        metavar="DIR",
        default=None,
        help="cache directory (default: REPRO_CACHE or the user cache dir)",
    )
    _add_multilevel_arg(p_kw)
    _add_jobs_arg(p_kw)
    _add_resilience_args(p_kw)
    _add_obs_args(p_kw)
    p_kw.set_defaults(func=_cmd_partition)

    p_delta = sub.add_parser(
        "delta",
        help="ECO netlist deltas: diff two circuits or generate a drill edit",
    )
    delta_sub = p_delta.add_subparsers(dest="delta_cmd", required=True)
    p_dd = delta_sub.add_parser(
        "diff",
        help="diff OLD into NEW as a repro-netlist-delta/1 document",
    )
    p_dd.add_argument("old", help="benchmark name or .bench file (pre-ECO)")
    p_dd.add_argument("new", help="benchmark name or .bench file (post-ECO)")
    p_dd.add_argument("--scale", type=float, default=1.0)
    p_dd.add_argument("--seed", type=int, default=1994, help="mapping seed")
    p_dd.add_argument("--out", metavar="PATH", default=None)
    p_dd.set_defaults(func=_cmd_delta)
    p_dg = delta_sub.add_parser(
        "gen",
        help="generate a deterministic seeded ECO edit (CI / bench drills)",
    )
    p_dg.add_argument("circuit", help="benchmark name or .bench file")
    p_dg.add_argument("--scale", type=float, default=1.0)
    p_dg.add_argument("--seed", type=int, default=1994, help="mapping seed")
    p_dg.add_argument(
        "--fraction",
        type=float,
        default=0.01,
        help="fraction of cells to edit (default 0.01)",
    )
    p_dg.add_argument(
        "--delta-seed",
        dest="delta_seed",
        type=int,
        default=0,
        help="seed for the edit generator itself",
    )
    p_dg.add_argument("--out", metavar="PATH", default=None)
    p_dg.set_defaults(func=_cmd_delta)

    p_an = sub.add_parser(
        "analyze",
        help="replication-potential distribution + Rent exponent, "
        "or validate an observability trace (--metrics)",
    )
    p_an.add_argument(
        "circuit", nargs="?", default=None, help="benchmark name or .bench file"
    )
    p_an.add_argument("--scale", type=float, default=1.0)
    p_an.add_argument("--seed", type=int, default=1994)
    p_an.add_argument("--json", action="store_true", help="machine-readable output")
    p_an.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="validate and summarize a JSONL trace instead of a circuit",
    )
    p_an.set_defaults(func=_cmd_analyze)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument(
        "name",
        choices=[
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "figure3",
        ],
    )
    p_exp.add_argument("--scale", type=float, default=0.5)
    p_exp.add_argument("--circuits", nargs="*", default=None)
    p_exp.add_argument("--seed", type=int, default=1994)
    p_exp.add_argument("--runs", type=int, default=20)
    p_exp.set_defaults(func=_cmd_experiment)

    p_runs = sub.add_parser(
        "runs", help="inspect the persistent run ledger (quality drift)"
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    def _ledger_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ledger",
            metavar="PATH",
            default=None,
            help="ledger directory or .jsonl file (default results/ledger, "
            "or the REPRO_LEDGER env var)",
        )

    p_rl = runs_sub.add_parser("list", help="list ledger records")
    _ledger_arg(p_rl)
    p_rl.add_argument("--kind", default=None, help="filter by record kind")
    p_rl.add_argument("--circuit", default=None, help="filter by circuit")
    p_rl.add_argument("--json", action="store_true")
    p_rl.set_defaults(func=_cmd_runs_list)

    p_rs = runs_sub.add_parser("show", help="show one record in full")
    p_rs.add_argument(
        "token",
        help="record selector: index, run_id prefix, 'latest', or a JSONL path",
    )
    _ledger_arg(p_rs)
    p_rs.add_argument("--json", action="store_true")
    p_rs.set_defaults(func=_cmd_runs_show)

    p_rd = runs_sub.add_parser(
        "diff",
        help="diff two records; non-zero exit on drift/regression",
    )
    p_rd.add_argument("baseline", help="baseline record selector")
    p_rd.add_argument(
        "current", nargs="?", default="latest", help="current record selector"
    )
    _ledger_arg(p_rd)
    p_rd.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="METRIC=BAND",
        help="per-metric band, e.g. total_cost=5%% or avg_cut=2%%+0.5 "
        "(repeatable)",
    )
    p_rd.add_argument(
        "--strict",
        action="store_true",
        help="also fail on improvements (golden-determinism gating)",
    )
    p_rd.add_argument(
        "--show-same", action="store_true", help="print unchanged metrics too"
    )
    p_rd.add_argument("--json", action="store_true")
    p_rd.set_defaults(func=_cmd_runs_diff)

    p_rr = runs_sub.add_parser(
        "report", help="self-contained HTML report with convergence curves"
    )
    p_rr.add_argument(
        "tokens", nargs="*", help="record selectors (default: the last --last)"
    )
    _ledger_arg(p_rr)
    p_rr.add_argument(
        "--baseline",
        default=None,
        help="also diff every reported run against this record",
    )
    p_rr.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="METRIC=BAND",
        help="per-metric band for --baseline diffs (repeatable)",
    )
    p_rr.add_argument("--last", type=int, default=5, metavar="N")
    p_rr.add_argument("--out", default="runs_report.html", metavar="PATH")
    p_rr.set_defaults(func=_cmd_runs_report)

    p_batch = sub.add_parser(
        "batch", help="run job manifests against the solution cache"
    )
    batch_sub = p_batch.add_subparsers(dest="batch_command", required=True)

    def _cache_dir_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            metavar="PATH",
            default=None,
            help="solution-cache directory (default results/cache, "
            "or the REPRO_CACHE env var)",
        )

    p_br = batch_sub.add_parser(
        "run", help="execute every job of a manifest; exit 1 on failures"
    )
    p_br.add_argument("manifest", help="batch manifest JSON file")
    p_br.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (1 = sequential, 0 = all cores)",
    )
    p_br.add_argument(
        "--cache",
        choices=["use", "refresh", "off"],
        default="use",
        help="solution-cache policy for every job (default use)",
    )
    _cache_dir_arg(p_br)
    p_br.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="global wall-clock budget; jobs that cannot start in time "
        "are reported skipped",
    )
    p_br.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the full batch report JSON here",
    )
    p_br.add_argument(
        "--keep-going",
        action="store_true",
        help="exit 0 even when jobs failed or were skipped (the report "
        "still carries the per-job verdicts)",
    )
    p_br.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    p_br.add_argument("--json", action="store_true")
    p_br.add_argument(
        "--trace",
        action="store_true",
        help="record batch/cache events as JSONL (see docs/OBSERVABILITY.md)",
    )
    p_br.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="JSONL trace destination (implies --trace; default trace.jsonl)",
    )
    p_br.set_defaults(func=_cmd_batch_run)

    p_bm = batch_sub.add_parser(
        "manifest", help="emit a Tables IV-VII sweep manifest"
    )
    p_bm.add_argument(
        "generator",
        choices=["tables4to7"],
        help="which manifest to generate",
    )
    p_bm.add_argument("--circuits", nargs="*", default=None)
    p_bm.add_argument("--scale", type=float, default=1.0)
    p_bm.add_argument("--seed", type=int, default=1994)
    p_bm.add_argument(
        "--thresholds",
        nargs="+",
        default=["inf", "0", "1", "2", "3"],
        metavar="T",
        help="replication thresholds ('inf' or numbers; "
        "default: inf 0 1 2 3)",
    )
    p_bm.add_argument("--solutions", type=int, default=2)
    p_bm.add_argument("--seeds-per-carve", type=int, default=3)
    p_bm.add_argument("--devices-per-carve", type=int, default=3)
    p_bm.add_argument(
        "--out", metavar="PATH", default=None, help="write here (default stdout)"
    )
    p_bm.set_defaults(func=_cmd_batch_manifest)

    p_bc = batch_sub.add_parser(
        "check",
        help="gate two batch reports: warm hit rate + bit-identical results",
    )
    p_bc.add_argument("first", help="cold-run report JSON")
    p_bc.add_argument("second", help="warm-run report JSON")
    p_bc.add_argument(
        "--min-hit-rate",
        type=float,
        default=0.9,
        metavar="FRAC",
        help="required cache hit rate in the second run (default 0.9)",
    )
    p_bc.set_defaults(func=_cmd_batch_check)

    p_cache = sub.add_parser(
        "cache", help="inspect or trim the on-disk solution cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    p_cs = cache_sub.add_parser("stats", help="entry/byte counts and location")
    _cache_dir_arg(p_cs)
    p_cs.add_argument("--json", action="store_true")
    p_cs.set_defaults(func=_cmd_cache_stats)

    p_ce = cache_sub.add_parser(
        "evict", help="LRU-evict entries down to the size cap"
    )
    _cache_dir_arg(p_ce)
    p_ce.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="evict down to N bytes (default: the configured cap)",
    )
    p_ce.add_argument(
        "--all", action="store_true", help="evict everything (same as 0 bytes)"
    )
    p_ce.set_defaults(func=_cmd_cache_evict)

    p_serve = sub.add_parser(
        "serve",
        help="partitioning-as-a-service: async HTTP job server "
        "(submit/status/cancel/stream; see docs/SERVICE.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8377,
        help="listen port (0 = pick a free port and print it; default 8377)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="solver worker processes (default 2)",
    )
    p_serve.add_argument(
        "--cache",
        choices=["use", "refresh", "off"],
        default="use",
        help="solution-cache policy for served jobs (default use)",
    )
    p_serve.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="solution-cache directory (default results/cache, "
        "or the REPRO_CACHE env var)",
    )
    p_serve.add_argument(
        "--rate",
        type=float,
        default=20.0,
        metavar="R",
        help="per-client submissions/second (token-bucket refill; default 20)",
    )
    p_serve.add_argument(
        "--burst",
        type=float,
        default=40.0,
        metavar="B",
        help="per-client burst capacity (default 40)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        metavar="N",
        help="per-client queued+running job quota (default 16)",
    )
    p_serve.add_argument(
        "--trace",
        action="store_true",
        help="serve under an enabled metrics registry: GET /v1/metrics "
        "then exposes every registry series (trace-labeled counters "
        "included), and job events are mirrored to the trace stream",
    )
    p_serve.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="JSONL trace destination (implies --trace; default trace.jsonl)",
    )
    p_serve.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="directory for per-process JSONL streams (implies --trace): "
        "the server writes main.jsonl, solver workers append "
        "worker-<pid>.jsonl; merge with 'repro-fpga obs export'",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_obs = sub.add_parser(
        "obs",
        help="observability utilities: validate JSONL event streams, "
        "export Perfetto timelines, render Prometheus metrics",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_ov = obs_sub.add_parser(
        "validate",
        help="validate repro-obs-events/1 JSONL stream(s); exit 1 and "
        "report the first offending line on schema problems",
    )
    p_ov.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="JSONL stream files or trace directories",
    )
    p_ov.add_argument(
        "--verbose", action="store_true",
        help="list every problem, not just the first",
    )
    p_ov.set_defaults(func=_cmd_obs_validate)

    p_oe = obs_sub.add_parser(
        "export",
        help="merge JSONL stream(s) into one Chrome trace-event timeline "
        "(open in Perfetto or chrome://tracing)",
    )
    p_oe.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="JSONL stream files or trace directories (multi-worker "
        "streams merge into per-pid lanes)",
    )
    p_oe.add_argument(
        "--chrome", action="store_true",
        help="write Chrome trace-event JSON (the default and currently "
        "only format)",
    )
    p_oe.add_argument(
        "--out", default="trace.chrome.json", metavar="FILE",
        help="output file (default trace.chrome.json)",
    )
    p_oe.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="keep only records stamped with this trace id",
    )
    p_oe.set_defaults(func=_cmd_obs_export)

    p_om = obs_sub.add_parser(
        "metrics",
        help="Prometheus text exposition: scrape a live service (--url) "
        "or render a JSONL trace's final metric values",
    )
    p_om.add_argument(
        "path", nargs="?", default=None, metavar="PATH",
        help="JSONL trace whose flushed metrics should be rendered",
    )
    p_om.add_argument(
        "--url", default=None, metavar="URL",
        help="service base URL (or full /v1/metrics URL) to scrape",
    )
    p_om.set_defaults(func=_cmd_obs_metrics)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
