"""The persistent run ledger: append-only quality telemetry across runs.

PR 3's observability layer instruments a *single* process; everything it
collects evaporates on exit.  The ledger is the cross-run complement: an
append-only, schema-versioned JSONL store (``results/ledger/runs.jsonl``
by default) holding one :func:`build_record` dict per solver or
experiment run, so questions like "did this commit move s9234's total
device cost or average IOB utilization (paper eq. 1-2)?" become a
``repro-fpga runs diff`` instead of a manual re-run.

Each record is keyed by the tuple that determines solver output:

* ``netlist_hash`` -- :func:`netlist_fingerprint` over the mapped
  netlist's cells, pins, supports and pads;
* ``config_fingerprint`` -- :func:`config_fingerprint` over the
  canonicalized solver configuration;
* ``seed`` -- the run seed;

hashed together into ``run_key``.  Two runs with equal ``run_key`` must
produce identical quality vectors (the solvers are deterministic per
seed); everything that legitimately varies -- timestamps, host info, git
revision, wall-clock -- lives in :data:`VOLATILE_KEYS` and is ignored by
:func:`stable_view` and by :mod:`repro.obs.compare`.

The quality vector captures the paper's objectives: cut (experiment 1),
total device cost ``$_k`` (eq. 1), average IOB utilization ``bar t_k``
(eq. 2), per-device utilization, replication fraction and feasibility.
``convergence`` distills the per-pass / per-carve series from the
in-process event stream (``kway.carve_committed``, ``fm.run_gains``,
``repl.run_gains``, ``runner.*``).

Enablement mirrors the metrics registry: the process default is *no*
ledger (one ``resolve_ledger() is None`` check per ``repro.api`` verb,
never inside solver loops), an explicit :class:`Ledger` can be installed
with :func:`set_ledger` / :func:`use_ledger`, and the ``REPRO_LEDGER``
environment variable supplies a process-wide default path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.obs.events import ListEmitter, read_jsonl
from repro.obs.metrics import MetricsRegistry, get_registry, use_registry

#: Version stamped into every ledger record as ``v``.
LEDGER_SCHEMA_VERSION = 1

#: Stream identifier written in every record's ``schema`` field.
LEDGER_SCHEMA_NAME = "repro-run-ledger/1"

#: Default ledger directory (relative to the working directory).
DEFAULT_LEDGER_DIR = os.path.join("results", "ledger")

#: File name of the append-only record stream inside a ledger directory.
LEDGER_FILENAME = "runs.jsonl"

#: Environment variable supplying a process-wide default ledger path.
LEDGER_ENV_VAR = "REPRO_LEDGER"

#: Record kinds a conforming ledger may contain.
RECORD_KINDS = ("partition", "bipartition", "experiment", "bench")

#: Top-level record fields that may differ between re-runs of the same
#: (netlist, config, seed) without the quality having drifted.
VOLATILE_KEYS = (
    "run_id", "ts", "iso_ts", "git_rev", "host", "timing", "runner", "trace_id",
)

#: Cap on the number of per-run pass-gain series kept in ``convergence``
#: (the k-way candidate scan produces one per candidate engine run).
MAX_PASS_SERIES = 32

#: Cap on the number of multilevel per-level entries kept in
#: ``convergence`` (one ``ml.level`` event per level per V-cycle descent).
MAX_ML_LEVELS = 120


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into strict-JSON-safe data.

    ``inf`` / ``nan`` are mapped to strings (strict JSON has no literal
    for them and the paper's ``T = inf`` baseline must round-trip).
    """
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering used for every fingerprint."""
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))


def fingerprint(payload: Any, length: int = 16) -> str:
    """Truncated sha256 over :func:`canonical_json` of ``payload``."""
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return digest[:length]


def netlist_fingerprint(mapped: Any) -> str:
    """Stable hash of a mapped netlist's partition-relevant structure.

    Covers cell names, input/output pins, output support sets and the
    I/O pads -- everything the carve flow reads.  Truth tables are
    excluded deliberately: two circuits with identical connectivity
    partition identically.

    Computed at most once per :class:`~repro.techmap.mapped.MappedNetlist`
    (which is immutable after construction): the digest is memoized on
    the object.  Other duck-typed netlists are hashed on every call.
    """
    digest = getattr(mapped, "_fingerprint", None)
    if digest is None:
        digest = fingerprint(_netlist_payload(mapped))
        if hasattr(mapped, "_fingerprint"):
            mapped._fingerprint = digest
    return digest


def _netlist_payload(mapped: Any) -> Dict[str, Any]:
    """The structure :func:`netlist_fingerprint` hashes."""
    return {
        "name": mapped.name,
        "pis": list(mapped.primary_inputs),
        "pos": list(mapped.primary_outputs),
        "cells": [
            [
                cell.name,
                list(cell.inputs),
                list(cell.outputs),
                [sorted(sup) for sup in cell.supports],
            ]
            for cell in mapped.cells
        ],
    }


def config_fingerprint(config: Dict[str, Any]) -> str:
    """Hash of a canonicalized configuration dict."""
    return fingerprint(config)


def run_key(netlist_hash: str, config_fp: str, seed: int) -> str:
    """The identity under which quality must be reproducible."""
    return fingerprint({"netlist": netlist_hash, "config": config_fp, "seed": seed}, 12)


_GIT_REV_CACHE: Dict[str, Optional[str]] = {}


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Best-effort ``git rev-parse HEAD`` (cached; ``None`` outside a repo)."""
    key = os.path.abspath(cwd or os.getcwd())
    if key not in _GIT_REV_CACHE:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=key,
                capture_output=True,
                text=True,
                timeout=5,
            )
            rev = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            rev = None
        _GIT_REV_CACHE[key] = rev or None
    return _GIT_REV_CACHE[key]


# ---------------------------------------------------------------------------
# Quality vectors
# ---------------------------------------------------------------------------


def quality_from_kway(solution: Any) -> Dict[str, Any]:
    """Quality vector of a :class:`~repro.partition.kway.KWaySolution`."""
    cost = solution.cost
    return {
        "k": solution.k,
        "total_cost": cost.total_cost,
        "device_counts": dict(sorted(cost.device_counts.items())),
        "avg_clb_utilization": cost.avg_clb_utilization,
        "avg_iob_utilization": cost.avg_iob_utilization,
        "replicated_fraction": solution.replicated_fraction,
        "feasible": solution.feasible,
        "truncated": solution.truncated,
        "n_instances": solution.n_instances,
        "n_cells": solution.n_original_cells,
        "blocks": [
            {
                "device": b.device.name,
                "clbs": b.n_clbs,
                "terminals": b.terminals,
                "clb_utilization": b.n_clbs / b.device.clbs if b.device.clbs else 0.0,
                "iob_utilization": (
                    b.terminals / b.device.terminals if b.device.terminals else 0.0
                ),
            }
            for b in solution.blocks
        ],
    }


def quality_from_kway_report(report: Any) -> Dict[str, Any]:
    """Quality vector of a :class:`~repro.core.results.KWayReport`."""
    return {
        "k": report.k,
        "total_cost": report.total_cost,
        "device_counts": dict(sorted(report.device_counts.items())),
        "avg_clb_utilization": report.avg_clb_utilization,
        "avg_iob_utilization": report.avg_iob_utilization,
        "replicated_fraction": report.replicated_fraction,
        "feasible": report.feasible,
        "n_instances": report.n_instances,
        "n_cells": report.n_cells,
    }


def quality_from_bipartition(report: Any) -> Dict[str, Any]:
    """Quality vector of a :class:`~repro.core.results.BipartitionReport`."""
    return {
        "algorithm": report.algorithm,
        "runs": report.runs,
        "best_cut": report.best_cut,
        "avg_cut": report.avg_cut,
        "cuts": list(report.cuts),
        "avg_replicated": report.avg_replicated,
        "replicated_counts": list(report.replicated_counts),
        "n_cells": report.n_cells,
    }


# ---------------------------------------------------------------------------
# Convergence distillation
# ---------------------------------------------------------------------------


def distill_convergence(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Distill per-carve / per-pass convergence series from an event stream.

    ``events`` are dicts in the ``repro-obs-events/1`` shape (from a
    :class:`~repro.obs.events.ListEmitter` or a parsed JSONL trace).
    Returns a dict with:

    * ``carves`` -- one entry per committed k-way carve level plus the
      final block, in order (cut, terminals, replication per level);
    * ``pass_series`` -- per-engine-run FM/replication pass-gain vectors
      (``fm.run_gains`` / ``repl.run_gains`` events), capped at
      :data:`MAX_PASS_SERIES` with ``pass_series_dropped`` counting the
      overflow;
    * ``runner_attempts`` -- resilient-runner attempt outcomes, when the
      run went through :class:`~repro.robust.runner.ResilientRunner`;
    * ``multilevel`` -- the V-cycle profile (``ml.level`` events: level
      index, cells, nets, cut after refinement, match rate), capped at
      :data:`MAX_ML_LEVELS` with ``multilevel_dropped`` counting the
      overflow;
    * ``incremental`` -- present only for warm incremental re-solves
      (``incr.warm`` event: dirty cells, warm speedup, ancestor key), so
      ledger records distinguish warm from cold runs.
    """
    carves: List[Dict[str, Any]] = []
    pass_series: List[Dict[str, Any]] = []
    dropped = 0
    runner_attempts: List[Dict[str, Any]] = []
    ml_levels: List[Dict[str, Any]] = []
    ml_dropped = 0
    incremental: Optional[Dict[str, Any]] = None
    for event in events:
        if event.get("kind") != "event":
            continue
        name = event.get("name")
        fields = event.get("fields") or {}
        if name == "kway.carve_committed":
            carves.append(
                {
                    "level": fields.get("level"),
                    "device": fields.get("device"),
                    "clbs": fields.get("clbs0"),
                    "terminals": fields.get("terminals"),
                    "cut": fields.get("cut"),
                    "replicated": fields.get("replicated"),
                }
            )
        elif name == "kway.final_block":
            carves.append(
                {
                    "level": fields.get("level"),
                    "device": fields.get("device"),
                    "clbs": fields.get("clbs"),
                    "terminals": None,
                    "cut": 0,
                    "replicated": 0,
                    "final": True,
                }
            )
        elif name in ("fm.run_gains", "repl.run_gains"):
            if len(pass_series) < MAX_PASS_SERIES:
                pass_series.append(
                    {
                        "engine": "fm" if name == "fm.run_gains" else "repl",
                        "seed": fields.get("seed"),
                        "initial_cut": fields.get("initial_cut"),
                        "final_cut": fields.get("final_cut"),
                        "gains": fields.get("gains"),
                    }
                )
            else:
                dropped += 1
        elif name == "runner.attempt":
            runner_attempts.append(
                {
                    "engine": fields.get("engine"),
                    "attempt": fields.get("attempt"),
                    "seed": fields.get("seed"),
                    "outcome": fields.get("outcome"),
                }
            )
        elif name == "incr.warm":
            incremental = {
                "dirty_cells": fields.get("dirty_cells"),
                "speedup": fields.get("speedup"),
                "ancestor": fields.get("ancestor"),
            }
        elif name == "ml.level":
            if len(ml_levels) < MAX_ML_LEVELS:
                ml_levels.append(
                    {
                        "level": fields.get("level"),
                        "cells": fields.get("cells"),
                        "nets": fields.get("nets"),
                        "cut": fields.get("cut"),
                        "match_rate": fields.get("match_rate"),
                    }
                )
            else:
                ml_dropped += 1
    out: Dict[str, Any] = {"carves": carves, "pass_series": pass_series}
    if dropped:
        out["pass_series_dropped"] = dropped
    if runner_attempts:
        out["runner_attempts"] = runner_attempts
    if ml_levels:
        out["multilevel"] = ml_levels
        if ml_dropped:
            out["multilevel_dropped"] = ml_dropped
    if incremental is not None:
        # Marks the record as a warm incremental re-solve (ledger diffs
        # can tell warm from cold without consulting the cache).
        out["incremental"] = incremental
    return out


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def build_record(
    kind: str,
    circuit: str,
    config: Dict[str, Any],
    seed: int,
    quality: Dict[str, Any],
    netlist_hash: Optional[str] = None,
    mapped: Any = None,
    convergence: Optional[Dict[str, Any]] = None,
    elapsed_seconds: Optional[float] = None,
    runner_summary: Optional[Dict[str, Any]] = None,
    trace_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble one schema-conforming ledger record.

    Pass either ``mapped`` (fingerprinted here) or a precomputed
    ``netlist_hash``; experiment-suite records that aggregate several
    circuits may pass neither, in which case the hash is derived from
    the circuit label.  ``trace_id`` links the record to the run's
    observability stream; like timing it is volatile -- excluded from
    :func:`stable_view` and the determinism contract.
    """
    if kind not in RECORD_KINDS:
        raise ValueError(f"unknown record kind {kind!r}; expected {RECORD_KINDS}")
    if netlist_hash is None:
        netlist_hash = (
            netlist_fingerprint(mapped) if mapped is not None
            else fingerprint({"circuit": circuit})
        )
    config = _jsonable(config)
    config_fp = config_fingerprint(config)
    key = run_key(netlist_hash, config_fp, seed)
    now = time.time()
    record: Dict[str, Any] = {
        "v": LEDGER_SCHEMA_VERSION,
        "schema": LEDGER_SCHEMA_NAME,
        "run_id": fingerprint({"key": key, "ts": now, "pid": os.getpid()}, 12),
        "run_key": key,
        "ts": now,
        "iso_ts": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(now)) + "Z",
        "kind": kind,
        "circuit": circuit,
        "netlist_hash": netlist_hash,
        "config": config,
        "config_fingerprint": config_fp,
        "seed": seed,
        "git_rev": git_revision(),
        "host": {
            "python": platform.python_version(),
            "platform": platform.system(),
            "machine": platform.machine(),
            "pid": os.getpid(),
        },
        "quality": _jsonable(quality),
        "convergence": _jsonable(convergence or {"carves": [], "pass_series": []}),
        "timing": {"elapsed_seconds": elapsed_seconds},
    }
    if runner_summary is not None:
        record["runner"] = _jsonable(runner_summary)
    if trace_id is not None:
        record["trace_id"] = trace_id
    return record


def stable_view(record: Dict[str, Any]) -> Dict[str, Any]:
    """The record minus :data:`VOLATILE_KEYS`.

    Two runs of the same (netlist, config, seed) must agree on this
    view exactly -- the determinism contract the tests and the CI drift
    gate rely on.
    """
    return {k: v for k, v in record.items() if k not in VOLATILE_KEYS}


def validate_record(record: Any) -> List[str]:
    """Schema-check one ledger record; returns problems (empty = ok)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]

    def check(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    check(record.get("v") == LEDGER_SCHEMA_VERSION,
          f"v={record.get('v')!r}, expected {LEDGER_SCHEMA_VERSION}")
    check(record.get("schema") == LEDGER_SCHEMA_NAME,
          f"schema={record.get('schema')!r}, expected {LEDGER_SCHEMA_NAME}")
    check(record.get("kind") in RECORD_KINDS,
          f"unknown kind {record.get('kind')!r}")
    for field in ("run_id", "run_key", "circuit", "netlist_hash",
                  "config_fingerprint"):
        check(isinstance(record.get(field), str) and bool(record.get(field)),
              f"{field} must be a non-empty string")
    check(isinstance(record.get("ts"), (int, float)), "ts must be a number")
    check(isinstance(record.get("seed"), int), "seed must be an int")
    check(isinstance(record.get("config"), dict), "config must be an object")
    check(isinstance(record.get("quality"), dict), "quality must be an object")
    check(isinstance(record.get("convergence"), dict),
          "convergence must be an object")
    if "trace_id" in record:
        check(isinstance(record["trace_id"], str) and bool(record["trace_id"]),
              "trace_id must be a non-empty string")
    return problems


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class Ledger:
    """Append-only JSONL run store.

    ``path`` may be a directory (records land in
    ``<path>/runs.jsonl``) or a ``.jsonl`` file path.  Appends are
    line-atomic (one ``write`` per record on an append-mode handle
    opened per call), so concurrent runs interleave whole records.
    """

    def __init__(self, path: str = DEFAULT_LEDGER_DIR) -> None:
        if path.endswith(".jsonl"):
            self.path = path
        else:
            self.path = os.path.join(path, LEDGER_FILENAME)

    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and append one record; returns it."""
        problems = validate_record(record)
        if problems:
            raise ValueError(
                f"refusing to append malformed ledger record: {problems}"
            )
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(_jsonable(record), sort_keys=True) + "\n")
        return record

    def records(self) -> List[Dict[str, Any]]:
        """Every record in append order (empty when no file yet)."""
        if not os.path.exists(self.path):
            return []
        return read_jsonl(self.path, skip_invalid=True)

    def find(self, token: str) -> Dict[str, Any]:
        """Resolve ``token`` to one record.

        Accepted forms: an integer index into append order (negative
        counts from the end), ``"latest"``, a ``run_id`` prefix, or a
        path to a JSONL file whose first record is used (golden files).
        """
        if os.path.isfile(token) and token != self.path:
            rows = read_jsonl(token)
            if not rows:
                raise LookupError(f"no records in {token!r}")
            return rows[0]
        rows = self.records()
        if not rows:
            raise LookupError(f"ledger {self.path!r} is empty")
        if token == "latest":
            return rows[-1]
        try:
            return rows[int(token)]
        except (ValueError, IndexError):
            pass
        matches = [r for r in rows if str(r.get("run_id", "")).startswith(token)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise LookupError(f"no record matching {token!r} in {self.path}")
        raise LookupError(
            f"{token!r} is ambiguous: {len(matches)} records match in {self.path}"
        )

    def latest(self, **filters: Any) -> Optional[Dict[str, Any]]:
        """The newest record whose top-level fields match ``filters``."""
        for record in reversed(self.records()):
            if all(record.get(k) == v for k, v in filters.items()):
                return record
        return None


# ---------------------------------------------------------------------------
# Process-local enablement (mirrors repro.obs.metrics)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Ledger] = None


def get_ledger() -> Optional[Ledger]:
    """The explicitly installed process-local ledger, or ``None``."""
    return _ACTIVE


def set_ledger(ledger: Optional[Ledger]) -> Optional[Ledger]:
    """Install ``ledger`` process-wide (``None`` disables again)."""
    global _ACTIVE
    _ACTIVE = ledger
    return _ACTIVE


@contextmanager
def use_ledger(ledger: Ledger) -> Iterator[Ledger]:
    """Scoped :func:`set_ledger`: restores the previous ledger on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ledger
    try:
        yield ledger
    finally:
        _ACTIVE = previous


def resolve_ledger(explicit: Optional[str] = None) -> Optional[Ledger]:
    """The ledger in effect: ``explicit`` path > installed > environment.

    This is the single check ``repro.api`` pays per verb in disabled
    mode -- the solvers themselves never consult the ledger.
    """
    if explicit:
        return Ledger(explicit)
    if _ACTIVE is not None:
        return _ACTIVE
    env = os.environ.get(LEDGER_ENV_VAR)
    if env:
        return Ledger(DEFAULT_LEDGER_DIR if env.lower() in ("1", "true") else env)
    return None


@contextmanager
def capture_events(enabled: bool = True) -> Iterator[List[Dict[str, Any]]]:
    """Capture the obs event stream of a scope for ledger distillation.

    Yields the live list the events accumulate into.  When the active
    registry is disabled, a fresh enabled registry with a
    :class:`~repro.obs.events.ListEmitter` is installed for the scope
    (tracing is guaranteed result-neutral, see ``tests/test_obs.py``);
    when an enabled registry with a ``ListEmitter`` is already active,
    its list is reused; any other emitter yields an empty capture
    rather than disturb the caller's trace.
    """
    if not enabled:
        yield []
        return
    active = get_registry()
    if active.enabled:
        emitter = active.emitter
        yield emitter.events if isinstance(emitter, ListEmitter) else []
        return
    registry = MetricsRegistry(enabled=True, emitter=ListEmitter())
    with use_registry(registry):
        yield registry.emitter.events


__all__ = [
    "LEDGER_SCHEMA_NAME",
    "LEDGER_SCHEMA_VERSION",
    "DEFAULT_LEDGER_DIR",
    "LEDGER_ENV_VAR",
    "RECORD_KINDS",
    "VOLATILE_KEYS",
    "Ledger",
    "build_record",
    "canonical_json",
    "capture_events",
    "config_fingerprint",
    "distill_convergence",
    "fingerprint",
    "get_ledger",
    "git_revision",
    "netlist_fingerprint",
    "quality_from_bipartition",
    "quality_from_kway",
    "quality_from_kway_report",
    "resolve_ledger",
    "run_key",
    "set_ledger",
    "stable_view",
    "use_ledger",
    "validate_record",
]
