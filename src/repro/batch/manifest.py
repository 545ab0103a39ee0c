"""Batch manifests: many solver jobs as one declarative JSON document.

A manifest (schema ``repro-batch-manifest/1``) describes a sweep --
netlist x device-library x algorithm x seeds -- as data::

    {
      "schema": "repro-batch-manifest/1",
      "name": "tables4to7-quick",
      "defaults": {"scale": 0.25, "algorithm": "fm+functional"},
      "jobs": [
        {"verb": "partition", "circuit": "s5378", "threshold": "inf",
         "seeds": [0, 1], "priority": 5},
        {"verb": "bipartition", "circuit": "c3540", "runs": 10}
      ]
    }

``defaults`` apply to every job; a job's own fields win.  A ``seeds``
list expands one entry into one :class:`BatchJob` per seed (a scalar
``seed`` is also accepted).  ``threshold`` accepts the paper's
``T = inf`` baseline as the string ``"inf"`` (strict JSON has no
infinity literal).  Per-job ``deadline`` / ``max_retries`` / ``fallback``
route each job through the resilient runner exactly as the same
:class:`~repro.request.PartitionRequest` fields do -- and, like those,
they are part of the job's cache identity.

:func:`expand_manifest` yields fully-resolved jobs in manifest order;
:func:`load_manifest` reads and validates a file.  The scheduler
(:mod:`repro.batch.scheduler`) consumes the jobs; it never re-reads the
manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.partition.devices import (
    DeviceLibrary,
    XC3000_LIBRARY,
    XC4000_LIBRARY,
)
from repro.request import PartitionRequest

#: Manifest identifier expected in the ``schema`` field.
MANIFEST_SCHEMA_NAME = "repro-batch-manifest/1"

#: Report identifier stamped into every batch report.
REPORT_SCHEMA_NAME = "repro-batch-report/1"

#: Verbs a manifest job may use (the cacheable request verbs).
JOB_VERBS = ("partition", "bipartition")

#: Device libraries resolvable by name in a manifest.
LIBRARIES: Dict[str, DeviceLibrary] = {
    XC3000_LIBRARY.name: XC3000_LIBRARY,
    XC4000_LIBRARY.name: XC4000_LIBRARY,
}

#: Per-verb tunables a job may set (beyond the common fields), with the
#: defaults used when neither the job nor ``defaults`` supplies them.
#: Bipartition jobs default to ``threshold=0`` (the paper's experiment 1).
_PARTITION_PARAMS: Dict[str, Any] = {
    "threshold": 1,
    "library": "XC3000",
    "n_solutions": 2,
    "seeds_per_carve": 3,
    "devices_per_carve": 3,
}
_BIPARTITION_PARAMS: Dict[str, Any] = {
    "runs": 20,
    "threshold": 0,
    "balance_tolerance": 0.02,
    "max_passes": 16,
    "max_growth": None,
}
_COMMON_PARAMS: Dict[str, Any] = {
    "scale": 1.0,
    "algorithm": "fm+functional",
    "deadline": None,
    "max_retries": None,
    "fallback": None,
    # Tri-state V-cycle knob; accepts the wire spellings "on"/"off"/
    # "auto" as well as true/false/null.  Part of the cache identity
    # only when it resolves on (see PartitionRequest.config).
    "multilevel": None,
}


class ManifestError(ValueError):
    """A manifest that cannot be expanded into valid jobs."""


@dataclass
class BatchJob:
    """One fully-resolved solver invocation from a manifest."""

    job_id: str
    verb: str  # "partition" | "bipartition"
    circuit: str
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    #: Position in the expanded manifest (stable tie-break for dispatch).
    index: int = 0
    #: Trace-correlation id carried from the submitting request (service
    #: jobs).  Execution metadata only: never part of the job identity
    #: used for dedupe/caching (see ``repro.batch.scheduler.job_identity``).
    trace_id: Optional[str] = None
    #: Sentinel-file path for mid-solve cancellation (service jobs).
    #: Execution metadata like ``trace_id``: the pool worker polls it
    #: through :class:`repro.robust.budget.CancelFlag` and winds down
    #: gracefully when the submitting side creates the file.
    cancel_path: Optional[str] = None

    @property
    def netlist_id(self) -> tuple:
        """The (circuit, scale, mapping seed) triple that determines the
        mapped netlist this job runs on.

        ``repro.api`` maps with ``seed or 1994`` -- at ``scale < 1`` the
        sampled benchmark depends on that seed, so jobs share a netlist
        build (and a netlist hash) only when this triple matches.
        """
        return (self.circuit, float(self.params["scale"]), self.seed or 1994)

    def to_request(self) -> PartitionRequest:
        """This job as a canonical :class:`~repro.request.PartitionRequest`.

        The request carries the identity fields only (verb, circuit,
        seed, solver tunables); execution policy (cache, jobs) is the
        scheduler's call and is passed to
        :func:`repro.api.run_request` separately.  Workers execute
        ``job.to_request()`` and the service submits the very same
        document over the wire, so a batch job and a service job with
        equal parameters are bit-identical by construction.
        """
        params = {k: v for k, v in self.params.items() if k != "library"}
        library = self.params.get("library")
        if self.verb == "partition":
            params["library"] = resolve_library(library).name
        try:
            request = PartitionRequest(
                verb=self.verb, circuit=self.circuit, seed=self.seed, **params
            )
        except ValueError as exc:
            raise ManifestError(f"job {self.job_id}: {exc}") from exc
        return request.with_trace(self.trace_id) if self.trace_id else request


def resolve_library(name: Optional[str]) -> DeviceLibrary:
    """A bundled device library by name (``None`` -> XC3000)."""
    if name is None:
        return XC3000_LIBRARY
    try:
        return LIBRARIES[name]
    except KeyError:
        raise ManifestError(
            f"unknown device library {name!r}; known: {sorted(LIBRARIES)}"
        ) from None


def parse_threshold(value: Any) -> Union[int, float]:
    """A job threshold: a number, or ``"inf"`` for the no-replication
    baseline (strict JSON cannot carry the float directly)."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return float("inf")
        raise ManifestError(f"threshold {value!r} is not a number or 'inf'")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ManifestError(f"threshold {value!r} is not a number or 'inf'")
    return value


def threshold_label(threshold: Union[int, float]) -> str:
    """The manifest/JSON spelling of a threshold (inverse of parsing)."""
    return "inf" if threshold == float("inf") else str(int(threshold))


_META_KEYS = ("verb", "circuit", "seed", "seeds", "priority")

#: Every field any verb knows -- a default outside this set is a typo.
_ALL_PARAMS = set(_COMMON_PARAMS) | set(_PARTITION_PARAMS) | set(_BIPARTITION_PARAMS)


def _job_params(
    verb: str,
    defaults: Dict[str, Any],
    raw: Dict[str, Any],
    where: str,
) -> Dict[str, Any]:
    """Merge job fields over manifest defaults over the verb defaults.

    A *default* naming a field the job's verb does not take is silently
    skipped (one ``defaults`` block may serve mixed-verb manifests, e.g.
    ``n_solutions`` alongside bipartition jobs) -- unless no verb knows
    it at all.  A field set on the *job itself* must be valid for its
    verb.
    """
    known = dict(_COMMON_PARAMS)
    known.update(_PARTITION_PARAMS if verb == "partition" else _BIPARTITION_PARAMS)
    params = dict(known)
    for key, value in defaults.items():
        if key in _META_KEYS:
            continue
        if key not in _ALL_PARAMS:
            raise ManifestError(f"{where}: unknown default field {key!r}")
        if key in known:
            params[key] = value
    for key, value in raw.items():
        if key in _META_KEYS:
            continue
        if key not in known:
            raise ManifestError(f"{where}: unknown {verb} field {key!r}")
        params[key] = value
    if "threshold" in params:
        params["threshold"] = parse_threshold(params["threshold"])
    if verb == "partition":
        resolve_library(params["library"])  # validate the name early
    return params


def _job_seeds(raw: Dict[str, Any], where: str) -> List[int]:
    if "seeds" in raw and "seed" in raw:
        raise ManifestError(f"{where}: give either 'seed' or 'seeds', not both")
    seeds = raw.get("seeds", [raw.get("seed", 0)])
    if not isinstance(seeds, list) or not seeds:
        raise ManifestError(f"{where}: 'seeds' must be a non-empty list")
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ManifestError(f"{where}: seed {seed!r} is not an int")
    return list(seeds)


def expand_manifest(manifest: Dict[str, Any]) -> List[BatchJob]:
    """Validate a manifest dict and expand it into concrete jobs.

    Jobs come back in manifest order (seeds expand in list order); the
    ``job_id`` is ``<verb>:<circuit>:<distinguishing params>:<seed>`` and
    unique within the batch.
    """
    if not isinstance(manifest, dict):
        raise ManifestError(f"manifest is {type(manifest).__name__}, expected object")
    if manifest.get("schema") != MANIFEST_SCHEMA_NAME:
        raise ManifestError(
            f"manifest schema {manifest.get('schema')!r}, "
            f"expected {MANIFEST_SCHEMA_NAME!r}"
        )
    defaults = manifest.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ManifestError("manifest 'defaults' must be an object")
    raw_jobs = manifest.get("jobs")
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise ManifestError("manifest 'jobs' must be a non-empty list")

    jobs: List[BatchJob] = []
    seen_ids: Dict[str, int] = {}
    for n, raw in enumerate(raw_jobs):
        where = f"jobs[{n}]"
        if not isinstance(raw, dict):
            raise ManifestError(f"{where}: job is not an object")
        meta = dict(defaults)
        if "seed" in raw or "seeds" in raw:
            # A job's own seed spec fully shadows the default's, so a
            # defaults-level "seed" never conflicts with a job "seeds".
            meta.pop("seed", None)
            meta.pop("seeds", None)
        meta.update(raw)
        verb = meta.get("verb", "partition")
        if verb not in JOB_VERBS:
            raise ManifestError(f"{where}: unknown verb {verb!r}; known: {JOB_VERBS}")
        circuit = meta.get("circuit")
        if not isinstance(circuit, str) or not circuit:
            raise ManifestError(f"{where}: 'circuit' must be a non-empty string")
        priority = meta.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ManifestError(f"{where}: 'priority' must be an int")
        params = _job_params(verb, defaults, raw, where)
        for seed in _job_seeds(meta, where):
            if verb == "partition":
                disc = f"T={threshold_label(params['threshold'])}"
            else:
                disc = f"runs={params['runs']}"
            base_id = f"{verb}:{circuit}:{disc}:s{seed}"
            dup = seen_ids.get(base_id, 0)
            seen_ids[base_id] = dup + 1
            job_id = base_id if dup == 0 else f"{base_id}#{dup}"
            jobs.append(
                BatchJob(
                    job_id=job_id,
                    verb=verb,
                    circuit=circuit,
                    seed=seed,
                    params=params,
                    priority=priority,
                    index=len(jobs),
                )
            )
    return jobs


def requests_from_manifest(manifest: Dict[str, Any]) -> List[PartitionRequest]:
    """Expand a manifest into canonical partition requests, in manifest
    order -- the bridge from declarative sweeps to the request API the
    service and :func:`repro.api.run_request` consume."""
    return [job.to_request() for job in expand_manifest(manifest)]


def load_manifest(path: str) -> Dict[str, Any]:
    """Read a manifest file; raises :class:`ManifestError` on bad JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    expand_manifest(manifest)  # validate eagerly, fail at load time
    return manifest


__all__ = [
    "BatchJob",
    "JOB_VERBS",
    "LIBRARIES",
    "MANIFEST_SCHEMA_NAME",
    "ManifestError",
    "REPORT_SCHEMA_NAME",
    "expand_manifest",
    "load_manifest",
    "parse_threshold",
    "requests_from_manifest",
    "resolve_library",
    "threshold_label",
]
