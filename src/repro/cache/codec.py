"""JSON (de)serialization of solver results for the solution cache.

The cache stores *full* solutions, not just quality vectors, so a hit
can reconstruct the same :class:`~repro.api.RunResult` payload a fresh
solve would return.  Two solution shapes round-trip:

* :class:`~repro.partition.kway.KWaySolution` (``verb="partition"``),
  including every block's instance pin lists -- the independent checker
  :func:`repro.partition.verify.verify_solution` re-derives all
  solution-level quantities from them, which is what lets a cache hit be
  *verified before it is trusted*;
* :class:`~repro.core.results.BipartitionReport`
  (``verb="bipartition"``).

Decoding is strict: unknown payload types, missing fields or
wrong-shaped data raise :class:`CacheDecodeError`, which the store maps
to a miss (recompute) rather than an error -- a corrupted or truncated
entry must never poison a run.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.results import BipartitionReport
from repro.partition.cost import solution_cost
from repro.partition.devices import Device
from repro.partition.kway import BlockResult, KWaySolution

#: Version of the solution payload shape.  Bumped on any change to the
#: encoded fields; the store treats entries with a different codec
#: version as misses (stale-schema invalidation).
CODEC_VERSION = 1


class CacheDecodeError(ValueError):
    """A cache entry payload that cannot be reconstructed."""


def _encode_device(device: Device) -> Dict[str, Any]:
    return {
        "name": device.name,
        "clbs": device.clbs,
        "terminals": device.terminals,
        "price": device.price,
        "util_lower": device.util_lower,
        "util_upper": device.util_upper,
    }


def _decode_device(data: Dict[str, Any]) -> Device:
    try:
        return Device(
            name=data["name"],
            clbs=data["clbs"],
            terminals=data["terminals"],
            price=data["price"],
            util_lower=data["util_lower"],
            util_upper=data["util_upper"],
        )
    except (KeyError, TypeError) as exc:
        raise CacheDecodeError(f"bad device payload: {exc}") from exc


def _encode_block(block: BlockResult) -> Dict[str, Any]:
    return {
        "index": block.index,
        "device": _encode_device(block.device),
        "cells": list(block.cells),
        "originals": list(block.originals),
        "pads": list(block.pads),
        "nets": sorted(block.nets),
        "pad_nets": sorted(block.pad_nets),
        "cell_inputs": [list(pins) for pins in block.cell_inputs],
        "cell_outputs": [list(pins) for pins in block.cell_outputs],
        "terminals": block.terminals,
    }


def _decode_block(data: Dict[str, Any]) -> BlockResult:
    try:
        return BlockResult(
            index=data["index"],
            device=_decode_device(data["device"]),
            cells=list(data["cells"]),
            originals=list(data["originals"]),
            pads=list(data["pads"]),
            nets=set(data["nets"]),
            pad_nets=set(data["pad_nets"]),
            cell_inputs=[list(pins) for pins in data["cell_inputs"]],
            cell_outputs=[list(pins) for pins in data["cell_outputs"]],
            terminals=data["terminals"],
        )
    except (KeyError, TypeError) as exc:
        raise CacheDecodeError(f"bad block payload: {exc}") from exc


def encode_kway(solution: KWaySolution) -> Dict[str, Any]:
    """Encode a k-way solution as strict-JSON-safe data."""
    return {
        "type": "kway",
        "codec": CODEC_VERSION,
        "name": solution.name,
        "blocks": [_encode_block(b) for b in solution.blocks],
        "n_original_cells": solution.n_original_cells,
        "replicated_cells": sorted(solution.replicated_cells),
        "feasible": solution.feasible,
        "truncated": solution.truncated,
    }


def decode_kway(data: Dict[str, Any]) -> KWaySolution:
    """Rebuild a :class:`KWaySolution`; the cost report is re-derived
    from the decoded blocks (never trusted from disk)."""
    try:
        blocks = [_decode_block(b) for b in data["blocks"]]
        cost = solution_cost([(b.device, b.n_clbs, b.terminals) for b in blocks])
        return KWaySolution(
            name=data["name"],
            blocks=blocks,
            cost=cost,
            n_original_cells=data["n_original_cells"],
            replicated_cells=set(data["replicated_cells"]),
            feasible=bool(data["feasible"]),
            truncated=bool(data.get("truncated", False)),
        )
    except (KeyError, TypeError) as exc:
        raise CacheDecodeError(f"bad kway payload: {exc}") from exc


def encode_bipartition(report: BipartitionReport) -> Dict[str, Any]:
    """Encode a bipartition experiment report."""
    return {
        "type": "bipartition",
        "codec": CODEC_VERSION,
        "circuit": report.circuit,
        "algorithm": report.algorithm,
        "runs": report.runs,
        "cuts": list(report.cuts),
        "replicated_counts": list(report.replicated_counts),
        "elapsed_seconds": report.elapsed_seconds,
        "n_cells": report.n_cells,
    }


def decode_bipartition(data: Dict[str, Any]) -> BipartitionReport:
    try:
        cuts = [int(c) for c in data["cuts"]]
        replicated = [int(c) for c in data["replicated_counts"]]
        if not cuts or len(cuts) != len(replicated):
            raise CacheDecodeError("bipartition payload has ragged run arrays")
        return BipartitionReport(
            circuit=data["circuit"],
            algorithm=data["algorithm"],
            runs=int(data["runs"]),
            cuts=cuts,
            replicated_counts=replicated,
            elapsed_seconds=float(data["elapsed_seconds"]),
            n_cells=int(data["n_cells"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CacheDecodeError):
            raise
        raise CacheDecodeError(f"bad bipartition payload: {exc}") from exc


def encode_solution(solution: Any) -> Dict[str, Any]:
    """Dispatch on the solution type; raises ``TypeError`` for shapes the
    cache does not memoize (run logs, netlists, analyze verdicts)."""
    if isinstance(solution, KWaySolution):
        return encode_kway(solution)
    if isinstance(solution, BipartitionReport):
        return encode_bipartition(solution)
    raise TypeError(f"cannot cache a {type(solution).__name__}")


def decode_solution(payload: Any) -> Any:
    """Inverse of :func:`encode_solution`; raises :class:`CacheDecodeError`
    on anything malformed, stale-codec or unknown."""
    if not isinstance(payload, dict):
        raise CacheDecodeError(
            f"solution payload is {type(payload).__name__}, expected object"
        )
    if payload.get("codec") != CODEC_VERSION:
        raise CacheDecodeError(
            f"codec version {payload.get('codec')!r}, expected {CODEC_VERSION}"
        )
    kind = payload.get("type")
    if kind == "kway":
        return decode_kway(payload)
    if kind == "bipartition":
        return decode_bipartition(payload)
    raise CacheDecodeError(f"unknown solution payload type {kind!r}")


__all__ = [
    "CODEC_VERSION",
    "CacheDecodeError",
    "decode_bipartition",
    "decode_kway",
    "decode_solution",
    "encode_bipartition",
    "encode_kway",
    "encode_solution",
]
