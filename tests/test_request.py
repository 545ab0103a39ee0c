"""The versioned request schema: round-trips, keys and enums."""

import json
import warnings

import pytest

from repro import api
from repro.batch.manifest import (
    ManifestError,
    expand_manifest,
    requests_from_manifest,
)
from repro.cache.store import SolutionCache, cache_key, key_for_request, use_cache
from repro.obs.ledger import config_fingerprint, netlist_fingerprint, run_key
from repro.request import (
    REQUEST_SCHEMA_NAME,
    Algorithm,
    CachePolicy,
    MultilevelMode,
    PartitionRequest,
    RequestError,
    parse_threshold,
    threshold_json,
)

CIRCUIT = "s5378"
SCALE = 0.08


def quick_partition_request(**overrides):
    base = dict(circuit=CIRCUIT, scale=SCALE, seed=7, threshold=1, n_solutions=1)
    base.update(overrides)
    return PartitionRequest(verb="partition", **base)


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------


def test_json_round_trip_partition():
    request = quick_partition_request(deadline=30.0, cache="use")
    clone = PartitionRequest.from_json(request.to_json())
    assert clone == request
    assert clone.to_json() == request.to_json()


def test_json_round_trip_bipartition():
    request = PartitionRequest(
        verb="bipartition", circuit=CIRCUIT, algorithm="fm", runs=3, threshold=0, seed=2
    )
    clone = PartitionRequest.from_json(request.to_json())
    assert clone == request
    assert clone.algorithm is Algorithm.FM


def test_json_document_shape_is_stable():
    doc = json.loads(quick_partition_request().to_json())
    assert doc["schema"] == REQUEST_SCHEMA_NAME
    assert doc["v"] == 1
    # Stable field order: schema header first, then identity fields.
    keys = list(doc)
    assert keys[0] == "schema" and keys[1] == "v"
    assert keys[2:5] == ["verb", "circuit", "scale"]


def test_inf_threshold_survives_json():
    request = quick_partition_request(threshold="inf")
    assert request.threshold == float("inf")
    doc = json.loads(request.to_json())
    assert doc["threshold"] == "inf"
    assert PartitionRequest.from_json(request.to_json()).threshold == float("inf")


def test_threshold_type_preserved():
    assert isinstance(parse_threshold(1), int)
    assert isinstance(parse_threshold(1.0), float)
    assert threshold_json(float("inf")) == "inf"
    with pytest.raises(RequestError):
        parse_threshold(True)
    with pytest.raises(RequestError):
        parse_threshold("nope")


def test_from_dict_rejects_unknown_and_wrong_schema():
    doc = quick_partition_request().to_dict()
    bad = dict(doc)
    bad["bogus_field"] = 1
    with pytest.raises(RequestError):
        PartitionRequest.from_dict(bad)
    wrong = dict(doc)
    wrong["schema"] = "other/1"
    with pytest.raises(RequestError):
        PartitionRequest.from_dict(wrong)
    with pytest.raises(RequestError):
        PartitionRequest.from_json("not json")


def test_request_validation():
    with pytest.raises(RequestError):
        PartitionRequest(verb="frobnicate", circuit=CIRCUIT)
    with pytest.raises(RequestError):
        PartitionRequest(verb="partition", circuit="")
    with pytest.raises(RequestError):
        PartitionRequest(verb="partition", circuit=CIRCUIT, algorithm="quantum")


# ---------------------------------------------------------------------------
# Cache-key / ledger identity
# ---------------------------------------------------------------------------


def test_cache_key_matches_ledger_run_key():
    request = quick_partition_request()
    mapped = api.map(CIRCUIT, scale=SCALE, seed=request.mapping_seed).solution
    use_ml = request.resolve_multilevel(mapped.n_cells)
    expected = run_key(
        netlist_fingerprint(mapped),
        config_fingerprint(request.config(use_ml)),
        request.seed,
    )
    assert request.cache_key(mapped) == expected
    assert key_for_request(mapped, request) == expected
    assert cache_key(mapped, request.config(use_ml), request.seed) == expected


def test_cache_key_stable_across_round_trip():
    request = quick_partition_request()
    mapped = api.map(CIRCUIT, scale=SCALE, seed=request.mapping_seed).solution
    clone = PartitionRequest.from_json(request.to_json())
    assert clone.cache_key(mapped) == request.cache_key(mapped)


def test_execution_fields_do_not_move_the_key():
    request = quick_partition_request()
    tweaked = quick_partition_request(cache="refresh", jobs=4)
    mapped = api.map(CIRCUIT, scale=SCALE, seed=request.mapping_seed).solution
    assert tweaked.cache_key(mapped) == request.cache_key(mapped)


def test_int_vs_float_threshold_changes_the_key():
    mapped = api.map(CIRCUIT, scale=SCALE, seed=1994).solution
    a = quick_partition_request(threshold=1)
    b = quick_partition_request(threshold=1.0)
    assert a.cache_key(mapped) != b.cache_key(mapped)


# ---------------------------------------------------------------------------
# Enum coercion
# ---------------------------------------------------------------------------


def test_multilevel_bool_coerces_silently():
    # Bools are the JSON/manifest wire spelling: they coerce, never warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mode = MultilevelMode.coerce(True)
        assert MultilevelMode.coerce(None) is MultilevelMode.AUTO
        assert MultilevelMode.coerce("off").tri is False
        assert MultilevelMode.coerce(False) is MultilevelMode.OFF
        assert quick_partition_request(multilevel=True).multilevel is MultilevelMode.ON
    assert mode is MultilevelMode.ON and mode.tri is True
    with pytest.raises(RequestError):
        MultilevelMode.coerce("sideways")


def test_cache_policy_coercion_message():
    assert CachePolicy.coerce("use") is CachePolicy.USE
    with pytest.raises(ValueError, match="is not a cache policy"):
        CachePolicy.coerce("bogus")


def test_bool_multilevel_request_hits_the_auto_entry(tmp_path):
    # At this size AUTO resolves off, so multilevel=False shares the key.
    request = quick_partition_request()
    with use_cache(SolutionCache(str(tmp_path / "cache"))):
        via_request = api.run_request(request, cache="refresh")
        via_bool = api.run_request(
            quick_partition_request(multilevel=False, cache="use")
        )
    assert via_bool.cache_info.get("status") == "hit"
    assert via_bool.solution.cost.total_cost == via_request.solution.cost.total_cost
    assert (
        json.dumps(via_bool.to_dict()["solution"], sort_keys=True)
        == json.dumps(via_request.to_dict()["solution"], sort_keys=True)
    )


# ---------------------------------------------------------------------------
# RunResult serialization
# ---------------------------------------------------------------------------


def test_run_result_round_trip(tmp_path):
    with use_cache(SolutionCache(str(tmp_path / "cache"))):
        result = api.run_request(quick_partition_request(), cache="refresh")
    doc = result.to_dict()
    assert doc["schema"] == api.RESULT_SCHEMA_NAME
    assert list(doc)[:2] == ["schema", "v"]
    clone = api.RunResult.from_json(result.to_json())
    assert clone.kind == result.kind
    assert clone.elapsed_seconds == result.elapsed_seconds
    assert clone.solution.cost.total_cost == result.solution.cost.total_cost
    assert clone.to_json() == result.to_json()
    with pytest.raises(ValueError):
        api.RunResult.from_dict({"schema": "other/1", "v": 1})


# ---------------------------------------------------------------------------
# Batch-manifest bridge
# ---------------------------------------------------------------------------


def _manifest():
    return {
        "schema": "repro-batch-manifest/1",
        "name": "request-bridge",
        "defaults": {"scale": SCALE, "threshold": 1, "n_solutions": 1},
        "jobs": [
            {"verb": "partition", "circuit": CIRCUIT, "seeds": [1, 2]},
            {"verb": "bipartition", "circuit": CIRCUIT, "runs": 2},
        ],
    }


def test_requests_from_manifest():
    requests = requests_from_manifest(_manifest())
    assert len(requests) == 3
    assert {r.verb for r in requests} == {"partition", "bipartition"}
    assert requests[0].seed == 1 and requests[1].seed == 2
    # params() closes the loop: request -> manifest params -> request.
    jobs = expand_manifest(_manifest())
    again = jobs[0].to_request()
    assert again == requests[0]


def test_manifest_bad_params_surface_as_manifest_error():
    manifest = _manifest()
    manifest["jobs"][0]["threshold"] = "sideways"
    with pytest.raises(ManifestError):
        requests_from_manifest(manifest)
