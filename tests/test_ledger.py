"""Run ledger: fingerprints, record store, determinism, CLI flows."""

import json
import os

import pytest

from repro import api
from repro.core.flow import map_circuit
from repro.obs import ledger as obs_ledger
from repro.obs.compare import diff_records
from repro.obs.ledger import (
    LEDGER_ENV_VAR,
    LEDGER_SCHEMA_NAME,
    Ledger,
    build_record,
    canonical_json,
    config_fingerprint,
    fingerprint,
    netlist_fingerprint,
    resolve_ledger,
    run_key,
    set_ledger,
    stable_view,
    use_ledger,
    validate_record,
)
from repro.request import PartitionRequest


@pytest.fixture
def small_mapped():
    return map_circuit("s5378", scale=0.08, seed=1994)


@pytest.fixture
def record(small_mapped):
    return build_record(
        kind="partition",
        circuit="s5378",
        mapped=small_mapped,
        config={"verb": "partition", "threshold": 1},
        seed=7,
        quality={"k": 2, "total_cost": 100.0, "feasible": True},
    )


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def test_canonical_json_is_order_insensitive_and_strict():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert '"inf"' in canonical_json({"t": float("inf")})
    assert '"nan"' in canonical_json({"t": float("nan")})


def test_fingerprint_stability(small_mapped):
    assert fingerprint({"a": 1}) == fingerprint({"a": 1})
    assert fingerprint({"a": 1}) != fingerprint({"a": 2})
    assert netlist_fingerprint(small_mapped) == netlist_fingerprint(small_mapped)
    other = map_circuit("s5378", scale=0.08, seed=2)
    assert netlist_fingerprint(small_mapped) != netlist_fingerprint(other)


def test_run_key_depends_on_all_components():
    base = run_key("n", config_fingerprint({"t": 1}), 3)
    assert base == run_key("n", config_fingerprint({"t": 1}), 3)
    assert base != run_key("m", config_fingerprint({"t": 1}), 3)
    assert base != run_key("n", config_fingerprint({"t": 2}), 3)
    assert base != run_key("n", config_fingerprint({"t": 1}), 4)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def test_build_record_conforms_and_is_stable(record, small_mapped):
    assert validate_record(record) == []
    assert record["schema"] == LEDGER_SCHEMA_NAME
    assert record["netlist_hash"] == netlist_fingerprint(small_mapped)
    again = build_record(
        kind="partition",
        circuit="s5378",
        mapped=small_mapped,
        config={"verb": "partition", "threshold": 1},
        seed=7,
        quality={"k": 2, "total_cost": 100.0, "feasible": True},
    )
    # volatile fields may differ; the stable view must not
    assert stable_view(record) == stable_view(again)
    assert "ts" not in stable_view(record) and "git_rev" not in stable_view(record)


def test_build_record_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_record(
            kind="mystery", circuit="x", config={}, seed=0, quality={}
        )


def test_validate_record_flags_problems(record):
    broken = dict(record)
    broken.pop("run_id")
    broken["seed"] = "seven"
    problems = validate_record(broken)
    assert any("run_id" in p for p in problems)
    assert any("seed" in p for p in problems)
    assert validate_record("not a dict")


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


def test_ledger_append_find_latest(tmp_path, record):
    ledger = Ledger(str(tmp_path / "led"))
    assert ledger.records() == []
    ledger.append(record)
    other = dict(record, run_id="ffff00000001", circuit="c880")
    ledger.append(other)
    rows = ledger.records()
    assert [r["circuit"] for r in rows] == ["s5378", "c880"]
    assert ledger.find("latest")["circuit"] == "c880"
    assert ledger.find("0")["circuit"] == "s5378"
    assert ledger.find("-1")["circuit"] == "c880"
    assert ledger.find(record["run_id"][:6])["circuit"] == "s5378"
    assert ledger.latest(circuit="s5378")["run_id"] == record["run_id"]
    assert ledger.latest(circuit="nope") is None
    with pytest.raises(LookupError):
        ledger.find("zzzz")


def test_ledger_find_reads_golden_file(tmp_path, record):
    golden = tmp_path / "golden.jsonl"
    golden.write_text(json.dumps(record) + "\n")
    ledger = Ledger(str(tmp_path / "led"))
    found = ledger.find(str(golden))
    assert found["run_id"] == record["run_id"]


def test_ledger_append_rejects_malformed(tmp_path):
    ledger = Ledger(str(tmp_path / "led"))
    with pytest.raises(ValueError):
        ledger.append({"schema": "nope"})
    assert not os.path.exists(ledger.path)


def test_ledger_survives_torn_tail(tmp_path, record):
    ledger = Ledger(str(tmp_path / "led"))
    ledger.append(record)
    with open(ledger.path, "a", encoding="utf-8") as fh:
        fh.write('{"v": 1, "torn')  # crashed writer
    assert len(ledger.records()) == 1


# ---------------------------------------------------------------------------
# Enablement
# ---------------------------------------------------------------------------


def test_resolve_ledger_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(LEDGER_ENV_VAR, raising=False)
    assert resolve_ledger() is None
    monkeypatch.setenv(LEDGER_ENV_VAR, str(tmp_path / "env"))
    assert resolve_ledger().path.startswith(str(tmp_path / "env"))
    installed = Ledger(str(tmp_path / "installed"))
    with use_ledger(installed):
        assert resolve_ledger() is installed
        explicit = resolve_ledger(str(tmp_path / "explicit"))
        assert explicit.path.startswith(str(tmp_path / "explicit"))
    assert resolve_ledger() is not installed


def test_env_var_truthy_means_default_dir(monkeypatch):
    monkeypatch.setenv(LEDGER_ENV_VAR, "1")
    ledger = resolve_ledger()
    assert ledger.path == os.path.join(
        obs_ledger.DEFAULT_LEDGER_DIR, obs_ledger.LEDGER_FILENAME
    )


def test_set_ledger_round_trip(tmp_path):
    ledger = Ledger(str(tmp_path / "led"))
    try:
        assert set_ledger(ledger) is ledger
        assert obs_ledger.get_ledger() is ledger
    finally:
        set_ledger(None)
    assert obs_ledger.get_ledger() is None


# ---------------------------------------------------------------------------
# api auto-logging and the determinism contract
# ---------------------------------------------------------------------------


def _partition(mapped, **fields):
    request = PartitionRequest(verb="partition", circuit=mapped.name, **fields)
    return api.run_request(request, circuit=mapped)


def test_api_partition_autolog_is_deterministic(tmp_path, small_mapped):
    ledger = Ledger(str(tmp_path / "led"))
    with use_ledger(ledger):
        first = _partition(small_mapped, threshold=1, seed=3)
        second = _partition(small_mapped, threshold=1, seed=3)
    assert first.run_record is not None and second.run_record is not None
    assert first.run_record["run_key"] == second.run_record["run_key"]
    assert stable_view(first.run_record) == stable_view(second.run_record)
    diff = diff_records(first.run_record, second.run_record)
    assert diff.verdict == "identical" and not diff.warnings
    # convergence was distilled: one carve series per committed level
    carves = first.run_record["convergence"]["carves"]
    assert carves and carves[-1].get("final") is True
    assert len([c for c in carves if c.get("final")]) >= 1
    assert len(ledger.records()) == 2


def test_api_without_ledger_attaches_no_record(small_mapped, monkeypatch):
    monkeypatch.delenv(LEDGER_ENV_VAR, raising=False)
    result = _partition(small_mapped, threshold=1, seed=3)
    assert result.run_record is None


def test_api_bipartition_autolog(tmp_path, small_mapped):
    ledger = Ledger(str(tmp_path / "led"))
    with use_ledger(ledger):
        request = PartitionRequest(
            verb="bipartition", circuit=small_mapped.name, runs=2, seed=3,
            threshold=0,
        )
        result = api.run_request(request, circuit=small_mapped)
    record = result.run_record
    assert record is not None and record["kind"] == "bipartition"
    assert record["quality"]["best_cut"] == result.solution.best_cut
    assert record["convergence"]["pass_series"], "no FM pass gains captured"


def test_api_runner_path_stores_volatile_runner_log(tmp_path, small_mapped):
    ledger = Ledger(str(tmp_path / "led"))
    with use_ledger(ledger):
        result = _partition(small_mapped, threshold=1, seed=3, max_retries=0)
    record = result.run_record
    assert record is not None and record["runner"]["attempts"]
    # runner data is volatile: it never enters the determinism contract
    assert "runner" not in stable_view(record)


# ---------------------------------------------------------------------------
# CLI flows
# ---------------------------------------------------------------------------


def _run_cli(argv):
    from repro.cli import main

    return main(argv)


def test_cli_partition_logs_and_runs_subcommands(tmp_path, capsys):
    led = str(tmp_path / "led")
    code = _run_cli(
        ["partition", "s5378", "--scale", "0.08", "--threshold", "1",
         "--ledger", led]
    )
    assert code == 0
    assert "logged run" in capsys.readouterr().err
    code = _run_cli(
        ["partition", "s5378", "--scale", "0.08", "--threshold", "1",
         "--ledger", led]
    )
    assert code == 0
    capsys.readouterr()

    assert _run_cli(["runs", "list", "--ledger", led]) == 0
    listing = capsys.readouterr().out
    assert listing.count("partition") == 2 and "s5378" in listing

    assert _run_cli(["runs", "show", "latest", "--ledger", led]) == 0
    shown = capsys.readouterr().out
    assert "quality.total_cost" in shown and "carve" in shown

    assert _run_cli(["runs", "diff", "0", "latest", "--ledger", led,
                     "--strict"]) == 0
    assert "identical" in capsys.readouterr().out

    out = str(tmp_path / "report.html")
    assert _run_cli(["runs", "report", "--ledger", led, "--baseline", "0",
                     "--out", out]) == 0
    capsys.readouterr()
    page = open(out, encoding="utf-8").read()
    assert page.startswith("<!DOCTYPE html>") and "<svg" in page
    assert "verdict-identical" in page or "identical" in page


def test_cli_runs_diff_flags_regression(tmp_path, record, capsys):
    ledger = Ledger(str(tmp_path / "led"))
    ledger.append(record)
    worse = build_record(
        kind="partition",
        circuit="s5378",
        netlist_hash=record["netlist_hash"],
        config={"verb": "partition", "threshold": 1},
        seed=7,
        quality={"k": 2, "total_cost": 120.0, "feasible": True},
    )
    ledger.append(worse)
    code = _run_cli(["runs", "diff", "0", "latest", "--ledger",
                     str(tmp_path / "led")])
    assert code == 1
    out = capsys.readouterr().out
    assert "regression" in out and "total_cost" in out
    # a generous tolerance waives the drift
    code = _run_cli(["runs", "diff", "0", "latest", "--ledger",
                     str(tmp_path / "led"), "--tolerance", "total_cost=25%"])
    assert code == 0


def test_cli_runs_diff_missing_record_exits_cleanly(tmp_path):
    with pytest.raises(SystemExit):
        _run_cli(["runs", "diff", "0", "latest", "--ledger",
                  str(tmp_path / "nothing")])
