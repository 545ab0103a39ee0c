"""The public API surface: everything advertised must import and work."""

import importlib
import os
import re

import pytest

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    assert repro.__version__


@pytest.mark.parametrize(
    "module",
    [
        "repro.netlist",
        "repro.netlist.gates",
        "repro.netlist.netlist",
        "repro.netlist.bench_io",
        "repro.netlist.blif_io",
        "repro.netlist.validate",
        "repro.netlist.stats",
        "repro.netlist.generate",
        "repro.netlist.benchmarks",
        "repro.netlist.rent",
        "repro.techmap",
        "repro.techmap.decompose",
        "repro.techmap.cover",
        "repro.techmap.pack",
        "repro.techmap.mapped",
        "repro.hypergraph",
        "repro.hypergraph.hypergraph",
        "repro.hypergraph.build",
        "repro.hypergraph.metrics",
        "repro.replication",
        "repro.replication.adjacency",
        "repro.replication.potential",
        "repro.replication.gains",
        "repro.partition",
        "repro.partition.devices",
        "repro.partition.cost",
        "repro.partition.fm",
        "repro.partition.fm_replication",
        "repro.partition.kway",
        "repro.partition.clustering",
        "repro.core",
        "repro.core.flow",
        "repro.core.results",
        "repro.experiments",
        "repro.experiments.common",
        "repro.experiments.table1",
        "repro.experiments.table2",
        "repro.experiments.table3",
        "repro.experiments.tables4to7",
        "repro.experiments.figure3",
        "repro.experiments.record",
        "repro.robust",
        "repro.robust.errors",
        "repro.robust.budget",
        "repro.robust.faults",
        "repro.robust.runner",
        "repro.obs",
        "repro.obs.events",
        "repro.obs.metrics",
        "repro.obs.trace",
        "repro.obs.summary",
        "repro.api",
        "repro.request",
        "repro.service",
        "repro.service.jobs",
        "repro.service.quota",
        "repro.service.server",
        "repro.service.client",
        "repro.cli",
    ],
)
def test_module_imports_and_documents(module):
    mod = importlib.import_module(module)
    assert mod.__doc__, f"{module} lacks a module docstring"


def test_public_callables_have_docstrings():
    import inspect

    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, undocumented


def test_api_surface_is_locked():
    """The ``repro.api`` facade is a stability contract: verbs and the
    result schema version only change deliberately."""
    from repro import api

    assert api.__all__ == [
        "SCHEMA_VERSION",
        "RESULT_SCHEMA_NAME",
        "RunResult",
        "PartitionRequest",
        "Algorithm",
        "CachePolicy",
        "MultilevelMode",
        "load",
        "map",
        "run_request",
        "cached_result",
        "analyze",
    ]
    assert api.SCHEMA_VERSION == 1
    assert api.RESULT_SCHEMA_NAME == "repro-run-result/1"
    assert api.RunResult.schema_version == 1  # dataclass default
    fields = set(api.RunResult.__dataclass_fields__)
    assert {
        "kind", "solution", "run_log", "metrics",
        "elapsed_seconds", "schema_version",
    } <= fields
    # the facade and its envelope are re-exported from the package root
    assert repro.api is api
    assert repro.RunResult is api.RunResult


def test_api_facade_quickstart():
    """The README's recommended entry point works end to end."""
    from repro import api

    request = api.PartitionRequest(
        verb="partition", circuit="s5378", scale=0.08, threshold=1, seed=2
    )
    result = api.run_request(request)
    assert result.kind == "partition"
    assert result.schema_version == api.SCHEMA_VERSION
    assert result.solution.cost.total_cost > 0
    assert result.run_log is None and result.metrics == {}

    resilient = api.run_request(
        api.PartitionRequest(
            verb="partition", circuit="s5378", scale=0.08, threshold=1, seed=2,
            deadline=60,
        )
    )
    assert resilient.run_log is not None
    assert resilient.solution.cost.total_cost == result.solution.cost.total_cost


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    """Every Python block of the README's Quickstart section runs verbatim."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Quickstart"):text.index("## Architecture")]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "README quickstart has no python blocks"
    assert any("api.run_request" in block for block in blocks)
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, readme, "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()
