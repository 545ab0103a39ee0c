"""The package imports and runs on exactly what it declares.

numpy is an optional dependency (the ``spectral`` extra): with it
blocked, ``import repro`` and a small request must still work, and only
the spectral baseline may refuse -- with a clean ``ReproError``.

Run this module alone to check an environment without numpy::

    PYTHONPATH=src python -m pytest -q tests/test_packaging.py
"""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NUMPY_BLOCKED_PROBE = textwrap.dedent(
    """
    import sys
    sys.modules["numpy"] = None  # any "import numpy" now raises ImportError

    import repro
    from repro import api
    from repro.hypergraph.build import build_hypergraph
    from repro.partition.spectral import spectral_bipartition
    from repro.request import PartitionRequest
    from repro.robust.errors import ReproError

    result = api.run_request(PartitionRequest(
        verb="bipartition", circuit="s5378", scale=0.05, runs=1, cache="off"))
    assert len(result.solution.cuts) == 1, result.solution.cuts

    hg = build_hypergraph(api.map("s5378", scale=0.05).solution,
                          include_terminals=False)
    try:
        spectral_bipartition(hg)
    except ReproError as exc:
        assert "numpy" in str(exc), exc
    else:
        raise AssertionError("spectral_bipartition ran without numpy")
    print("numpy-free ok")
    """
)


def test_import_and_request_work_without_numpy():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED_PROBE],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("numpy-free ok")


def test_declared_python_floor_matches_the_code():
    # kway.py uses dataclass(slots=True), which needs Python 3.10.
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        assert 'requires-python = ">=3.10"' in fh.read()
