"""Proof that numpy stays a strictly *optional* dependency.

The library's contract (``pyproject.toml`` ships numpy only under the
``[numpy]`` extra) has two halves, both pinned here:

* **no import leak** -- importing the entire public surface and running
  a real workload never imports numpy.
  The check runs in a subprocess whose meta-path *blocks* numpy outright
  (stronger than inspecting ``sys.modules`` in-process, where another
  test may already have imported it), so any future module-level
  ``import numpy`` anywhere on the default path fails CI loudly -- the
  same guarantee the numpy-free CI job enforces at the environment
  level;
* **typed degradation** -- with numpy absent, the numpy-touching
  surface (:mod:`repro.graphs.matrices`) raises
  :class:`~repro.exceptions.MissingDependencyError` naming the dependency
  and the install extra.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_BLOCKER_PRELUDE = """
import sys

class _BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked in this subprocess")
        return None

sys.meta_path.insert(0, _BlockNumpy())
"""

_SURFACE_SCRIPT = (
    _BLOCKER_PRELUDE
    + """
import repro
import repro.api
import repro.chordality
import repro.core
import repro.datasets
import repro.dynamic
import repro.engine
import repro.graphs
import repro.graphs.matrices
import repro.hypergraphs
import repro.kernels
import repro.load
import repro.metrics
import repro.runtime
import repro.semantic
import repro.server
import repro.steiner
import repro.utils

# a real answer, not just imports
from repro.api import ConnectionService
from repro.graphs import BipartiteGraph, large_bipartite_tree

graph = BipartiteGraph(left=["A", "B"], right=[1], edges=[("A", 1), ("B", 1)])
result = ConnectionService(schema=graph).connect(["A", "B"])
assert result.provenance.backend == "array", result.provenance.backend
assert result.cost == 3

# the at-scale generators are numpy-free too
large_bipartite_tree(64)

assert not any(m == "numpy" or m.startswith("numpy.") for m in sys.modules), (
    sorted(m for m in sys.modules if m.startswith("numpy"))
)
print("NUMPY-FREE-OK")
"""
)

_DEGRADATION_SCRIPT = (
    _BLOCKER_PRELUDE
    + """
from repro.exceptions import MissingDependencyError
from repro.graphs import BipartiteGraph
from repro.graphs.matrices import adjacency_matrix

graph = BipartiteGraph(left=["A"], right=[1], edges=[("A", 1)])
try:
    adjacency_matrix(graph)
except MissingDependencyError as error:
    assert error.dependency == "numpy"
    assert "[numpy]" in str(error)
else:
    raise AssertionError("adjacency_matrix must need numpy")
print("DEGRADATION-OK")
"""
)


def _run(script: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_public_surface_and_default_lane_never_import_numpy():
    assert "NUMPY-FREE-OK" in _run(_SURFACE_SCRIPT)


def test_numpy_surfaces_degrade_to_typed_errors_without_numpy():
    assert "DEGRADATION-OK" in _run(_DEGRADATION_SCRIPT)


def test_missing_dependency_error_is_exported():
    import repro
    from repro.exceptions import MissingDependencyError, ReproError

    assert repro.MissingDependencyError is MissingDependencyError
    assert issubclass(MissingDependencyError, ReproError)
    error = MissingDependencyError("numpy", "the vectorized lane")
    assert error.dependency == "numpy"
    assert error.feature == "the vectorized lane"
    assert "pip install" in str(error)
