"""The production names the perfbench tracer and workloads depend on.

``perfbench/tracing.py`` wraps production code by name at install time
(``owner.__dict__[attr]``, so a renamed function is a ``KeyError``), and
``perfbench/workloads.py`` imports library names directly.  A broken pin
used to surface only when someone ran the benchmark with ``--trace 1``;
this suite checks every one of them in tier-1.  The tracer module is
loaded by path and its ``install()`` is never called, so nothing here
patches the library.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.dynamic.blocks import BlockClassifier
from repro.engine.batch import InterpretationEngine
from repro.engine.cache import SchemaCache
from repro.graphs.indexed import IndexedGraph
from repro.kernels.backend import resolve_backend
from repro.kernels.oracle import DistanceOracle
from repro.server.app import ReproServer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_resolves_the_way_install_does(tracing):
    for module_name, path, _name in tracing.SPAN_SITES:
        owner, attr = tracing._resolve(module_name, path)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):  # install() wraps the function inside
            raw = raw.__func__
        assert callable(raw), (module_name, path)


def test_execute_plan_keeps_the_signature_the_solver_label_reads():
    parameters = list(inspect.signature(InterpretationEngine.execute_plan).parameters)
    assert parameters == ["self", "context", "plan", "terminals", "side"]


def test_cold_oracle_rows_fill_through_the_lane_methods(tracing, monkeypatch):
    lane = type(resolve_backend(None))
    calls = []
    for method in tracing.FILL_METHODS:
        original = getattr(lane, method)
        assert callable(original), method

        def counting(self, *args, _method=method, _original=original, **kwargs):
            calls.append(_method)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(lane, method, counting)
    oracle = DistanceOracle(IndexedGraph(3, edges=[(0, 1), (1, 2)]))
    assert list(oracle.levels(0)) == [0, 1, 2]
    assert list(oracle.parents(2)) == [1, 2, 2]
    oracle.levels(0)  # a warm read fills nothing
    assert calls == ["bfs_levels_row", "bfs_parents_row"]


def test_layer_counters_the_marks_sum():
    stats = SchemaCache().oracle_stats
    for counter in ("hits", "misses", "invalidated"):
        assert isinstance(getattr(stats, counter), int), counter
    assert "blocks_classified" in BlockClassifier().stats()
    assert inspect.iscoroutinefunction(ReproServer._cmd_ping)


def test_every_name_perfbench_imports_from_repro_resolves():
    checked = 0
    for script in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(script.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "repro"
            ):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        script.name,
                        node.module,
                        alias.name,
                    )
                    checked += 1
    assert checked >= 10  # workloads.py alone imports more than that
