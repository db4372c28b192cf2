"""The production names the perfbench tracer and workloads depend on.

``perfbench/tracing.py`` wraps production code by name at install time
(``owner.__dict__[attr]``, so a renamed function is a ``KeyError``), and
``perfbench/workloads.py`` imports library names directly.  A broken pin
used to surface only when someone ran the benchmark with ``--trace 1``;
this suite checks every one of them in tier-1.  The tracer module is
loaded by path and its ``install()`` is never called, so nothing here
patches the library.

perfbench also counts an RPC as failed when a served answer's
:func:`~repro.load.clients.digest_wire_payload` differs from
:func:`~repro.load.clients.digest_result_object` of a fresh service's
answer; the last part of this suite pins that contract on the three
kinds of schema its workloads serve.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import random
from pathlib import Path

import pytest

from repro.api import ConnectionRequest, ConnectionService, Guarantee
from repro.api.context import request_scope
from repro.datasets.generators import (
    random_62_chordal_graph,
    random_alpha_schema_graph,
    random_terminals,
)
from repro.dynamic.blocks import BlockClassifier
from repro.dynamic.editor import SchemaEditor
from repro.engine.batch import InterpretationEngine
from repro.engine.cache import SchemaCache
from repro.graphs.indexed import IndexedGraph
from repro.kernels.backend import resolve_backend
from repro.kernels.oracle import DistanceOracle
from repro.load.clients import digest_result_object, digest_wire_payload
from repro.server.app import ReproServer
from repro.server.codec import encode_wire_result

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


# ----------------------------------------------------------------------
# the oracle contract: a served answer digests like a fresh service's
# ----------------------------------------------------------------------
def _served(service, requests):
    """Answer ``requests`` the way the server does: in a request scope,
    through the wire codec and a JSON round trip."""
    with request_scope(request_id="req-pin", tenant="pin"):
        results = service.batch(requests)
    return json.loads(json.dumps([encode_wire_result(r) for r in results]))


def _oracle(graph, requests):
    fresh = ConnectionService(schema=graph.copy())
    return [digest_result_object(r) for r in fresh.batch(requests)]


def _requests(graph, shapes, seed):
    rng = random.Random(seed)
    return [
        ConnectionRequest.of(
            random_terminals(graph, k, rng=rng),
            objective=objective,
            side=2 if objective == "side" else None,
        )
        for k, objective in shapes
    ]


def _assert_served_like_the_oracle(service, graph, requests):
    expected = _oracle(graph, requests)
    for _pass in ("cold", "warm"):
        payloads = _served(service, requests)
        assert [digest_wire_payload(p) for p in payloads] == expected
    return payloads


def test_served_answers_digest_like_a_fresh_service_on_a_62_chordal_schema():
    graph = random_62_chordal_graph(20, rng=5)
    requests = _requests(graph, [(3 + i % 4, "steiner") for i in range(24)], 1)
    payloads = _assert_served_like_the_oracle(
        ConnectionService(schema=graph), graph, requests
    )
    assert {p["provenance"]["solver"] for p in payloads} == {"chordal-elimination"}


def test_served_answers_digest_like_a_fresh_service_on_a_v2_alpha_schema():
    graph = random_alpha_schema_graph(20, rng=0)
    shapes = [(3, "steiner"), (4, "steiner"), (9, "steiner"), (10, "steiner")]
    shapes += [(3, "side"), (4, "side")]
    requests = _requests(graph, shapes * 3, 2)
    payloads = _assert_served_like_the_oracle(
        ConnectionService(schema=graph), graph, requests
    )
    assert {p["provenance"]["solver"] for p in payloads} == {
        "dreyfus-wagner",
        "kmb",
        "algorithm1-indexed",
    }


def test_served_answers_digest_like_a_fresh_service_after_a_mutation():
    graph = random_62_chordal_graph(20, rng=6)
    service = ConnectionService(schema=graph)
    requests = _requests(graph, [(3 + i % 4, "steiner") for i in range(16)], 3)
    _assert_served_like_the_oracle(service, graph, requests)
    anchor = graph.sorted_vertices()[0]
    leaf = ("leaf", 1)
    with SchemaEditor(graph) as transaction:
        transaction.add_vertex(leaf, side=3 - graph.side_of(anchor))
        transaction.add_edge(leaf, anchor)
    requests += [ConnectionRequest.of([leaf, graph.sorted_vertices()[-1]])]
    _assert_served_like_the_oracle(service, graph, requests)


@pytest.fixture(scope="module")
def answer():
    graph = random_alpha_schema_graph(20, rng=0)
    return ConnectionService(schema=graph).connect(
        random_terminals(graph, 9, rng=random.Random(4))
    )


def _with(result, **changes):
    """``result`` with some provenance and/or result fields replaced."""
    own = {k: changes.pop(k) for k in ("rank", "guarantee") if k in changes}
    provenance = dataclasses.replace(result.provenance, **changes)
    return dataclasses.replace(result, provenance=provenance, **own)


def _digests(result):
    wire = json.loads(json.dumps(encode_wire_result(result)))
    return digest_result_object(result), digest_wire_payload(wire)


@pytest.mark.parametrize(
    "field, value",
    [
        ("request_id", "req-9"),
        ("tenant", "acme"),
        ("phases", {"solve": 1.5}),
        ("wall_time_ms", 123.0),
        ("cache_hit", True),
        ("result_cache", "disk"),
        ("tags", {"who": "me"}),
    ],
)
def test_the_digest_ignores_every_run_condition(answer, field, value):
    base = _digests(answer)
    assert base[0] == base[1]
    assert _digests(_with(answer, **{field: value})) == base


@pytest.mark.parametrize(
    "field, value",
    [
        ("solver", "bruteforce"),
        ("plan", "another reason"),
        ("rank", 2),
        ("guarantee", Guarantee.OPTIMAL),
        ("fallback_from", "dreyfus-wagner"),
    ],
)
def test_the_digest_changes_with_every_answer_field(answer, field, value):
    assert answer.guarantee is Guarantee.HEURISTIC  # a KMB answer
    changed = _digests(_with(answer, **{field: value}))
    assert changed[0] == changed[1]
    assert changed[0] != _digests(answer)[0]
