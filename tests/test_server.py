"""Tests for the multi-tenant connection server (``repro.server``).

Four layers, matching the package:

* **protocol**: framing round-trips and failure modes, typed command
  table validation (unknown params, missing/null required, type
  mismatches);
* **codec**: tuple/set tagging, schema upload round-trips, wire result
  round-trips, continuation token integrity;
* **registry**: tenant lifecycle, config/limit validation, LRU eviction
  (never while in flight; disk-warm rebinds replay with
  ``provenance.result_cache == "disk"``), admission, quotas, token auth;
* **server**: end-to-end sessions over real sockets -- including the
  hypothesis differential against an in-process service (byte-identical
  trees, provenance modulo transport fields) and enumeration resumed
  across a client reconnect and on a *fresh* server (stateless
  continuation path), both yielding the in-process order.
"""

import asyncio
import contextlib
import json
import struct
import threading
import time
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from strategies import chordal_bipartite_graphs, common_settings, draw_terminals

from repro.api import ConnectionRequest, ConnectionService, ServiceConfig
from repro.dynamic.editor import SchemaEditor
from repro.engine import registry as engine_registry
from repro.engine.cache import SchemaContext
from repro.engine.registry import chordal_elimination_work
from repro.exceptions import ValidationError
from repro.graphs import BipartiteGraph
from repro.load.clients import digest_result_object
from repro.metrics import MetricsRegistry
from repro.server import (
    AdmissionError,
    AuthenticationError,
    ProtocolError,
    QuotaError,
    RemoteError,
    ReproClient,
    ReproServer,
    SchemaRegistry,
    TenantExistsError,
    UnknownTenantError,
    fetch_metrics,
)
from repro.server.app import LOOP_WORK_LIMIT
from repro.server.codec import (
    decode_continuation,
    decode_schema,
    decode_value,
    decode_wire_result,
    encode_continuation,
    encode_schema,
    encode_value,
    encode_wire_result,
)
from repro.server.protocol import (
    COMMANDS,
    MAX_FRAME_BYTES,
    Argument,
    Command,
    encode_frame,
    lookup_command,
    read_frame,
)

SETTINGS = common_settings(max_examples=10)


def small_graph() -> BipartiteGraph:
    """A 3x3 path-of-blocks schema used across the unit tests."""
    return BipartiteGraph(
        left=["A", "B", "C"],
        right=[1, 2, 3],
        edges=[("A", 1), ("B", 1), ("B", 2), ("C", 2), ("C", 3)],
    )


def wire_tree_vertices(payload):
    """The tree's wire vertex list (omitted when derivable from edges)."""
    if "tree_vertices" in payload:
        return payload["tree_vertices"]
    unique = {
        repr(end): end for edge in payload["tree_edges"] for end in edge
    }
    return [unique[key] for key in sorted(unique)]


@contextlib.contextmanager
def running_server(**kwargs):
    """Start a :class:`ReproServer` on a background event-loop thread."""
    server = ReproServer(port=0, **kwargs)
    ready = threading.Event()

    def run():
        async def main():
            await server.start()
            ready.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    try:
        yield server
    finally:
        server.request_drain()
        thread.join(10)
        assert not thread.is_alive(), "server did not drain"


# ----------------------------------------------------------------------
# protocol: framing
# ----------------------------------------------------------------------
class TestFraming:
    def _read(self, data: bytes):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_frame(reader)

        return asyncio.run(go())

    def test_round_trip(self):
        message = {"id": 1, "cmd": "ping", "params": {"x": ("not", "json")[0]}}
        assert self._read(encode_frame(message)) == message

    def test_clean_eof_returns_none(self):
        assert self._read(b"") is None

    def test_truncated_prefix_raises(self):
        with pytest.raises(ProtocolError, match="mid-length-prefix"):
            self._read(b"\x00\x00")

    def test_truncated_body_raises(self):
        with pytest.raises(ProtocolError, match="mid-frame"):
            self._read(struct.pack("!I", 100) + b"{}")

    def test_oversized_length_raises(self):
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            self._read(struct.pack("!I", 1 << 31))

    def test_non_json_body_raises(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            self._read(struct.pack("!I", 3) + b"???")

    def test_non_object_body_raises(self):
        body = json.dumps([1, 2]).encode()
        with pytest.raises(ProtocolError, match="JSON object"):
            self._read(struct.pack("!I", len(body)) + body)


class TestCommandTable:
    def test_every_command_has_a_handler(self):
        for name in COMMANDS:
            assert hasattr(ReproServer, f"_cmd_{name}"), name

    def test_lookup_unknown_raises(self):
        with pytest.raises(ProtocolError, match="unknown command"):
            lookup_command("bogus")
        with pytest.raises(ProtocolError):
            lookup_command(7)

    def test_validate_rejects_unknown_parameter(self):
        with pytest.raises(ProtocolError, match="unknown parameter"):
            COMMANDS["connect"].validate(
                {"tenant": "t", "terminals": [], "bogus": 1}
            )

    def test_validate_rejects_missing_required(self):
        with pytest.raises(ProtocolError, match="missing required"):
            COMMANDS["connect"].validate({"tenant": "t"})

    def test_validate_rejects_null_required(self):
        with pytest.raises(ProtocolError, match="must not be null"):
            COMMANDS["connect"].validate({"tenant": "t", "terminals": None})

    def test_validate_rejects_type_mismatch(self):
        with pytest.raises(ProtocolError, match="must be list"):
            COMMANDS["connect"].validate({"tenant": "t", "terminals": "A"})

    def test_validate_rejects_bool_where_int_declared(self):
        command = Command("x", (Argument("n", (int,)),))
        with pytest.raises(ProtocolError, match="must be int"):
            command.validate({"n": True})

    def test_validate_fills_defaults(self):
        validated = COMMANDS["connect"].validate(
            {"tenant": "t", "terminals": [1]}
        )
        assert validated["objective"] == "steiner"
        assert validated["policy"] == "auto"
        assert validated["token"] is None


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_value_round_trip_tuples_and_sets(self):
        values = [
            ("l", 3),
            [("l", 1), ("r", 2)],
            {"k": ("a", ("b", 4))},
            {1, 2, 3},
            frozenset({("l", 1)}),
            {"nested": [{"deep": ("x",)}]},
            None,
            3.5,
            True,
        ]
        for value in values:
            decoded = decode_value(encode_value(value))
            if isinstance(value, frozenset):
                assert decoded == set(value)
            else:
                assert decoded == value

    def test_unencodable_value_raises(self):
        with pytest.raises(ProtocolError, match="not wire-encodable"):
            encode_value(object())

    def test_schema_round_trip(self):
        graph = small_graph()
        clone = decode_schema(json.loads(json.dumps(encode_schema(graph))))
        assert clone.vertices() == graph.vertices()
        assert sorted(map(sorted, map(lambda e: map(repr, e), clone.edges()))) \
            == sorted(map(sorted, map(lambda e: map(repr, e), graph.edges())))
        for vertex in graph.vertices():
            assert clone.side_of(vertex) == graph.side_of(vertex)

    def test_schema_rejects_malformed(self):
        with pytest.raises(ProtocolError):
            decode_schema([1, 2])
        with pytest.raises(ProtocolError, match="unknown key"):
            decode_schema({"left": [], "right": [], "edges": [], "x": 1})
        with pytest.raises(ProtocolError, match="two-element"):
            decode_schema({"left": [1], "right": [2], "edges": [[1]]})

    def test_wire_result_round_trip(self):
        graph = small_graph()
        service = ConnectionService(schema=graph)
        result = service.connect(["A", 3])
        payload = json.loads(encode_wire_result(result))
        clone = decode_wire_result(payload, graph=graph, request=result.request)
        assert clone.to_dict() == result.to_dict()
        assert clone.tree.vertices() == result.tree.vertices()

    def test_malformed_wire_result_is_a_protocol_error(self):
        graph = small_graph()
        result = ConnectionService(schema=graph).connect(["A", 3])
        payload = json.loads(encode_wire_result(result))
        damaged = [
            {k: v for k, v in payload.items() if k != "version"},
            {k: v for k, v in payload.items() if k != "tree_edges"},
            dict(payload, guarantee="maybe"),
            dict(payload, provenance="nope"),
            dict(payload, objective="widest"),
        ]
        for broken in damaged:
            with pytest.raises(ProtocolError, match="malformed wire result"):
                decode_wire_result(broken, graph=graph)

    def test_continuation_round_trip(self):
        token = encode_continuation(
            tenant="t", terminals=[encode_value(("l", 1))],
            max_extra=2, skip=5, sid="s9",
        )
        record = decode_continuation(token)
        assert record["tenant"] == "t" and record["skip"] == 5
        assert record["sid"] == "s9" and record["max_extra"] == 2

    def test_continuation_rejects_damage(self):
        with pytest.raises(ProtocolError):
            decode_continuation("!!not-base64!!")
        with pytest.raises(ProtocolError, match="version"):
            import base64
            decode_continuation(
                base64.urlsafe_b64encode(b'{"v": 99}').decode()
            )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestSchemaRegistry:
    def test_create_drop_lifecycle(self):
        registry = SchemaRegistry(capacity=2)
        registry.create("a", small_graph())
        assert "a" in registry and registry.names() == ["a"]
        with pytest.raises(TenantExistsError):
            registry.create("a", small_graph())
        registry.create("a", small_graph(), exist_ok=True)  # idempotent
        registry.drop("a")
        with pytest.raises(UnknownTenantError):
            registry.service("a")

    def test_unknown_overrides_rejected(self):
        registry = SchemaRegistry()
        with pytest.raises(ValidationError, match="config override"):
            registry.create("a", small_graph(), config_overrides={"nope": 1})
        with pytest.raises(ValidationError, match="limit"):
            registry.create("a", small_graph(), limits={"nope": 1})

    def test_lru_eviction_spares_inflight(self):
        registry = SchemaRegistry(capacity=1)
        registry.create("hot", small_graph())
        registry.create("cold", small_graph())
        registry.service("hot")
        registry.acquire("hot")  # a request is in flight on the cold-most
        registry.service("cold")  # would evict "hot" if it were idle
        assert registry.record("hot").service is not None
        assert registry.live_count() == 2  # transient overshoot is allowed
        registry.release("hot")
        registry.create("third", small_graph())
        registry.service("third")  # now "hot" (coldest, idle) goes
        assert registry.record("hot").service is None
        assert registry.record("hot").evictions == 1

    def test_evicted_tenant_rebinds_from_disk(self, tmp_path):
        registry = SchemaRegistry(capacity=1, cache_dir=str(tmp_path))
        registry.create("a", small_graph())
        registry.create("b", small_graph())
        first = registry.service("a").connect(["A", 3])
        assert first.provenance.result_cache is None
        registry.service("b")  # evicts a's service
        assert registry.record("a").service is None
        replay = registry.service("a").connect(["A", 3])
        assert replay.provenance.result_cache == "disk"
        assert replay.to_dict(include_timing=False)["cost"] == first.cost

    def test_a_drain_after_an_edit_stores_no_stale_report(self, tmp_path):
        # a drain flushes the bound context's report; an edit since the
        # last request has moved the live graph, not that context, so the
        # report must go under the context's digest
        registry = SchemaRegistry(cache_dir=str(tmp_path))
        registry.create("t", small_graph())  # a path: a forest
        registry.service("t").connect(["A", 3])
        graph = registry.record("t").graph
        with SchemaEditor(graph) as transaction:
            transaction.add_edge("A", 3)  # closes a chordless 6-cycle
        assert registry.flush() == 1
        cached = ConnectionService(
            schema=graph.copy(), config=ServiceConfig(cache_dir=str(tmp_path))
        )
        assert cached.classification() == SchemaContext(graph).report
        assert not cached.classification().steiner_tractable()
        plain = ConnectionService(schema=graph.copy())
        for terminals in (["A", "C"], ["A", 3], ["B", 3]):
            assert digest_result_object(cached.connect(terminals)) == (
                digest_result_object(plain.connect(terminals))
            )

    def test_admission_limit(self):
        registry = SchemaRegistry()
        registry.create("a", small_graph(), limits={"max_inflight": 1})
        registry.acquire("a")
        with pytest.raises(AdmissionError, match="in-flight"):
            registry.acquire("a")
        registry.release("a")
        registry.acquire("a")  # freed slot admits again

    def test_quotas(self):
        registry = SchemaRegistry()
        registry.create(
            "a", small_graph(),
            limits={"max_batch_requests": 2, "max_terminals": 3},
        )
        registry.check_quota("a", requests=2, terminals=3)
        with pytest.raises(QuotaError, match="max_batch_requests"):
            registry.check_quota("a", requests=3)
        with pytest.raises(QuotaError, match="max_terminals"):
            registry.check_quota("a", terminals=4)

    def test_token_auth(self):
        registry = SchemaRegistry()
        registry.create("open", small_graph())
        registry.create("locked", small_graph(), token="secret")
        registry.authenticate("open", None, mutating=True)  # open tenant
        registry.authenticate("locked", None)  # reads stay open
        registry.authenticate("locked", "secret", mutating=True)
        with pytest.raises(AuthenticationError):
            registry.authenticate("locked", None, mutating=True)
        with pytest.raises(AuthenticationError):
            registry.authenticate("locked", "wrong")  # wrong always fails

    def test_drop_refuses_inflight(self):
        registry = SchemaRegistry()
        registry.create("a", small_graph())
        registry.acquire("a")
        with pytest.raises(AdmissionError, match="in flight"):
            registry.drop("a")

    def test_stats_shape(self):
        registry = SchemaRegistry(capacity=4)
        registry.create("a", small_graph(), token="t")
        registry.service("a")
        stats = registry.stats()
        assert stats["capacity"] == 4 and stats["live"] == 1
        entry = stats["tenants"]["a"]
        assert entry["live"] and entry["protected"]
        assert entry["vertices"] == 6 and entry["edges"] == 5


# ----------------------------------------------------------------------
# server end-to-end
# ----------------------------------------------------------------------
class TestServerSession:
    def test_full_session(self, tmp_path):
        with running_server(cache_dir=str(tmp_path)) as server:
            with ReproClient(port=server.port) as client:
                pong = client.ping()
                assert pong["pong"] and "version" in pong
                created = client.create_schema("acme", small_graph())
                assert created == {
                    "tenant": "acme", "vertices": 6, "edges": 5,
                    "protected": False,
                }
                assert client.list_schemas() == ["acme"]
                result = client.connect("acme", ["A", 3])
                assert result["cost"] == 6
                assert result["provenance"]["tenant"] == "acme"
                assert result["provenance"]["request_id"].startswith("req-")
                assert set(result["provenance"]["phases"]) >= {"plan", "solve"}
                batch = client.batch(
                    "acme",
                    [{"terminals": ["A", "B"]}, {"terminals": ["A", 2]}],
                )
                assert [r["cost"] for r in batch] == [3, 4]
                # warm: second identical query replays from the disk store
                replay = client.connect("acme", ["A", 3])
                assert replay["provenance"].get("result_cache") == "disk"
                interp = client.interpret("acme", [["B", 3]])
                assert len(interp) == 1
                stats = client.stats()
                assert stats["registry"]["tenants"]["acme"]["inflight"] == 0
                assert "repro_queries_total" in client.metrics_text()
                client.drop_schema("acme")
                assert client.list_schemas() == []

    def test_error_envelope_kinds(self):
        with running_server() as server:
            with ReproClient(port=server.port) as client:
                client.create_schema(
                    "t", small_graph(),
                    limits={"max_terminals": 2}, token="s3",
                )
                cases = [
                    (lambda: client.call("bogus"), "protocol"),
                    (lambda: client.connect("nope", ["A"]), "unknown-tenant"),
                    (lambda: client.create_schema("t", small_graph()),
                     "tenant-exists"),
                    (lambda: client.connect("t", ["A", "B", "C"]), "quota"),
                    (lambda: client.mutate("t", [{"op": "add_edge",
                                                  "u": "A", "v": 2}]), "auth"),
                    (lambda: client.connect("t", ["A", "nope"]), "validation"),
                ]
                for trigger, kind in cases:
                    with pytest.raises(RemoteError) as excinfo:
                        trigger()
                    assert excinfo.value.kind == kind, kind

    def test_batch_entries_get_connect_type_checks(self):
        """Every ``batch`` entry is validated like ``connect`` parameters:
        wrong types, strings posing as terminal lists, bools posing as
        sides and unknown keys are typed ``protocol`` errors, never an
        ``internal`` crash or a silently reinterpreted request."""
        bad_entries = [
            {"terminals": ["A", "B"], "solver": ["kmb"]},
            {"terminals": 7},
            {"terminals": "AB"},
            {"terminals": ["A", "B"], "side": True},
            {"terminals": ["A", "B"], "objective": 3},
            {"terminals": ["A", "B"], "policy": {}},
            {"terminals": ["A", "B"], "tags": "x"},
            {"terminals": ["A", "B"], "exact_terminal_limit": 0},
            {"objective": "steiner"},
            ["A", "B"],
        ]
        with running_server() as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("t", small_graph())
                for entry in bad_entries:
                    with pytest.raises(RemoteError) as excinfo:
                        client.call("batch", tenant="t", requests=[entry])
                    assert excinfo.value.kind == "protocol", entry
                # null fields fall back to the batch-level values
                good = client.call(
                    "batch",
                    tenant="t",
                    objective="side",
                    side=2,
                    requests=[
                        {"terminals": ["A", "C"], "objective": None, "side": None},
                        {"terminals": ["A", "C"], "objective": "steiner"},
                    ],
                )["results"]
                assert [r["objective"] for r in good] == ["side", "steiner"]
                side = client.connect("t", ["A", "C"], objective="side", side=2)
                assert good[0]["tree_edges"] == side["tree_edges"]
                assert good[1]["cost"] == client.connect("t", ["A", "C"])["cost"]

    def test_mutation_rpc_applies_transactionally(self):
        with running_server() as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("t", small_graph(), token="s3")
                before = client.connect("t", ["A", 3])["cost"]
                out = client.mutate(
                    "t",
                    [{"op": "add_vertex", "vertex": "D", "side": 1},
                     {"op": "add_edge", "u": "D", "v": 1},
                     {"op": "add_edge", "u": "D", "v": 3}],
                    token="s3",
                )
                assert out["delta"]["added_vertices"] == 1
                assert out["delta"]["added_edges"] == 2
                after = client.connect("t", ["A", 3])["cost"]
                assert after < before  # D is a 2-hop shortcut
                # a failing edit rolls the whole transaction back
                with pytest.raises(RemoteError):
                    client.mutate(
                        "t",
                        [{"op": "add_vertex", "vertex": "E", "side": 1},
                         {"op": "add_edge", "u": "E", "v": "A"}],  # same side
                        token="s3",
                    )
                assert client.connect("t", ["A", 3])["cost"] == after

    def test_metrics_http_endpoint_labels_tenants(self):
        with running_server(metrics=MetricsRegistry()) as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("acme", small_graph())
                client.connect("acme", ["A", 2])
            text = fetch_metrics(server.metrics_port)
            assert "# TYPE repro_queries_total counter" in text
            line = next(
                ln for ln in text.splitlines()
                if ln.startswith("repro_queries_total") and 'tenant="acme"' in ln
            )
            assert line.rstrip().endswith(" 1")
            assert "repro_server_requests_total" in text
            with pytest.raises(RemoteError, match="404"):
                fetch_metrics(server.metrics_port, path="/nope")

    def test_drain_finishes_inflight_and_flushes(self, tmp_path):
        with running_server(cache_dir=str(tmp_path)) as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("t", small_graph())
                client.connect("t", ["A", 3])
        # the context manager drained; a flushed report enables a fresh
        # registry to rebind from disk
        registry = SchemaRegistry(capacity=1, cache_dir=str(tmp_path))
        registry.create("t", small_graph())
        replay = registry.service("t").connect(["A", 3])
        assert replay.provenance.result_cache == "disk"


class TestEnumerationOverTheWire:
    def test_resume_across_reconnect_preserves_order(self):
        graph = small_graph()
        expected = [
            r.tree.vertices()
            for r in ConnectionService(schema=graph).enumerate(
                ["A", 2], budget=10, max_extra=4
            ).take(10)
        ]
        assert len(expected) == 3
        with running_server() as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("t", graph)
                page = client.enumerate("t", ["A", 2], budget=1, max_extra=4)
                got = [
                    set(map(tuple_or_id, wire_tree_vertices(r)))
                    for r in page.get("results", [])
                ]
                token = page["continuation"]
                assert page["paused"] and not page["exhausted"] and token
            # reconnect: a brand-new socket resumes from the token
            while token is not None:
                with ReproClient(port=server.port) as client:
                    page = client.enumerate("t", continuation=token, budget=1)
                    got.extend(
                        set(map(tuple_or_id, wire_tree_vertices(r)))
                        for r in page.get("results", [])
                    )
                    token = page["continuation"]
            assert got == [
                set(map(tuple_or_id, map(encode_value, vertices)))
                for vertices in expected
            ]

    def test_stateless_resume_on_fresh_server(self):
        """A continuation minted by one server resumes on another."""
        graph = small_graph()
        with running_server() as first:
            with ReproClient(port=first.port) as client:
                client.create_schema("t", graph)
                page = client.enumerate("t", ["A", 2], budget=1, max_extra=4)
                first_tree = wire_tree_vertices(page["results"][0])
                token = page["continuation"]
        with running_server() as second:  # no live stream table entry
            with ReproClient(port=second.port) as client:
                client.create_schema("t", graph)
                resumed = client.enumerate("t", continuation=token)
                assert resumed["count"] >= 1
                trees = [wire_tree_vertices(r) for r in resumed["results"]]
                assert first_tree not in trees  # rank 1 is not replayed
        # in-process oracle: ranks 2.. in the same order
        oracle = ConnectionService(schema=graph).enumerate(
            ["A", 2], budget=10, max_extra=4
        )
        oracle_trees = [
            [encode_value(v) for v in sorted(r.tree.vertices(), key=repr)]
            for r in oracle.take(10)
        ][1:]
        assert trees == oracle_trees[: len(trees)]

    def test_enumerate_argument_errors(self):
        with running_server() as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("t", small_graph())
                with pytest.raises(RemoteError, match="exactly one"):
                    client.call("enumerate", tenant="t")
                with pytest.raises(RemoteError, match="exactly one"):
                    client.call(
                        "enumerate", tenant="t", terminals=["A"],
                        continuation="x",
                    )
                with pytest.raises(RemoteError, match="budget"):
                    client.enumerate("t", ["A", 3], budget=0)
                page = client.enumerate("t", ["A", 3], budget=1)
                with pytest.raises(RemoteError) as excinfo:
                    client.call(
                        "enumerate", tenant="other",
                        continuation=page["continuation"],
                    )
                assert excinfo.value.kind in ("auth", "unknown-tenant")

    def test_mutation_drops_live_streams_but_token_resumes(self):
        with running_server() as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("t", small_graph(), token="s3")
                page = client.enumerate("t", ["A", 3], budget=1)
                token = page["continuation"]
                client.mutate(
                    "t",
                    [{"op": "add_vertex", "vertex": "Z", "side": 1},
                     {"op": "add_edge", "u": "Z", "v": 3}],
                    token="s3",
                )
                assert client.stats()["live_streams"] == 0
                # stateless path resumes against the evolved schema
                resumed = client.enumerate("t", continuation=token)
                assert resumed["count"] >= 1


def solves(metrics):
    """``repro_server_solves_total`` by path, as ``{"loop": n, "worker": n}``."""
    family = metrics.get("repro_server_solves_total")
    return {path: family.labels(path=path).value for path in ("loop", "worker")}


def six_cycle() -> BipartiteGraph:
    """A chordless 6-cycle: not (6,2)-chordal, so connects plan an exact DP."""
    return BipartiteGraph(
        left=["A", "B", "C"],
        right=[1, 2, 3],
        edges=[("A", 1), ("B", 1), ("B", 2), ("C", 2), ("C", 3), ("A", 3)],
    )


def path_graph(length: int) -> BipartiteGraph:
    """A path ``a0 - 1 - a2 - 3 - ...``: even positions are strings, odd ints."""
    names = [f"a{i}" if i % 2 == 0 else i for i in range(length)]
    return BipartiteGraph(
        left=names[0::2],
        right=names[1::2],
        edges=[
            (names[i], names[i + 1]) if i % 2 == 0 else (names[i + 1], names[i])
            for i in range(length - 1)
        ],
    )


class TestWarmWithin:
    """``ConnectionService.warm_within``: the server's test for the loop."""

    def test_true_only_for_a_short_warm_lemma5_answer(self):
        graph = small_graph()
        service = ConnectionService(schema=graph)
        assert not service.warm_within(["A", 3], LOOP_WORK_LIMIT)  # cold
        service.connect(["A", 3])
        context, _ = service._context(None)
        stats = service.cache_stats()
        assert service.warm_within(["A", 3], LOOP_WORK_LIMIT)
        assert service.warm_within(["A", 2], LOOP_WORK_LIMIT)  # same root
        assert not service.warm_within([2, 3], LOOP_WORK_LIMIT)  # no BFS row
        for kwargs in ({"objective": "side", "side": 2}, {"solver": "kmb"}):
            assert not service.warm_within(["A", 3], LOOP_WORK_LIMIT, **kwargs)
        for terminals in (["A", "Z"], []):
            assert not service.warm_within(terminals, LOOP_WORK_LIMIT)
        # connect raises for these; the test leaves that to it
        assert not service.warm_within(["A", 3], LOOP_WORK_LIMIT, objective="x")
        assert not service.warm_within(["A", 3], LOOP_WORK_LIMIT, budget=1)
        # the path A..3 is the whole seed: 6 vertices, degree sum 10
        assert chordal_elimination_work(context, ["A", 3], LOOP_WORK_LIMIT) == 46
        assert not service.warm_within(["A", 3], 45)
        assert service.warm_within(["A", 3], 46)
        # reads only: no counter moved, no row was built
        assert service.cache_stats() == stats
        with SchemaEditor(graph) as transaction:
            transaction.add_vertex("D", side=1)
            assert not service.warm_within(["A", 3], LOOP_WORK_LIMIT)
        assert not service.warm_within(["A", 3], LOOP_WORK_LIMIT)  # rebind due

    def test_false_for_other_plans_and_disk_services(self, tmp_path):
        service = ConnectionService(
            schema=six_cycle(),
            config=ServiceConfig(exact_terminal_limit=0, exact_vertex_limit=0),
        )
        service.connect(["A", "C"])  # KMB fills the parent rows
        context, _ = service._context(None)
        assert chordal_elimination_work(context, ["A", "C"], LOOP_WORK_LIMIT)
        assert not service.warm_within(["A", "C"], LOOP_WORK_LIMIT)
        disk = ConnectionService(
            schema=small_graph(), config=ServiceConfig(cache_dir=str(tmp_path))
        )
        disk.connect(["A", 3])
        assert not disk.warm_within(["A", 3], LOOP_WORK_LIMIT)


class TestSolvePlacement:
    """Where a service call runs: on the event loop only when short and warm."""

    def test_warm_connects_run_on_the_loop_until_an_edit(self):
        metrics = MetricsRegistry()
        with running_server(metrics=metrics) as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("t", small_graph(), token="s3")
                client.connect("t", ["A", 3])  # builds the context
                assert solves(metrics) == {"loop": 0, "worker": 1}
                client.connect("t", ["A", 2])  # the root's BFS row is cached
                assert solves(metrics) == {"loop": 1, "worker": 1}
                client.connect("t", [2, 3])  # a new root runs its BFS first
                client.connect("t", [2, 3])
                assert solves(metrics) == {"loop": 2, "worker": 2}
                client.mutate(
                    "t",
                    [{"op": "add_vertex", "vertex": "D", "side": 1},
                     {"op": "add_edge", "u": "D", "v": 3}],
                    token="s3",
                )
                assert solves(metrics) == {"loop": 2, "worker": 3}
                client.connect("t", ["A", "D"])  # rebinds after the edit
                assert solves(metrics) == {"loop": 2, "worker": 4}
                client.connect("t", ["A", "D"])
                assert solves(metrics) == {"loop": 3, "worker": 4}

    def test_a_connect_rpc_builds_one_request(self, monkeypatch):
        made = []
        original = ConnectionRequest.of.__func__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(ConnectionRequest, "of", classmethod(counting))
        metrics = MetricsRegistry()
        with running_server(metrics=metrics) as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("t", small_graph())
                # the first connect builds the context on a worker, the
                # second answers warm on the loop: one request each
                for placement in ({"loop": 0, "worker": 1}, {"loop": 1, "worker": 1}):
                    made.clear()
                    client.connect("t", ["A", 3])
                    assert solves(metrics) == placement
                    assert len(made) == 1

    def test_batches_and_other_plans_run_on_a_worker(self):
        metrics = MetricsRegistry()
        with running_server(metrics=metrics) as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("t", small_graph())
                client.create_schema("c", six_cycle())
                for _ in range(2):
                    client.connect("t", ["A", 3])
                    client.connect("c", ["A", "C"])  # Dreyfus-Wagner
                assert solves(metrics) == {"loop": 1, "worker": 3}
                client.batch("t", [{"terminals": ["A", 3]}])
                client.interpret("t", [["A", 3]])
                client.connect("t", ["A", 3], objective="side", side=2)
                client.connect("t", ["A", 3], solver="kmb")
                assert solves(metrics) == {"loop": 1, "worker": 7}

    def test_a_connect_past_the_work_limit_runs_on_a_worker(self):
        metrics = MetricsRegistry()
        length = isqrt(LOOP_WORK_LIMIT) + 2  # seed squared alone passes it
        ends = ["a0", length - 1 if length % 2 == 0 else f"a{length - 1}"]
        with running_server(metrics=metrics) as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("p", path_graph(length))
                client.connect("p", ends)
                client.connect("p", ends)
                assert solves(metrics) == {"loop": 0, "worker": 2}
                client.connect("p", ["a0", 1])  # same root, a short seed
                assert solves(metrics) == {"loop": 1, "worker": 2}

    def test_enumeration_pages_run_on_a_worker(self):
        metrics = MetricsRegistry()
        with running_server(metrics=metrics) as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("t", small_graph())
                client.connect("t", ["A", 2])
                client.connect("t", ["A", 2])
                assert solves(metrics) == {"loop": 1, "worker": 1}
                page = client.enumerate("t", ["A", 2], budget=1, max_extra=4)
                client.enumerate(
                    "t", continuation=page["continuation"], budget=1
                )
                assert solves(metrics) == {"loop": 1, "worker": 3}

    def test_deadline_tenants_always_run_on_a_worker(self):
        metrics = MetricsRegistry()
        with running_server(metrics=metrics) as server:
            with ReproClient(port=server.port) as client:
                client.create_schema(
                    "t", small_graph(), limits={"deadline_ms": 60000}
                )
                for _ in range(3):
                    client.connect("t", ["A", 3])
                client.batch("t", [{"terminals": ["A", "B"]}])
                assert solves(metrics) == {"loop": 0, "worker": 4}

    def test_disk_cache_servers_always_run_on_a_worker(self, tmp_path):
        metrics = MetricsRegistry()
        with running_server(cache_dir=str(tmp_path), metrics=metrics) as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("t", small_graph())
                for terminals in (["A", 3], ["A", 2], ["A", 3]):
                    client.connect("t", terminals)
                assert solves(metrics) == {"loop": 0, "worker": 3}


def slowed(monkeypatch, owner, name):
    """Make ``owner.name`` sleep 0.3 s first; return the event it sets then."""
    started = threading.Event()
    original = getattr(owner, name)

    def slow(*args, **kwargs):
        started.set()
        time.sleep(0.3)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, slow)
    return started


class TestLoopIsolation:
    """While tenant A's call runs 0.3 s, tenant B's warm connect and a
    ping are each answered in under 100 ms."""

    def _assert_loop_stays_free(self, server, client, started, slow_call):
        expected = client.connect("b", ["A", 3])["cost"]
        client.connect("b", ["A", 3])
        outcome = {}

        def call_a():
            with ReproClient(port=server.port) as other:
                outcome["a"] = slow_call(other)

        caller = threading.Thread(target=call_a)
        caller.start()
        assert started.wait(5)
        began = time.perf_counter()
        assert client.connect("b", ["A", 3])["cost"] == expected
        warm_seconds = time.perf_counter() - began
        began = time.perf_counter()
        assert client.ping()["pong"]
        ping_seconds = time.perf_counter() - began
        caller.join(10)
        assert not caller.is_alive()
        assert "a" in outcome
        assert warm_seconds < 0.1, warm_seconds
        assert ping_seconds < 0.1, ping_seconds

    def test_a_cold_build(self, monkeypatch):
        with running_server() as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("a", small_graph())
                client.create_schema("b", small_graph())
                client.connect("b", ["A", 3])
                started = slowed(monkeypatch, ConnectionService, "_build_context")
                self._assert_loop_stays_free(
                    server, client, started,
                    lambda other: other.connect("a", ["A", 3]),
                )

    def test_a_warm_exact_connect_with_a_raised_terminal_limit(self, monkeypatch):
        terminals = ["A", "B", "C", 1, 2, 3]
        with running_server() as server:
            with ReproClient(port=server.port) as client:
                client.create_schema(
                    "a", six_cycle(), config={"exact_terminal_limit": 12}
                )
                client.create_schema("b", small_graph())
                client.connect("a", terminals)
                started = slowed(
                    monkeypatch, engine_registry, "steiner_tree_dreyfus_wagner"
                )
                self._assert_loop_stays_free(
                    server, client, started,
                    lambda other: other.connect("a", terminals),
                )

    def test_a_large_warm_batch(self, monkeypatch):
        requests = [{"terminals": ["A", 3]}] * 1024
        with running_server() as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("a", small_graph())
                client.create_schema("b", small_graph())
                client.batch("a", requests)
                started = slowed(monkeypatch, ConnectionService, "batch")
                self._assert_loop_stays_free(
                    server, client, started,
                    lambda other: other.batch("a", requests),
                )


def tuple_or_id(value):
    """Hashable identity for wire-encoded vertex labels."""
    return json.dumps(value, sort_keys=True)


# ----------------------------------------------------------------------
# differential: server == in-process
# ----------------------------------------------------------------------
class TestServerDifferential:
    @SETTINGS
    @given(graph=chordal_bipartite_graphs(), data=st.data())
    def test_wire_answers_match_in_process(self, graph, data):
        queries = [
            sorted(
                draw_terminals(data.draw, graph, min_terminals=2,
                               max_terminals=3),
                key=repr,
            )
            for _ in range(3)
        ]
        local = ConnectionService(schema=graph, config=ServiceConfig())
        with running_server() as server:
            with ReproClient(port=server.port) as client:
                client.create_schema("diff", graph)
                for terminals in queries:
                    expected = local.connect(list(terminals))
                    payload = client.connect("diff", list(terminals))
                    clone = decode_wire_result(
                        payload, graph=graph, request=expected.request
                    )
                    # byte-identical tree + guarantee
                    assert clone.tree.vertices() == expected.tree.vertices()
                    assert sorted(map(sorted_edge, clone.tree.edges())) == \
                        sorted(map(sorted_edge, expected.tree.edges()))
                    assert clone.guarantee is expected.guarantee
                    # provenance modulo transport fields
                    ours = clone.to_dict(include_timing=False)
                    theirs = expected.to_dict(include_timing=False)
                    for record in (ours, theirs):
                        record["provenance"].pop("request_id", None)
                        record["provenance"].pop("tenant", None)
                    assert ours == theirs


def sorted_edge(edge):
    """Normalise an undirected edge for comparison."""
    return tuple(sorted(edge, key=repr))


# ----------------------------------------------------------------------
# client: transport-level failure modes are typed, bounded, and leak-free
# ----------------------------------------------------------------------
@contextlib.contextmanager
def misbehaving_server(handler):
    """A bare TCP listener whose accept loop runs ``handler(conn)`` once."""
    import socket as socketlib

    listener = socketlib.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def serve():
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        try:
            handler(conn)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield port
    finally:
        listener.close()
        thread.join(5)


class TestClientFailureModes:
    """Each transport failure raises a typed RemoteError and closes the
    socket -- never a hang, never a leaked descriptor, never a client
    that silently reuses a half-synchronised connection."""

    def test_connection_refused_is_typed(self):
        import socket as socketlib

        probe = socketlib.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        with pytest.raises(RemoteError) as excinfo:
            ReproClient("127.0.0.1", free_port, timeout=2.0)
        assert excinfo.value.kind == "transport"

    def test_mid_frame_server_death_is_typed_and_closes(self):
        def die_mid_frame(conn):
            conn.recv(4096)
            # declare 100 bytes, deliver 5, die
            conn.sendall(struct.pack("!I", 100) + b'{"par')

        with misbehaving_server(die_mid_frame) as port:
            client = ReproClient("127.0.0.1", port, timeout=5.0, hello=False)
            with pytest.raises(RemoteError) as excinfo:
                client.ping()
            assert excinfo.value.kind == "transport"
            assert "mid-frame" in str(excinfo.value)
            assert client._sock.fileno() == -1, "socket leaked"

    def test_oversized_frame_is_refused_before_allocation(self):
        def huge_length(conn):
            conn.recv(4096)
            conn.sendall(struct.pack("!I", 2**31))  # 2 GiB declared

        with misbehaving_server(huge_length) as port:
            client = ReproClient("127.0.0.1", port, timeout=5.0, hello=False)
            with pytest.raises(RemoteError) as excinfo:
                client.ping()
            assert excinfo.value.kind == "protocol"
            assert "MAX_FRAME_BYTES" in str(excinfo.value)
            assert client._sock.fileno() == -1, "socket leaked"

    def test_oversized_request_is_refused_before_sending(self):
        def echo_nothing(conn):
            conn.recv(4096)

        with misbehaving_server(echo_nothing) as port:
            # the refusal leaves the connection usable, so the test owns
            # closing it
            with ReproClient("127.0.0.1", port, timeout=5.0, hello=False) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.call("connect", blob="x" * (MAX_FRAME_BYTES + 1))
                assert excinfo.value.kind == "protocol"
            assert client._sock.fileno() == -1, "socket leaked"

    def test_silent_server_times_out_not_hangs(self):
        def never_reply(conn):
            conn.recv(4096)
            threading.Event().wait(8)  # outlive the client timeout

        with misbehaving_server(never_reply) as port:
            client = ReproClient("127.0.0.1", port, timeout=0.5, hello=False)
            with pytest.raises(RemoteError) as excinfo:
                client.ping()
            assert excinfo.value.kind == "timeout"
            assert client._sock.fileno() == -1, "socket leaked"

    def test_garbage_frame_is_typed(self):
        def garbage(conn):
            conn.recv(4096)
            body = b"\xff\xfe not json"
            conn.sendall(struct.pack("!I", len(body)) + body)

        with misbehaving_server(garbage) as port:
            client = ReproClient("127.0.0.1", port, timeout=5.0, hello=False)
            with pytest.raises(RemoteError) as excinfo:
                client.ping()
            assert excinfo.value.kind == "protocol"
            assert "unparsable" in str(excinfo.value)

    def test_server_error_envelope_keeps_the_connection_usable(self):
        """A typed *envelope* (even kind 'protocol') is the server talking,
        not the transport dying: the same client must keep working."""
        with running_server() as server:
            with ReproClient(port=server.port) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.call("definitely_not_a_command")
                assert excinfo.value.kind == "protocol"
                assert client.ping()["pong"] is True
