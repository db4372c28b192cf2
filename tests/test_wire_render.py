"""Rendered wire frames against the dict-walking reference encoder.

A served answer stays on the schema context's ids up to the socket:
``encode_wire_result`` joins its JSON text from per-id label texts, and
``encode_frame`` splices that text into the reply frame.  This suite pins
every frame to the encoder it replaced (``tests/wire_reference.py``),
byte for byte:

* hypothesis schemas of the general, (6,2)-chordal and V2-alpha families,
  relabelled with every label kind: plain strings and tuples, ints whose
  reprs are prefixes of each other, floats, ``True``, ``None``, nested
  tuples, non-ASCII strings, labels of different types that print alike,
  and labels of one type that print alike;
* every path that serves an answer: each engine solver, the side
  objective (whose cover is not the tree), brute force, enumeration
  pages and disk replays; one-vertex trees; answers after edge-only and
  after vertex-churn edits;
* the ``connect``, ``batch``, ``interpret`` and stream frames of a live
  server, and ``MAX_FRAME_BYTES`` on a rendered frame.

It also checks what the ids buy: a warm served ``connect`` or ``batch``
builds no label ``Graph``, a side plan's ordering is rendered once, and a
vertex-churn edit inherits the label texts it keeps.  And it pins the
wire-codec fault the process-wide label memos caused: labels that compare
equal across types (``(1, 'a')`` and ``(1.0, 'a')``) shared one memo entry.
"""

import asyncio
import enum
import json
import random
import socket
import struct
import tempfile
import threading
from itertools import combinations

import pytest
from hypothesis import given, strategies as st
from strategies import (
    alpha_schema_graphs,
    bipartite_graphs,
    chordal_bipartite_graphs,
    common_settings,
    draw_terminals,
)
from wire_reference import reference_frame, reference_wire_result

import repro.server.app as app
import repro.server.protocol as protocol
from repro.api import ConnectionService, ServiceConfig
from repro.datasets.generators import (
    random_62_chordal_graph,
    random_alpha_schema_graph,
    random_terminals,
)
from repro.dynamic.editor import SchemaEditor
from repro.engine.cache import SchemaContext
from repro.exceptions import NotApplicableError, ValidationError
from repro.graphs import BipartiteGraph
from repro.graphs.graph import Graph
from repro.graphs.indexed import GraphIndex, to_indexed
from repro.load.clients import digest_result_object, digest_wire_payload
from repro.server.app import ReproServer
from repro.server.codec import encode_schema, encode_value, encode_wire_result
from repro.server.errors import ProtocolError
from repro.server.protocol import Rendered, encode_frame, to_json

SETTINGS = common_settings(max_examples=20)

FAMILIES = {
    "general": bipartite_graphs(),
    "62-chordal": chordal_bipartite_graphs(),
    "v2-alpha": alpha_schema_graphs(),
}


class Shown(str):
    """A string that prints as its text: ``Shown("1")`` ties with ``1`` on ``repr``."""

    def __repr__(self):
        return str(self)


class Same(str):
    """Strings of one type that all print alike: their context is ambiguous."""

    def __repr__(self):
        return "same"


#: Label kinds, each a (left labels, right labels) pool the relabelling
#: draws from in order; vertices beyond a pool keep their own labels.
LABEL_KINDS = {
    "own": ([], []),
    "prefix-ints": ([1, 2, 3, 4], [10, 11, 20, 21]),
    "scalars": (
        [True, None, ("a", (1, "é")), "ñandú"],
        [2.0, 2.05, ("b", ()), "日本"],
    ),
    "floats": ([1.0, 10.5, 0.5, -0.0], [1.05, 100.0, 3.0, 3.25]),
    "repr-ties": ([1, Shown("1"), 10, ("t", 1)], ["x", Shown("'x'"), Shown("('t', 1)"), -0.0]),
    "ambiguous": ([Same("a"), Same("b"), "c", 3], [Same("x"), "y", 4.0, ("z",)]),
}


def relabel(graph, kind):
    """``graph`` with its first vertices per side renamed from ``LABEL_KINDS[kind]``."""
    pools = LABEL_KINDS[kind]
    names = {}
    for side, pool in zip((1, 2), pools):
        members = sorted((v for v in graph.vertices() if graph.side_of(v) == side), key=repr)
        names.update(zip(members, pool))
    rename = lambda v: names.get(v, v)  # noqa: E731
    return BipartiteGraph(
        left=[rename(v) for v in graph.left()],
        right=[rename(v) for v in graph.right()],
        edges=[(rename(u), rename(v)) for u, v in graph.edges()],
    )


def reply(result_body) -> dict:
    return {"id": 7, "ok": True, "result": result_body}


#: Label kinds whose labels come back from JSON as themselves; the others
#: are ``str`` subclasses, which decode to plain strings.
ROUND_TRIP = {"own", "prefix-ints", "scalars", "floats"}


def check(result, round_trip=True):
    """One answer: connect, batch and stream frames equal the reference's.

    With ``round_trip``, the decoded payload also digests like the answer.
    """
    text = encode_wire_result(result)
    rendered = [
        encode_frame(reply(Rendered('{"result":' + text + "}"))),
        encode_frame(reply(Rendered('{"results":[' + text + "," + text + "]}"))),
        encode_frame({"id": "s", "stream": Rendered(text)}),
    ]
    payload = reference_wire_result(result)
    expected = [
        reference_frame(reply({"result": payload})),
        reference_frame(reply({"results": [payload, payload]})),
        reference_frame({"id": "s", "stream": payload}),
    ]
    assert rendered == expected
    if round_trip:
        assert digest_wire_payload(json.loads(text)) == digest_result_object(result)


def answers(service, graph, terminals):
    """Every answer the service gives for ``terminals``, over every path.

    The brute-force solvers run on graphs of at most 12 vertices only.
    """
    small = len(graph.vertices()) <= 12
    results = [service.connect(terminals)]
    for name, objective, side in (
        ("chordal-elimination", "steiner", None),
        ("dreyfus-wagner", "steiner", None),
        ("kmb", "steiner", None),
        ("bruteforce", "steiner", None),
        ("algorithm1-indexed", "side", 1),
        ("algorithm1-indexed", "side", 2),
        ("pseudo-bruteforce", "side", 2),
        (None, "side", 1),
        (None, "side", 2),
    ):
        if name in ("bruteforce", "pseudo-bruteforce") and not small:
            continue
        try:
            results.append(
                service.connect(terminals, solver=name, objective=objective, side=side)
            )
        except (NotApplicableError, ValidationError):
            continue  # Algorithm 1 outside its class
    results.extend(service.enumerate(terminals, budget=3, max_extra=2))
    return results


@pytest.mark.parametrize("kind", sorted(LABEL_KINDS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
@SETTINGS
@given(data=st.data())
def test_rendered_frames_equal_the_reference(family, kind, data):
    graph = relabel(data.draw(FAMILIES[family]), kind)
    terminals = sorted(draw_terminals(data.draw, graph, max_terminals=4), key=repr)
    if not terminals:
        return
    service = ConnectionService(schema=graph)
    for result in answers(service, graph, terminals):
        check(result, kind in ROUND_TRIP)
    check(service.connect(terminals[:1]), kind in ROUND_TRIP)  # a one-vertex tree


@pytest.mark.parametrize("kind", ["own", "prefix-ints", "repr-ties"])
def test_disk_replays_render_like_fresh_answers(kind):
    graph = relabel(random_alpha_schema_graph(8, rng=3), kind)
    rng = random.Random(5)
    queries = [random_terminals(graph, k, rng=rng) for k in (1, 3, 4, 9)]
    with tempfile.TemporaryDirectory() as cache_dir:
        for _pass in ("store", "replay"):
            service = ConnectionService(schema=graph, config=ServiceConfig(cache_dir=cache_dir))
            results = [service.connect(q) for q in queries]
            results += [service.connect(q, objective="side", side=2) for q in queries]
            for result in results:
                check(result, kind in ROUND_TRIP)
        assert {r.provenance.result_cache for r in results} == {"disk"}
        assert all(r.solution.ids is not None for r in results)


@pytest.mark.parametrize("kind", ["own", "prefix-ints", "floats", "repr-ties"])
def test_answers_after_edits_render_like_the_reference(kind):
    graph = relabel(random_62_chordal_graph(8, rng=4), kind)
    service = ConnectionService(schema=graph)
    rng = random.Random(2)
    queries = [random_terminals(graph, 3 + i % 3, rng=rng) for i in range(8)]
    for query in queries:
        check(service.connect(query), kind in ROUND_TRIP)
    before = service._bound_context.index
    # an edge-only edit keeps the label table and its texts
    u, v = sorted(graph.edges(), key=repr)[0]
    with SchemaEditor(graph) as tx:
        tx.remove_edge(u, v)
        tx.add_edge(u, v)
        anchor = sorted(graph.vertices(), key=repr)[-1]
        other = [w for w in graph.vertices() if graph.side_of(w) != graph.side_of(anchor)]
        extra = next(
            (w for w in sorted(other, key=repr) if not graph.has_edge(anchor, w)), None
        )
        if extra is not None:
            tx.add_edge(anchor, extra)
    for query in queries:
        check(service.connect(query), kind in ROUND_TRIP)
    assert service._bound_context.index is before
    # vertex churn re-keys the ids but inherits the texts of kept labels
    leaf = ("leaf", "ñ")
    with SchemaEditor(graph) as tx:
        tx.add_vertex(leaf, side=3 - graph.side_of(anchor))
        tx.add_edge(leaf, anchor)
    for query in queries + [[leaf, queries[0][0]]]:
        check(service.connect(query), kind in ROUND_TRIP)
    after = service._bound_context.index
    assert after is not before
    kept = [
        (after.fragments[after.ids[label]], text)
        for label, text in zip(before.labels, before.fragments)
        if text is not None
    ]
    assert kept and all(new is old for new, old in kept)  # carried, not re-encoded


def test_a_side_plan_renders_its_ordering_once():
    graph = random_alpha_schema_graph(12, rng=2)
    service = ConnectionService(schema=graph)
    rng = random.Random(3)
    first, second = (
        service.connect(random_terminals(graph, 4, rng=rng), objective="side", side=2)
        for _ in range(2)
    )
    shared = dict.get(first.solution.metadata, "ordering")
    assert dict.get(second.solution.metadata, "ordering") is shared
    check(first)
    text = shared.text
    assert text is not None
    check(second)
    assert shared.text is text
    assert first.solution.metadata["ordering"] == json.loads(
        encode_wire_result(first)
    )["metadata"]["ordering"]


def test_a_hand_built_result_is_numbered_by_its_own_tree():
    graph = relabel(random_62_chordal_graph(5, rng=1), "prefix-ints")
    result = ConnectionService(schema=graph).connect(sorted(graph.left(), key=repr)[:3])
    solution = result.solution
    _ = solution.tree  # decoded, then left without ids, as a label-space answer
    solution.ids = solution.index = None
    solution.metadata = {key: value for key, value in solution.metadata.items()}
    payload = reference_wire_result(result)
    frame = encode_frame(reply(Rendered('{"result":' + encode_wire_result(result) + "}")))
    assert frame == reference_frame(reply({"result": payload}))
    assert solution.ids is not None


@pytest.mark.parametrize("kind", sorted(LABEL_KINDS))
def test_the_repr_sorted_flag_is_what_the_labels_say(kind):
    # set from the reprs at hand by to_indexed and the schema context,
    # computed from the labels otherwise: the three agree
    graph = relabel(random_62_chordal_graph(5, rng=1), kind)
    index = to_indexed(graph)[1]
    reprs = list(map(repr, index.labels))
    expected = all(a < b and not b.startswith(a) for a, b in combinations(reprs, 2))
    assert expected is (kind == "own")
    assert index.repr_sorted is expected
    assert SchemaContext(graph).index.repr_sorted is expected
    assert GraphIndex(index.labels).repr_sorted is expected


def test_an_oversized_rendered_frame_is_refused(monkeypatch):
    graph = random_62_chordal_graph(6, rng=2)
    result = ConnectionService(schema=graph).connect(random_terminals(graph, 4, rng=1))
    text = encode_wire_result(result)
    frame = encode_frame(reply(Rendered('{"result":' + text + "}")))
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", len(frame) - 5)
    with pytest.raises(ProtocolError, match="exceeds MAX_FRAME_BYTES"):
        encode_frame(reply(Rendered('{"result":' + text + "}")))
    encode_frame({"id": 1, "ok": True, "result": {"pong": True}})  # plain frames still fit


class Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize(
    "value",
    [
        "plain", 'q"uo\\te\n\t', "日本 ñ \u2028", Shown("1"), None, True, False, 0, -7, 10**30,
        Level.LOW, 0.1, -0.0, 1e300, 1e-7, float("nan"), float("inf"), float("-inf"),
        [1, "a", None], ("t", 1.5), {"k": [True], "é": {"x": None}}, {1: "int key"}, [],
    ],
)
def test_the_frame_writer_writes_what_json_dumps_writes(value):
    assert to_json(value) == json.dumps(value, separators=(",", ":"), ensure_ascii=False)


def test_plain_frames_keep_one_json_dumps():
    message = {"id": ["x", 1], "ok": False, "error": {"kind": "protocol", "message": "é \"q\""}}
    assert encode_frame(message) == reference_frame(message)
    # a client string shaped like a reply cannot change the frame around it
    forged = {"id": '{"id":1,"ok":true,"result":', "ok": True, "result": Rendered("[]")}
    assert json.loads(encode_frame(forged)[4:]) == {
        "id": '{"id":1,"ok":true,"result":', "ok": True, "result": []
    }


# ----------------------------------------------------------------------
# a live server: the frames it writes
# ----------------------------------------------------------------------
LENGTH = struct.Struct("!I")


class RawClient:
    """A blocking client that keeps every reply frame's bytes."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.frames = []
        self.seq = 0

    def _exactly(self, count):
        data = b""
        while len(data) < count:
            chunk = self.sock.recv(count - len(data))
            assert chunk, "server closed the connection"
            data += chunk
        return data

    def call(self, command, **params):
        self.seq += 1
        body = json.dumps({"id": self.seq, "cmd": command, "params": params}).encode()
        self.sock.sendall(LENGTH.pack(len(body)) + body)
        while True:
            (length,) = LENGTH.unpack(self._exactly(4))
            frame = LENGTH.pack(length) + self._exactly(length)
            self.frames.append(frame)
            message = json.loads(frame[4:])
            if "stream" not in message:
                assert message["ok"], message
                return message["result"]

    def close(self):
        self.sock.close()


class served:
    """A live server whose rendered answers are recorded, as perfbench's tracer does."""

    def __init__(self, monkeypatch):
        self.results = []
        render = app.encode_wire_result

        def recording(result):
            self.results.append(result)
            return render(result)

        monkeypatch.setattr(app, "encode_wire_result", recording)

    def __enter__(self):
        self.server = ReproServer(port=0)
        ready = threading.Event()

        def run():
            async def main():
                await self.server.start()
                ready.set()
                await self.server.serve_forever()

            asyncio.run(main())

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert ready.wait(10)
        self.client = RawClient(self.server.port)
        return self

    def __exit__(self, *exc):
        self.client.close()
        self.server.request_drain()
        self.thread.join(10)


def expected_frames(frames, results):
    """The reference encoder's frames for the messages ``frames`` carry."""
    results = iter(results)
    expected = []
    for frame in frames:
        message = json.loads(frame[4:])
        if "stream" in message:
            message["stream"] = reference_wire_result(next(results))
        elif "result" in message.get("result", {}):
            message["result"]["result"] = reference_wire_result(next(results))
        elif "results" in message.get("result", {}):
            message["result"]["results"] = [
                reference_wire_result(next(results)) for _ in message["result"]["results"]
            ]
        expected.append(reference_frame(message))
    assert next(results, None) is None
    return expected


@pytest.mark.parametrize("kind", ["own", "prefix-ints", "scalars"])
def test_served_frames_equal_the_reference(monkeypatch, kind):
    graph = relabel(random_alpha_schema_graph(6, rng=1), kind)
    rng = random.Random(9)
    queries = [wire_terminals(random_terminals(graph, k, rng=rng)) for k in (1, 3, 4, 9)]
    with served(monkeypatch) as live:
        client = live.client
        client.call("create_schema", tenant="t", schema=encode_schema(graph))
        for query in queries:
            client.call("connect", tenant="t", terminals=query)
            client.call("connect", tenant="t", terminals=query, objective="side", side=2)
        client.call(
            "batch",
            tenant="t",
            requests=[{"terminals": q} for q in queries]
            + [{"terminals": q, "objective": "side", "side": 2} for q in queries],
        )
        client.call("interpret", tenant="t", queries=queries)
        client.call("enumerate", tenant="t", terminals=queries[1], budget=3, max_extra=2)
        client.call("ping")
        frames = client.frames[1:]
    assert live.results
    assert frames == expected_frames(frames, live.results)


def wire_terminals(terminals):
    return [encode_value(t) for t in terminals]


def test_warm_served_answers_build_no_label_graph(monkeypatch):
    graph = random_alpha_schema_graph(10, rng=4)
    rng = random.Random(1)
    queries = [wire_terminals(random_terminals(graph, k, rng=rng)) for k in (3, 4, 9, 10)]
    built = []
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    with served(monkeypatch) as live:
        client = live.client
        client.call("create_schema", tenant="t", schema=encode_schema(graph))
        batch = [{"terminals": q} for q in queries]
        batch += [{"terminals": q, "objective": "side", "side": 2} for q in queries[:2]]
        for _warm in range(2):
            built.clear()
            monkeypatch.setattr(Graph, "__init__", counting)
            for query in queries:
                client.call("connect", tenant="t", terminals=query)
            client.call("batch", tenant="t", requests=batch)
            monkeypatch.setattr(Graph, "__init__", init)
        assert built == []  # the second pass, on warm state
        assert len(live.results) == 2 * (len(queries) + len(batch))


# ----------------------------------------------------------------------
# the label memos' fault: equal labels of different types shared an entry
# ----------------------------------------------------------------------
def memo_schema(one):
    """Two relations over a shared attribute, one of them named ``(one, 'a')``."""
    return BipartiteGraph(
        left=[(one, "a"), (2, "a")],
        right=["x", "y"],
        edges=[((one, "a"), "x"), ((2, "a"), "x"), ((2, "a"), "y")],
    )


def test_equal_labels_of_other_types_encode_as_themselves():
    first = ConnectionService(schema=memo_schema(1)).connect([(1, "a"), "y"])
    json.loads(encode_wire_result(first))
    second = ConnectionService(schema=memo_schema(1.0)).connect([(1.0, "a"), "y"])
    text = encode_wire_result(second)
    assert '"terminals":["y",{"__t__":[1.0,"a"]}]' in text
    assert '["x",{"__t__":[1.0,"a"]}]' in text
    assert digest_wire_payload(json.loads(text)) == digest_result_object(second)
    check(second)


def test_equal_labels_of_other_types_encode_as_themselves_over_one_server(monkeypatch):
    with served(monkeypatch) as live:
        client = live.client
        for tenant, one in (("int", 1), ("float", 1.0)):
            client.call("create_schema", tenant=tenant, schema=encode_schema(memo_schema(one)))
        answers = {
            tenant: client.call(
                "connect", tenant=tenant, terminals=[{"__t__": [one, "a"]}, "y"]
            )["result"]
            for tenant, one in (("int", 1), ("float", 1.0))
        }
    for tenant, one in (("int", 1), ("float", 1.0)):
        oracle = ConnectionService(schema=memo_schema(one)).connect([(one, "a"), "y"])
        assert digest_wire_payload(answers[tenant]) == digest_result_object(oracle)
