"""JSON-safe wire codec: vertices, schemas, results, continuation tokens.

JSON has no tuple, but the library's vertex labels are frequently tuples
(the generators label vertices ``('l', 3)`` / ``('r', 7)``), and a
round-trip that silently turned them into lists would break hashing,
``repr``-based ordering, and therefore the byte-identity the
differential suite pins.  This module is the *wire* layer on top of the
runtime payload codec (:mod:`repro.runtime.codec`): tuples are tagged
(``{"__t__": [...]}``) on the way out and restored on the way in, for
vertex labels and recursively inside solution metadata.

Answers are written straight to JSON text (:func:`encode_wire_result`):
a served answer stays on the schema context's ids from the solver to the
socket, and each label's text is encoded once per label table
(:attr:`~repro.graphs.indexed.GraphIndex.fragments`) and joined from
there.

It also defines the two wire-only encodings that have no runtime
counterpart: bipartite schema uploads (``{"left", "right", "edges"}``)
and the **opaque continuation tokens** that make enumeration resumable
across connections -- a base64url-encoded JSON record carrying the
tenant, the (encoded) terminals, the enumeration bounds, and how many
connections were already yielded.  The token is self-contained: any
server holding the tenant's schema can resume from it, even after a
restart (see ``docs/server.md`` for the resume algorithm).
"""

from __future__ import annotations

import base64
import binascii
import json
from itertools import chain
from json.encoder import encode_basestring as _string
from typing import Any, List, Optional, Sequence

from repro.api.request import ConnectionRequest
from repro.api.result import ConnectionResult
from repro.exceptions import ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.indexed import GraphIndex, id_order, same_label
from repro.runtime.codec import PAYLOAD_VERSION, decode_result
from repro.server.errors import ProtocolError
from repro.server.protocol import to_json
from repro.steiner.problem import OnIds

#: Tag key marking an encoded tuple; chosen to be implausible as a user
#: dict key and rejected in incoming plain dicts' keys by no one -- a
#: dict *value* shaped exactly like a tag decodes back to a tuple, which
#: is the tradeoff for a self-describing encoding.
TUPLE_TAG = "__t__"

#: Tag key marking an encoded set/frozenset (solution metadata carries
#: vertex sets).  Elements are sorted by ``repr`` so the wire form is
#: deterministic; sets are unordered, so decode-side equality holds.
SET_TAG = "__s__"

#: Version stamp inside every continuation token; unknown versions are
#: rejected with a protocol error instead of resuming garbage.
CONTINUATION_VERSION = 1

def encode_value(value: Any) -> Any:
    """Return a JSON-safe encoding of a vertex label or metadata value.

    Tuples become ``{"__t__": [...]}`` (recursively); lists, dicts and
    scalars pass through with their elements encoded.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, tuple):
        return {TUPLE_TAG: [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        return {SET_TAG: [encode_value(item) for item in sorted(value, key=repr)]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    raise ProtocolError(
        f"value {value!r} ({type(value).__name__}) is not wire-encodable"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (tagged dicts back to tuples)."""
    if isinstance(value, dict):
        if set(value) == {TUPLE_TAG} and isinstance(value[TUPLE_TAG], list):
            return tuple(decode_value(item) for item in value[TUPLE_TAG])
        if set(value) == {SET_TAG} and isinstance(value[SET_TAG], list):
            return set(decode_value(item) for item in value[SET_TAG])
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


# ----------------------------------------------------------------------
# schemas
# ----------------------------------------------------------------------
def encode_schema(graph: BipartiteGraph) -> dict:
    """Return the wire form of a bipartite schema (sorted, deterministic)."""
    return {
        "left": [encode_value(v) for v in sorted(graph.left(), key=repr)],
        "right": [encode_value(v) for v in sorted(graph.right(), key=repr)],
        "edges": [
            [encode_value(u), encode_value(v)]
            for u, v in sorted(
                (tuple(sorted(edge, key=repr)) for edge in graph.edges()), key=repr
            )
        ],
    }


def decode_schema(payload: dict) -> BipartiteGraph:
    """Build a :class:`BipartiteGraph` from a ``create_schema`` upload."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"schema must be an object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - {"left", "right", "edges"})
    if unknown:
        raise ProtocolError(
            f"schema: unknown key(s) {unknown}; expected left/right/edges"
        )
    for key in ("left", "right", "edges"):
        if not isinstance(payload.get(key, []), list):
            raise ProtocolError(f"schema: {key!r} must be a list")
    edges = []
    for entry in payload.get("edges", []):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ProtocolError(
                f"schema: each edge must be a two-element list, got {entry!r}"
            )
        edges.append((decode_value(entry[0]), decode_value(entry[1])))
    return BipartiteGraph(
        left=[decode_value(v) for v in payload.get("left", [])],
        right=[decode_value(v) for v in payload.get("right", [])],
        edges=edges,
    )


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def encode_wire_result(result: ConnectionResult) -> str:
    """Return the JSON text of the wire payload for one answered request.

    The payload is the runtime codec's record of the answer
    (:func:`~repro.runtime.codec.encode_result`: tree, guarantee,
    provenance) with every vertex label made JSON-safe, plus the request's
    terminals, objective and cost, so a schema-holding receiver can
    rebuild the full :class:`~repro.api.result.ConnectionResult`
    (:func:`decode_wire_result` of ``json.loads`` of the text).  Its keys
    come in this order: ``version``, ``tree_vertices`` (only when the edges
    do not cover the tree, i.e. a one-vertex tree), ``tree_edges``,
    ``method``, ``side``, ``optimal``, ``metadata`` (without ``cover`` when
    the cover is the tree's vertex set), ``guarantee``, ``rank``,
    ``provenance``, ``cover_is_tree`` (only then), ``terminals``,
    ``objective``, ``cost``.  Vertex lists and sets are sorted by
    ``repr``, each edge is oriented low-``repr`` first, and the edge list
    is sorted by the ``repr`` of the pair.

    The text is joined from the ids the answer carries
    (:attr:`~repro.steiner.problem.SteinerSolution.ids`) and each label's
    text, encoded once per label table
    (:attr:`~repro.graphs.indexed.GraphIndex.fragments`).  Where the table's
    ids follow ``repr`` order (:attr:`~repro.graphs.indexed.GraphIndex.repr_sorted`)
    the sorts are sorts of ids; otherwise the answer's labels are decoded
    and sorted by ``repr`` as the runtime codec sorts them.  A result
    without ids (built by hand, or decoded from the wire) is numbered by
    its own tree's labels first.
    """
    solution = result.solution
    if solution.ids is None:
        solution.index_on(GraphIndex(id_order(solution.tree.vertices())[0]))
    tree, index = solution.ids, solution.index
    vertices = tree.vertices
    vertex_set = set(vertices)
    frags = _fragments(index, vertices)
    by_ids = index.repr_sorted
    if by_ids:
        edges = sorted([(u, v) if u < v else (v, u) for u, v in tree.edges])
    else:
        edges = _edges_by_repr(solution)
    edge_text = "[[" + "],[".join([frags[u] + "," + frags[v] for u, v in edges]) + "]]"
    # a solution tree is connected, so when it has edges at all its
    # vertices are the edge endpoints: the list travels only otherwise
    # (decode_wire_result rebuilds the identical repr-sorted list)
    if len(vertex_set) == len(set(chain.from_iterable(edges))):
        head = '{"version":%d,"tree_edges":%s' % (PAYLOAD_VERSION, edge_text if edges else "[]")
    else:
        listed = sorted(vertices) if by_ids else _by_repr(index, solution.tree.vertices())
        head = '{"version":%d,"tree_vertices":%s,"tree_edges":%s' % (
            PAYLOAD_VERSION,
            _id_list(frags, listed),
            edge_text if edges else "[]",
        )
    # the paper's solvers report the tree's vertex set as their cover, so
    # a matching cover travels as one flag
    cover_is_tree = False
    entries = []
    for key, value in dict.items(solution.metadata):  # OnIds values undecoded
        if key == "cover":
            if type(value) is OnIds:
                cover_is_tree = value.kind is set and vertex_set == set(value.ids)
            else:
                cover_is_tree = value == solution.tree.vertices()
            if cover_is_tree:
                continue
        if type(value) is OnIds:
            text = _on_ids(key, value, solution, by_ids)
        elif type(value) is str:
            text = _string(value)
        else:
            text = to_json(encode_value(value))
        entries.append(_string(str(key)) + ":" + text)
    provenance = result.provenance
    request = result.request
    # the runtime codec drops result_cache (a disk replay re-stamps it on
    # the reading side); the wire is the final hop, so it travels.  The
    # cost is derived, but clients without the schema want it as it is.
    return (
        f'{head},"method":{to_json(solution.method)},"side":{to_json(solution.side)}'
        f',"optimal":{to_json(solution.optimal)},"metadata":{{{",".join(entries)}}}'
        f',"guarantee":{to_json(result.guarantee.value)},"rank":{to_json(result.rank)}'
        f',"provenance":{{"solver":{to_json(provenance.solver)}'
        f',"instance_class":{to_json(provenance.instance_class)}'
        f',"plan":{to_json(provenance.plan)},"cache_hit":{to_json(provenance.cache_hit)}'
        f',"fallback_from":{to_json(provenance.fallback_from)}'
        f',"wall_time_ms":{to_json(provenance.wall_time_ms)}'
        f',"request_id":{to_json(provenance.request_id)},"tenant":{to_json(provenance.tenant)}'
        f',"phases":{to_json(provenance.phases)}'
        f',"result_cache":{to_json(provenance.result_cache)}}}'
        f'{_COVER_IS_TREE if cover_is_tree else ""}'
        f',"terminals":{_terminals(request.terminals, index, frags)}'
        f',"objective":{to_json(request.objective)},"cost":{to_json(result.cost)}}}'
    )


_COVER_IS_TREE = ',"cover_is_tree":true'


def _fragments(index: GraphIndex, ids: Sequence[int]) -> List[str]:
    """Return the index's label texts, with those of ``ids`` filled in.

    The text of label ``i`` is ``to_json(encode_value(labels[i]))``,
    encoded the first time an answer shows it.
    """
    frags = index.fragments
    if frags is None:
        frags = index.fragments = [None] * len(index.labels)
    if None in map(frags.__getitem__, ids):
        labels = index.labels
        for i in ids:
            if frags[i] is None:
                frags[i] = to_json(encode_value(labels[i]))
    return frags


def _id_list(frags: List[str], ids) -> str:
    return "[" + ",".join(map(frags.__getitem__, ids)) + "]"


def _on_ids(key, value: OnIds, solution, by_ids: bool) -> str:
    """The text of metadata entry ``key``, held on ids: a tagged set, or a list in order."""
    index = solution.index
    if value.kind is set:
        ids = sorted(value.ids) if by_ids else _by_repr(index, solution.metadata[key])
        return '{"' + SET_TAG + '":' + _id_list(_fragments(index, ids), ids) + "}"
    if value.text is None:  # a shared plan ordering renders once
        value.text = _id_list(_fragments(index, value.ids), value.ids)
    return value.text


def _terminals(terminals, index: GraphIndex, frags: List[Optional[str]]) -> str:
    """The request's terminals, each the table's text when its label stands for it."""
    ids, labels = index.ids, index.labels
    texts = []
    for terminal in terminals:
        at = ids.get(terminal)
        if at is not None and same_label(terminal, labels[at]):
            texts.append(frags[at] or _fragments(index, (at,))[at])
        else:
            texts.append(to_json(encode_value(terminal)))
    return "[" + ",".join(texts) + "]"


def _by_repr(index: GraphIndex, labels) -> List[int]:
    """The ids of ``labels``, a collection of the table's labels, in ``repr`` order.

    A stable sort, as the runtime codec's: labels that print alike keep
    the collection's iteration order.
    """
    ids = index.ids
    return [ids[v] for v in sorted(labels, key=repr)]


def _edges_by_repr(solution) -> List:
    """The answer's edges as id pairs, in the runtime codec's order.

    Each edge is oriented low-``repr`` first and the list is sorted by
    the ``repr`` of the pair, over the decoded label tree.
    """
    ids = solution.index.ids
    return [
        (ids[u], ids[v])
        for u, v in sorted(
            ((u, v) if repr(u) <= repr(v) else (v, u) for u, v in solution.tree.edges()),
            key=repr,
        )
    ]


def decode_wire_result(
    payload: dict,
    *,
    graph,
    request: Optional[ConnectionRequest] = None,
    result_cache: Optional[str] = None,
) -> ConnectionResult:
    """Re-materialise a :class:`ConnectionResult` from a wire payload.

    ``graph`` is the receiver's copy of the schema.  When ``request`` is
    omitted it is rebuilt from the payload's embedded terminals and
    objective -- enough for tree/guarantee/provenance comparisons; pass
    the original request to round-trip tags and policy too.  Every
    malformed payload raises :class:`~repro.server.errors.ProtocolError`.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"result payload must be an object, got {type(payload).__name__}"
        )
    inner = dict(payload)
    try:
        inner["tree_edges"] = [
            tuple(decode_value(end) for end in edge)
            for edge in inner["tree_edges"]
        ]
        if "tree_vertices" in inner:
            inner["tree_vertices"] = [
                decode_value(v) for v in inner["tree_vertices"]
            ]
        else:  # omitted on the wire: rebuild from the edge endpoints
            inner["tree_vertices"] = sorted(
                {v for edge in inner["tree_edges"] for v in edge}, key=repr
            )
        inner["metadata"] = decode_value(inner["metadata"])
        if inner.pop("cover_is_tree", False):
            inner["metadata"]["cover"] = set(inner["tree_vertices"])
        terminals = [decode_value(t) for t in inner.pop("terminals")]
        objective = inner.pop("objective")
        inner.pop("cost", None)  # derived; recomputed from the tree
        provenance = dict(inner.get("provenance") or {})
        stored_result_cache = provenance.pop("result_cache", None)
        inner["provenance"] = provenance
        if result_cache is None:
            result_cache = stored_result_cache
        if request is None:
            request = ConnectionRequest.of(terminals, objective=objective)
        return decode_result(
            inner, graph=graph, request=request, result_cache=result_cache
        )
    except (KeyError, TypeError, ValueError, ValidationError) as error:
        # ValueError covers decode_result's PayloadError, ValidationError
        # an embedded request that ConnectionRequest rejects
        raise ProtocolError(f"malformed wire result: {error}") from error


# ----------------------------------------------------------------------
# continuation tokens
# ----------------------------------------------------------------------
def encode_continuation(
    *,
    tenant: str,
    terminals: List[Any],
    max_extra: Optional[int],
    skip: int,
    sid: str,
) -> str:
    """Return the opaque resume token for a paused enumeration.

    ``terminals`` are already wire-encoded; ``skip`` is how many
    connections the stream has yielded so far (the resume point);
    ``sid`` names the server-side live stream for the fast path.
    """
    record = {
        "v": CONTINUATION_VERSION,
        "tenant": tenant,
        "terminals": terminals,
        "max_extra": max_extra,
        "skip": skip,
        "sid": sid,
    }
    raw = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii")


def decode_continuation(token: str) -> dict:
    """Decode and validate a continuation token (raises on any damage)."""
    try:
        raw = base64.urlsafe_b64decode(token.encode("ascii"))
        record = json.loads(raw.decode("utf-8"))
    except (binascii.Error, ValueError, UnicodeError) as error:
        raise ProtocolError(f"malformed continuation token: {error}") from error
    if not isinstance(record, dict) or record.get("v") != CONTINUATION_VERSION:
        raise ProtocolError(
            "continuation token has an unknown version; it was not minted "
            "by a compatible server"
        )
    required = {"tenant", "terminals", "skip", "sid"}
    if not required <= set(record):
        raise ProtocolError("continuation token is missing required fields")
    if not isinstance(record["skip"], int) or record["skip"] < 0:
        raise ProtocolError("continuation token has an invalid resume point")
    return record
