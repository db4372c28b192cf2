"""JSON-safe wire codec: vertices, schemas, results, continuation tokens.

JSON has no tuple, but the library's vertex labels are frequently tuples
(the generators label vertices ``('l', 3)`` / ``('r', 7)``), and a
round-trip that silently turned them into lists would break hashing,
``repr``-based ordering, and therefore the byte-identity the
differential suite pins.  This module is the *wire* layer on top of the
runtime payload codec (:mod:`repro.runtime.codec`): tuples are tagged
(``{"__t__": [...]}``) on the way out and restored on the way in, for
vertex labels and recursively inside solution metadata.

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
from typing import Any, List, Optional

from repro.api.request import ConnectionRequest
from repro.api.result import ConnectionResult
from repro.graphs.bipartite import BipartiteGraph
from repro.runtime.codec import _label_repr, decode_result, encode_result
from repro.server.errors import ProtocolError

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

#: Memo of encoded tuple labels.  Vertex labels are drawn from a small
#: universe but appear in every result's tree/metadata, so caching the
#: encoded form takes label encoding off the round-trip critical path
#: (SV1, ``benchmarks/bench_server.py``).  Consequence: encoded payloads
#: share substructure -- treat wire payloads as immutable (the server
#: only ever serialises them, and decoding builds fresh objects).
_TUPLE_MEMO: dict = {}
_TUPLE_MEMO_MAX = 65536


def encode_value(value: Any) -> Any:
    """Return a JSON-safe encoding of a vertex label or metadata value.

    Tuples become ``{"__t__": [...]}`` (recursively); lists, dicts and
    scalars pass through with their elements encoded.
    """
    # scalars first: the overwhelming majority of calls are leaf labels,
    # and this ordering is what keeps result encoding off the round-trip
    # critical path (see benchmarks/bench_server.py, SV1)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, tuple):
        try:
            return _TUPLE_MEMO[value]
        except KeyError:
            encoded = {TUPLE_TAG: [encode_value(item) for item in value]}
            if len(_TUPLE_MEMO) < _TUPLE_MEMO_MAX:
                _TUPLE_MEMO[value] = encoded
            return encoded
        except TypeError:  # unhashable elements (e.g. a nested list)
            return {TUPLE_TAG: [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        return {
            SET_TAG: [
                encode_value(item)
                for item in sorted(value, key=_label_repr)
            ]
        }
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
def encode_wire_result(result: ConnectionResult) -> dict:
    """Return the JSON-safe wire payload for one answered request.

    Built on :func:`~repro.runtime.codec.encode_result` (so provenance,
    guarantee and the tree travel exactly as they do to the disk cache)
    with every vertex label made JSON-safe, plus the request's terminals
    and objective so a schema-holding receiver can rebuild the full
    :class:`~repro.api.result.ConnectionResult` without out-of-band
    state.
    """
    payload = encode_result(result)
    tree_vertex_set = set(payload["tree_vertices"])
    # a solution tree is connected, so when it has edges at all the
    # vertex list is exactly the union of the edge endpoints -- omit it
    # from the wire (it is the single largest redundant payload chunk;
    # decode_wire_result rebuilds the identical repr-sorted list)
    covered = {v for edge in payload["tree_edges"] for v in edge}
    if covered == tree_vertex_set:
        del payload["tree_vertices"]
    else:
        payload["tree_vertices"] = [
            encode_value(v) for v in payload["tree_vertices"]
        ]
    payload["tree_edges"] = [
        [encode_value(u), encode_value(v)] for u, v in payload["tree_edges"]
    ]
    # same trick for the cover: the paper's solvers report the tree's
    # vertex set as its cover, so a matching set travels as one flag
    metadata = payload["metadata"]
    if metadata.get("cover") == tree_vertex_set:
        metadata = {k: v for k, v in metadata.items() if k != "cover"}
        payload["cover_is_tree"] = True
    payload["metadata"] = encode_value(metadata)
    payload["terminals"] = [
        encode_value(t) for t in result.request.terminals
    ]
    payload["objective"] = result.request.objective
    # derived, but clients without the schema want it without decoding
    payload["cost"] = result.cost
    # the runtime codec drops result_cache (a disk replay re-stamps it on
    # the reading side); the wire is the final hop, so carry it through
    payload["provenance"] = dict(payload["provenance"])
    payload["provenance"]["result_cache"] = result.provenance.result_cache
    return payload


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
    the original request to round-trip tags and policy too.
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
                {v for edge in inner["tree_edges"] for v in edge},
                key=_label_repr,
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
    except (KeyError, TypeError) as error:
        raise ProtocolError(f"malformed wire result: {error}") from error
    if request is None:
        request = ConnectionRequest.of(terminals, objective=objective)
    return decode_result(
        inner, graph=graph, request=request, result_cache=result_cache
    )


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
