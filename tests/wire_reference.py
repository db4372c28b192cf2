"""The dict-walking wire encoder, kept as the reference for the renderer.

:func:`repro.server.codec.encode_wire_result` writes an answer's JSON
text straight from its ids.  This module is the encoder it replaced: it
builds the payload as a dict of labels (tagged by
:func:`~repro.server.codec.encode_value`, every vertex list and set sorted
by ``repr``) and :func:`reference_frame` writes a message with one
``json.dumps``.  ``tests/test_wire_render.py`` checks that every rendered
frame equals this one byte for byte.
"""

import json

from repro.runtime.codec import encode_result
from repro.server.codec import encode_value
from repro.server.protocol import MAX_FRAME_BYTES, _LENGTH


def reference_wire_result(result) -> dict:
    """The wire payload of one answer, as a dict of JSON-safe values."""
    payload = encode_result(result)
    tree_vertex_set = set(payload["tree_vertices"])
    covered = {v for edge in payload["tree_edges"] for v in edge}
    if covered == tree_vertex_set:
        del payload["tree_vertices"]
    else:
        payload["tree_vertices"] = [encode_value(v) for v in payload["tree_vertices"]]
    payload["tree_edges"] = [
        [encode_value(u), encode_value(v)] for u, v in payload["tree_edges"]
    ]
    metadata = payload["metadata"]
    if metadata.get("cover") == tree_vertex_set:
        metadata = {k: v for k, v in metadata.items() if k != "cover"}
        payload["cover_is_tree"] = True
    payload["metadata"] = encode_value(metadata)
    payload["terminals"] = [encode_value(t) for t in result.request.terminals]
    payload["objective"] = result.request.objective
    payload["cost"] = result.cost
    payload["provenance"] = dict(payload["provenance"])
    payload["provenance"]["result_cache"] = result.provenance.result_cache
    return payload


def reference_frame(message: dict) -> bytes:
    """One frame, written by a single ``json.dumps`` of ``message``."""
    payload = json.dumps(message, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )
    assert len(payload) <= MAX_FRAME_BYTES
    return _LENGTH.pack(len(payload)) + payload

