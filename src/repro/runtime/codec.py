"""Result payloads and request keys: the runtime's wire/storage format.

The persistent result store (:mod:`repro.runtime.diskcache`) needs a
representation of a
:class:`~repro.api.result.ConnectionResult` that does not drag the whole
schema graph along: a solution object references its host graph through
:class:`~repro.steiner.problem.SteinerInstance`, so naively pickling a
result would copy the schema once per answer.

:func:`encode_result` strips a result down to the tree (vertex labels and
edges), the guarantee, and the provenance scalars; :func:`decode_result`
re-materialises a full result against the *receiver's* copy of the schema
graph.  The round trip preserves everything
:meth:`~repro.api.result.ConnectionResult.to_dict` reports, which is what
the differential suite pins.

:func:`request_key` gives every request a stable content address (used
with the schema digest from
:func:`~repro.engine.cache.schema_digest` as the persistent cache key).

Examples
--------
>>> from repro.graphs import BipartiteGraph
>>> from repro.api import ConnectionService
>>> g = BipartiteGraph(left=["A"], right=[1], edges=[("A", 1)])
>>> service = ConnectionService(schema=g)
>>> result = service.connect(["A", 1])
>>> payload = encode_result(result)
>>> clone = decode_result(payload, graph=g, request=result.request)
>>> clone.cost == result.cost and clone.guarantee is result.guarantee
True
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.api.config import ServiceConfig
from repro.api.request import ConnectionRequest
from repro.api.result import ConnectionResult, Guarantee, Provenance
from repro.graphs.graph import Graph
from repro.steiner.problem import SteinerInstance, SteinerSolution

#: Version stamp embedded in every payload.  Decoders refuse payloads with
#: a different version, which lets the on-disk format evolve safely: a new
#: library simply recomputes (and overwrites) entries written by an old one.
PAYLOAD_VERSION = 1


class PayloadError(ValueError):
    """Raised by :func:`decode_result` on malformed or mismatched payloads."""


def request_key(request: ConnectionRequest, config: Optional[ServiceConfig] = None) -> str:
    """Return a stable content address for one request.

    The key covers every request field that can change the answer --
    terminals, objective, effective side, pinned solver, policy, and the
    *effective* dispatch limits (per-request overrides resolved against
    ``config``, so a config change cannot serve a plan computed under
    different thresholds).  Free-form ``tags`` are excluded: they annotate
    provenance but never influence the computation.

    Examples
    --------
    >>> req = ConnectionRequest.of(["A", "B"])
    >>> key = request_key(req)
    >>> len(key), key == request_key(ConnectionRequest.of(["B", "A"]))
    (64, True)
    """
    if config is None:
        config = ServiceConfig()
    side = request.side if request.side is not None else config.default_side
    terminal_limit = (
        request.exact_terminal_limit
        if request.exact_terminal_limit is not None
        else config.exact_terminal_limit
    )
    vertex_limit = (
        request.exact_vertex_limit
        if request.exact_vertex_limit is not None
        else config.exact_vertex_limit
    )
    parts = "\n".join(
        [
            "terminals=" + "\x1f".join(repr(t) for t in request.terminals),
            f"objective={request.objective}",
            f"side={side}",
            f"solver={request.solver!r}",
            f"policy={request.policy}",
            f"terminal_limit={terminal_limit}",
            f"vertex_limit={vertex_limit}",
        ]
    )
    return hashlib.sha256(parts.encode("utf-8", "backslashreplace")).hexdigest()


def encode_result(result: ConnectionResult) -> dict:
    """Return a compact, schema-free payload for one result.

    The payload carries the tree by *vertex labels and edges* (not as a
    graph object), the solution scalars, and the provenance record minus
    the request tags (the receiver re-attaches its own request).  Labels
    must be picklable -- true for every vertex type the library's
    generators and figures produce.
    """
    solution = result.solution
    tree = solution.tree
    return {
        "version": PAYLOAD_VERSION,
        "tree_vertices": sorted(tree.vertices(), key=repr),
        # each edge oriented low-repr-first, then the edge list
        # repr-sorted as a whole
        "tree_edges": sorted(
            ((u, v) if repr(u) <= repr(v) else (v, u) for u, v in tree.edges()),
            key=repr,
        ),
        "method": solution.method,
        "side": solution.side,
        "optimal": solution.optimal,
        "metadata": dict(solution.metadata),
        "guarantee": result.guarantee.value,
        "rank": result.rank,
        "provenance": {
            "solver": result.provenance.solver,
            "instance_class": result.provenance.instance_class,
            "plan": result.provenance.plan,
            "cache_hit": result.provenance.cache_hit,
            "fallback_from": result.provenance.fallback_from,
            "wall_time_ms": result.provenance.wall_time_ms,
            "request_id": result.provenance.request_id,
            "tenant": result.provenance.tenant,
            "phases": result.provenance.phases,
        },
    }


def decode_result(
    payload: dict,
    *,
    graph: Graph,
    request: ConnectionRequest,
    result_cache: Optional[str] = None,
) -> ConnectionResult:
    """Re-materialise a :class:`ConnectionResult` from a payload.

    Parameters
    ----------
    payload:
        A dict produced by :func:`encode_result`.
    graph:
        The receiver's copy of the schema graph; the rebuilt solution's
        :class:`~repro.steiner.problem.SteinerInstance` points at it.
    request:
        The receiver's request object; it becomes the result's ``request``
        and its ``tags`` are echoed into provenance, exactly as on the
        direct path.
    result_cache:
        Set to ``"disk"`` when replaying from the persistent store.

    Raises
    ------
    PayloadError
        When the payload is not a dict, has a different
        :data:`PAYLOAD_VERSION`, or misses required fields.
    """
    if not isinstance(payload, dict):
        raise PayloadError(f"payload must be a dict, got {type(payload).__name__}")
    if payload.get("version") != PAYLOAD_VERSION:
        raise PayloadError(
            f"payload version {payload.get('version')!r} != {PAYLOAD_VERSION}"
        )
    try:
        tree = Graph(
            vertices=payload["tree_vertices"], edges=payload["tree_edges"]
        )
        solution = SteinerSolution(
            tree=tree,
            instance=SteinerInstance(graph, request.terminals),
            method=payload["method"],
            side=payload["side"],
            optimal=payload["optimal"],
            metadata=dict(payload["metadata"]),
        )
        stored = payload["provenance"]
        provenance = Provenance(
            solver=stored["solver"],
            instance_class=stored["instance_class"],
            plan=stored["plan"],
            cache_hit=stored["cache_hit"],
            fallback_from=stored["fallback_from"],
            wall_time_ms=stored["wall_time_ms"],
            tags=dict(request.tags),
            result_cache=result_cache,
            # .get(): payloads written before the request-context fields
            # existed decode to None, same as an un-scoped computation
            request_id=stored.get("request_id"),
            tenant=stored.get("tenant"),
            phases=stored.get("phases"),
        )
        return ConnectionResult(
            request=request,
            solution=solution,
            guarantee=Guarantee(payload["guarantee"]),
            provenance=provenance,
            rank=payload["rank"],
        )
    except PayloadError:
        raise
    except Exception as error:
        raise PayloadError(f"malformed result payload: {error}") from error
