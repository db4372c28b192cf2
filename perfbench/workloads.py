"""The benchmark's three workloads: seeded inputs, closed-loop sessions, oracle.

Every input is derived from the ``--seed`` and built before any clock
starts (``random_terminals`` runs a component scan per call, so it never
runs inside a timed loop).  Each RPC is timed by the session itself, from
send to decoded reply.  Answers are kept and digested after the measured
phase with :func:`repro.load.clients.digest_wire_payload`, then compared
with a serial in-process replay on fresh :class:`ConnectionService`
objects built by :meth:`build_oracle` -- the replay of a whole op
sequence reduces to one answer per distinct (schema version, request),
because answers do not depend on what a service answered before.

Schemas are drawn by rejection inside narrow size bands around the
generators' medians, so that a run's cost depends little on which seed it
got: the benchmark compares runs made with different seeds.
"""

from __future__ import annotations

import random
from statistics import mean
from time import perf_counter

from repro.api.request import ConnectionRequest
from repro.api.service import ConnectionService
from repro.datasets.generators import (
    random_62_chordal_graph,
    random_alpha_schema_graph,
    random_terminals,
)
from repro.dynamic.blocks import biconnected_edge_blocks
from repro.dynamic.editor import SchemaEditor
from repro.graphs.traversal import bfs_distances
from repro.load.clients import digest_result_object, digest_wire_payload
from repro.server.codec import encode_schema, encode_value
from repro.server.errors import RemoteError

#: The side whose objects ``objective="side"`` requests minimise: relations
#: (V2) of the alpha-acyclic schema graphs, where Algorithm 1 applies.
SIDE = 2


class Op:
    """One timed RPC: its kind, latency, answers and what they must equal.

    ``end`` is when the op was recorded, right after its reply arrived.
    """

    __slots__ = ("kind", "seconds", "end", "payloads", "expected", "error")

    def __init__(self, kind, seconds, payloads=(), expected=(), error=None):
        self.kind = kind
        self.seconds = seconds
        self.end = perf_counter()
        self.payloads = list(payloads)
        self.expected = list(expected)
        self.error = error

    def failed(self) -> bool:
        """True when the RPC errored or any answer differs from the oracle's."""
        if self.error is not None or len(self.payloads) != len(self.expected):
            return True
        return any(
            digest_wire_payload(payload) != digest
            for payload, digest in zip(self.payloads, self.expected)
        )


class Phase:
    """Everything one phase (setup, warm-up or measured) recorded."""

    def __init__(self) -> None:
        self.ops = []
        self.cold_first_answer = []
        self.start = 0.0
        self.seconds = 0.0
        self.ticks = []
        self.steal_share = 0.0


def rpc(client, command, **params):
    """Send one command; return ``(response, seconds, error)``."""
    start = perf_counter()
    try:
        response = client.call(command, **params)
        error = None
    except RemoteError as failure:
        response, error = None, f"{failure.kind}: {failure}"
    return response, perf_counter() - start, error


def connect_op(client, kind, tenant, terminals, expected, **params) -> Op:
    """Time one ``connect`` RPC."""
    response, seconds, error = rpc(
        client, "connect", tenant=tenant, terminals=terminals, **params
    )
    payloads = [response["result"]] if error is None else []
    return Op(kind, seconds, payloads, [expected], error)


# ----------------------------------------------------------------------
# seeded schemas
# ----------------------------------------------------------------------
def _mean_distance(graph, rng) -> float:
    sources = rng.sample(graph.sorted_vertices(), 16)
    return mean(mean(bfs_distances(graph, source).values()) for source in sources)


def _banded(make, rng, vertices, edges, right=None, distance=None):
    """Draw ``make(rng)`` until its sizes (and mean distance) fall in band.

    ``right`` bands the V2 side: the monolithic (6,2)-test checks
    gamma-acyclicity of the V2 hypergraph, whose cost grows with the cube
    of that count, so it sets how long classification takes.
    """
    for _ in range(2000):
        graph = make(rng)
        if not vertices[0] <= len(graph.vertices()) <= vertices[1]:
            continue
        if not edges[0] <= sum(1 for _ in graph.edges()) <= edges[1]:
            continue
        if right is not None and not right[0] <= len(graph.right()) <= right[1]:
            continue
        if distance is not None and not (
            distance[0] <= _mean_distance(graph, rng) <= distance[1]
        ):
            continue
        return graph
    raise RuntimeError("no schema inside the size band after 2000 draws")


def standing_chordal_schema(rng):
    """A ~240-vertex (6,2)-chordal schema (80 complete bipartite blocks)."""
    return _banded(
        lambda r: random_62_chordal_graph(80, rng=r),
        rng,
        vertices=(237, 245),
        edges=(309, 325),
        right=(116, 124),
        distance=(7.2, 7.9),
    )


def cold_chordal_schema(rng):
    """A ~120-vertex (6,2)-chordal schema (40 blocks) for cold creation."""
    return _banded(
        lambda r: random_62_chordal_graph(40, rng=r),
        rng,
        vertices=(117, 125),
        edges=(153, 165),
        right=(57, 63),
    )


def alpha_schema(rng):
    """A ~175-vertex V2-alpha schema graph (60 relations)."""
    return _banded(
        lambda r: random_alpha_schema_graph(60, rng=r),
        rng,
        vertices=(172, 178),
        edges=(226, 232),
    )


def _encode(terminals):
    return [encode_value(t) for t in terminals]


def _wire_request(terminals, objective) -> dict:
    entry = {"terminals": _encode(terminals), "objective": objective}
    if objective == "side":
        entry["side"] = SIDE
    return entry


def _wire_edit(edit) -> dict:
    return {
        key: value if key in ("op", "side") else encode_value(value)
        for key, value in edit.items()
    }


def _replay_connects(graph, queries, **kwargs):
    """Digests of a fresh service's answers to ``queries`` (the oracle)."""
    service = ConnectionService(schema=graph.copy())
    digests = [digest_result_object(service.connect(q, **kwargs)) for q in queries]
    return service, digests


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class WarmConnect:
    """One (6,2)-chordal tenant, one connection, ``connect`` with 3-6 terminals."""

    name = "warm-connect"
    connections = 1
    pool_size = 512

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.graph = standing_chordal_schema(rng)
        self.schema = encode_schema(self.graph)
        self.queries = [
            random_terminals(self.graph, 3 + i % 4, rng=rng)
            for i in range(self.pool_size)
        ]
        self.encoded = [_encode(q) for q in self.queries]
        self.expected = []
        self.next = 0

    def build_oracle(self) -> None:
        """Replay every distinct request on a fresh in-process service."""
        service, self.expected = _replay_connects(self.graph, self.queries)
        if not service.classification().steiner_tractable():
            raise RuntimeError("warm-connect schema is not (6,2)-chordal")

    def standing(self):
        """``(tenant, schema payload, probe terminals, probe params, digest)``."""
        return [("warm", self.schema, self.encoded[0], {}, self.expected[0])]

    def bind(self) -> None:
        """Reset per-server session state (a new server starts empty)."""
        self.next = 0

    def warmup(self, clients, phase) -> None:
        """One pass over the request pool: fills the distance oracle."""
        for _ in range(self.pool_size):
            self._connect(clients[0], phase)

    def session(self, index, client, deadline, phase) -> None:
        """Closed loop of ``connect`` until the deadline."""
        while perf_counter() < deadline:
            self._connect(client, phase)

    def _connect(self, client, phase) -> None:
        i = self.next
        self.next = (i + 1) % self.pool_size
        phase.ops.append(
            connect_op(client, "connect", "warm", self.encoded[i], self.expected[i])
        )


class BatchGeneral:
    """Two V2-alpha tenants, two connections, 8-request mixed ``batch`` RPCs."""

    name = "batch-general"
    connections = 2
    pool_size = 18
    # per batch: one Dreyfus-Wagner request whose size rotates 3, 4, 5 so
    # every three batches hold the same mix, four KMB-sized requests
    # (above the exact-terminal limit of 8) and three Algorithm 1 side
    # requests

    def __init__(self, seed: int) -> None:
        self.tenants = []
        for t in range(self.connections):
            rng = random.Random(f"{self.name}:{seed}:{t}")
            graph = alpha_schema(rng)
            batches = [self._batch(graph, j, rng) for j in range(self.pool_size)]
            probe = random_terminals(graph, 3, rng=rng)
            self.tenants.append(
                {
                    "name": f"alpha-{t}",
                    "graph": graph,
                    "schema": encode_schema(graph),
                    "batches": batches,
                    "encoded": [
                        [_wire_request(terms, objective) for terms, objective in batch]
                        for batch in batches
                    ],
                    "probe": probe,
                }
            )
        self.next = [0] * self.connections

    def _batch(self, graph, j, rng):
        sizes = [(3 + j % 3, "steiner"), (9, "steiner"), (10, "steiner")]
        sizes += [(9, "steiner"), (10, "steiner")]
        sizes += [(3 + (j + s) % 4, "side") for s in range(3)]
        return [(random_terminals(graph, k, rng=rng), objective) for k, objective in sizes]

    def build_oracle(self) -> None:
        """Replay every distinct batch on a fresh in-process service per tenant."""
        for tenant in self.tenants:
            service, (probe,) = _replay_connects(
                tenant["graph"], [tenant["probe"]], objective="side", side=SIDE
            )
            report = service.classification()
            if report.steiner_tractable() or not report.pseudo_steiner_tractable(SIDE):
                raise RuntimeError("batch-general schema is not V2-alpha-only")
            tenant["probe_expected"] = probe
            tenant["expected"] = [
                [
                    digest_result_object(result)
                    for result in service.batch(
                        [
                            ConnectionRequest.of(
                                terms,
                                objective=objective,
                                side=SIDE if objective == "side" else None,
                            )
                            for terms, objective in batch
                        ]
                    )
                ]
                for batch in tenant["batches"]
            ]

    def standing(self):
        """``(tenant, schema payload, probe terminals, probe params, digest)``."""
        return [
            (
                t["name"],
                t["schema"],
                _encode(t["probe"]),
                {"objective": "side", "side": SIDE},
                t["probe_expected"],
            )
            for t in self.tenants
        ]

    def bind(self) -> None:
        """Reset per-server session state."""
        self.next = [0] * self.connections

    def warmup(self, clients, phase) -> None:
        """One pass over each tenant's batch pool: fills rows and side plans."""
        for index, client in enumerate(clients):
            for _ in range(self.pool_size):
                self._batch_rpc(index, client, phase)

    def session(self, index, client, deadline, phase) -> None:
        """Closed loop of ``batch`` on this connection's tenant."""
        while perf_counter() < deadline:
            self._batch_rpc(index, client, phase)

    def _batch_rpc(self, index, client, phase) -> None:
        tenant = self.tenants[index]
        j = self.next[index]
        self.next[index] = (j + 1) % self.pool_size
        response, seconds, error = rpc(
            client, "batch", tenant=tenant["name"], requests=tenant["encoded"][j]
        )
        payloads = response["results"] if error is None else []
        phase.ops.append(Op("batch", seconds, payloads, tenant["expected"][j], error))


class SchemaChurn:
    """Writes beside reads: mutate -> connect -> 3x connect, plus cold tenants."""

    name = "schema-churn"
    connections = 1
    pool_size = 64
    cold_pool = 4
    # one cold create -> connect -> drop every this many cycles
    cold_every = 64

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        graph = standing_chordal_schema(rng)
        self.graph = graph
        self.schema = encode_schema(graph)
        anchor = rng.choice(graph.sorted_vertices())
        side = 3 - graph.side_of(anchor)
        leaf = ("l" if side == 1 else "r", 10**6)
        blocks = [
            sorted(edges, key=repr)
            for edges in biconnected_edge_blocks(graph)
            if _both_sides_at_least_two(graph, edges)
        ]
        u, v = rng.choice(rng.choice(blocks))
        # the mutation cycle alternates vertex churn (a pendant leaf grows
        # and is pruned: every id is re-keyed) with edge-only edits inside
        # a block with both sides >= 2 (CSR patched in place, one
        # component's oracle rows invalidated); four versions repeat
        self.edits = [
            [
                {"op": "add_vertex", "vertex": leaf, "side": side},
                {"op": "add_edge", "u": leaf, "v": anchor},
            ],
            [{"op": "remove_edge", "u": u, "v": v}],
            [{"op": "remove_vertex", "vertex": leaf}],
            [{"op": "add_edge", "u": u, "v": v}],
        ]
        self.encoded_edits = [[_wire_edit(edit) for edit in edits] for edits in self.edits]
        self.queries = [
            random_terminals(graph, 3 + i % 4, rng=rng) for i in range(self.pool_size)
        ]
        self.encoded = [_encode(q) for q in self.queries]
        self.cold = []
        for _ in range(self.cold_pool):
            cold = cold_chordal_schema(rng)
            query = random_terminals(cold, 4, rng=rng)
            self.cold.append(
                {
                    "graph": cold,
                    "schema": encode_schema(cold),
                    "query": query,
                    "encoded": _encode(query),
                }
            )
        self.colds_created = 0
        self.bind()

    def build_oracle(self) -> None:
        """Answer every schema version with a fresh service (not the rebind)."""
        state = self.graph.copy()
        self.expected = []
        self.deltas = []
        for edits in self.edits:
            _service, digests = _replay_connects(state, self.queries)
            self.expected.append(digests)
            with SchemaEditor(state) as transaction:
                for edit in edits:
                    _apply(transaction, edit)
            delta = transaction.delta
            self.deltas.append(
                {
                    "added_vertices": len(delta.added_vertices),
                    "removed_vertices": len(delta.removed_vertices),
                    "added_edges": len(delta.added_edges),
                    "removed_edges": len(delta.removed_edges),
                }
            )
        if set(state.edges()) != set(self.graph.edges()):
            raise RuntimeError("the mutation cycle does not return to the base schema")
        for cold in self.cold:
            _service, (cold["expected"],) = _replay_connects(cold["graph"], [cold["query"]])

    def standing(self):
        """``(tenant, schema payload, probe terminals, probe params, digest)``."""
        return [("churn", self.schema, self.encoded[0], {}, self.expected[0][0])]

    def bind(self) -> None:
        """Reset per-server state: a new server holds the base version."""
        self.mutations = 0
        self.version = None
        self.cycles = 0
        self.next = 0

    def warmup(self, clients, phase) -> None:
        """Two full mutation cycles and one cold tenant."""
        for _ in range(2 * len(self.edits)):
            self._cycle(clients[0], phase)
        self._cold(clients[0], phase)

    def session(self, index, client, deadline, phase) -> None:
        """Closed loop of churn cycles until the deadline."""
        while perf_counter() < deadline:
            self._cycle(client, phase)
            if self.cycles % self.cold_every == 0:
                self._cold(client, phase)

    def _cycle(self, client, phase) -> None:
        step = self.mutations % len(self.edits)
        response, seconds, error = rpc(
            client, "mutate", tenant="churn", edits=self.encoded_edits[step]
        )
        if error is None:
            if self.version is not None and response["version"] != self.version + 1:
                error = f"version {response['version']} after {self.version}"
            elif response["delta"] != self.deltas[step]:
                error = f"delta {response['delta']} != {self.deltas[step]}"
            self.version = response["version"]
        phase.ops.append(Op("mutate", seconds, error=error))
        self.mutations += 1
        expected = self.expected[self.mutations % len(self.edits)]
        for position in range(4):
            i = self.next
            self.next = (i + 1) % self.pool_size
            kind = "post_mutate_connect" if position == 0 else "connect"
            phase.ops.append(
                connect_op(client, kind, "churn", self.encoded[i], expected[i])
            )
        self.cycles += 1

    def _cold(self, client, phase) -> None:
        cold = self.cold[self.colds_created % self.cold_pool]
        tenant = f"cold-{self.colds_created}"
        self.colds_created += 1
        start = perf_counter()
        _response, seconds, error = rpc(
            client, "create_schema", tenant=tenant, schema=cold["schema"]
        )
        phase.ops.append(Op("create_schema", seconds, error=error))
        op = connect_op(client, "cold_connect", tenant, cold["encoded"], cold["expected"])
        phase.cold_first_answer.append(perf_counter() - start)
        phase.ops.append(op)
        _response, seconds, error = rpc(client, "drop_schema", tenant=tenant)
        phase.ops.append(Op("drop_schema", seconds, error=error))


def _both_sides_at_least_two(graph, edges) -> bool:
    ends = {vertex for edge in edges for vertex in edge}
    left = sum(1 for vertex in ends if graph.side_of(vertex) == 1)
    return min(left, len(ends) - left) >= 2


def _apply(transaction, edit) -> None:
    """Apply one raw (label-valued) edit record to an open transaction."""
    op = edit["op"]
    if op == "add_vertex":
        transaction.add_vertex(edit["vertex"], side=edit["side"])
    elif op == "remove_vertex":
        transaction.remove_vertex(edit["vertex"])
    else:
        getattr(transaction, op)(edit["u"], edit["v"])


WORKLOADS = {cls.name: cls for cls in (WarmConnect, BatchGeneral, SchemaChurn)}
