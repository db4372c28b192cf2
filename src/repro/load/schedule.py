"""Deterministic request plans: the schedule a load run executes.

:func:`build_plan` compiles a :class:`~repro.load.spec.LoadSpec` into a
flat list of :class:`PlannedOp` -- one per operation, each carrying its
arrival offset, target tenant, fully materialised payload (terminal
labels, batch entries, edit lists) and, for deliberate error traffic,
the error kind the server is *expected* to answer with.  Everything is
drawn from :class:`random.Random` instances seeded off the spec: the
same spec yields the same plan, byte for byte, which is what makes
verify-mode checksums comparable across runs, client counts, and
transports.

Two design rules keep concurrent execution deterministic:

* **Mutations are planned, not improvised.**  Every ``mutate`` op is a
  raw edit list drawn by :func:`churn_edits` (the one churn generator:
  ``grow-leaf``, ``prune-leaf``, ``drop-edge``, ``attach-block``)
  against a *planning copy* of the tenant's schema, which the planner
  evolves edit by edit.  Queries on a mutated tenant sample their
  terminals from that evolved copy, so they stay feasible and ask
  exactly what the schema at their plan position can answer.
* **A mutated tenant runs in plan order.**  Every op on a tenant the
  plan mutates -- its queries included -- carries a per-tenant
  ``write_seq``; executors gate on it, so each op sees the schema
  version the serial oracle saw, whichever client thread picked it up.
  Ops on unmutated tenants carry no sequence and run fully concurrent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.datasets.generators import random_terminals
from repro.dynamic.delta import SchemaDelta
from repro.dynamic.editor import SchemaEditor
from repro.exceptions import ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.load.spec import LoadSpec

#: Label prefix for vertices grown by mutation traffic; tuples survive
#: the wire codec losslessly and can never collide with generator
#: vertices.
CHURN_PREFIX = "churn"


@dataclass(frozen=True)
class PlannedOp:
    """One scheduled operation of a load plan.

    Attributes
    ----------
    index:
        Plan position; the verify checksum is ordered by it.
    at:
        Arrival offset in seconds from the run's start (pacing only --
        the value never influences payloads or expected answers).
    tenant:
        Target tenant name.
    op:
        One of :data:`~repro.load.spec.PROFILE_OPS`.
    payload:
        Op-specific materialised arguments (see :mod:`repro.load.clients`).
    expect_error:
        The typed error kind deliberate error traffic must be answered
        with (``None`` for regular traffic).
    write_seq:
        The op's position among the ops of its tenant, when the plan
        mutates that tenant (``None`` otherwise); executors run a
        mutated tenant's ops in this order.
    """

    index: int
    at: float
    tenant: str
    op: str
    payload: Dict[str, Any] = field(default_factory=dict)
    expect_error: Optional[str] = None
    write_seq: Optional[int] = None


def arrival_offsets(schedule: str, rate: float, count: int, seed: int) -> List[float]:
    """Return ``count`` arrival offsets for one open-loop schedule.

    ``fixed`` spaces arrivals evenly at ``1 / rate``; ``poisson`` draws
    exponential gaps from a dedicated RNG.  Offsets are non-decreasing
    and start at 0 -- the first request goes out immediately.
    """
    if schedule == "fixed":
        return [index / rate for index in range(count)]
    rng = random.Random(seed)
    offsets: List[float] = []
    clock = 0.0
    for _ in range(count):
        offsets.append(clock)
        clock += rng.expovariate(rate)
    return offsets


def _weighted_ops(spec: LoadSpec, rng: random.Random, count: int) -> List[str]:
    """Draw the op sequence from the profile weights (order-stable)."""
    population: List[str] = []
    weights: List[int] = []
    for op, weight in spec.profile:
        if weight > 0:
            population.append(op)
            weights.append(weight)
    return rng.choices(population, weights=weights, k=count)


def _grow_leaf(graph, rng, fresh_ids):
    anchor = rng.choice(graph.sorted_vertices())
    leaf = (CHURN_PREFIX, next(fresh_ids))
    return [
        {"op": "add_vertex", "vertex": leaf, "side": 3 - graph.side_of(anchor)},
        {"op": "add_edge", "u": leaf, "v": anchor},
    ]


def _prune_leaf(graph, rng, fresh_ids):
    leaves = [v for v in graph.sorted_vertices() if graph.degree(v) == 1]
    if not leaves:
        return []
    return [{"op": "remove_vertex", "vertex": rng.choice(leaves)}]


def _drop_edge(graph, rng, fresh_ids):
    edges = sorted(
        (tuple(sorted(edge, key=repr)) for edge in graph.edges()), key=repr
    )
    if not edges:
        return []
    u, v = rng.choice(edges)
    return [{"op": "remove_edge", "u": u, "v": v}]


def _attach_block(graph, rng, fresh_ids):
    anchor = rng.choice(graph.sorted_vertices())
    partner, first, second = (
        (CHURN_PREFIX, next(fresh_ids)) for _ in range(3)
    )
    side = graph.side_of(anchor)
    edits = [
        {"op": "add_vertex", "vertex": partner, "side": side},
        {"op": "add_vertex", "vertex": first, "side": 3 - side},
        {"op": "add_vertex", "vertex": second, "side": 3 - side},
    ]
    for hub in (anchor, partner):
        for spoke in (first, second):
            edits.append({"op": "add_edge", "u": hub, "v": spoke})
    return edits


_CHURN_DRAWS = {
    "grow-leaf": _grow_leaf,
    "prune-leaf": _prune_leaf,
    "drop-edge": _drop_edge,
    "attach-block": _attach_block,
}


def churn_edits(
    graph: BipartiteGraph,
    rng: random.Random,
    kinds: Sequence[str],
    fresh_ids: Iterator[int],
) -> List[Dict[str, Any]]:
    """Draw one mutation transaction, apply it to ``graph``, return its edits.

    The kind is drawn from ``kinds`` (see
    :data:`~repro.load.spec.CHURN_KINDS`); inapplicable draws (no leaf
    to prune, no edge to drop) fall through to the next candidate.  When
    *no* allowed kind applies -- possible only for allowlists without a
    growth kind, e.g. pure ``drop-edge`` churn on a schema that ran out
    of edges -- this raises instead of silently mutating outside the
    allowlist.  Every choice goes through repr-sorted orderings and the
    supplied RNG, and fresh vertices are labelled
    ``(CHURN_PREFIX, next(fresh_ids))``: the same seed against an equal
    graph reproduces the same evolution.  The returned raw edit records
    are what a ``mutate`` op sends; :func:`apply_edits` replays them.
    """
    candidates = list(kinds)
    rng.shuffle(candidates)
    for kind in candidates:
        edits = _CHURN_DRAWS[kind](graph, rng, fresh_ids)
        if edits:
            apply_edits(graph, edits)
            return edits
    raise ValidationError(
        f"no churn kind of {sorted(set(kinds))} is applicable to the current "
        "schema (nothing left to prune or drop); include 'grow-leaf' or "
        "'attach-block' for an always-applicable mutation mix"
    )


def apply_edits(graph, edits: Sequence[Dict[str, Any]]) -> SchemaDelta:
    """Apply raw edit records to ``graph`` as one editor transaction."""
    with SchemaEditor(graph) as transaction:
        for edit in edits:
            op = edit["op"]
            if op == "add_vertex":
                transaction.add_vertex(edit["vertex"], side=edit.get("side"))
            elif op == "remove_vertex":
                transaction.remove_vertex(edit["vertex"])
            elif op == "add_edge":
                transaction.add_edge(edit["u"], edit["v"])
            elif op == "remove_edge":
                transaction.remove_edge(edit["u"], edit["v"])
            else:  # pragma: no cover - plans only emit the four ops above
                raise ValidationError(f"unknown edit op {op!r}")
    return transaction.delta


def build_plan(
    spec: LoadSpec, graphs: Dict[str, BipartiteGraph]
) -> List[PlannedOp]:
    """Compile a spec (plus its generated schemas) into a request plan.

    ``graphs`` maps tenant name to the tenant's *initial* schema; it is
    not modified (mutations evolve private planning copies).  Terminal
    sets are sampled from the largest connected component of the
    tenant's schema as of the op's plan position, so every planned
    query is feasible.  The function is pure: no clocks, no global
    state, same inputs, same plan.
    """
    count = spec.arrival.requests
    arrival_seed = (
        spec.arrival.seed
        if spec.arrival.seed is not None
        else spec.seed * 1000003 + 101
    )
    offsets = arrival_offsets(
        spec.arrival.schedule, spec.arrival.rate, count, arrival_seed
    )
    rng = random.Random(spec.seed * 1000003 + 202)
    ops = _weighted_ops(spec, rng, count)

    tenant_names = [tenant.name for tenant in spec.tenants]
    tokened = [tenant.name for tenant in spec.tokened_tenants()]
    by_name = {tenant.name: tenant for tenant in spec.tenants}
    planning = {name: graph.copy() for name, graph in graphs.items()}
    fresh_ids = {name: itertools.count(1) for name in tenant_names}

    drafts = []
    for index, (at, op) in enumerate(zip(offsets, ops)):
        tenant = rng.choice(tokened if op in ("mutate", "bad_auth") else tenant_names)
        graph = planning[tenant]
        payload: Dict[str, Any] = {}
        expect_error: Optional[str] = None
        if op == "connect":
            payload["terminals"] = random_terminals(graph, spec.terminals, rng=rng)
        elif op in ("batch", "interpret"):
            payload["queries"] = [
                random_terminals(graph, spec.terminals, rng=rng)
                for _ in range(spec.batch_size)
            ]
        elif op == "enumerate":
            payload["terminals"] = random_terminals(graph, spec.terminals, rng=rng)
            payload["budget"] = spec.enumerate_budget
            payload["pages"] = spec.enumerate_pages
        elif op == "mutate":
            payload["edits"] = churn_edits(
                graph, rng, spec.mutate_kinds, fresh_ids[tenant]
            )
        elif op == "bad_auth":
            # a would-be mutation with a wrong token: must bounce with
            # the typed ``auth`` kind before touching anything
            anchor = rng.choice(graph.sorted_vertices())
            payload["edits"] = [
                {
                    "op": "add_vertex",
                    "vertex": (CHURN_PREFIX, "denied"),
                    "side": 3 - graph.side_of(anchor),
                }
            ]
            payload["token"] = "invalid-" + (by_name[tenant].token or "")
            expect_error = "auth"
        elif op == "over_quota":
            # one request past the tenant's batch quota: must bounce
            # with the typed ``quota`` kind before any solving
            size = by_name[tenant].max_batch_requests + 1
            terminals = random_terminals(graph, min(2, spec.terminals), rng=rng)
            payload["queries"] = [terminals for _ in range(size)]
            expect_error = "quota"
        drafts.append((index, at, tenant, op, payload, expect_error))

    mutated = {tenant for _, _, tenant, op, _, _ in drafts if op == "mutate"}
    write_seq = {name: itertools.count() for name in mutated}
    return [
        PlannedOp(
            index=index,
            at=at,
            tenant=tenant,
            op=op,
            payload=payload,
            expect_error=expect_error,
            write_seq=next(write_seq[tenant]) if tenant in mutated else None,
        )
        for index, at, tenant, op, payload, expect_error in drafts
    ]


__all__ = [
    "CHURN_PREFIX",
    "PlannedOp",
    "apply_edits",
    "arrival_offsets",
    "build_plan",
    "churn_edits",
]
