"""Typed result objects: guarantees and provenance for every answer.

A bare :class:`~repro.steiner.problem.SteinerSolution` tells the caller
*what* tree was found but not *how*: which solver ran, under which
instance-class assumption, whether the schema context was cached, and
whether the answer is guaranteed minimal.  :class:`ConnectionResult`
packages the solution together with a :class:`Guarantee` flag and a
:class:`Provenance` record, so a production operator can audit any answer
after the fact and a client can branch on optimality without knowing the
solver zoo.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Set

from repro.api.request import ConnectionRequest
from repro.steiner.problem import SteinerSolution


class Guarantee(enum.Enum):
    """Whether the result is guaranteed minimal for its objective."""

    OPTIMAL = "optimal"
    HEURISTIC = "heuristic"


@dataclass(frozen=True, eq=False)  # eq=False: tags is a dict, keep identity hash
class Provenance:
    """How one answer was produced.

    Attributes
    ----------
    solver:
        Registry name of the solver that produced the answer (e.g.
        ``"chordal-elimination"``) or ``"ranked-enumeration"`` for
        streamed connections.
    instance_class:
        The planner's instance-class verdict as a string
        (``"chordal"`` / ``"side-chordal"`` / ``"general"``).
    plan:
        The planner's human-readable reason for its choice.
    cache_hit:
        ``True`` when the schema context was served from the engine's LRU
        rather than rebuilt.
    fallback_from:
        The originally planned solver when the answer came from a fallback
        (``None`` when the primary solver succeeded).
    wall_time_ms:
        End-to-end service-side latency of this answer in milliseconds.
        For answers replayed from the persistent cache it is the original
        computation's time.
    tags:
        The request's free-form annotations, echoed back.
    result_cache:
        ``"disk"`` when this answer was replayed from the persistent
        :class:`~repro.runtime.diskcache.DiskCache` rather than computed in
        this process; ``None`` for freshly computed answers.  Orthogonal to
        ``cache_hit``, which describes the in-memory *schema-context* LRU
        of the computation that originally produced the answer.
    request_id / tenant / phases:
        Span-like identity stamped from the active
        :class:`~repro.api.context.RequestContext` (see
        :func:`~repro.api.context.request_scope`): the server-assigned
        request id, the tenant the answer was served for, and the
        wall-clock phase breakdown in milliseconds (cumulative within
        the enclosing scope).  All ``None`` outside a request scope, so
        server logs and provenance agree on identity while in-process
        callers see no change.
    """

    solver: str
    instance_class: str
    plan: str
    cache_hit: bool
    fallback_from: Optional[str] = None
    wall_time_ms: float = 0.0
    tags: dict = field(default_factory=dict)
    result_cache: Optional[str] = None
    request_id: Optional[str] = None
    tenant: Optional[str] = None
    phases: Optional[dict] = None

    def to_dict(self, include_timing: bool = True) -> dict:
        """Return a JSON-serialisable record (timing is droppable for fixtures)."""
        record = {
            "solver": self.solver,
            "instance_class": self.instance_class,
            "plan": self.plan,
            "cache_hit": self.cache_hit,
            "fallback_from": self.fallback_from,
        }
        if include_timing:
            record["wall_time_ms"] = self.wall_time_ms
        if self.tags:
            record["tags"] = dict(self.tags)
        if self.result_cache is not None:
            record["result_cache"] = self.result_cache
        if self.request_id is not None:
            record["request_id"] = self.request_id
        if self.tenant is not None:
            record["tenant"] = self.tenant
        if self.phases is not None and include_timing:
            record["phases"] = dict(self.phases)
        return record


@dataclass(frozen=True, eq=False)
class ConnectionResult:
    """One answered connection request: tree, cost, guarantee, provenance.

    Attributes
    ----------
    request:
        The (normalised) :class:`~repro.api.request.ConnectionRequest`.
    solution:
        The underlying :class:`~repro.steiner.problem.SteinerSolution`
        (kept for back-compat with pre-façade call sites).
    guarantee:
        :attr:`Guarantee.OPTIMAL` when the answer is guaranteed minimal
        for the request's objective, :attr:`Guarantee.HEURISTIC` otherwise.
    provenance:
        The :class:`Provenance` record for this answer.
    rank:
        Position in an enumeration stream (1 = minimal connection); always
        1 for direct ``connect`` answers.
    """

    request: ConnectionRequest
    solution: SteinerSolution
    guarantee: Guarantee
    provenance: Provenance
    rank: int = 1

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def tree(self):
        """The connection tree (a :class:`~repro.graphs.graph.Graph`)."""
        return self.solution.tree

    @property
    def cost(self) -> int:
        """Total number of objects in the connection (Definition 8 objective)."""
        return self.solution.vertex_count()

    @property
    def side_cost(self) -> Optional[int]:
        """Number of minimised-side objects for ``"side"`` requests, else ``None``."""
        if self.request.objective != "side":
            return None
        return self.solution.side_count(self.solution.side)

    @property
    def auxiliary_objects(self) -> Set:
        """The objects in the tree the user did not mention."""
        return self.solution.steiner_vertices()

    def is_optimal(self) -> bool:
        """Return ``True`` when the answer is guaranteed minimal."""
        return self.guarantee is Guarantee.OPTIMAL

    def validate(self) -> None:
        """Re-check the tree against Definition 8 (delegates to the solution)."""
        self.solution.validate()

    def to_dict(self, include_timing: bool = True) -> dict:
        """Return a JSON-serialisable summary (used by the golden fixtures)."""
        record = {
            "terminals": [repr(t) for t in self.request.terminals],
            "objective": self.request.objective,
            "cost": self.cost,
            "guarantee": self.guarantee.value,
            "rank": self.rank,
            "provenance": self.provenance.to_dict(include_timing=include_timing),
        }
        if self.request.objective == "side":
            record["side_cost"] = self.side_cost
        return record

    def __repr__(self) -> str:
        """Return a compact, log-friendly summary (the dataclass default would dump the schema)."""
        parts = [
            f"cost={self.cost}",
            f"guarantee={self.guarantee.value!r}",
            f"solver={self.provenance.solver!r}",
        ]
        if self.request.objective != "steiner":
            parts.append(f"objective={self.request.objective!r}")
            parts.append(f"side_cost={self.side_cost}")
        if self.rank != 1:
            parts.append(f"rank={self.rank}")
        if self.provenance.result_cache is not None:
            parts.append(f"result_cache={self.provenance.result_cache!r}")
        parts.append(f"terminals={self.request.terminals!r}")
        return f"ConnectionResult({', '.join(parts)})"
