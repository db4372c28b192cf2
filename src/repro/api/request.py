"""Typed request objects for the :class:`~repro.api.service.ConnectionService`.

A :class:`ConnectionRequest` captures everything a caller may specify about
one minimal-connection query: the schema handle, the terminal set, the
objective (Definition 8 Steiner vs. Definition 9 pseudo-Steiner), the
solver policy, and per-request limit overrides.  The service validates the
request once and threads it through planning, execution and the returned
:class:`~repro.api.result.ConnectionResult`, so results are always
self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Optional, Tuple

from repro.exceptions import ValidationError

#: Accepted ``objective`` values: minimise total objects (Definition 8) or
#: the objects of one bipartition side (Definition 9).
OBJECTIVES = ("steiner", "side")

#: Accepted ``policy`` values.  ``"auto"`` lets the planner pick the
#: strongest applicable solver and reports the resulting guarantee;
#: ``"require-optimal"`` additionally raises
#: :class:`~repro.exceptions.NotApplicableError` when no exact path exists.
POLICIES = ("auto", "require-optimal")


def validate_terminals(graph, terminals) -> None:
    """Raise :class:`ValidationError` for degenerate terminal sets.

    The one definition of "degenerate" every entry point shares --
    :meth:`ConnectionService.connect`, batches (serial and parallel
    worker-side) and :class:`~repro.api.stream.EnumerationStream` alike:
    an *empty* set and *unknown vertices* are caller errors surfaced
    eagerly in the library's taxonomy (without this, an empty set would
    fail deep inside a solver and an unknown vertex would surface as a
    ``GraphError`` from the index encode).  A single terminal is valid
    everywhere: the answer is the trivial one-vertex connection.
    """
    terminals = tuple(terminals)
    if not terminals:
        raise ValidationError("the terminal set must be non-empty")
    unknown = [t for t in terminals if not graph.has_vertex(t)]
    if unknown:
        raise ValidationError(
            f"terminals {sorted(unknown, key=repr)!r} are not vertices "
            "of the schema"
        )


@dataclass(frozen=True, eq=False)
class ConnectionRequest:
    """One minimal-connection query, fully specified.

    Attributes
    ----------
    terminals:
        The objects to connect (deduplicated and deterministically ordered
        at construction time).
    objective:
        ``"steiner"`` (minimise total objects) or ``"side"`` (minimise the
        objects of one side, e.g. relations).
    side:
        The side minimised by ``objective="side"``; ``None`` defers to the
        service's :class:`~repro.api.config.ServiceConfig.default_side`.
    schema:
        Optional schema handle (:class:`~repro.graphs.bipartite.BipartiteGraph`,
        :class:`~repro.semantic.relational.RelationalSchema` or
        :class:`~repro.semantic.er_model.ERSchema`).  ``None`` uses the
        service's bound schema.
    solver:
        Optional explicit solver name from the engine's registry, bypassing
        the planner's choice (fallbacks are disabled).
    policy:
        ``"auto"`` or ``"require-optimal"`` (see :data:`POLICIES`).
    exact_terminal_limit / exact_vertex_limit:
        Per-request overrides of the config's dispatch thresholds.
    """

    terminals: Tuple[Any, ...]
    objective: str = "steiner"
    side: Optional[int] = None
    schema: Any = None
    solver: Optional[str] = None
    policy: str = "auto"
    exact_terminal_limit: Optional[int] = None
    exact_vertex_limit: Optional[int] = None
    #: Free-form caller annotations, copied verbatim into the result's
    #: provenance record (request ids, tenant tags, ...).
    tags: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "terminals", tuple(sorted(set(self.terminals), key=repr))
        )
        if self.tags is None:
            object.__setattr__(self, "tags", {})
        elif not isinstance(self.tags, dict):
            raise ValidationError(
                f"tags must be a dict (or None), got {type(self.tags).__name__}"
            )
        if self.objective not in OBJECTIVES:
            raise ValidationError(
                f"objective must be one of {OBJECTIVES}, got {self.objective!r}"
            )
        if self.policy not in POLICIES:
            raise ValidationError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if self.side is not None and self.side not in (1, 2):
            raise ValidationError("side must be 1 or 2")

    def __repr__(self) -> str:
        """Return a compact repr: defaulted fields are omitted, schemas elided.

        The dataclass-generated repr would embed the full repr of the
        attached schema handle (hundreds of vertices); this one keeps log
        lines and doc snippets readable.
        """
        parts = [f"terminals={self.terminals!r}", f"objective={self.objective!r}"]
        if self.side is not None:
            parts.append(f"side={self.side}")
        if self.schema is not None:
            parts.append(f"schema=<{type(self.schema).__name__}>")
        if self.solver is not None:
            parts.append(f"solver={self.solver!r}")
        if self.policy != "auto":
            parts.append(f"policy={self.policy!r}")
        if self.exact_terminal_limit is not None:
            parts.append(f"exact_terminal_limit={self.exact_terminal_limit}")
        if self.exact_vertex_limit is not None:
            parts.append(f"exact_vertex_limit={self.exact_vertex_limit}")
        if self.tags:
            parts.append(f"tags={self.tags!r}")
        return f"ConnectionRequest({', '.join(parts)})"

    @classmethod
    def of(
        cls,
        terminals: Iterable,
        *,
        objective: str = "steiner",
        side: Optional[int] = None,
        schema: Any = None,
        solver: Optional[str] = None,
        policy: str = "auto",
        **overrides,
    ) -> "ConnectionRequest":
        """Build a request from loose arguments (the service's shorthand path).

        Unknown keyword arguments raise :class:`ValidationError` (not a
        raw ``TypeError``) so typos like ``objectve=`` or misplaced
        enumeration knobs (``budget=``) surface through the library's
        error taxonomy.
        """
        unknown = sorted(set(overrides) - _FIELD_NAMES)
        if unknown:
            raise ValidationError(
                f"unknown request field(s) {unknown}; valid fields: "
                f"{sorted(_FIELD_NAMES)}"
            )
        return cls(
            terminals=tuple(terminals),
            objective=objective,
            side=side,
            schema=schema,
            solver=solver,
            policy=policy,
            **overrides,
        )


#: The request's field names, for :meth:`ConnectionRequest.of` (built once).
_FIELD_NAMES = frozenset(f.name for f in fields(ConnectionRequest))
