"""Query planning: choose a solver from the schema class and query shape.

The planner maps the Theorem 1 class of the schema and the shape of the
query to a solver plus fallbacks; the thresholds come from the caller
(:class:`~repro.api.config.ServiceConfig` or per-request overrides).  The
classification comes from the cached
:class:`~repro.engine.cache.SchemaContext` instead of being recomputed,
and the chosen solvers run on the indexed fast lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.classification import ChordalityReport
from repro.engine.cache import SchemaContext
from repro.engine.registry import InstanceClass


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one query.

    ``solver`` names the primary registry entry; ``fallbacks`` lists the
    solvers to try (in order) when the primary raises
    :class:`~repro.exceptions.NotApplicableError` -- that mirrors the
    Algorithm 1 "degenerate component" escape hatch of the per-query API.
    """

    solver: str
    fallbacks: Sequence[str]
    instance_class: InstanceClass
    objective: str
    exact: bool
    reason: str


def plans_chordal_elimination(report: ChordalityReport, objective: str) -> bool:
    """True when :func:`plan_query` picks ``chordal-elimination`` (Lemma 5).

    That choice depends on the schema's class and the objective only,
    never on the terminals or the exact-solver limits.
    """
    return objective == "steiner" and report.steiner_tractable()


def plan_query(
    context: SchemaContext,
    terminals: Iterable,
    objective: str = "steiner",
    side: int = 2,
    *,
    exact_terminal_limit: int,
    exact_vertex_limit: int,
) -> QueryPlan:
    """Return the :class:`QueryPlan` for one terminal set.

    ``objective`` is ``"steiner"`` (minimise total objects, Definition 8)
    or ``"side"`` (minimise ``V_side`` objects, Definition 9).  The
    thresholds have no defaults here: they come from the caller's
    :class:`~repro.api.config.ServiceConfig` or per-request overrides.
    """
    report = context.report
    terminal_list = sorted(set(terminals), key=repr)
    if plans_chordal_elimination(report, objective):
        return QueryPlan(
            solver="chordal-elimination",
            fallbacks=(),
            instance_class=InstanceClass.CHORDAL,
            objective=objective,
            exact=True,
            reason="(6,2)-chordal schema: every nonredundant cover is minimum (Lemma 5)",
        )
    if objective == "steiner":
        if len(terminal_list) <= exact_terminal_limit:
            return QueryPlan(
                solver="dreyfus-wagner",
                fallbacks=(),
                instance_class=InstanceClass.GENERAL,
                objective=objective,
                exact=True,
                reason=f"small terminal set (<= {exact_terminal_limit}): exact DP",
            )
        optional = context.graph.number_of_vertices() - len(terminal_list)
        if optional <= exact_vertex_limit:
            return QueryPlan(
                solver="bruteforce",
                fallbacks=(),
                instance_class=InstanceClass.GENERAL,
                objective=objective,
                exact=True,
                reason=f"few optional vertices (<= {exact_vertex_limit}): exhaustive search",
            )
        return QueryPlan(
            solver="kmb",
            fallbacks=(),
            instance_class=InstanceClass.GENERAL,
            objective=objective,
            exact=False,
            reason="general schema, large query: KMB 2-approximation",
        )
    if objective == "side":
        side_vertices = context.graph.side(side)
        optional_side = len(side_vertices - set(terminal_list))
        small = optional_side <= exact_vertex_limit
        fallback = "pseudo-bruteforce" if small else "kmb"
        if report.pseudo_steiner_tractable(side):
            return QueryPlan(
                solver="algorithm1-indexed",
                fallbacks=(fallback,),
                instance_class=InstanceClass.SIDE_CHORDAL,
                objective=objective,
                exact=True,
                reason=f"V{side}-alpha schema: Algorithm 1 with cached Lemma 1 ordering",
            )
        return QueryPlan(
            solver=fallback,
            fallbacks=(),
            instance_class=InstanceClass.GENERAL,
            objective=objective,
            exact=small,
            reason="no side-chordality guarantee: exact baseline or KMB",
        )
    raise ValueError(f"unknown objective {objective!r}")
