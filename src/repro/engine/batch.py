"""The interpretation engine: solver registry, schema cache, plan execution.

The paper's motivating scenario is interactive: one user, one query.  At
production scale the same schema serves streams of queries, and the
per-query algorithms would waste almost all of their time recomputing
schema-level facts -- the Theorem 1 classification, BFS rows, Lemma 1
orderings.  The engine amortises them:

* a :class:`~repro.engine.cache.SchemaCache` keeps one
  :class:`~repro.engine.cache.SchemaContext` per schema (LRU, structural
  fingerprint keys);
* a :func:`~repro.engine.planner.plan_query` call picks a solver from the
  :class:`~repro.engine.registry.SolverRegistry` using the cached class;
* :meth:`InterpretationEngine.execute_plan` runs the solver on the
  integer-indexed fast lane and returns a
  :class:`~repro.steiner.problem.SteinerSolution` on the original graph,
  kept on the context's ids until a label is read.

The engine is not an entry point of its own: requests, batches and
dispatch limits live in :class:`~repro.api.service.ConnectionService`,
which owns one engine and is the only place a batch is run.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.engine.cache import SchemaCache, SchemaContext
from repro.engine.planner import QueryPlan
from repro.engine.registry import SolverRegistry, default_registry
from repro.exceptions import NotApplicableError, ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph
from repro.steiner.problem import SteinerSolution


class InterpretationEngine:
    """Solver registry plus schema-context cache behind a service.

    Parameters
    ----------
    registry:
        Solver registry; defaults to :func:`~repro.engine.registry.default_registry`.
    cache_size:
        Number of schema contexts kept in the LRU.
    memory_budget_bytes:
        Optional byte budget for the schema cache and its oracles (see
        :class:`~repro.engine.cache.SchemaCache`).

    Examples
    --------
    >>> from repro.engine.planner import plan_query
    >>> from repro.graphs import BipartiteGraph
    >>> g = BipartiteGraph(left=["A", "B"], right=[1], edges=[("A", 1), ("B", 1)])
    >>> engine = InterpretationEngine()
    >>> context = engine.cache.get_or_build(g)
    >>> plan = plan_query(
    ...     context, ["A", "B"], exact_terminal_limit=8, exact_vertex_limit=18
    ... )
    >>> engine.execute_plan(context, plan, ["A", "B"], 2).vertex_count()
    3
    """

    def __init__(
        self,
        registry: Optional[SolverRegistry] = None,
        cache_size: int = 16,
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self._cache = SchemaCache(
            maxsize=cache_size, memory_budget_bytes=memory_budget_bytes
        )

    @property
    def cache(self) -> SchemaCache:
        """The engine's :class:`~repro.engine.cache.SchemaCache`."""
        return self._cache

    def cache_stats(self) -> dict:
        """Return the schema cache's observability counters."""
        return self._cache.stats()

    def resolve_schema(self, schema) -> BipartiteGraph:
        """Return the :class:`BipartiteGraph` behind any accepted schema handle."""
        if isinstance(schema, BipartiteGraph):
            return schema
        if isinstance(schema, Graph):
            return BipartiteGraph.from_graph(schema)
        schema_graph = getattr(schema, "schema_graph", None)
        if callable(schema_graph):  # RelationalSchema
            return schema_graph()
        bipartite_graph = getattr(schema, "bipartite_graph", None)
        if callable(bipartite_graph):  # ERSchema
            return bipartite_graph()
        raise ValidationError(
            "schema must be a BipartiteGraph, Graph, RelationalSchema or ERSchema"
        )

    def execute_plan(
        self, context: SchemaContext, plan: QueryPlan, terminals, side: int
    ) -> SteinerSolution:
        """Run a :class:`QueryPlan` (primary solver, then fallbacks) on a context.

        This is the one place in the library where a solver is actually
        invoked; every :class:`~repro.api.service.ConnectionService`
        request funnels through it.  A solution whose tree a solver built
        in label space (brute force, a one-terminal shortcut, a custom
        solver) is numbered here by the context's ids, so that every
        answer reaches the wire on ids
        (:meth:`~repro.steiner.problem.SteinerSolution.index_on`).
        """
        names = (plan.solver, *plan.fallbacks)
        last_error: Optional[NotApplicableError] = None
        for position, name in enumerate(names):
            solver = self.registry.get(name)
            kwargs: Dict = {}
            if plan.objective == "side":
                kwargs["side"] = side
            try:
                solution = solver(context, terminals, **kwargs)
            except NotApplicableError as error:
                last_error = error
                continue
            if solution.ids is None:
                solution.index_on(context.index)
            solution.metadata.setdefault("plan", plan.reason)
            solution.metadata.setdefault("solver", name)
            if position > 0:
                solution.metadata.setdefault("fallback_from", plan.solver)
            return solution
        raise last_error if last_error is not None else NotApplicableError(
            "no applicable solver"
        )
