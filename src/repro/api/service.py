"""`ConnectionService`: the single front door to minimal conceptual connections.

The paper's motivating scenario (Section 1) is an interactive service: a
user names objects, the system proposes the cheapest connection among
them, then further connections in increasing size for disambiguation.
:class:`ConnectionService` is that scenario as one coherent, typed API:

* :meth:`ConnectionService.connect` answers one
  :class:`~repro.api.request.ConnectionRequest` (or a bare terminal set)
  with a :class:`~repro.api.result.ConnectionResult` carrying the tree,
  the optimality :class:`~repro.api.result.Guarantee` and a full
  :class:`~repro.api.result.Provenance` record;
* :meth:`ConnectionService.batch` answers many requests over one schema,
  amortising classification/indexing through the engine's schema cache;
* :meth:`ConnectionService.enumerate` returns the interactive
  :class:`~repro.api.stream.EnumerationStream` of further connections.

All dispatch flows through the engine's planner/registry/cache
(:func:`~repro.engine.planner.plan_query`,
:class:`~repro.engine.registry.SolverRegistry`,
:class:`~repro.engine.cache.SchemaCache`) -- there is no second dispatch
or batch path anywhere in the library, and the dispatch limits live only
in :class:`~repro.api.config.ServiceConfig` and per-request overrides.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.api.config import ServiceConfig
from repro.api.context import current_request, phase
from repro.api.request import ConnectionRequest, validate_terminals
from repro.api.result import ConnectionResult, Guarantee, Provenance
from repro.api.stream import EnumerationStream
from repro.core.classification import ChordalityReport
from repro.engine.batch import InterpretationEngine
from repro.engine.cache import SchemaContext, digest_is_ambiguous
from repro.engine.planner import QueryPlan, plan_query, plans_chordal_elimination
from repro.engine.registry import SolverRegistry, chordal_elimination_work
from repro.exceptions import NotApplicableError, ValidationError
from repro.metrics import MetricsRegistry, default_metrics
from repro.steiner.problem import SteinerSolution

RequestLike = Union[ConnectionRequest, Iterable]

#: Labels of the per-answer instruments.  "tenant" is the multi-tenant
#: server's dimension; in-process callers (no active request scope)
#: collect under tenant="".
_QUERY_LABELS = ("instance_class", "solver", "guarantee", "tenant")


class ConnectionService:
    """Typed façade over the interpretation engine.

    Parameters
    ----------
    schema:
        Optional default schema handle (a
        :class:`~repro.graphs.bipartite.BipartiteGraph`,
        :class:`~repro.semantic.relational.RelationalSchema` or
        :class:`~repro.semantic.er_model.ERSchema`).  Requests may override
        it per call; a service without a default schema requires one on
        every request.
    config:
        A :class:`~repro.api.config.ServiceConfig`; defaults are the
        library-wide dispatch thresholds.  The service builds its own
        :class:`~repro.engine.batch.InterpretationEngine` from it.
    registry:
        Override for the engine's solver registry (e.g. to substitute a
        solver).

    Examples
    --------
    >>> from repro.graphs import BipartiteGraph
    >>> g = BipartiteGraph(left=["A", "B"], right=[1], edges=[("A", 1), ("B", 1)])
    >>> service = ConnectionService(schema=g)
    >>> result = service.connect(["A", "B"])
    >>> result.cost, result.guarantee.value
    (3, 'optimal')
    """

    def __init__(
        self,
        schema: Any = None,
        config: Optional[ServiceConfig] = None,
        registry: Optional[SolverRegistry] = None,
    ) -> None:
        self._schema = schema
        self._config = config if config is not None else ServiceConfig()
        self._engine = InterpretationEngine(
            registry=registry,
            cache_size=self._config.cache_size,
            memory_budget_bytes=self._config.memory_budget_bytes,
        )
        # see _context for the caching contract
        self._bound_context = None
        self._bound_version = None
        # the DiskCache handle (lazy; None when config.cache_dir is unset)
        self._disk = None
        # observability: instruments live in the configured registry (the
        # process-wide default when config.metrics is None); cache counters
        # are exported lazily by a snapshot collector at render time, so
        # the query hot path only ever touches the two direct instruments
        self._metrics = (
            self._config.metrics
            if self._config.metrics is not None
            else default_metrics()
        )
        self._queries_total = self._metrics.counter(
            "repro_queries_total",
            "Connection requests answered, by plan and outcome.",
            _QUERY_LABELS,
        )
        self._query_latency = self._metrics.histogram(
            "repro_query_latency_seconds",
            "Wall time of one answered connection request.",
            _QUERY_LABELS,
        )
        # the two instruments' children per outcome key, looked up once:
        # metric families never drop a child, so a memoised one stays live
        self._outcome_children: Dict[Tuple, Tuple[Any, Any]] = {}
        self._disk_replays = self._metrics.counter(
            "repro_disk_replays_total",
            "Requests answered verbatim from the persistent result cache.",
        )
        self._rebind_outcomes = self._metrics.counter(
            "repro_rebind_total",
            "Bound-schema rebind outcomes after a mutation "
            "(incremental / noop / fallback / full).",
            ("outcome",),
        )
        self._rebind_patch_latency = self._metrics.histogram(
            "repro_rebind_patch_seconds",
            "Wall time of one incremental apply_delta patch.",
        )
        self._rebind_delta_size = self._metrics.histogram(
            "repro_rebind_delta_edits",
            "Net vertex+edge edits per incremental rebind delta.",
            buckets=(1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0),
        )
        self._metrics.register_collector(self._collect_cache_metrics)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> ServiceConfig:
        """The service's immutable configuration."""
        return self._config

    @property
    def engine(self) -> InterpretationEngine:
        """The underlying engine (registry + planner + schema cache)."""
        return self._engine

    @property
    def schema(self) -> Any:
        """The default schema handle (``None`` when unbound)."""
        return self._schema

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this service's instruments collect into."""
        return self._metrics

    @property
    def bound_context_current(self) -> bool:
        """True when the bound schema's memoised context answers the next call.

        The context is built, the schema's ``mutation_version`` has not
        moved since, and no :class:`~repro.dynamic.editor.SchemaEditor`
        transaction is open on it -- so a call on the bound schema does
        no context build and no rebind.  :meth:`_context` takes its memo
        hit from this property.
        """
        schema = self._schema
        return (
            self._bound_context is not None
            and not getattr(schema, "_version_hold", False)
            and getattr(schema, "mutation_version", None) == self._bound_version
        )

    def warm_within(self, request: RequestLike, work_limit: int, **kwargs) -> bool:
        """True when ``connect(request, **kwargs)`` is a short answer from warm state.

        All of these hold: the service has no disk cache (no reads or
        writes); the request is on the bound schema and its context is
        current (:attr:`bound_context_current`); the planner picks
        ``chordal-elimination``, Lemma 5's polynomial elimination, and the
        request forces no other solver; and
        :func:`~repro.engine.registry.chordal_elimination_work` bounds the
        answer's steps by ``work_limit`` from cached rows alone.  A
        request ``connect`` would reject answers ``False``.  Reads only:
        no context, oracle row or counter is touched.
        """
        try:
            req = self._materialise(request, **kwargs)
        except ValidationError:
            return False  # connect raises it
        if (
            self._config.cache_dir is not None
            or (req.schema is not None and req.schema is not self._schema)
            or req.solver not in (None, "chordal-elimination")
            or not self.bound_context_current
        ):
            return False
        context = self._bound_context
        # the bound goes first: it is None on a context not classified
        # yet, whose report the planner would compute
        return chordal_elimination_work(
            context, req.terminals, work_limit
        ) is not None and plans_chordal_elimination(context.report, req.objective)

    def _collect_cache_metrics(self) -> None:
        """Export :meth:`cache_stats` counters as gauges (snapshot collector).

        Registered on the service's registry and run at
        :meth:`~repro.metrics.MetricsRegistry.render_text` time, so the
        schema-cache, distance-oracle and disk-cache counters cost the
        query hot path nothing.  When several services share one registry
        the last-rendered service's snapshot wins -- inject per-service
        registries (``ServiceConfig(metrics=...)``) to keep them apart.
        """
        stats = self.cache_stats()
        schema_gauge = self._metrics.gauge(
            "repro_schema_cache",
            "Schema-cache counters snapshotted from cache_stats().",
            ("stat",),
        )
        oracle_gauge = self._metrics.gauge(
            "repro_distance_oracle",
            "Distance-oracle counters snapshotted from cache_stats().",
            ("stat",),
        )
        disk_gauge = self._metrics.gauge(
            "repro_disk_cache",
            "Persistent-cache counters snapshotted from cache_stats().",
            ("stat",),
        )
        for stat, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                schema_gauge.labels(stat=stat).set(value)
        for stat, value in stats.get("distance_oracle", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                oracle_gauge.labels(stat=stat).set(value)
        for stat, value in stats.get("disk", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                disk_gauge.labels(stat=stat).set(value)
        # memory-budget observability: what the engine currently HOLDS
        # (CSR arrays + oracle rows) against what it is ALLOWED to hold
        memory_gauge = self._metrics.gauge(
            "repro_memory_held_bytes",
            "Bytes currently held by the engine, by component.",
            ("component",),
        )
        memory_gauge.labels(component="schema_cache").set(
            stats.get("memory_bytes", 0) or 0
        )
        memory_gauge.labels(component="distance_oracle").set(
            stats.get("oracle_bytes", 0) or 0
        )
        budget_gauge = self._metrics.gauge(
            "repro_memory_budget_bytes",
            "Configured engine memory budget (0 = unbounded).",
        )
        budget_gauge.set(self._config.memory_budget_bytes or 0)

    def classification(self, schema: Any = None) -> ChordalityReport:
        """Return the chordality classification of a schema (cached)."""
        return self._context(schema)[0].report

    def cache_stats(self) -> dict:
        """Return schema-cache observability counters (hits/misses/size).

        When a persistent cache is configured (``config.cache_dir``) its
        counters are included under the ``"disk"`` key.
        """
        stats = self._engine.cache_stats()
        disk = self._disk_cache()
        if disk is not None:
            stats["disk"] = disk.stats()
        return stats

    def resource_stats(self) -> dict:
        """Return the service's *capacity* numbers for leak monitoring.

        Unlike :meth:`cache_stats` (traffic counters that grow forever
        by design), every value here measures something currently
        *held*: cached schema contexts, distance-oracle BFS rows, and
        persistent-store bytes.  Under a steady workload each must reach
        a plateau; the soak monitor (:mod:`repro.load.soak`) asserts
        exactly that.
        """
        cache = self._engine.cache
        contexts = {id(ctx): ctx for ctx in cache._contexts.values()}
        bound = self._bound_context
        if bound is not None:
            # the bound-schema memo bypasses the keyed LRU, so its
            # context (and oracle) may not be in the cache at all
            contexts.setdefault(id(bound), bound)
        # each context owns its oracle: no row is held by two of them
        rows = sum(
            context._oracle.rows_cached()
            for context in contexts.values()
            if context._oracle is not None
        )
        disk = self._disk_cache()
        return {
            "schema_contexts": len(contexts),
            "oracle_rows": rows,
            "disk_bytes": disk.size_bytes() if disk is not None else 0,
        }

    # ------------------------------------------------------------------
    # persistent layer (opt-in via config.cache_dir)
    # ------------------------------------------------------------------
    def _disk_cache(self):
        """Return the lazily constructed DiskCache (``None`` when disabled)."""
        if self._config.cache_dir is None:
            return None
        if self._disk is None:
            # function-level import: repro.runtime sits above repro.api in
            # the layering, so the api package must not import it at load
            from repro.runtime.diskcache import DiskCache

            self._disk = DiskCache(self._config.cache_dir)
        return self._disk

    def _persistent_layer(self, context: SchemaContext):
        """Return the DiskCache for requests answered on ``context``, or ``None``.

        The single gate every disk-touching path goes through: ``None``
        when no cache directory is configured, and also when the context's
        digest is *ambiguous* (repr-colliding vertices): it never repeats,
        so the append-only store must not fill with entries under it.
        Everything read or stored goes under ``context.digest``, the
        structure it is computed on.
        """
        disk = self._disk_cache()
        if disk is None or digest_is_ambiguous(context.digest):
            return None
        return disk

    def _disk_lookup(self, disk, request: ConnectionRequest, context: SchemaContext):
        """Return the replayed :class:`ConnectionResult` for a disk hit, else ``None``."""
        from repro.runtime.codec import decode_result, request_key

        key = request_key(request, self._config)
        payload = disk.load_result(context.digest, key)
        if payload is None:
            return None
        try:
            replay = decode_result(
                payload, graph=context.graph, request=request, result_cache="disk"
            )
        except Exception:
            # a structurally valid cache file with a semantically broken
            # payload (e.g. written by a buggy or foreign producer) is a
            # miss, never a crash -- the request is simply recomputed
            disk.invalid += 1
            return None
        disk.hits += 1
        self._disk_replays.inc()
        replay.solution.index_on(context.index)
        return replay

    def _disk_store(self, disk, request: ConnectionRequest, context: SchemaContext, result) -> None:
        """Persist one freshly computed result (best-effort, never raises)."""
        from repro.runtime.codec import encode_result, request_key

        disk.store_result(context.digest, request_key(request, self._config), encode_result(result))

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _materialise(self, request: RequestLike, **kwargs) -> ConnectionRequest:
        if isinstance(request, ConnectionRequest):
            if kwargs:
                raise ValidationError(
                    "pass either a ConnectionRequest or keyword arguments, not both"
                )
            return request
        return ConnectionRequest.of(request, **kwargs)

    def _context(self, schema: Any):
        chosen = schema if schema is not None else self._schema
        if chosen is None:
            raise ValidationError(
                "no schema: bind one at construction time "
                "(ConnectionService(schema=...)) or put it on the request"
            )
        if chosen is self._schema:
            # the bound schema's context is memoised and gated on the
            # graph's mutation_version (Relational/ER handles expose no
            # mutators and report None): repeat connect() calls skip the
            # graph rebuild AND the O(|V|+|A|) canonical key,
            # while any structural mutation bumps the version and either
            # patches the previous context incrementally
            # (config.incremental, see _rebind_context) or falls back to
            # the keyed LRU lookup -- mutation safety without a
            # per-query scan.
            # While a SchemaEditor transaction is OPEN the version is
            # held, so it cannot gate anything: the memo is neither
            # consulted nor updated, and every mid-transaction query is
            # re-derived against the live (uncommitted) structure --
            # otherwise a bind taken after one in-transaction edit would
            # keep answering past the next one
            if self.bound_context_current:
                # keep cache_stats() consistent with the cache_hit flag
                self._engine.cache.count_external_hit()
                return self._bound_context, True
            context, hit = self._rebind_context(chosen)
            if not getattr(chosen, "_version_hold", False):
                self._bound_context = context
                self._bound_version = getattr(chosen, "mutation_version", None)
            return context, hit
        return self._build_context(chosen)

    def _rebind_context(self, schema: Any):
        """Return ``(context, hit)`` for a bound schema whose version moved.

        With :attr:`~repro.api.config.ServiceConfig.incremental` enabled
        and a previous bound context available, the new context is derived
        by :meth:`~repro.engine.cache.SchemaContext.apply_delta` from the
        structural diff between the previous snapshot and the live graph:
        only the biconnected blocks the edits touched are reclassified,
        instead of paying the full Theorem 1 recognition.  The patched
        context is adopted into the engine's LRU (under its new key),
        so batch lookups and later services see it
        too.  A structurally no-op version bump keeps the previous
        context; anything unexpected falls back to the full
        :meth:`_build_context` path -- incremental rebinding is an
        optimisation, never a correctness dependency.
        """
        previous = self._bound_context
        if previous is None or not self._config.incremental:
            self._rebind_outcomes.labels(outcome="full").inc()
            return self._build_context(schema)
        from repro.dynamic.delta import SchemaDelta

        try:
            resolved = self._engine.resolve_schema(schema)
            delta = SchemaDelta.between(previous.graph, resolved)
            if delta.is_empty():
                # version moved but the structure did not (e.g. an edit
                # transaction that cancelled out): the old context is
                # exactly right
                self._engine.cache.count_external_hit()
                self._rebind_outcomes.labels(outcome="noop").inc()
                return previous, True
            patch_started = perf_counter()
            context = previous.apply_delta(delta)
        except Exception:
            # correctness is unaffected (the full rebuild answers
            # identically) but the degradation must be visible:
            # cache_stats()["rebind_fallbacks"] counts these
            self._engine.cache.count_rebind_fallback()
            self._rebind_outcomes.labels(outcome="fallback").inc()
            return self._build_context(schema)
        self._rebind_outcomes.labels(outcome="incremental").inc()
        self._rebind_patch_latency.observe(perf_counter() - patch_started)
        self._rebind_delta_size.observe(delta.size())
        self._engine.cache.adopt(context)
        # report a rebuild (cache_hit=False): the first answer after a
        # mutation pays incremental re-derivation, exactly as a fresh
        # context's first answer pays classification
        self._engine.cache.count_external_miss()
        return context, False

    def _build_context(self, schema: Any):
        """LRU lookup with a disk-seeded classification on cold misses.

        When the persistent cache holds a classification report under the
        new context's digest (stored by any earlier process), the cold
        context skips the Theorem 1 recognition entirely.  The report file
        is only read on an actual LRU miss.
        """
        disk = self._disk_cache()
        return self._engine.cache.lookup(
            self._engine.resolve_schema(schema),
            report_factory=disk.load_report if disk is not None else None,
        )

    def _plan(self, context: SchemaContext, request: ConnectionRequest, side: int) -> QueryPlan:
        # degenerate terminal sets get explicit ValidationErrors at the one
        # choke point every entry path shares (connect and batch)
        validate_terminals(context.graph, request.terminals)
        plan = plan_query(
            context,
            request.terminals,
            objective=request.objective,
            side=side,
            exact_terminal_limit=(
                request.exact_terminal_limit
                if request.exact_terminal_limit is not None
                else self._config.exact_terminal_limit
            ),
            exact_vertex_limit=(
                request.exact_vertex_limit
                if request.exact_vertex_limit is not None
                else self._config.exact_vertex_limit
            ),
        )
        if request.solver is not None:
            if request.solver not in self._engine.registry:
                raise ValidationError(
                    f"unknown solver {request.solver!r}; registered solvers: "
                    f"{', '.join(self._engine.registry.names())}"
                )
            # the registry declares what each solver optimises; forcing a
            # mismatched solver would return a tree whose ``optimal`` flag
            # certifies the wrong objective (undeclared custom solvers are
            # the caller's responsibility)
            supported = self._engine.registry.objectives_of(request.solver)
            if supported is not None and request.objective not in supported:
                raise ValidationError(
                    f"solver {request.solver!r} optimises objective(s) "
                    f"{tuple(supported)}; it cannot answer a "
                    f"{request.objective!r} request"
                )
            # explicit solver override: keep the planner's instance-class
            # verdict for provenance but disable fallbacks -- the caller
            # asked for this solver and nothing else (even when the planner
            # would have picked the same solver with fallbacks)
            plan = QueryPlan(
                solver=request.solver,
                fallbacks=(),
                instance_class=plan.instance_class,
                objective=plan.objective,
                exact=False,
                reason=f"explicit solver {request.solver!r} requested",
            )
        elif request.policy == "require-optimal" and not plan.exact:
            # the planner already knows only a heuristic applies; fail fast
            # instead of paying the full solve and rejecting afterwards
            # (the post-solve check in _finish still guards fallback paths)
            raise NotApplicableError(
                "policy 'require-optimal': the planner offers only the "
                f"heuristic {plan.solver!r} for terminals "
                f"{list(request.terminals)!r}"
            )
        return plan

    def _side_of(self, request: ConnectionRequest) -> int:
        return request.side if request.side is not None else self._config.default_side

    def _finish(
        self,
        request: ConnectionRequest,
        plan: QueryPlan,
        solution: SteinerSolution,
        cache_hit: bool,
        started: float,
    ) -> ConnectionResult:
        guarantee = Guarantee.OPTIMAL if solution.optimal else Guarantee.HEURISTIC
        if request.policy == "require-optimal" and guarantee is not Guarantee.OPTIMAL:
            raise NotApplicableError(
                "policy 'require-optimal': no exact solver path applies to the "
                f"request for terminals {list(request.terminals)!r} (got "
                f"heuristic answer from {solution.metadata.get('solver')!r})"
            )
        elapsed = perf_counter() - started
        # span-like identity: inside a request_scope (the server opens one
        # per RPC) the answer carries the scope's request id, tenant and
        # wall-clock phase breakdown, so logs and provenance agree
        scope = current_request()
        provenance = Provenance(
            solver=solution.metadata.get("solver", solution.method),
            instance_class=plan.instance_class.value,
            plan=plan.reason,
            cache_hit=cache_hit,
            fallback_from=solution.metadata.get("fallback_from"),
            wall_time_ms=elapsed * 1000.0,
            tags=dict(request.tags),
            request_id=scope.request_id if scope is not None else None,
            tenant=scope.tenant if scope is not None else None,
            phases=scope.phases_ms() if scope is not None else None,
        )
        key = (
            provenance.instance_class,
            provenance.solver,
            guarantee.value,
            scope.tenant if scope is not None and scope.tenant is not None else "",
        )
        children = self._outcome_children.get(key)
        if children is None:
            outcome = dict(zip(_QUERY_LABELS, key))
            children = self._outcome_children[key] = (
                self._queries_total.labels(**outcome),
                self._query_latency.labels(**outcome),
            )
        children[0].inc()
        children[1].observe(elapsed)
        return ConnectionResult(
            request=request,
            solution=solution,
            guarantee=guarantee,
            provenance=provenance,
        )

    # ------------------------------------------------------------------
    # single request
    # ------------------------------------------------------------------
    def connect(self, request: RequestLike, **kwargs) -> ConnectionResult:
        """Answer one request; accepts a ``ConnectionRequest`` or terminals.

        Shorthand keyword arguments (``objective``, ``side``, ``schema``,
        ``solver``, ``policy``, limit overrides) are forwarded to
        :meth:`ConnectionRequest.of` when ``request`` is a bare terminal
        iterable.
        """
        req = self._materialise(request, **kwargs)
        started = perf_counter()
        with phase("context"):
            context, cache_hit = self._context(req.schema)
        disk = self._persistent_layer(context)
        if disk is not None:
            replay = self._disk_lookup(disk, req, context)
            if replay is not None:
                return replay
        side = self._side_of(req)
        with phase("plan"):
            plan = self._plan(context, req, side)
        with phase("solve"):
            solution = self._engine.execute_plan(
                context, plan, list(req.terminals), side
            )
        result = self._finish(req, plan, solution, cache_hit, started)
        if disk is not None:
            disk.store_report(context.digest, context.report)
            self._disk_store(disk, req, context, result)
        return result

    # ------------------------------------------------------------------
    # batches
    # ------------------------------------------------------------------
    def batch(
        self,
        requests: Iterable[RequestLike],
        *,
        schema: Any = None,
        objective: str = "steiner",
        side: Optional[int] = None,
        policy: str = "auto",
    ) -> List[ConnectionResult]:
        """Answer many requests over one schema, amortising precomputation.

        ``requests`` may mix :class:`ConnectionRequest` objects and bare
        terminal iterables (the keyword arguments fill in the blanks for
        the latter).  Per-request ``schema`` fields must agree with the
        batch's schema -- the point of a batch is one shared context.

        Error semantics are all-or-nothing: the first failing request
        (validation, infeasibility, or a ``require-optimal`` policy
        rejection -- the raised error names its terminals) aborts the
        batch and no partial results are returned.  Callers that want
        per-query error isolation should loop over :meth:`connect`.
        """
        materialised = self._materialise_batch(
            requests, objective=objective, side=side, policy=policy
        )
        batch_schema = self._batch_schema(materialised, schema)
        with phase("context"):
            context, cache_hit = self._context(batch_schema)
        disk = self._persistent_layer(context)
        # replay every stored answer first; only the rest is computed
        replayed = {}
        if disk is not None:
            for position, request in enumerate(materialised):
                replay = self._disk_lookup(disk, request, context)
                if replay is not None:
                    replayed[position] = replay
        results: List[ConnectionResult] = []
        for position, request in enumerate(materialised):
            if position in replayed:
                results.append(replayed[position])
                continue
            query_started = perf_counter()
            request_side = self._side_of(request)
            with phase("plan"):
                plan = self._plan(context, request, request_side)
            with phase("solve"):
                solution = self._engine.execute_plan(
                    context, plan, list(request.terminals), request_side
                )
            result = self._finish(request, plan, solution, cache_hit, query_started)
            results.append(result)
            if disk is not None:
                self._disk_store(disk, request, context, result)
            # every query after the first reuses the context by construction
            cache_hit = True
        if disk is not None and len(replayed) < len(materialised):
            disk.store_report(context.digest, context.report)
        return results

    def _materialise_batch(
        self,
        requests: Iterable[RequestLike],
        *,
        objective: str = "steiner",
        side: Optional[int] = None,
        policy: str = "auto",
    ) -> List[ConnectionRequest]:
        """Normalise a mixed batch into :class:`ConnectionRequest` objects."""
        requests = list(requests)
        if (objective != "steiner" or side is not None or policy != "auto") and any(
            isinstance(request, ConnectionRequest) for request in requests
        ):
            # mirror connect(): keyword fill-ins only apply to bare terminal
            # iterables; applying them to (or silently ignoring them for)
            # prebuilt requests would certify answers for the wrong objective
            raise ValidationError(
                "batch() keyword arguments only apply to bare terminal "
                "iterables; set objective/side/policy on the ConnectionRequest "
                "objects themselves"
            )
        return [
            request
            if isinstance(request, ConnectionRequest)
            else ConnectionRequest.of(
                request, objective=objective, side=side, policy=policy
            )
            for request in requests
        ]

    def _batch_schema(
        self, materialised: List[ConnectionRequest], schema: Any = None
    ) -> Any:
        """Return the single schema handle a batch answers (validating agreement)."""
        batch_schema = schema if schema is not None else self._schema
        batch_fingerprint = None
        for request in materialised:
            if request.schema is not None:
                if batch_schema is None:
                    batch_schema = request.schema
                elif request.schema is not batch_schema:
                    # distinct objects may still be the same schema
                    # structurally -- compare fingerprints, same as the LRU
                    from repro.engine.cache import schema_fingerprint

                    if batch_fingerprint is None:
                        batch_fingerprint = schema_fingerprint(
                            self._engine.resolve_schema(batch_schema)
                        )
                    candidate = schema_fingerprint(
                        self._engine.resolve_schema(request.schema)
                    )
                    if candidate != batch_fingerprint:
                        raise ValidationError(
                            "batch() answers one schema at a time; use connect() "
                            "for mixed-schema traffic"
                        )
        if batch_schema is None:
            raise ValidationError(
                "no schema: bind one at construction time "
                "(ConnectionService(schema=...)) or put it on the request"
            )
        return batch_schema

    # ------------------------------------------------------------------
    # streaming enumeration
    # ------------------------------------------------------------------
    def enumerate(
        self,
        request: RequestLike,
        *,
        budget: Optional[int] = None,
        max_extra: Optional[int] = None,
        **kwargs,
    ) -> EnumerationStream:
        """Return the stream of connections in non-decreasing size.

        ``budget`` caps how many connections the stream yields before
        pausing (resumable via
        :meth:`~repro.api.stream.EnumerationStream.extend_budget`; a pause
        and true exhaustion both raise ``StopIteration`` -- check
        :attr:`~repro.api.stream.EnumerationStream.paused` to tell them
        apart, see the class docstring for the full resume contract);
        ``max_extra`` bounds the auxiliary-vertex counts explored.  Both
        default to the service config.

        Only the ``"steiner"`` objective is streamable: connections are
        enumerated by total size, so a ``"side"`` request would get an
        ordering (and a rank-1 optimality claim) for the wrong objective.
        """
        req = self._materialise(request, **kwargs)
        if req.objective != "steiner":
            raise ValidationError(
                "enumerate() streams connections by total size (objective "
                f"'steiner'); objective {req.objective!r} is not streamable -- "
                "use connect(objective='side') for the side-minimal answer"
            )
        if (
            req.policy != "auto"
            or req.solver is not None
            or req.exact_terminal_limit is not None
            or req.exact_vertex_limit is not None
        ):
            raise ValidationError(
                "enumerate() deliberately yields non-minimal connections after "
                "rank 1 and always uses exhaustive enumeration; the 'policy', "
                "'solver' and exact-limit request fields do not apply -- use "
                "connect() for policy-gated or solver-pinned answers, and the "
                "'budget'/'max_extra' knobs to bound enumeration"
            )
        context, cache_hit = self._context(req.schema)
        report = context.report
        if report.steiner_tractable():
            instance_class = "chordal"
        else:
            instance_class = "general"
        return EnumerationStream(
            context.graph,
            req,
            index=context.index,
            instance_class=instance_class,
            cache_hit=cache_hit,
            budget=budget if budget is not None else self._config.enumeration_budget,
            max_extra=(
                max_extra
                if max_extra is not None
                else self._config.enumeration_max_extra
            ),
        )


_DEFAULT_SERVICE: Optional[ConnectionService] = None


def default_service() -> ConnectionService:
    """Return the process-wide default service (lazily constructed)."""
    global _DEFAULT_SERVICE
    if _DEFAULT_SERVICE is None:
        _DEFAULT_SERVICE = ConnectionService()
    return _DEFAULT_SERVICE
