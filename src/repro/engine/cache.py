"""Schema-level precomputation cache for the interpretation engine.

The per-query cost of the paper's algorithms is dominated by work that
only depends on the *schema graph*, not on the terminal set: the
chordality classification (Theorem 1 recognition), the conversion to the
indexed backend, BFS distance rows, and the Lemma 1 elimination orderings.
:class:`SchemaContext` bundles those precomputations for one schema and
computes each lazily exactly once; :class:`SchemaCache` is a small LRU of
contexts keyed by a structural fingerprint of the schema graph, so
repeated :class:`~repro.api.service.ConnectionService` requests on the
same schema (even through different ``BipartiteGraph`` instances with
equal structure) reuse everything.

Cache keys
----------
``schema_fingerprint`` is ``(|V|, |A|, vertex tokens, edge tokens, side
labels)``, where a vertex token pairs the vertex's *type* with its
``repr``.  It is *structural*: two equal graphs share a context, and
mutating a graph between calls changes its fingerprint, which simply makes
the engine rebuild (stale contexts age out of the LRU).  Each context
snapshots a private copy of its graph at build time, so a cached entry
stays valid even when the originally supplied graph object is mutated
later.  The cache is in-memory only and never persisted.

Because ``repr`` is not injective, a graph whose distinct vertices
collide on their tokens (e.g. two instances of a class with a constant
``__repr__``) cannot be keyed structurally at all: such *ambiguous*
schemas fall back to identity keys that never match anything else, so
they are always rebuilt rather than ever sharing a context (or a disk
entry) with a different schema that merely prints the same.
"""

from __future__ import annotations

import hashlib
import itertools
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

# classify_bipartite_graph stays bound here although contexts classify
# blockwise: the per-layer tracing of perfbench/tracing.py patches this name
from repro.core.classification import ChordalityReport, classify_bipartite_graph  # noqa: F401
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph, Vertex
from repro.graphs.indexed import GraphIndex, IndexedGraph, to_indexed
from repro.kernels.oracle import DistanceOracle, OracleStats


class LRUCache:
    """A minimal least-recently-used mapping (no locking; single-threaded use)."""

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable):
        """Return the cached value or ``None``, refreshing recency."""
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key: Hashable, value) -> None:
        """Insert ``value``, evicting the least recently used entry if full."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def pop_oldest(self):
        """Evict and return the least-recently-used value (or ``None`` if empty).

        The memory-budget enforcement of :class:`SchemaCache` uses this to
        shed contexts by *bytes* rather than by count.
        """
        item = self.pop_oldest_item()
        return None if item is None else item[1]

    def pop_oldest_item(self):
        """Evict and return the least-recently-used ``(key, value)`` pair.

        ``None`` when empty.  Callers that account bytes per entry (the
        block memo sizes an entry from its key) need the key back.
        """
        if not self._data:
            return None
        item = self._data.popitem(last=False)
        self.evictions += 1
        return item

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def values(self) -> List:
        """Return the cached values, coldest first (no recency effect)."""
        return list(self._data.values())


def vertex_token(vertex: Vertex) -> Tuple[str, str]:
    """Return the ``(type, repr)`` token structural keys identify a vertex by.

    Pairing the repr with the vertex's fully qualified type separates
    values of different types that happen to print identically; it cannot
    separate two instances of the *same* type with identical reprs, which
    is what :func:`vertex_tokens` detects.
    """
    cls = type(vertex)
    return (f"{cls.__module__}.{cls.__qualname__}", repr(vertex))


def tokens_for(vertices) -> Optional[Dict[Vertex, Tuple[str, str]]]:
    """Return ``{vertex: token}`` for an iterable, or ``None`` on collisions.

    ``None`` means the vertices cannot be told apart structurally (two
    distinct vertex objects share a ``(type, repr)`` token), so no
    repr-based key -- fingerprint, digest, block key -- is trustworthy
    for them; callers must fall back to identity keying or skip caching.
    Duplicate *objects* in the iterable are fine (deduplicated by
    identity/equality); only distinct objects colliding on a token count.
    """
    tokens: Dict[Vertex, Tuple[str, str]] = {}
    seen = set()
    for vertex in vertices:
        if vertex in tokens:
            continue
        token = vertex_token(vertex)
        if token in seen:
            return None
        seen.add(token)
        tokens[vertex] = token
    return tokens


def vertex_tokens(graph: Graph) -> Optional[Dict[Vertex, Tuple[str, str]]]:
    """Return ``{vertex: token}`` for a graph's vertex set (see :func:`tokens_for`)."""
    return tokens_for(graph.vertices())


#: Monotonic source of never-repeating identity keys for ambiguous schemas
#: (see :func:`schema_fingerprint`); never reset, so no two lookups of
#: ambiguous graphs can ever collide within a process.
_AMBIGUOUS_KEYS = itertools.count()

#: First element of every ambiguous fingerprint tuple.
_AMBIGUOUS_FINGERPRINT_TAG = "ambiguous-schema"


def fingerprint_is_ambiguous(key: Tuple) -> bool:
    """Return ``True`` when ``key`` is a never-repeating identity fingerprint.

    Such keys can never be looked up again, so caching anything under one
    only evicts useful entries -- :class:`SchemaCache` skips insertion.
    """
    return bool(key) and key[0] == _AMBIGUOUS_FINGERPRINT_TAG

#: Prefix marking the never-repeating digests of ambiguous schemas.
AMBIGUOUS_DIGEST_PREFIX = "ambiguous-"


def digest_is_ambiguous(digest: str) -> bool:
    """Return ``True`` when ``digest`` addresses an ambiguous schema.

    Such digests are unique per call (see :func:`schema_digest`):
    correct to key in-memory transports on, useless to persist under.
    """
    return digest.startswith(AMBIGUOUS_DIGEST_PREFIX)


def schema_fingerprint(graph: Graph) -> Tuple:
    """Return a structural cache key for a schema graph.

    Equal graphs (same vertices by ``(type, repr)`` token, same edges,
    same bipartition) map to the same key within one process.  A graph
    whose distinct vertices *collide* on their tokens is ambiguous -- no
    repr-based key can distinguish it from a structurally different
    schema that prints the same -- so it gets a fresh identity key on
    every call: such schemas never share a cached context with anything
    (including themselves), trading cache hits for correctness.
    """
    tokens = vertex_tokens(graph)
    if tokens is None:
        return (_AMBIGUOUS_FINGERPRINT_TAG, next(_AMBIGUOUS_KEYS))
    edge_tokens = frozenset(
        frozenset((tokens[u], tokens[v])) for u, v in graph.edges()
    )
    sides: Optional[FrozenSet] = None
    if isinstance(graph, BipartiteGraph):
        sides = frozenset((tokens[v], graph.side_of(v)) for v in graph.vertices())
    # the structures themselves are the key (hashable); collapsing them
    # through hash() would let two distinct schemas silently share a
    # cached context
    return (
        graph.number_of_vertices(),
        graph.number_of_edges(),
        frozenset(tokens.values()),
        edge_tokens,
        sides,
    )


def schema_digest(graph: Graph) -> str:
    """Return a stable hex digest of a schema graph's structure.

    The digest hashes the same structural facts as :func:`schema_fingerprint`
    (vertex tokens, edge tokens, bipartition labels) but canonically ordered
    and serialised, so it is stable across processes and interpreter runs --
    which the in-process fingerprint tuples (built on ``frozenset``) are
    not.  The persistent layer (:class:`repro.runtime.diskcache.DiskCache`)
    keys everything on it: mutating a graph changes its digest, which
    safely invalidates every derived artifact.

    An *ambiguous* graph (distinct vertices sharing a ``(type, repr)``
    token, see :func:`vertex_tokens`) has no trustworthy structural
    address; it gets a process-unique random digest per call, marked by
    :data:`AMBIGUOUS_DIGEST_PREFIX`, so nothing keyed on it can ever be
    served to a different schema that merely prints the same.  Callers
    that *store* by digest check :func:`digest_is_ambiguous` first and
    skip persistence entirely (a never-replayable entry would be pure
    write-only garbage in an append-only store).
    """
    tokens = vertex_tokens(graph)
    if tokens is None:
        return f"{AMBIGUOUS_DIGEST_PREFIX}{uuid.uuid4().hex}"

    def encoded(token: Tuple[str, str]) -> bytes:
        # length-prefix every component: a repr can contain ANY bytes
        # (including whatever separator or section marker we might pick),
        # so only self-delimiting blobs make the hashed stream injective
        # -- without this, a crafted __repr__ could forge vertex/edge
        # boundaries and collide two structurally different schemas
        parts = []
        for component in token:
            blob = component.encode("utf-8", "backslashreplace")
            parts.append(len(blob).to_bytes(8, "big"))
            parts.append(blob)
        return b"".join(parts)

    hasher = hashlib.sha256()
    hasher.update(graph.number_of_vertices().to_bytes(8, "big"))
    hasher.update(graph.number_of_edges().to_bytes(8, "big"))
    for vertex_blob in sorted(encoded(token) for token in tokens.values()):
        hasher.update(b"v")
        hasher.update(vertex_blob)
    for edge_blob in sorted(
        b"".join(sorted((encoded(tokens[u]), encoded(tokens[v]))))
        for u, v in graph.edges()
    ):
        hasher.update(b"e")
        hasher.update(edge_blob)
    if isinstance(graph, BipartiteGraph):
        for side_blob in sorted(
            str(graph.side_of(v)).encode("ascii") + encoded(tokens[v])
            for v in graph.vertices()
        ):
            hasher.update(b"s")
            hasher.update(side_blob)
    return hasher.hexdigest()


@dataclass(frozen=True)
class SidePlan:
    """Cached Algorithm 1 precomputation for one connected component.

    ``component`` holds the ids of the component, ``applicable`` the
    Lemma 1 precondition verdict (``V_side``-chordal and conformal), and
    ``ordering`` the encoded Lemma 1 elimination ordering (``None`` when no
    running-intersection ordering exists).
    """

    component: FrozenSet[int]
    applicable: bool
    ordering: Optional[Tuple[int, ...]]


def _new_block_classifier(memory_budget_bytes: Optional[int] = None):
    """Return a fresh blockwise classifier (function-level import by layering).

    ``repro.dynamic.blocks`` imports this module for its LRU and token
    helpers, so the reverse import must stay out of module scope.
    """
    from repro.dynamic.blocks import BlockClassifier

    classifier = BlockClassifier()
    classifier.memory_budget_bytes = memory_budget_bytes
    return classifier


class SchemaContext:
    """All schema-level precomputations the engine reuses across queries."""

    def __init__(
        self,
        graph: BipartiteGraph,
        report: Optional[ChordalityReport] = None,
        oracle_stats: Optional[OracleStats] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        # defensive copy: the context outlives the call that built it (LRU),
        # so it must not alias a graph the caller may mutate afterwards --
        # otherwise a later structurally-equal lookup would get answers
        # computed on the mutated aliased object
        self.graph = graph.copy()
        indexed, index = to_indexed(self.graph)
        self.indexed: IndexedGraph = indexed
        self.index: GraphIndex = index
        self._report = report
        self._side_plans: Dict[Tuple[int, int], SidePlan] = {}
        self._components: Optional[List[FrozenSet[int]]] = None
        # blockwise classifier: the cold report classifies through it, and
        # it is shared (by reference) along every apply_delta chain rooted
        # here, so surviving blocks never pay Theorem 1 recognition again;
        # its memo is bounded by the same byte budget as the oracle
        self._blocks = _new_block_classifier(memory_budget_bytes)
        # the cross-query distance oracle is lazy (first BFS builds it);
        # the counters are shared with the owning SchemaCache when there
        # is one, so they survive eviction and apply_delta re-derivation
        self._oracle: Optional[DistanceOracle] = None
        self._oracle_stats = oracle_stats
        # byte budget for the lazy oracle; it propagates along apply_delta
        # chains and through SchemaCache.adopt
        self._memory_budget = memory_budget_bytes

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    @property
    def report(self) -> ChordalityReport:
        """The (lazily computed, cached) chordality classification.

        Computed blockwise through the context's own block memo, so the
        cold build seeds the memo its ``apply_delta`` chain reuses.
        """
        if self._report is None:
            self._report = self._blocks.classify(self.graph)
        return self._report

    # ------------------------------------------------------------------
    # incremental evolution (repro.dynamic)
    # ------------------------------------------------------------------
    def apply_delta(self, delta) -> "SchemaContext":
        """Return a new context for the edited schema without a full rebuild.

        ``delta`` is a :class:`~repro.dynamic.delta.SchemaDelta` (net
        edits relative to this context's snapshot graph).  The returned
        context is observably equivalent to
        ``SchemaContext(edited_graph)`` -- same graph, same indexed
        backend, same classification -- but derived incrementally:

        * the snapshot graph is patched in place of being re-supplied;
        * the CSR/bitset backend is patched from the old arrays plus the
          delta's edge changes (the label index is reused verbatim when
          the vertex set did not change; vertex churn re-derives it);
        * the Theorem 1 classification is maintained blockwise through
          the shared :class:`~repro.dynamic.blocks.BlockClassifier` --
          cut vertices act as local separators, so only blocks the edit
          touched (or merged) are reclassified, and the full recognition
          is only ever paid *inside* a new block;
        * the distance oracle keeps only the rows outside the touched
          component (all of them are dropped on vertex churn), and the
          side plans and components start empty: a structural edit can
          shift distances and components globally, and they re-amortise
          across the next queries.

        The original context is not modified (version-keyed callers such
        as the engine LRU may still be holding it); the block memo is
        shared by reference, which only ever *adds* cached verdicts.
        """
        new_graph = self.graph.copy()
        delta.apply_to(new_graph)
        context = SchemaContext.__new__(SchemaContext)
        context.graph = new_graph
        context._oracle_stats = self._oracle_stats
        context._oracle = None
        context._memory_budget = self._memory_budget
        if delta.added_vertices or delta.removed_vertices:
            context.indexed, context.index = to_indexed(new_graph)
            # vertex churn re-keys every id: nothing the old oracle holds
            # is addressable any more, so the whole row set is lost
            if self._oracle is not None:
                self._oracle.stats.invalidated += self._oracle.rows_cached()
        else:
            context.index = self.index
            context.indexed = _patch_indexed(self.indexed, self.index, delta)
            if self._oracle is not None:
                # component-granular invalidation: an edge edit lives in
                # one biconnected block, so only rows rooted in that
                # block's connected component can have moved -- every
                # other cached row transfers to the patched context
                ids = self.index.ids
                touched = [
                    ids[vertex]
                    for edge in (*delta.added_edges, *delta.removed_edges)
                    for vertex in edge
                    if vertex in ids
                ]
                context._oracle = self._oracle.inherit(context.indexed, touched)
        context._blocks = self._blocks
        context._report = self._blocks.classify(new_graph)
        context._side_plans = {}
        context._components = None
        return context

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    @property
    def distance_oracle(self) -> DistanceOracle:
        """The context's cross-query :class:`~repro.kernels.oracle.DistanceOracle`.

        Built on first access; every BFS a solver needs on this schema
        version flows through it, so repeated terminals across a batch
        (or across batches) never pay a second traversal.  The counters
        are shared with the owning :class:`SchemaCache` when the context
        was built by one.
        """
        if self._oracle is None:
            if self._oracle_stats is None:
                self._oracle_stats = OracleStats()
            self._oracle = DistanceOracle(
                self.indexed,
                stats=self._oracle_stats,
                memory_budget_bytes=self._memory_budget,
            )
        return self._oracle

    def adopt_oracle_stats(self, stats: OracleStats) -> None:
        """Re-home this context's oracle counters onto a cache's shared stats.

        Called by :meth:`SchemaCache.adopt` so contexts derived elsewhere
        (``apply_delta`` chains started before adoption) count into the
        adopting engine's ``cache_stats()``.
        """
        self._oracle_stats = stats
        if self._oracle is not None:
            self._oracle.stats = stats

    def adopt_kernel_policy(self, memory_budget_bytes) -> None:
        """Adopt a cache's byte budget.

        Called by :meth:`SchemaCache.adopt`.  The budget bounds the oracle
        and the block memo from their next insert on.
        """
        self._memory_budget = memory_budget_bytes
        self._blocks.memory_budget_bytes = memory_budget_bytes
        if self._oracle is not None:
            self._oracle.memory_budget_bytes = memory_budget_bytes

    def memory_bytes(self) -> int:
        """Return the budget-relevant bytes held by this context.

        Counts the canonical CSR storage, the oracle's cached rows and
        the block memo -- the stores that scale with schema size and
        traffic.  Solvers read distances only through the oracle, so no
        uncounted row store exists; the remaining memos (side plans,
        components) hold one entry per connected component and side, and
        are bounded by the schema rather than by the traffic.
        """
        total = self.indexed.nbytes() + self._blocks.bytes_held()
        if self._oracle is not None:
            total += self._oracle.bytes_held()
        return total

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------
    def component_ids(self, vertex_id: int) -> FrozenSet[int]:
        """Return the id set of the connected component containing ``vertex_id``."""
        for component in self._all_components():
            if vertex_id in component:
                return component
        raise KeyError(vertex_id)  # pragma: no cover - ids are always valid

    def _all_components(self) -> List[FrozenSet[int]]:
        if self._components is None:
            seen = [False] * self.indexed.n
            components: List[FrozenSet[int]] = []
            for start in range(self.indexed.n):
                if seen[start]:
                    continue
                members = self.indexed.component_of(start)
                for member in members:
                    seen[member] = True
                components.append(frozenset(members))
            self._components = components
        return self._components

    # ------------------------------------------------------------------
    # Algorithm 1 plans
    # ------------------------------------------------------------------
    def side_plan(self, side: int, vertex_id: int) -> SidePlan:
        """Return the cached Algorithm 1 plan for the component of ``vertex_id``.

        Computes (once per component and side) the structural precondition
        and the Lemma 1 ordering on the induced component subgraph.
        """
        from repro.chordality.side_chordal import is_side_chordal_and_conformal
        from repro.steiner.algorithm1 import lemma1_ordering

        component = self.component_ids(vertex_id)
        key = (side, min(component))
        plan = self._side_plans.get(key)
        if plan is None:
            labels = self.index.decode(sorted(component))
            subgraph = self.graph.subgraph(labels)
            applicable = is_side_chordal_and_conformal(subgraph, side, method="alpha")
            ordering_labels = lemma1_ordering(subgraph, side)
            ordering = (
                tuple(self.index.encode(ordering_labels))
                if ordering_labels is not None
                else None
            )
            plan = SidePlan(component=component, applicable=applicable, ordering=ordering)
            self._side_plans[key] = plan
        return plan


def _patch_indexed(indexed: IndexedGraph, index: GraphIndex, delta) -> IndexedGraph:
    """Rebuild the CSR backend from the old arrays plus an edge-only delta.

    Only valid when the delta touches no vertices: ids and labels stay
    put, so the new :class:`IndexedGraph` is assembled from the old CSR
    edge stream minus the removed edges plus the added ones -- an
    O(|V| + |A|) array pass that skips the repr-sorted label ordering and
    dictionary building of a full :func:`to_indexed` conversion.
    """
    ids = index.ids
    removed = {
        frozenset((ids[u], ids[v])) for u, v in delta.removed_edges
    }
    edges: List[Tuple[int, int]] = [
        edge for edge in indexed.edges() if frozenset(edge) not in removed
    ]
    edges.extend((ids[u], ids[v]) for u, v in delta.added_edges)
    return IndexedGraph(indexed.n, edges=edges, sides=indexed.sides)


class SchemaCache:
    """LRU of :class:`SchemaContext` objects keyed by schema fingerprint.

    Parameters
    ----------
    maxsize:
        Entry-count bound of the LRU.
    memory_budget_bytes:
        Optional byte bound over the cached contexts (CSR storage +
        oracle rows + block memo, see :meth:`SchemaContext.memory_bytes`):
        when an insert pushes :meth:`memory_bytes` past the budget,
        least-recently-used contexts are evicted until the cache fits
        (the newest context always survives).  The same budget is handed
        to each context's oracle and block memo, so a single big schema
        also degrades by eviction instead of growing unbounded.
    """

    def __init__(
        self,
        maxsize: int = 16,
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        self._contexts = LRUCache(maxsize=maxsize)
        self.rebind_fallbacks = 0
        self.memory_budget_bytes = memory_budget_bytes
        # one shared counter object for every context's distance oracle,
        # so cache_stats() reports engine-wide oracle behaviour even
        # across evictions and apply_delta chains
        self.oracle_stats = OracleStats()

    def lookup(
        self, graph: BipartiteGraph, report_factory=None
    ) -> Tuple[SchemaContext, bool]:
        """Return ``(context, cache_hit)`` for ``graph``, building on first use.

        The boolean feeds result provenance: ``True`` means the context was
        served from the LRU, ``False`` that it was (re)built for this call.
        ``report_factory`` is a zero-argument callable consulted only on a
        miss -- it lets callers with an *expensive* report source (e.g. a
        disk read) avoid paying it on the hit path.
        """
        key = schema_fingerprint(graph)
        context = self._contexts.get(key)
        hit = context is not None
        if context is None:
            context = SchemaContext(
                graph,
                report=report_factory() if report_factory is not None else None,
                oracle_stats=self.oracle_stats,
                memory_budget_bytes=self.memory_budget_bytes,
            )
            if not fingerprint_is_ambiguous(key):
                # an ambiguous key can never be looked up again; caching
                # under it would only evict contexts that can
                self._contexts.put(key, context)
                self.enforce_memory_budget()
        return context, hit

    def get_or_build(self, graph: BipartiteGraph) -> SchemaContext:
        """Return the cached context for ``graph``, building it on first use."""
        return self.lookup(graph)[0]

    def adopt(self, context: SchemaContext) -> None:
        """Insert a prebuilt context under its own graph's fingerprint.

        The service's incremental rebind path adopts the context
        :meth:`SchemaContext.apply_delta` derived, so later lookups of the
        edited structure hit it.  Contexts of ambiguous graphs are not
        insertable (their fingerprints never repeat) and are silently
        skipped.
        """
        key = schema_fingerprint(context.graph)
        if not fingerprint_is_ambiguous(key):
            context.adopt_oracle_stats(self.oracle_stats)
            context.adopt_kernel_policy(self.memory_budget_bytes)
            self._contexts.put(key, context)
            self.enforce_memory_budget()

    def count_external_hit(self) -> None:
        """Record a context served from a caller-side memo above this cache.

        The :class:`~repro.api.service.ConnectionService` memoises the
        context of an immutable bound schema and skips the fingerprint
        lookup entirely; counting those serves here keeps
        :meth:`stats` consistent with the ``cache_hit`` provenance flag.
        """
        self._contexts.hits += 1

    def count_external_miss(self) -> None:
        """Record a context (re)built above this cache without a lookup.

        The service's incremental rebind path derives a patched context
        directly from the previous one (no fingerprint lookup happens);
        counting it as a miss keeps :meth:`stats` consistent with the
        ``cache_hit=False`` provenance those answers carry.
        """
        self._contexts.misses += 1

    def count_rebind_fallback(self) -> None:
        """Record an incremental rebind that fell back to a full rebuild.

        The service's incremental path is an optimisation with a silent
        full-rebuild fallback; answers stay correct either way, so only
        this counter reveals when the fast path has stopped firing (a
        healthy churn workload keeps it at zero).
        """
        self.rebind_fallbacks += 1

    def memory_bytes(self) -> int:
        """Return the budget-relevant bytes of every cached context.

        CSR storage plus oracle rows plus block memos; oracles and memos
        shared along ``apply_delta`` chains are counted once.  This is the
        number the ``repro_memory_held_bytes{component="schema_cache"}``
        gauge exports and :meth:`enforce_memory_budget` bounds.
        """
        total = sum(context.indexed.nbytes() for context in self._contexts.values())
        return total + self.oracle_bytes() + self.block_memo_bytes()

    def enforce_memory_budget(self) -> None:
        """Evict coldest contexts until :meth:`memory_bytes` fits the budget.

        A no-op without a budget.  The newest context always survives
        (a budget smaller than one schema degrades to rebuild-per-query,
        never to failure).  Called after every insert; long-lived callers
        whose oracles grow *between* inserts (one bound schema, heavy
        query traffic) are bounded by the per-oracle budget instead.
        """
        budget = self.memory_budget_bytes
        if budget is None:
            return
        while len(self._contexts) > 1 and self.memory_bytes() > budget:
            self._contexts.pop_oldest()

    def stats(self) -> dict:
        """Return observability counters for the underlying LRU."""
        return {
            "hits": self._contexts.hits,
            "misses": self._contexts.misses,
            "evictions": self._contexts.evictions,
            "size": len(self._contexts),
            "maxsize": self._contexts.maxsize,
            "rebind_fallbacks": self.rebind_fallbacks,
            "memory_bytes": self.memory_bytes(),
            "memory_budget_bytes": self.memory_budget_bytes,
            "oracle_bytes": self.oracle_bytes(),
            "block_memo_bytes": self.block_memo_bytes(),
            "distance_oracle": self.oracle_stats.as_dict(),
        }

    def oracle_bytes(self) -> int:
        """Total bytes held by the cached contexts' distance-oracle rows.

        The oracle-side slice of :meth:`memory_bytes`; shared oracles are
        counted once.  Exported as
        ``repro_memory_held_bytes{component="distance_oracle"}``.
        """
        return self._distinct_bytes("_oracle")

    def block_memo_bytes(self) -> int:
        """Total bytes held by the cached contexts' block memos.

        The classification slice of :meth:`memory_bytes`; a memo shared
        along an ``apply_delta`` chain is counted once.  Exported as
        ``repro_memory_held_bytes{component="block_memo"}``.
        """
        return self._distinct_bytes("_blocks")

    def _distinct_bytes(self, attribute: str) -> int:
        """Sum ``bytes_held()`` over the distinct stores named ``attribute``."""
        seen: set = set()
        total = 0
        for context in self._contexts.values():
            store = getattr(context, attribute, None)
            if store is not None and id(store) not in seen:
                seen.add(id(store))
                total += store.bytes_held()
        return total

    def oracle_rows(self) -> int:
        """Total BFS rows held by the cached contexts' distance oracles.

        A *capacity* number, not a traffic counter: it is what a leak
        monitor (:mod:`repro.load.soak`) watches for unbounded growth.
        Contexts whose oracle was never forced stay at zero rows; shared
        oracles (``apply_delta`` chains) are counted once.
        """
        seen: set = set()
        rows = 0
        for context in self._contexts.values():
            oracle = getattr(context, "_oracle", None)
            if oracle is not None and id(oracle) not in seen:
                seen.add(id(oracle))
                rows += oracle.rows_cached()
        return rows

    def __len__(self) -> int:
        return len(self._contexts)
