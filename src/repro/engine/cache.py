"""Schema-level precomputation cache for the interpretation engine.

The per-query cost of the paper's algorithms is dominated by work that
only depends on the *schema graph*, not on the terminal set: the
chordality classification (Theorem 1 recognition), the conversion to the
indexed backend, BFS distance rows, and the Lemma 1 elimination orderings.
:class:`SchemaContext` bundles those precomputations for one schema and
computes each lazily exactly once; :class:`SchemaCache` is a small LRU of
contexts keyed by the canonical bytes of the schema graph, so
repeated :class:`~repro.api.service.ConnectionService` requests on the
same schema (even through different ``BipartiteGraph`` instances with
equal structure) reuse everything.

Cache keys
----------
Every context owns one canonical byte key, :attr:`SchemaContext.fingerprint`:
a token per vertex (its type and ``repr``) in id order, then the CSR and
the bipartition (layout in :func:`_key`).  Ids follow
:func:`~repro.graphs.indexed.id_order`, a function of the vertex set, so
the key is *structural*: two graphs share a context exactly when their
bytes are equal -- the bytes are the LRU key, so no hash collision can
merge two schemas -- and a mutation changes the key, which makes the
engine rebuild (stale contexts age out of the LRU).  The key's SHA-256,
:attr:`SchemaContext.digest`, addresses the persistent layer and is
stable across processes and platforms.  Each context snapshots a private
copy of its graph, so a cached entry stays valid when the supplied graph
object is mutated later.

Because ``repr`` is not injective, a graph whose distinct vertices
collide on their tokens (e.g. two instances of a class with a constant
``__repr__``) cannot be keyed structurally at all: such *ambiguous*
schemas fall back to identity keys that never match anything else, so
they are always rebuilt rather than ever sharing a context (or a disk
entry) with a different schema that merely prints the same.
"""

from __future__ import annotations

import hashlib
import sys
import uuid
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

# classify_bipartite_graph stays bound here although contexts classify
# blockwise: the per-layer tracing of perfbench/tracing.py patches this name
from repro.core.classification import ChordalityReport, classify_bipartite_graph  # noqa: F401
from repro.dynamic.blocks import BlockClassifier, BlockCutTree, BlockRecords
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph, Vertex
from repro.graphs.indexed import (
    GraphIndex,
    IndexedGraph,
    id_order,
    indexed_in_order,
    prefix_free,
    type_name,
)
from repro.hypergraphs.reduction import running_intersection_order
from repro.kernels.oracle import DistanceOracle, OracleStats
from repro.steiner.problem import OnIds


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
        if not self._data:
            return None
        self.evictions += 1
        return self._data.popitem(last=False)[1]

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def values(self) -> List:
        """Return the cached values, coldest first (no recency effect)."""
        return list(self._data.values())


#: Prefix of the never-repeating keys and digests of ambiguous schemas.  A
#: canonical key starts with the 8-byte length of its token section, which
#: could only spell ``ambiguou`` for a section of some 8 * 10**18 bytes.
AMBIGUOUS_PREFIX = "ambiguous-"


def fingerprint_is_ambiguous(key: bytes) -> bool:
    """Return ``True`` when ``key`` is a never-repeating identity key.

    Such keys can never be looked up again, so caching anything under one
    only evicts useful entries -- :class:`SchemaCache` skips insertion.
    """
    return key.startswith(AMBIGUOUS_PREFIX.encode("ascii"))


def digest_is_ambiguous(digest: str) -> bool:
    """Return ``True`` when ``digest`` addresses an ambiguous schema.

    Such digests are unique per context (see :attr:`SchemaContext.digest`):
    correct to key in-memory transports on, useless to persist under.
    """
    return digest.startswith(AMBIGUOUS_PREFIX)


def _blob(text: str) -> bytes:
    """Return ``text`` in UTF-8, length-prefixed so no ``repr`` can forge a boundary.

    Surrogates pass through unreplaced, so distinct strings never encode alike.
    """
    data = text.encode("utf-8", "surrogatepass")
    return len(data).to_bytes(8, "little") + data


def _tokens(
    labels: List[Vertex], reprs: List[str], found: Optional[List[int]] = None, parent=None
) -> List[bytes]:
    """Return the vertex tokens of ``labels``, whose reprs are ``reprs``.

    A token is the blob of the vertex's :func:`type_name` followed by the
    blob of its ``repr``.  With a ``parent`` context and ``found`` from
    :func:`_found`, a vertex the parent holds as the very object keeps
    the parent's token, and only the others are encoded.
    """
    kinds: Dict[type, bytes] = {}

    def encode(vertex: Vertex, text: str) -> bytes:
        kind = kinds.get(type(vertex))
        if kind is None:
            kind = kinds[type(vertex)] = _blob(type_name(vertex))
        return kind + _blob(text)

    if parent is None:
        return list(map(encode, labels, reprs))
    tokens = _carried(parent._tokens, found)
    at = -1
    try:
        while True:  # the few vertices the parent does not hold
            at = found.index(-1, at + 1)
            tokens[at] = encode(labels[at], reprs[at])
    except ValueError:
        return tokens


def _found(labels: List[Vertex], parent_index: GraphIndex) -> List[int]:
    """Return, per label, the parent's id of that very object, or ``-1``.

    Identity, not equality: ``1 == 1.0``.  One pass over the vertices
    tells a vertex-churn edit which per-vertex values it inherits.
    """
    ids, known = parent_index.ids, parent_index.labels
    return [
        at if (at := ids.get(vertex)) is not None and known[at] is vertex else -1
        for vertex in labels
    ]


def _carried(values: List, found: List[int]) -> List:
    """Return ``values[found[i]]`` per ``i``, ``None`` where ``found[i] == -1``."""
    return list(map([*values, None].__getitem__, found))


def _le64(values: array) -> bytes:
    """Return ``values`` as 8-byte little-endian integers."""
    if values.itemsize != 8 or sys.byteorder != "little":
        values = array("q", values)
        if sys.byteorder != "little":
            values.byteswap()
    return values.tobytes()


def _key(tokens: List[bytes], indexed: IndexedGraph, ambiguous: bool) -> bytes:
    """Return the canonical key of a schema: its tokens in id order, then its CSR.

    The layout is the byte length of the token section, the tokens,
    ``indptr`` and ``indices`` as 8-byte little-endian integers, then
    ``b"\\x01"`` and one byte per side for a bipartite graph (``b"\\x00"``
    otherwise).  Every part is self-delimiting, so equal keys mean equal
    tokens, CSR and sides.  An ``ambiguous`` schema (two vertices share a
    token) gets a fresh identity key instead.
    """
    if ambiguous:
        return f"{AMBIGUOUS_PREFIX}{uuid.uuid4().hex}".encode("ascii")
    section = b"".join(tokens)
    head = len(section).to_bytes(8, "little")
    sides = b"\x00" if indexed.sides is None else b"\x01" + indexed.sides.tobytes()
    return b"".join((head, section, _le64(indexed.indptr), _le64(indexed.indices), sides))


def _digest(key: bytes) -> str:
    """Return the SHA-256 hex of a key; an ambiguous key's own text."""
    if fingerprint_is_ambiguous(key):
        return key.decode("ascii")
    return hashlib.sha256(key).hexdigest()


def _canonical_form(graph: Graph, parent=None) -> Tuple:
    """Return ``(indexed, index, tokens, key)`` for a schema graph.

    The vertices are ordered and their reprs taken once, which also gives
    the index its :attr:`~repro.graphs.indexed.GraphIndex.repr_sorted`.
    ``parent`` (a context) lends its tokens as :func:`_tokens` describes,
    and its label table's wire fragments the same way, so no vertex-churn
    edit re-encodes the labels it keeps.
    """
    labels, reprs = id_order(graph)
    indexed, index = indexed_in_order(graph, labels)
    index._repr_sorted = prefix_free(reprs)  # as to_indexed sets it
    if parent is None:
        tokens = _tokens(labels, reprs)
    else:
        found = _found(labels, parent.index)
        tokens = _tokens(labels, reprs, found, parent)
        if parent.index.fragments is not None:
            index.fragments = _carried(parent.index.fragments, found)
    return indexed, index, tokens, _key(tokens, indexed, len(set(tokens)) < len(tokens))


def schema_fingerprint(graph: Graph) -> bytes:
    """Return the canonical key of a schema graph (:attr:`SchemaContext.fingerprint`).

    Equal graphs (same vertices by ``(type, repr)`` token, same edges,
    same bipartition) get equal keys, in any process.  A graph whose
    distinct vertices *collide* on their tokens is ambiguous -- no
    repr-based key can distinguish it from a structurally different
    schema that prints the same -- so it gets a fresh identity key on
    every call: such schemas never share a cached context with anything
    (including themselves), trading cache hits for correctness.
    """
    return _canonical_form(graph)[3]


def schema_digest(graph: Graph) -> str:
    """Return the disk digest of a schema graph (:attr:`SchemaContext.digest`).

    The SHA-256 of :func:`schema_fingerprint`: mutating a graph changes it,
    which invalidates everything the persistent layer stored under it.  An
    ambiguous graph gets a random digest per call, marked by
    :data:`AMBIGUOUS_PREFIX`; callers that *store* by digest check
    :func:`digest_is_ambiguous` first and skip persistence.
    """
    return _digest(_canonical_form(graph)[3])


@dataclass(frozen=True)
class SidePlan:
    """Cached Algorithm 1 precomputation for one connected component.

    ``component`` holds the ids of the component, ``ordering`` the Lemma 1
    elimination ordering on ids -- ``None`` when ``H_side`` of the
    component is alpha-cyclic, i.e. not ``V_side``-chordal and conformal,
    so Algorithm 1 does not apply -- and ``blocks`` the context's one
    block-cut forest on ids (:class:`~repro.dynamic.blocks.BlockCutTree`,
    with the masks of the blocks queries touched), which :meth:`region`
    and Step 2's block scan read.
    """

    component: FrozenSet[int]
    ordering: Optional[Tuple[int, ...]]
    blocks: BlockCutTree

    @cached_property
    def ordering_ids(self) -> OnIds:
        """The ordering as the answers' ``metadata["ordering"]`` value.

        One instance per plan, shared by every answer the plan gives, so
        the wire renders the ordering's text once per plan; each answer's
        metadata decodes its own label list on first read.
        """
        return OnIds(self.ordering, list)

    def region(self, terminal_ids: List[int]) -> Iterable[int]:
        """Return the ids Step 2 of Algorithm 1 must scan for ``terminal_ids``.

        The vertices of the blocks on the block-cut-tree paths between the
        terminals: every simple path between two terminals stays inside
        them.  With fewer than two terminals it is the whole component: no
        path confines the scan then, and the batch rule keeps a vertex
        whose only alive neighbour is the lone terminal, so the cover
        depends on the order in which the whole component is scanned.
        The served scan decides each removal inside one of these blocks;
        ``indexed_elimination_cover(restrict=region(...))`` is its
        reference.
        """
        if len(terminal_ids) < 2:
            return self.component
        return self.blocks.span(terminal_ids)


class SchemaContext:
    """All schema-level precomputations the engine reuses across queries.

    :attr:`fingerprint` is the context's canonical key (``bytes``, see the
    module notes) and :attr:`digest` its SHA-256, the disk address of
    whatever is computed on this context.
    """

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
        # a cold SchemaCache.lookup hands over the form it keyed on, so the
        # vertices are ordered and encoded once (see lookup)
        form = self.__dict__.pop("_form", None) or _canonical_form(self.graph)
        self.indexed: IndexedGraph = form[0]
        self.index: GraphIndex = form[1]
        self._tokens: List[bytes] = form[2]
        self.fingerprint: bytes = form[3]
        self._report = report
        self._side_plans: Dict[Tuple[int, int], SidePlan] = {}
        self._components: Optional[List[FrozenSet[int]]] = None
        # blockwise classifier: the cold report classifies through it, and
        # it is shared (by reference) along every apply_delta chain rooted
        # here, so its counter covers the whole lineage
        self._blocks = BlockClassifier()
        # the blocks on ids, and their block-cut forest (first side plan)
        self._records: Optional[BlockRecords] = None
        self._block_cut: Optional[BlockCutTree] = None
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

        Computed blockwise, by building the context's block records.
        """
        if self._report is None:
            self._report = self._block_records().report()
        return self._report

    @cached_property
    def digest(self) -> str:
        """The SHA-256 hex of :attr:`fingerprint` (computed once).

        Everything the persistent layer stores for this context goes under
        it, so a report or result is addressed by the structure it was
        computed on.  An ambiguous context's digest is its identity key's
        text (see :func:`digest_is_ambiguous`).
        """
        return _digest(self.fingerprint)

    def _block_records(self) -> BlockRecords:
        """Return the block records on ids, built and classified on first use.

        A context whose report came from disk builds them on its first
        edit or side plan.
        """
        if self._records is None:
            self._records = self._blocks.classify(self.indexed)
        return self._records

    # ------------------------------------------------------------------
    # incremental evolution (repro.dynamic)
    # ------------------------------------------------------------------
    def apply_delta(self, delta) -> "SchemaContext":
        """Return a new context for the edited schema without a full rebuild.

        ``delta`` is a :class:`~repro.dynamic.delta.SchemaDelta` (net
        edits relative to this context's snapshot graph).  The returned
        context is observably equivalent to
        ``SchemaContext(edited_graph)`` -- same graph, same indexed
        backend, same classification, same key -- but derived
        incrementally:

        * the snapshot graph is copied (one set copy per row) and patched;
        * the CSR backend is patched from the old arrays plus the delta's
          edge changes (the label index is reused verbatim when the vertex
          set did not change; vertex churn re-derives it);
        * the context's :class:`~repro.dynamic.blocks.BlockRecords` on ids
          are patched (:meth:`~repro.dynamic.blocks.BlockRecords.patched`):
          only the blocks the edit created are classified, through the
          lineage's shared :class:`~repro.dynamic.blocks.BlockClassifier`;
        * the vertex tokens are the parent's, and a vertex the edit added
          is the only one encoded; the key is rebuilt from the tokens and
          the patched CSR;
        * the distance oracle keeps only the rows outside the touched
          component (all of them are dropped on vertex churn), and the
          side plans and components start empty: a structural edit can
          shift distances and components globally, and they re-amortise
          across the next queries.

        The original context is not modified (version-keyed callers such
        as the engine LRU may still be holding it); the block classifier
        is shared by reference, which only ever adds to its counter.
        """
        records = self._block_records()
        new_graph = self.graph.copy()
        delta.apply_to(new_graph)
        context = SchemaContext.__new__(SchemaContext)
        context.graph = new_graph
        context._oracle_stats = self._oracle_stats
        context._oracle = None
        context._memory_budget = self._memory_budget
        if delta.added_vertices or delta.removed_vertices:
            form = _canonical_form(new_graph, self)
            context.indexed, context.index, context._tokens, context.fingerprint = form
            # vertex churn re-keys every id: nothing the old oracle holds
            # is addressable any more, so the whole row set is lost
            if self._oracle is not None:
                self._oracle.stats.invalidated += self._oracle.rows_cached()
        else:
            context.index = self.index
            context.indexed = _patch_indexed(self.indexed, self.index, delta)
            context._tokens = self._tokens
            context.fingerprint = _key(
                self._tokens, context.indexed, fingerprint_is_ambiguous(self.fingerprint)
            )
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
        context._records = records.patched(
            delta, self.index, context.indexed, context.index, self._blocks
        )
        context._block_cut = None
        context._report = context._records.report()
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
        from its next insert on.
        """
        self._memory_budget = memory_budget_bytes
        if self._oracle is not None:
            self._oracle.memory_budget_bytes = memory_budget_bytes

    def memory_bytes(self) -> int:
        """Return the budget-relevant bytes held by this context.

        Counts the canonical CSR storage and the oracle's cached rows --
        the stores that scale with traffic.  Solvers read distances only
        through the oracle, so no uncounted row store exists; the
        remaining memos (side plans, components) hold one entry per
        connected component and side, and are bounded by the schema rather
        than by the traffic.  So are the block records and the block-cut
        forest the side plans share: linear in the schema.
        """
        total = self.indexed.nbytes()
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

        Computes once per component and side, on ids.  The Lemma 1
        ordering is the reversed
        :func:`~repro.hypergraphs.reduction.running_intersection_order` of
        ``H_side``: one edge per ``V_side`` vertex of the component, in
        ascending id (repr) order, which is the order
        :func:`~repro.steiner.algorithm1.lemma1_ordering` returns.  Its
        ``None`` is Theorem 1(v)/(vi)'s verdict that the component is not
        ``V_side``-chordal and conformal.  Every plan reads the context's
        one block-cut forest, built from the block records on the first
        plan.
        """
        component = self.component_ids(vertex_id)
        key = (side, min(component))
        plan = self._side_plans.get(key)
        if plan is None:
            members = sorted(component)
            sides, row = self.indexed.sides, self.indexed.row
            hubs = [vertex for vertex in members if sides[vertex] == side]
            nodes = {
                vertex: node
                for node, vertex in enumerate(v for v in members if sides[v] != side)
            }
            order = running_intersection_order(
                len(nodes), [[nodes[u] for u in row(hub)] for hub in hubs]
            )
            ordering = None if order is None else tuple(hubs[e] for e in reversed(order))
            if self._block_cut is None:
                self._block_cut = BlockCutTree(self._block_records().members.values())
            plan = SidePlan(component=component, ordering=ordering, blocks=self._block_cut)
            self._side_plans[key] = plan
        return plan


def _patch_indexed(indexed: IndexedGraph, index: GraphIndex, delta) -> IndexedGraph:
    """Patch the CSR backend for an edge-only delta, rebuilding touched rows only.

    Only valid when the delta touches no vertices: ids, labels and sides
    stay put, so the new :class:`IndexedGraph` shares every untouched row
    with the old one (both are immutable) and re-sorts only the rows of
    the delta's endpoints -- no pass over every edge and no re-sort of
    every row, unlike a full :func:`to_indexed` or ``IndexedGraph``
    construction.
    """
    ids = index.ids
    rows = list(indexed._rows)
    touched: Dict[int, Set[int]] = {}

    def row_of(vertex: int) -> Set[int]:
        row = touched.get(vertex)
        if row is None:
            row = touched[vertex] = set(rows[vertex])
        return row

    for u, v in delta.removed_edges:
        a, b = ids[u], ids[v]
        row_of(a).discard(b)
        row_of(b).discard(a)
    for u, v in delta.added_edges:
        a, b = ids[u], ids[v]
        row_of(a).add(b)
        row_of(b).add(a)
    for vertex, row in touched.items():
        rows[vertex] = sorted(row)
    return IndexedGraph._from_rows(rows, indexed.sides)


class SchemaCache:
    """LRU of :class:`SchemaContext` objects keyed by their canonical bytes.

    Parameters
    ----------
    maxsize:
        Entry-count bound of the LRU.
    memory_budget_bytes:
        Optional byte bound over the cached contexts (CSR storage +
        oracle rows, see :meth:`SchemaContext.memory_bytes`): when an
        insert pushes :meth:`memory_bytes` past the budget,
        least-recently-used contexts are evicted until the cache fits
        (the newest context always survives).  The same budget is handed
        to each context's oracle, so a single big schema also degrades by
        eviction instead of growing unbounded.
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
        ``report_factory`` takes the new context's :attr:`~SchemaContext.digest`
        and returns its classification report or ``None``; it is consulted
        only on a miss, and never for an ambiguous schema (nothing can be
        stored under a digest that never repeats) -- so callers with an
        *expensive* report source (e.g. a disk read) avoid paying it on the
        hit path.
        """
        form = _canonical_form(graph)
        key = form[3]
        context = self._contexts.get(key)
        if context is not None:
            return context, True
        # the new context adopts the form its key came from
        context = SchemaContext.__new__(SchemaContext)
        context._form = form
        context.__init__(
            graph,
            oracle_stats=self.oracle_stats,
            memory_budget_bytes=self.memory_budget_bytes,
        )
        if not fingerprint_is_ambiguous(key):
            if report_factory is not None:
                context._report = report_factory(context.digest)
            # an ambiguous key can never be looked up again; caching under
            # it would only evict contexts that can
            self._contexts.put(key, context)
            self.enforce_memory_budget()
        return context, False

    def get_or_build(self, graph: BipartiteGraph) -> SchemaContext:
        """Return the cached context for ``graph``, building it on first use."""
        return self.lookup(graph)[0]

    def adopt(self, context: SchemaContext) -> None:
        """Insert a prebuilt context under its own key.

        The service's incremental rebind path adopts the context
        :meth:`SchemaContext.apply_delta` derived, so later lookups of the
        edited structure hit it.  Contexts of ambiguous graphs are not
        insertable (their keys never repeat) and are silently skipped.
        The key is :attr:`SchemaContext.fingerprint`, which an
        ``apply_delta`` child builds from its parent's tokens.
        """
        key = context.fingerprint
        if not fingerprint_is_ambiguous(key):
            context.adopt_oracle_stats(self.oracle_stats)
            context.adopt_kernel_policy(self.memory_budget_bytes)
            self._contexts.put(key, context)
            self.enforce_memory_budget()

    def count_external_hit(self) -> None:
        """Record a context served from a caller-side memo above this cache.

        The :class:`~repro.api.service.ConnectionService` memoises the
        context of an immutable bound schema and skips the key
        lookup entirely; counting those serves here keeps
        :meth:`stats` consistent with the ``cache_hit`` provenance flag.
        """
        self._contexts.hits += 1

    def count_external_miss(self) -> None:
        """Record a context (re)built above this cache without a lookup.

        The service's incremental rebind path derives a patched context
        directly from the previous one (no key lookup happens);
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

        CSR storage plus oracle rows; oracles shared along ``apply_delta``
        chains are counted once.  This is the number the
        ``repro_memory_held_bytes{component="schema_cache"}`` gauge exports
        and :meth:`enforce_memory_budget` bounds.
        """
        total = sum(context.indexed.nbytes() for context in self._contexts.values())
        return total + self.oracle_bytes()

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
            "distance_oracle": self.oracle_stats.as_dict(),
        }

    def oracle_bytes(self) -> int:
        """Total bytes held by the cached contexts' distance-oracle rows.

        The oracle-side slice of :meth:`memory_bytes`; shared oracles are
        counted once.  Exported as
        ``repro_memory_held_bytes{component="distance_oracle"}``.
        """
        return sum(oracle.bytes_held() for oracle in self._oracles())

    def oracle_rows(self) -> int:
        """Total BFS rows held by the cached contexts' distance oracles.

        A *capacity* number, not a traffic counter: it is what a leak
        monitor (:mod:`repro.load.soak`) watches for unbounded growth.
        Contexts whose oracle was never forced stay at zero rows; shared
        oracles (``apply_delta`` chains) are counted once.
        """
        return sum(oracle.rows_cached() for oracle in self._oracles())

    def _oracles(self) -> List[DistanceOracle]:
        """Return the cached contexts' distinct forced oracles."""
        distinct: Dict[int, DistanceOracle] = {}
        for context in self._contexts.values():
            oracle = context._oracle
            if oracle is not None:
                distinct.setdefault(id(oracle), oracle)
        return list(distinct.values())

    def __len__(self) -> int:
        return len(self._contexts)
