"""The cross-query distance oracle: BFS rows cached across queries and edits.

A schema serves streams of queries whose terminal sets overlap heavily;
every one of them used to re-run single-source BFS from each terminal.
:class:`DistanceOracle` ends that: it is a per-schema-context LRU of
distance and parent rows (flat ``array('i')``, produced by the kernels in
:mod:`repro.kernels.bfs` through the lane object of
:mod:`repro.kernels.backend`, so a profiler wrapping the lane's methods
sees every fill) keyed by source id.  Because a
:class:`~repro.engine.cache.SchemaContext` snapshots one immutable
structure per ``mutation_version``, a row cached here can never be stale
within its context -- the effective cache key is ``(source,
mutation_version)``.

Across versions the oracle is *inherited* rather than dropped:
:meth:`~repro.engine.cache.SchemaContext.apply_delta` calls
:meth:`DistanceOracle.inherit` with the edited edge set, and only the
rows whose source lies in a touched connected component are invalidated.
The granularity argument is the same separator-local one PR 4's
:class:`~repro.dynamic.blocks.BlockClassifier` rests on: an edge edit
lives inside one biconnected block, distances from a source only involve
the source's connected component, and the touched block's component is
exactly the set of sources whose rows the edit can change.  Every row in
any other component survives verbatim (the edit neither added nor removed
anything reachable from it).

Counters (``hits`` / ``misses`` / ``evictions`` / ``invalidated``) are
accumulated on a shared :class:`OracleStats` so
``ConnectionService.cache_stats()["distance_oracle"]`` reports the
whole engine's oracle behaviour, mirroring the ``rebind_fallbacks``
pattern of :class:`~repro.engine.cache.SchemaCache`.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Iterable, List, Optional, Set

from repro.graphs.indexed import IndexedGraph
from repro.kernels.backend import resolve_backend
from repro.kernels.bfs import KernelScratch


class OracleStats:
    """Shared mutable counters for every oracle of one engine cache.

    One instance travels with a :class:`~repro.engine.cache.SchemaCache`
    and is handed to each context's oracle, so the counters survive
    context eviction and ``apply_delta`` re-derivation -- exactly like
    the cache-level ``rebind_fallbacks`` counter.
    """

    __slots__ = ("hits", "misses", "evictions", "invalidated")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0

    def as_dict(self) -> dict:
        """Return the counters as a plain JSON-friendly dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
        }

    @property
    def hit_rate(self) -> Optional[float]:
        """Hits over lookups (``None`` before the first lookup)."""
        lookups = self.hits + self.misses
        if lookups == 0:
            return None
        return self.hits / lookups


def _row_bytes(row: Optional[array]) -> int:
    """Bytes held by one cached row (0 for an unmaterialised slot)."""
    if row is None:
        return 0
    return len(row) * row.itemsize


def _entry_bytes(entry: List[Optional[array]]) -> int:
    """Bytes held by one ``[levels, parents]`` source entry."""
    return _row_bytes(entry[0]) + _row_bytes(entry[1])


class DistanceOracle:
    """LRU of per-source BFS distance/parent rows on one immutable graph.

    Parameters
    ----------
    indexed:
        The CSR/bitset backend the rows are computed on.
    stats:
        A shared :class:`OracleStats`; a private one is created when the
        oracle is used standalone.
    maxsize:
        Maximum number of *sources* kept (each source holds its distance
        row and, when requested, its parent row).
    memory_budget_bytes:
        Optional hard bound on the bytes held by cached rows.  Each
        materialised row costs ``4 * n`` bytes; when an insert pushes
        :meth:`bytes_held` past the budget, least-recently-used sources
        are evicted (counted in ``stats.evictions``) until the oracle
        fits again -- the most recent source always survives, so a
        budget smaller than one row degrades to compute-every-time
        instead of failing.

    Examples
    --------
    >>> from repro.graphs.indexed import IndexedGraph
    >>> g = IndexedGraph(3, edges=[(0, 1), (1, 2)])
    >>> oracle = DistanceOracle(g)
    >>> list(oracle.levels(0))
    [0, 1, 2]
    >>> oracle.stats.hits, oracle.stats.misses
    (0, 1)
    """

    __slots__ = (
        "indexed",
        "stats",
        "maxsize",
        "memory_budget_bytes",
        "scratch",
        "_rows",
        "_bytes",
        "_components",
    )

    def __init__(
        self,
        indexed: IndexedGraph,
        stats: Optional[OracleStats] = None,
        maxsize: int = 1024,
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        if memory_budget_bytes is not None and memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be positive (or None)")
        self.indexed = indexed
        self.stats = stats if stats is not None else OracleStats()
        self.maxsize = maxsize
        self.memory_budget_bytes = memory_budget_bytes
        self.scratch = KernelScratch(indexed.n)
        # source id -> [levels row | None, parents row | None]
        self._rows: "OrderedDict[int, List[Optional[array]]]" = OrderedDict()
        self._bytes = 0
        self._components: Optional[array] = None

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def levels(self, source: int) -> array:
        """Return the cached BFS distance row from ``source`` (do not mutate)."""
        entry = self._entry(source)
        if entry[0] is None:
            # a source entry may exist with only the other row kind
            # materialised; count hit/miss by the BFS actually saved
            self.stats.misses += 1
            entry[0] = resolve_backend().bfs_levels_row(self.indexed, source, self.scratch)
            self._bytes += _row_bytes(entry[0])
            self._enforce_budget()
        else:
            self.stats.hits += 1
        return entry[0]

    def parents(self, source: int) -> array:
        """Return the cached BFS parent row from ``source`` (do not mutate).

        Parent rows carry the exact discovery-order semantics of
        :meth:`~repro.graphs.indexed.IndexedGraph.bfs_parents`, so a
        solver switching from the raw method to the oracle returns
        byte-identical trees.
        """
        entry = self._entry(source)
        if entry[1] is None:
            self.stats.misses += 1
            entry[1] = resolve_backend().bfs_parents_row(self.indexed, source, self.scratch)
            self._bytes += _row_bytes(entry[1])
            self._enforce_budget()
        else:
            self.stats.hits += 1
        return entry[1]

    def bytes_held(self) -> int:
        """Return the bytes currently held by cached rows (both kinds)."""
        return self._bytes

    def _entry(self, source: int) -> List[Optional[array]]:
        """Return (creating if absent) the ``[levels, parents]`` slot of a source.

        Hit/miss accounting happens in the callers per row *kind* -- an
        entry holding only the other kind's row has not saved a BFS.
        """
        rows = self._rows
        entry = rows.get(source)
        if entry is not None:
            rows.move_to_end(source)
            return entry
        entry = [None, None]
        rows[source] = entry
        while len(rows) > self.maxsize:
            self._evict_oldest()
        return entry

    def _evict_oldest(self) -> None:
        """Drop the least-recently-used source and release its bytes."""
        _, dropped = self._rows.popitem(last=False)
        self._bytes -= _entry_bytes(dropped)
        self.stats.evictions += 1

    def _enforce_budget(self) -> None:
        """Evict LRU sources until the byte budget holds (keep the newest)."""
        budget = self.memory_budget_bytes
        if budget is None:
            return
        while self._bytes > budget and len(self._rows) > 1:
            self._evict_oldest()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def component_labels(self) -> array:
        """Return (lazily computing) the component id of every vertex.

        One linear sweep labels each vertex with the smallest vertex id
        of its connected component; the labels drive the selective
        invalidation of :meth:`inherit`.
        """
        if self._components is None:
            indexed = self.indexed
            labels = array("i", [0] * indexed.n)
            rows = indexed._rows
            seen = bytearray(indexed.n)
            for start in range(indexed.n):
                if seen[start]:
                    continue
                seen[start] = 1
                labels[start] = start
                frontier = [start]
                while frontier:
                    nxt: List[int] = []
                    for current in frontier:
                        for neighbor in rows[current]:
                            if not seen[neighbor]:
                                seen[neighbor] = 1
                                labels[neighbor] = start
                                nxt.append(neighbor)
                    frontier = nxt
            self._components = labels
        return self._components

    def rows_cached(self) -> int:
        """Return how many sources currently hold a cached row."""
        return len(self._rows)

    # ------------------------------------------------------------------
    # incremental evolution
    # ------------------------------------------------------------------
    def inherit(
        self, new_indexed: IndexedGraph, touched_ids: Iterable[int]
    ) -> "DistanceOracle":
        """Return the oracle for an edge-only edited graph, keeping safe rows.

        ``touched_ids`` are the endpoints (old = new ids; the delta is
        edge-only so the vertex set and the id assignment are unchanged)
        of every added or removed edge.  A cached row survives exactly
        when its source's connected component -- in the *old* graph --
        contains no touched vertex: such a component kept its entire
        vertex and edge set, so both the distances and the
        discovery-order parents are unchanged, including the ``-1``
        entries for everything outside it.  Rows in touched components
        are dropped and counted as ``invalidated``.
        """
        successor = DistanceOracle(
            new_indexed,
            stats=self.stats,
            maxsize=self.maxsize,
            memory_budget_bytes=self.memory_budget_bytes,
        )
        labels = self.component_labels()
        touched_components: Set[int] = {
            labels[v] for v in touched_ids if 0 <= v < self.indexed.n
        }
        for source, entry in self._rows.items():
            if labels[source] in touched_components:
                self.stats.invalidated += 1
            else:
                successor._rows[source] = entry
                successor._bytes += _entry_bytes(entry)
        return successor

    def drop_all(self) -> None:
        """Invalidate every cached row (vertex churn re-keys all ids)."""
        self.stats.invalidated += len(self._rows)
        self._rows.clear()
        self._bytes = 0

    def stats_dict(self) -> dict:
        """Return the shared counters plus this oracle's current size."""
        data = self.stats.as_dict()
        data["rows"] = len(self._rows)
        data["bytes"] = self._bytes
        data["memory_budget_bytes"] = self.memory_budget_bytes
        return data
