"""Separator-local classification: biconnected blocks and the block memo.

Every class Theorem 1 recognises -- the ``(m, n)``-chordalities, the
side-chordalities and the side-conformalities -- is defined through
cycles, chords and shared-neighbour structures, and all of those live
entirely inside one *biconnected component* (block) of the schema graph:
a cycle never crosses a cut vertex, a chord joins two vertices of the
cycle it chords, and the hubs witnessing (non-)conformality are pinned to
their cliques by cycles of their own.  Hence the decomposition this
module exploits::

    property(G)  ==  AND over blocks B of G:  property(B)

for every field of :class:`~repro.core.classification.ChordalityReport`
(the test-suite re-validates the equivalence property-based).

:class:`BlockClassifier` is the one production classification path: a
cold :class:`~repro.engine.cache.SchemaContext` classifies through it, and
the same memo then travels down the context's ``apply_delta`` chain.  Cut
vertices act as the "local separators" of incremental recognition: a
single-edge edit touches one block (or merges the blocks along one path of
the block tree), so only the blocks the memo has never seen are
classified, each by the near-linear hierarchy walk of
:func:`~repro.core.classification.classify_bipartite_graph`.  On a shared
2-core Xeon VM, the 515-vertex acceptance schema (293 blocks of <= 9
edges) classifies cold in about 20 ms, and one giant (6,1)-chordal block
of 413 edges in under 10 ms (experiment CL1 in
``benchmarks/bench_classification.py``).
"""

from __future__ import annotations

import sys
from dataclasses import fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.classification import ChordalityReport, classify_bipartite_graph
from repro.engine.cache import LRUCache, tokens_for
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph, Vertex

Edge = Tuple[Vertex, Vertex]

#: One shared instance per distinct report, for every memo entry to point at.
_REPORTS: Dict[ChordalityReport, ChordalityReport] = {}

#: Bytes one memo entry adds to the LRU beyond its key: the ordered
#: dict's entry and link node (tracemalloc-measured on CPython 3.10-3.12).
_LRU_SLOT_BYTES = 100


def biconnected_edge_blocks(graph: Graph) -> List[List[Edge]]:
    """Return the biconnected components of ``graph`` as edge lists.

    Iterative Hopcroft--Tarjan over the deterministic repr-sorted vertex
    and neighbour order, so the same graph always yields the same block
    list.  Every edge appears in exactly one block (a bridge forms a
    two-vertex block of its own); isolated vertices appear in none.
    """
    index: Dict[Vertex, int] = {}
    low: Dict[Vertex, int] = {}
    counter = 0
    edge_stack: List[Edge] = []
    blocks: List[List[Edge]] = []
    for root in graph.sorted_vertices():
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        dfs: List[Tuple[Vertex, Optional[Vertex], Iterable[Vertex]]] = [
            (root, None, iter(sorted(graph.neighbors(root), key=repr)))
        ]
        while dfs:
            vertex, parent, neighbors = dfs[-1]
            descended = False
            for neighbor in neighbors:
                if neighbor == parent:
                    continue
                if neighbor not in index:
                    edge_stack.append((vertex, neighbor))
                    index[neighbor] = low[neighbor] = counter
                    counter += 1
                    dfs.append(
                        (neighbor, vertex,
                         iter(sorted(graph.neighbors(neighbor), key=repr)))
                    )
                    descended = True
                    break
                if index[neighbor] < index[vertex]:
                    edge_stack.append((vertex, neighbor))
                    low[vertex] = min(low[vertex], index[neighbor])
            if descended:
                continue
            dfs.pop()
            if dfs:
                above = dfs[-1][0]
                low[above] = min(low[above], low[vertex])
                if low[vertex] >= index[above]:
                    # (above, vertex) closes one block
                    block: List[Edge] = []
                    while edge_stack:
                        edge = edge_stack.pop()
                        block.append(edge)
                        if edge == (above, vertex):
                            break
                    blocks.append(block)
    return blocks


def block_subgraph(graph: Graph, edges: Sequence[Edge]) -> Graph:
    """Return one block as a standalone graph, preserving bipartition labels."""
    members = set()
    for u, v in edges:
        members.add(u)
        members.add(v)
    if isinstance(graph, BipartiteGraph):
        return BipartiteGraph(
            left=[v for v in members if graph.side_of(v) == 1],
            right=[v for v in members if graph.side_of(v) == 2],
            edges=edges,
        )
    return Graph(vertices=members, edges=edges)


def combine_reports(reports: Iterable[ChordalityReport]) -> ChordalityReport:
    """AND-combine per-block reports into the whole-graph report.

    The conjunction over an empty iterable is the all-true report, which
    is exactly the classification of an edgeless graph.
    """
    values = {f.name: True for f in fields(ChordalityReport)}
    for report in reports:
        for name in values:
            values[name] = values[name] and getattr(report, name)
    return ChordalityReport(**values)


class BlockClassifier:
    """Memoised blockwise Theorem 1 classification.

    One classifier accompanies one schema lineage (it travels along
    :meth:`~repro.engine.cache.SchemaContext.apply_delta` chains): blocks
    are keyed by a canonical structural key built from the vertices'
    ``(type, repr)`` tokens, so a block that survives an edit -- by far
    the common case -- is never reclassified.  A block whose distinct
    vertices collide on their tokens cannot be keyed trustworthily; it is
    classified on the spot and *not* memoised, mirroring the ambiguity
    fallback of :func:`~repro.engine.cache.schema_fingerprint`.

    The memo is an LRU that :meth:`classify` grows to twice the block
    count of the graph it classifies, so a schema with more blocks than
    the initial ``maxsize`` never evicts its own blocks during one pass
    (which would reclassify every block on every later call).

    :meth:`bytes_held` tracks what the memo holds (each entry is sized
    from its key when it is stored).  A :class:`~repro.engine.cache.SchemaContext`
    built with a memory budget hands it to :attr:`memory_budget_bytes`;
    the memo then evicts least-recently-used blocks to fit, always
    keeping the newest, exactly like the distance oracle's rows.  A
    schema whose blocks do not all fit reclassifies the evicted ones on
    its next edit: bounded memory, paid for in time.

    Examples
    --------
    >>> from repro.graphs import BipartiteGraph
    >>> g = BipartiteGraph(left=["A", "B"], right=[1], edges=[("A", 1), ("B", 1)])
    >>> classifier = BlockClassifier()
    >>> classifier.classify(g).chordal_41
    True
    >>> classifier.stats()["blocks_classified"]
    1
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self._memo = LRUCache(maxsize=maxsize)
        self._classified = 0
        self._unkeyed = 0
        self._bytes = 0
        #: Optional byte bound on the memo (``None`` = bounded by count only).
        self.memory_budget_bytes: Optional[int] = None

    def classify(self, graph: BipartiteGraph) -> ChordalityReport:
        """Return the whole-graph :class:`ChordalityReport`, blockwise-memoised.

        Equal (by construction of the block decomposition) to
        :func:`~repro.core.classification.classify_bipartite_graph` on the
        same graph; only blocks not seen before are actually classified.
        """
        blocks = biconnected_edge_blocks(graph)
        self._memo.maxsize = max(self._memo.maxsize, 2 * len(blocks))
        reports = []
        for edges in blocks:
            key = _block_key(graph, edges)
            if key is None:
                self._unkeyed += 1
                self._classified += 1
                reports.append(classify_bipartite_graph(block_subgraph(graph, edges)))
                continue
            report = self._memo.get(key)
            if report is None:
                report = classify_bipartite_graph(block_subgraph(graph, edges))
                # at most 2**7 distinct reports exist: entries share them
                report = _REPORTS.setdefault(report, report)
                self._store(key, report)
                self._classified += 1
            reports.append(report)
        return combine_reports(reports)

    def _store(self, key: Tuple, report: ChordalityReport) -> None:
        """Memoise one block, evicting LRU blocks by count and by bytes."""
        size = _entry_nbytes(key)
        budget = self.memory_budget_bytes
        memo = self._memo
        while len(memo) and (
            len(memo) >= memo.maxsize
            or (budget is not None and self._bytes + size > budget)
        ):
            old_key, _ = memo.pop_oldest_item()
            self._bytes -= _entry_nbytes(old_key)
        memo.put(key, report)
        self._bytes += size

    def bytes_held(self) -> int:
        """Return the bytes the memo holds (keys plus their LRU slots)."""
        return self._bytes

    def stats(self) -> dict:
        """Return observability counters (memo hits/misses, work actually done)."""
        return {
            "hits": self._memo.hits,
            "misses": self._memo.misses,
            "evictions": self._memo.evictions,
            "size": len(self._memo),
            "bytes": self._bytes,
            "blocks_classified": self._classified,
            "unkeyed_blocks": self._unkeyed,
        }


def _block_key(graph: Graph, edges: Sequence[Edge]) -> Optional[Tuple]:
    """Return the canonical memo key of one block, or ``None`` when ambiguous.

    The key covers the block's vertex tokens (with bipartition side) and
    its edge token pairs; ``None`` signals a ``(type, repr)`` collision
    among the block's vertices -- the same ambiguity rule
    :func:`~repro.engine.cache.schema_fingerprint` applies graph-wide,
    via the same :func:`~repro.engine.cache.tokens_for` helper.
    """
    tokens = tokens_for(
        vertex for edge in edges for vertex in edge
    )
    if tokens is None:
        return None
    bipartite = isinstance(graph, BipartiteGraph)
    vertex_part = frozenset(
        (token, graph.side_of(vertex) if bipartite else None)
        for vertex, token in tokens.items()
    )
    # an edge is its token pair in sorted order: canonical like a
    # frozenset, at a quarter of the bytes
    edge_part = frozenset(
        (a, b) if a < b else (b, a)
        for a, b in ((tokens[u], tokens[v]) for u, v in edges)
    )
    return (vertex_part, edge_part)


def _entry_nbytes(key: Tuple) -> int:
    """Return the bytes one memo entry holds, sized from its key.

    Counts every object the key owns -- the two frozensets, one
    ``(token, side)`` tuple plus its token and both token strings per
    vertex, one pair per edge (whose tokens the vertex part already
    counted) -- plus the LRU slot.  Reports are shared, so they add
    nothing per entry.
    """
    getsizeof = sys.getsizeof
    vertex_part, edge_part = key
    total = (
        _LRU_SLOT_BYTES
        + getsizeof(key)
        + getsizeof(vertex_part)
        + getsizeof(edge_part)
    )
    for entry in vertex_part:
        token = entry[0]
        total += (
            getsizeof(entry)
            + getsizeof(token)
            + getsizeof(token[0])
            + getsizeof(token[1])
        )
    for pair in edge_part:
        total += getsizeof(pair)
    return total
