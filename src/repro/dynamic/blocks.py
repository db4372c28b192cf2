"""Separator-local classification: biconnected blocks, kept under edits.

Every class Theorem 1 recognises -- the ``(m, n)``-chordalities and the
side alpha-acyclicities (side-chordality plus side-conformality) -- is
defined through cycles, chords and shared-neighbour structures, and all
of those live entirely inside one *biconnected component* (block) of the
schema graph: a cycle never crosses a cut vertex, a chord joins two
vertices of the cycle it chords, and the hubs witnessing
(non-)conformality are pinned to their cliques by cycles of their own.
Hence the decomposition this module exploits::

    property(G)  ==  AND over blocks B of G:  property(B)

for every field of :class:`~repro.core.classification.ChordalityReport`
(the test-suite re-validates the equivalence property-based).

:class:`BlockClassifier` is the one production classification path: a
cold :class:`~repro.engine.cache.SchemaContext` classifies through it,
each block by the near-linear hierarchy walk of
:func:`~repro.core.classification.classify_bipartite_graph`.  Cut
vertices act as the "local separators" of incremental recognition: a
single-edge edit touches one block (or merges the blocks along one path of
the block tree), so :class:`BlockRecords` classifies only the blocks the
edit created.  Nothing is memoised by block: classifying a block costs
less than building a structural key for it would.  On a shared 2-core
Xeon VM, the 515-vertex acceptance schema (293 blocks of <= 9 edges)
classifies cold in about 20 ms, and one giant (6,1)-chordal block of 413
edges in under 10 ms (experiment CL1 in
``benchmarks/bench_classification.py``).

The module imports nothing from :mod:`repro.engine`; the engine's
:class:`~repro.engine.cache.SchemaContext` builds on it.
"""

from __future__ import annotations

import heapq
from dataclasses import fields
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.classification import ChordalityReport, classify_bipartite_graph
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph, Vertex

Edge = Tuple[Vertex, Vertex]


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


class BlockCutTree:
    """The block-cut tree of one connected graph on ids, rooted at its first block.

    Built from the id vertex sets of the graph's blocks.  A cut vertex (in
    two or more blocks) gets a node of its own; every other vertex belongs
    to the node of its only block.  Every simple path between two vertices
    stays inside the blocks on the tree path between their nodes, which is
    what :meth:`span` returns.
    """

    __slots__ = ("node_of", "parent", "depth", "members")

    def __init__(self, blocks: Iterable[Iterable[int]]) -> None:
        members: List[Tuple[int, ...]] = [tuple(sorted(set(b))) for b in blocks]
        blocks_of: Dict[int, List[int]] = {}
        for node, vertices in enumerate(members):
            for vertex in vertices:
                blocks_of.setdefault(vertex, []).append(node)
        adjacency: List[List[int]] = [[] for _ in members]
        #: Vertex id -> its cut node, or the node of its only block.
        self.node_of: Dict[int, int] = {}
        for vertex, nodes in blocks_of.items():
            if len(nodes) == 1:
                self.node_of[vertex] = nodes[0]
                continue
            cut = self.node_of[vertex] = len(members)
            members.append(())
            adjacency.append(nodes)
            for node in nodes:
                adjacency[node].append(cut)
        #: Node -> the ids of its block (empty for a cut node).
        self.members = tuple(members)
        #: Node -> its parent node (the root block is its own parent).
        self.parent = [-1] * len(members)
        self.depth = [0] * len(members)
        order = [0] if members else []
        if members:
            self.parent[0] = 0
        for node in order:  # breadth first from the root block
            for child in adjacency[node]:
                if self.parent[child] < 0:
                    self.parent[child] = node
                    self.depth[child] = self.depth[node] + 1
                    order.append(child)

    def spanned_nodes(self, vertices: Iterable[int]) -> Set[int]:
        """Return the nodes on the tree paths between the nodes of ``vertices``.

        Walks up from each vertex's node, deepest first, until the walks
        meet, so it costs time in proportion to the subtree it spans.
        Every leaf of that subtree is the node of one of ``vertices``.
        """
        parent, depth = self.parent, self.depth
        pending = {self.node_of[vertex] for vertex in vertices}
        spanned = set(pending)
        heap = [(-depth[node], node) for node in pending]
        heapq.heapify(heap)
        while len(pending) > 1:
            node = heapq.heappop(heap)[1]
            pending.discard(node)
            above = parent[node]
            spanned.add(above)
            if above not in pending:
                pending.add(above)
                heapq.heappush(heap, (-depth[above], above))
        return spanned

    def span(self, vertices: Iterable[int]) -> Set[int]:
        """Return the ids of the blocks on the tree paths between ``vertices``."""
        members = self.members
        return {vertex for node in self.spanned_nodes(vertices) for vertex in members[node]}


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
    """Blockwise Theorem 1 classification, counted per schema lineage.

    One classifier accompanies one schema lineage (it travels along
    :meth:`~repro.engine.cache.SchemaContext.apply_delta` chains), so
    ``stats()["blocks_classified"]`` counts every block the lineage's cold
    pass and edits classified.  Each block is classified on its own
    subgraph by :func:`~repro.core.classification.classify_bipartite_graph`;
    a block that survives an edit is not looked at again because
    :class:`BlockRecords` keeps its report, not because anything here is
    cached.

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

    def __init__(self) -> None:
        self._classified = 0

    def classify(
        self, graph: BipartiteGraph, blocks: Optional[list] = None
    ) -> ChordalityReport:
        """Return the whole-graph :class:`ChordalityReport`, block by block.

        Equal (by construction of the block decomposition) to
        :func:`~repro.core.classification.classify_bipartite_graph` on the
        same graph.  ``blocks``, when given, receives one ``(edges,
        report)`` pair per block: what a context builds its
        :class:`BlockRecords` from.
        """
        edge_blocks = biconnected_edge_blocks(graph)
        reports = [self.block_report(graph, edges) for edges in edge_blocks]
        if blocks is not None:
            blocks.extend(zip(edge_blocks, reports))
        return combine_reports(reports)

    def block_report(self, graph: Graph, edges: Sequence[Edge]) -> ChordalityReport:
        """Classify one block of ``graph``, given by its edges.

        The per-block routine of :meth:`classify` and of
        :meth:`BlockRecords.patched`.
        """
        self._classified += 1
        return classify_bipartite_graph(block_subgraph(graph, edges))

    def stats(self) -> dict:
        """Return observability counters: the blocks classified so far."""
        return {"blocks_classified": self._classified}


#: A block's edges, vertex set and report (``None`` until classified).
BlockRecord = Tuple[Tuple[Edge, ...], FrozenSet[Vertex], Optional[ChordalityReport]]


class BlockRecords:
    """The biconnected blocks of one schema graph in label space, kept under edits.

    One :data:`BlockRecord` per block, each vertex's block ids, and a count
    per distinct report, so :meth:`report` ANDs a handful of reports.
    Labels, not ids, because a vertex edit re-keys every id.
    :meth:`patched` follows an edit by two exact rules: removing edges
    inside a block leaves every other block as it is, so only a block that
    lost an edge is re-split; an added edge ``uv`` merges exactly the
    blocks on the block-cut-tree path between ``u`` and ``v`` (a bridge
    block of its own when no path joins them).  See ``docs/dynamic.md``.
    """

    __slots__ = ("records", "blocks_of", "reports", "_next_id")

    def __init__(
        self, blocks: Iterable[Tuple[Sequence[Edge], ChordalityReport]] = ()
    ) -> None:
        self.records: Dict[int, BlockRecord] = {}
        #: Vertex -> the ids of its blocks (a vertex without edges is absent).
        self.blocks_of: Dict[Vertex, Tuple[int, ...]] = {}
        #: Distinct report -> the number of records that carry it.
        self.reports: Dict[ChordalityReport, int] = {}
        self._next_id = 0
        for edges, report in blocks:
            self._add(edges, report)

    def report(self) -> ChordalityReport:
        """Return the whole-graph report: the AND of the distinct block reports."""
        return combine_reports(self.reports)

    def patched(self, graph: Graph, delta, classifier: "BlockClassifier") -> "BlockRecords":
        """Return the records of ``graph``: this graph edited by ``delta``.

        Only the blocks the edit created are classified, through
        ``classifier``'s :meth:`~BlockClassifier.block_report`; these
        records are left as they are.
        """
        child = BlockRecords()
        child.records = dict(self.records)
        child.blocks_of = dict(self.blocks_of)
        child.reports = dict(self.reports)
        child._next_id = self._next_id
        created: Set[int] = set()
        blocks_of = child.blocks_of
        gone = {vertex for vertex, _ in delta.removed_vertices}
        cut = {frozenset(edge) for edge in delta.removed_edges}
        lost = {block for vertex in gone for block in blocks_of.get(vertex, ())}
        for u, v in delta.removed_edges:
            lost.update(set(blocks_of.get(u, ())).intersection(blocks_of.get(v, ())))
        for block in lost:
            kept = [
                (u, v)
                for u, v in child._drop(block)
                if u not in gone and v not in gone and frozenset((u, v)) not in cut
            ]
            if kept:
                for piece in biconnected_edge_blocks(Graph(edges=kept)):
                    created.add(child._add(piece, None))
        for u, v in delta.added_edges:
            merged = [(u, v)]
            for block in child._path(u, v):
                merged.extend(child._drop(block))
                created.discard(block)
            created.add(child._add(merged, None))
        for block in created:
            edges, vertices, _ = child.records[block]
            report = classifier.block_report(graph, edges)
            child.records[block] = (edges, vertices, report)
            child.reports[report] = child.reports.get(report, 0) + 1
        return child

    def _add(self, edges: Sequence[Edge], report: Optional[ChordalityReport]) -> int:
        """Record one block and return its id."""
        block = self._next_id
        self._next_id += 1
        vertices = frozenset(chain.from_iterable(edges))
        self.records[block] = (tuple(edges), vertices, report)
        blocks_of = self.blocks_of
        for vertex in vertices:
            blocks_of[vertex] = blocks_of.get(vertex, ()) + (block,)
        if report is not None:
            self.reports[report] = self.reports.get(report, 0) + 1
        return block

    def _drop(self, block: int) -> Tuple[Edge, ...]:
        """Forget one block and return its edges."""
        edges, vertices, report = self.records.pop(block)
        blocks_of = self.blocks_of
        for vertex in vertices:
            others = tuple(other for other in blocks_of[vertex] if other != block)
            if others:
                blocks_of[vertex] = others
            else:
                del blocks_of[vertex]
        if report is not None:
            count = self.reports[report] - 1
            if count:
                self.reports[report] = count
            else:
                del self.reports[report]
        return edges

    def _path(self, u: Vertex, v: Vertex) -> List[int]:
        """Return the ids of the blocks on the block-cut-tree path from ``u`` to ``v``.

        Empty when no path joins them.  Breadth first over blocks (adjacent
        when they share a cut vertex), whose shortest path from ``u``'s
        blocks to ``v``'s is the tree path.
        """
        blocks_of = self.blocks_of
        targets = set(blocks_of.get(v, ()))
        if not targets:
            return []
        parent: Dict[int, Optional[int]] = dict.fromkeys(blocks_of.get(u, ()))
        frontier = list(parent)
        for block in frontier:  # grows while it is read: breadth first
            if block in targets:
                path = [block]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path
            for vertex in self.records[block][1]:
                for other in blocks_of[vertex]:
                    if other not in parent:
                        parent[other] = block
                        frontier.append(other)
        return []

