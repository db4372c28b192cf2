"""Separator-local classification: biconnected blocks on ids, kept under edits.

Every class Theorem 1 recognises -- the ``(m, n)``-chordalities and the
side alpha-acyclicities -- is defined through cycles, chords and
shared-neighbour structures, and all of those live inside one
*biconnected component* (block) of the schema graph: a cycle never
crosses a cut vertex.  Hence, for every field of
:class:`~repro.core.classification.ChordalityReport` (re-validated
property-based by the test-suite)::

    property(G)  ==  AND over blocks B of G:  property(B)

Everything here runs on the CSR ids of an
:class:`~repro.graphs.indexed.IndexedGraph`.  :func:`edge_blocks` is the
one Hopcroft--Tarjan pass, which :func:`biconnected_edge_blocks` decodes
for a label graph.  A block is its sorted member ids: two blocks share at
most one vertex, so every edge between two members belongs to the block.
:class:`BlockClassifier` classifies each block (a bridge is a forest; any
other block runs :func:`~repro.core.classification.hypergraph_walk` on
its members' CSR rows), :class:`BlockRecords` keeps one schema version's
blocks and reports under edits, and :class:`BlockCutTree` is their
block-cut forest, which every side plan of a context reads.  The module
imports nothing from :mod:`repro.engine`.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import fields
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

# classify_bipartite_graph stays bound here although blocks classify
# through hypergraph_walk: the per-layer tracing of perfbench/tracing.py
# patches this name
from repro.core.classification import (  # noqa: F401
    FOREST_REPORT,
    ChordalityReport,
    classify_bipartite_graph,
    hypergraph_walk,
)
from repro.graphs.graph import Graph, Vertex
from repro.graphs.indexed import GraphIndex, IndexedGraph, to_indexed

Edge = Tuple[Vertex, Vertex]


def edge_blocks(rows: Sequence[Sequence[int]]) -> List[List[Tuple[int, int]]]:
    """Return the biconnected components of a graph on ids as edge lists.

    ``rows[v]`` lists the neighbours of id ``v``.  Iterative
    Hopcroft--Tarjan, roots and neighbours in row order.  Every edge lies
    in one block, oriented as the search met it (a bridge is a block of
    its own); isolated vertices lie in none.
    """
    index, low = [-1] * len(rows), [0] * len(rows)
    counter = 0
    stack: List[Tuple[int, int]] = []
    blocks: List[List[Tuple[int, int]]] = []
    for root in range(len(rows)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        # a frame: vertex, parent, neighbour iterator, and where the tree
        # edge into the vertex sits on the edge stack
        dfs = [(root, -1, iter(rows[root]), 0)]
        while dfs:
            vertex, parent, neighbors, _ = dfs[-1]
            for neighbor in neighbors:
                if index[neighbor] < 0:
                    dfs.append((neighbor, vertex, iter(rows[neighbor]), len(stack)))
                    stack.append((vertex, neighbor))
                    index[neighbor] = low[neighbor] = counter
                    counter += 1
                    break
                if index[neighbor] < index[vertex] and neighbor != parent:
                    stack.append((vertex, neighbor))
                    if index[neighbor] < low[vertex]:
                        low[vertex] = index[neighbor]
            else:
                start = dfs.pop()[3]
                if dfs:
                    above = dfs[-1][0]
                    if low[vertex] < low[above]:
                        low[above] = low[vertex]
                    if low[vertex] >= index[above]:
                        # (above, vertex) closes one block: pop down to it
                        block = stack[start:]
                        block.reverse()
                        del stack[start:]
                        blocks.append(block)
    return blocks


def biconnected_edge_blocks(graph: Graph) -> List[List[Edge]]:
    """Return the biconnected components of ``graph`` as label edge lists.

    :func:`edge_blocks` on the CSR rows of ``to_indexed(graph)``, decoded:
    ids follow ``repr`` order, so the same graph yields the same list.
    """
    indexed, index = to_indexed(graph)
    labels = index.labels
    return [
        [(labels[u], labels[v]) for u, v in block]
        for block in edge_blocks(list(map(indexed.row, range(indexed.n))))
    ]


def _members(block: List[Tuple[int, int]]) -> Tuple[int, ...]:
    """Return the sorted member ids of a block given by its edges."""
    return tuple(sorted(set(chain.from_iterable(block))))


def _pieces(row: Callable[[int], List[int]], vertices: List[int]) -> List[Tuple[int, ...]]:
    """Return the blocks of the subgraph that ``vertices`` (ascending ids) induce."""
    local = {vertex: i for i, vertex in enumerate(vertices)}
    rows = [[local[u] for u in row(vertex) if u in local] for vertex in vertices]
    return [tuple(map(vertices.__getitem__, _members(block))) for block in edge_blocks(rows)]


class BlockCutTree:
    """The block-cut forest of a graph on ids, each tree rooted at its first block.

    Node ``i`` is the ``i``-th of ``blocks`` (id vertex sets); a cut vertex
    gets a node of its own after them, any other vertex belongs to the
    node of its only block.  Every simple path between two vertices stays
    inside the blocks on the tree path between their nodes, which is what
    :meth:`span` returns.
    """

    __slots__ = ("node_of", "parent", "depth", "members", "_masks")

    def __init__(self, blocks: Iterable[Iterable[int]]) -> None:
        members: List[Tuple[int, ...]] = [tuple(sorted(set(b))) for b in blocks]
        count = len(members)
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
        #: Node -> its parent node (a root block is its own parent).
        self.parent = [-1] * len(members)
        self.depth = [0] * len(members)
        for root in range(count):
            if self.parent[root] >= 0:
                continue
            self.parent[root] = root
            order = [root]
            for node in order:  # breadth first from the root block
                for child in adjacency[node]:
                    if self.parent[child] < 0:
                        self.parent[child] = node
                        self.depth[child] = self.depth[node] + 1
                        order.append(child)
        self._masks: Dict[int, List[int]] = {}

    def spanned_nodes(self, vertices: Iterable[int]) -> Set[int]:
        """Return the nodes on the tree paths between the nodes of ``vertices``.

        ``vertices`` must lie in one tree.  Walks up from each vertex's
        node, deepest first, until the walks meet, so it costs time in
        proportion to the subtree it spans.  Every leaf of that subtree is
        the node of one of ``vertices``.
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

    def block_masks(self, node: int, row: Callable[[int], List[int]]) -> List[int]:
        """Return the neighbour masks of block ``node``, built on first use from ``row``.

        Bit ``i`` stands for ``members[node][i]``, and entry ``i`` is the
        mask of that member's neighbours.  Two blocks share at most one
        vertex, so every edge between two members belongs to the block:
        the masks are the block's own adjacency.
        """
        masks = self._masks.get(node)
        if masks is None:
            members = self.members[node]
            bits = {vertex: 1 << i for i, vertex in enumerate(members)}
            masks = self._masks[node] = [
                sum(bits[u] for u in row(vertex) if u in bits) for vertex in members
            ]
        return masks


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
    """Blockwise Theorem 1 classification on ids, counted per schema lineage.

    One classifier accompanies one schema lineage (it travels along
    :meth:`~repro.engine.cache.SchemaContext.apply_delta` chains), so
    ``stats()["blocks_classified"]`` counts every block the lineage's cold
    pass and edits classified.  A block that survives an edit is not
    looked at again because :class:`BlockRecords` keeps its report, not
    because anything here is cached.

    Examples
    --------
    >>> from repro.graphs.indexed import IndexedGraph
    >>> g = IndexedGraph(3, edges=[(0, 2), (1, 2)], sides=[1, 1, 2])
    >>> classifier = BlockClassifier()
    >>> classifier.classify(g).report().chordal_41
    True
    >>> classifier.stats()["blocks_classified"]
    2
    """

    def __init__(self) -> None:
        self._classified = 0

    def classify(self, indexed: IndexedGraph) -> "BlockRecords":
        """Return the block records of a bipartite graph's CSR, every block classified.

        Their :meth:`~BlockRecords.report` equals
        :func:`~repro.core.classification.classify_bipartite_graph`'s.
        """
        records = BlockRecords()
        for block in edge_blocks(list(map(indexed.row, range(indexed.n)))):
            members = _members(block)
            records._add(members, self.block_report(indexed, members))
        return records

    def block_report(self, indexed: IndexedGraph, members: Tuple[int, ...]) -> ChordalityReport:
        """Classify one block of ``indexed``, given by its sorted member ids.

        A bridge is a forest.  Any other block holds a cycle; its ``H_2``
        has one edge per ``V_2`` member: its ``V_1`` members' CSR slice.
        """
        self._classified += 1
        if len(members) == 2:
            return FOREST_REPORT
        sides, row = indexed.sides, indexed.row
        nodes = {vertex: i for i, vertex in enumerate([v for v in members if sides[v] == 1])}
        edges = [
            [nodes[u] for u in row(hub) if u in nodes] for hub in members if sides[hub] == 2
        ]
        return hypergraph_walk(len(nodes), edges)

    def stats(self) -> dict:
        """Return observability counters: the blocks classified so far."""
        return {"blocks_classified": self._classified}


class BlockRecords:
    """The biconnected blocks of one schema graph on ids, kept under edits.

    ``members`` and ``report_of`` map a block id to its sorted member ids
    and its report; ``reports`` counts the blocks per report, so
    :meth:`report` ANDs a handful.  :meth:`patched` follows an edit by two
    exact rules: only a block that lost an edge is re-split, and an added
    edge ``uv`` merges exactly the blocks on the block-cut-tree path
    between ``u`` and ``v``.  See ``docs/dynamic.md``.
    """

    __slots__ = ("members", "report_of", "blocks_of", "reports", "_next_id")

    def __init__(self) -> None:
        self.members: Dict[int, Tuple[int, ...]] = {}
        #: Block id -> its report (absent until classified).
        self.report_of: Dict[int, ChordalityReport] = {}
        #: Vertex id -> the ids of its blocks (a vertex without edges is absent).
        self.blocks_of: Dict[int, Tuple[int, ...]] = {}
        #: Report -> the number of blocks that carry it.
        self.reports: Counter = Counter()
        self._next_id = 0

    def report(self) -> ChordalityReport:
        """Return the whole-graph report: the AND of the distinct block reports."""
        return combine_reports(+self.reports)

    def patched(
        self,
        delta,
        old_index: GraphIndex,
        indexed: IndexedGraph,
        index: GraphIndex,
        classifier: BlockClassifier,
    ) -> "BlockRecords":
        """Return the records of this graph edited by the label-space ``delta``.

        ``old_index`` indexes this graph, ``indexed`` and ``index`` the
        edited one; vertex churn (another index) remaps every block
        through the old -> new id map.  Only the blocks the edit created
        are classified, through ``classifier``; these records stay as they are.
        """
        ids, blocks_of = old_index.ids, self.blocks_of
        gone = {ids[vertex] for vertex, _ in delta.removed_vertices if vertex in ids}
        lost = {block for vertex in gone for block in blocks_of.get(vertex, ())}
        for u, v in delta.removed_edges:
            if u in ids and v in ids:
                lost.update(set(blocks_of.get(ids[u], ())).intersection(blocks_of.get(ids[v], ())))
        child = BlockRecords()
        child.report_of, child.reports = dict(self.report_of), Counter(self.reports)
        child._next_id = self._next_id
        if index is old_index:
            child.members, child.blocks_of = dict(self.members), dict(blocks_of)
        else:
            # vertex churn re-keys every id: one C-level gather per block
            # and one over the vertex map.  A survivor keeps its place among
            # the survivors, so each block stays sorted; a removed vertex
            # gets a unique negative id until its blocks go below
            new_id = list(map(index.ids.get, old_index.labels))
            for vertex in gone:
                new_id[vertex] = ~vertex
            child.members = {
                block: itemgetter(*vertices)(new_id) for block, vertices in self.members.items()
            }
            child.blocks_of = dict(zip(map(new_id.__getitem__, blocks_of), blocks_of.values()))
        created: Set[int] = set()
        for block in lost:
            # every edge between two members is the block's or an added one
            kept = [vertex for vertex in child._drop(block) if vertex >= 0]
            for members in _pieces(indexed.row, kept):
                created.add(child._add(members, None))
        ids = index.ids
        for u, v in delta.added_edges:
            a, b = ids[u], ids[v]
            merged = {a, b}
            for block in child._path(a, b):
                merged.update(child._drop(block))
                created.discard(block)
            created.add(child._add(tuple(sorted(merged)), None))
        for block in created:
            report = child.report_of[block] = classifier.block_report(indexed, child.members[block])
            child.reports[report] += 1
        return child

    def _add(self, members: Tuple[int, ...], report: Optional[ChordalityReport]) -> int:
        """Record one block and return its id."""
        block = self._next_id
        self._next_id += 1
        self.members[block] = members
        blocks_of = self.blocks_of
        for vertex in members:
            blocks_of[vertex] = blocks_of.get(vertex, ()) + (block,)
        if report is not None:
            self.report_of[block] = report
            self.reports[report] += 1
        return block

    def _drop(self, block: int) -> Tuple[int, ...]:
        """Forget one block and return its members."""
        members = self.members.pop(block)
        blocks_of = self.blocks_of
        for vertex in members:
            others = tuple(other for other in blocks_of[vertex] if other != block)
            if others:
                blocks_of[vertex] = others
            else:
                del blocks_of[vertex]
        report = self.report_of.pop(block, None)
        if report is not None:
            self.reports[report] -= 1
        return members

    def _path(self, u: int, v: int) -> List[int]:
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
            for vertex in self.members[block]:
                for other in blocks_of[vertex]:
                    if other not in parent:
                        parent[other] = block
                        frontier.append(other)
        return []
