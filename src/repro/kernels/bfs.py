"""BFS kernels over the CSR arrays of :class:`~repro.graphs.indexed.IndexedGraph`.

The engine's per-query cost on warm schemas is dominated by breadth-first
searches: the metric closure of the KMB heuristic, the shortest-path seed
of the chordal-elimination solver and every feasibility check all start
from a single-source BFS.  This module is the one place those searches
are implemented for the indexed backend:

* :func:`bfs_levels_row` / :func:`bfs_parents_row` -- single-source
  kernels producing flat ``array('i')`` rows, with **exactly** the same
  values (including the discovery-order parent tie-breaks) as
  :meth:`~repro.graphs.indexed.IndexedGraph.bfs_levels` and
  :meth:`~repro.graphs.indexed.IndexedGraph.bfs_parents`;
* :class:`KernelScratch` -- the reusable per-graph scratch state (a
  ``-1``-filled template the rows are memcpy'd from), shared across the
  calls of one caller so the per-call ``[-1] * n`` list build disappears.

A note on speed, recorded here so nobody re-learns it the hard way: a
*dense* distance row over ``n`` vertices requires one interpreted write
per reachable vertex, and CPython's list-based BFS already runs within a
small factor of that floor.  No pure-Python reformulation (bitset
frontiers, level-synchronous masks, block-tree preprocessing) produces
dense rows several times faster on the sparse, high-diameter schema
graphs this library targets -- the measured wins of the kernel layer come
from *not recomputing* rows (the
:class:`~repro.kernels.oracle.DistanceOracle` keeps them across queries)
and from sharing scratch buffers, not from a magically faster traversal.
The benchmarks in ``benchmarks/bench_kernels.py`` quantify both.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence

from repro.graphs.indexed import IndexedGraph


class KernelScratch:
    """Reusable scratch buffers for the BFS kernels of one graph size.

    One scratch serves any number of kernel calls on graphs with ``n``
    vertices; the :class:`~repro.kernels.oracle.DistanceOracle` keeps one
    per schema context.  The template is a ``-1``-filled ``array('i')``
    whose raw bytes seed every produced row with a single C-level copy
    instead of a fresh ``[-1] * n`` list build per call.
    """

    __slots__ = ("n", "_template_bytes")

    def __init__(self, n: int) -> None:
        self.n = n
        self._template_bytes = array("i", [-1] * n).tobytes()

    def new_row(self) -> array:
        """Return a fresh ``array('i')`` of ``n`` entries, all ``-1``."""
        row = array("i")
        row.frombytes(self._template_bytes)
        return row


def bfs_levels_row(
    graph: IndexedGraph, source: int, scratch: KernelScratch = None
) -> array:
    """Return BFS distances from ``source`` as a flat ``array('i')`` row.

    Value-identical to
    :meth:`~repro.graphs.indexed.IndexedGraph.bfs_levels` (``-1`` =
    unreachable); the traversal is level-synchronous with list-swap
    frontiers, which drops the deque machinery from the inner loop.
    """
    if scratch is None:
        scratch = KernelScratch(graph.n)
    dist = scratch.new_row()
    dist[source] = 0
    rows = graph._rows
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt: List[int] = []
        push = nxt.append
        for current in frontier:
            for neighbor in rows[current]:
                if dist[neighbor] < 0:
                    dist[neighbor] = level
                    push(neighbor)
        frontier = nxt
    return dist


def bfs_parents_row(
    graph: IndexedGraph, source: int, scratch: KernelScratch = None
) -> array:
    """Return a BFS parent row from ``source`` as a flat ``array('i')``.

    Value-identical to
    :meth:`~repro.graphs.indexed.IndexedGraph.bfs_parents` -- including
    the tie-breaks: the level-synchronous loop visits the previous level
    in discovery order and each level's vertices in ascending CSR row
    order, which is exactly the order the deque-based implementation
    assigns parents in.  Identity matters because the chordal-elimination
    solver's seed covers (and therefore the returned trees) are built
    from these parents, and the differential suites pin the trees.
    """
    if scratch is None:
        scratch = KernelScratch(graph.n)
    parents = scratch.new_row()
    parents[source] = source
    rows = graph._rows
    frontier = [source]
    while frontier:
        nxt: List[int] = []
        push = nxt.append
        for current in frontier:
            for neighbor in rows[current]:
                if parents[neighbor] < 0:
                    parents[neighbor] = current
                    push(neighbor)
        frontier = nxt
    return parents


def levels_to_dict(row: Sequence[int], labels: Sequence) -> dict:
    """Decode a distance row into the ``{label: distance}`` mapping.

    Used by the indexed lane of
    :func:`~repro.steiner.heuristics.shortest_path_heuristic`; unreachable
    vertices (``-1``) are absent, mirroring
    :func:`~repro.graphs.traversal.bfs_distances`.
    """
    return {labels[i]: d for i, d in enumerate(row) if d >= 0}
