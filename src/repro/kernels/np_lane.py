"""The vectorized numpy kernel lane: CSR BFS as batched array operations.

This module is only imported when the ``"numpy"`` lane is resolved (see
:mod:`repro.kernels.backend`); importing it without numpy installed
raises ``ImportError``, which the registry converts into a typed
:class:`~repro.exceptions.MissingDependencyError`.  Nothing in the core
library imports it unconditionally, so ``import repro`` stays
dependency-free.

Storage adoption
----------------
:class:`NumpyScratch` adopts the graph's canonical CSR buffers through
``np.frombuffer`` -- zero-copy over whatever buffer-protocol storage the
graph holds: ``array('l')`` (fresh build), ``array('q')`` (unpickled) or
``memoryview`` casts over a shared-memory segment (the zero-copy worker
transport of :mod:`repro.kernels.shm`).  The lane therefore runs on the
exact bytes the shm transport ships, with no per-worker conversion pass.

Byte-identity contract
----------------------
Every row leaves this module as ``array('i')`` built from the int32
result buffer, so the engine, the oracle, the differential suites and
the golden fixtures see rows *byte-identical* to the array lane:

* distance rows are trivially order-independent;
* parent rows reproduce the discovery-order tie-breaks of
  :func:`repro.kernels.bfs.bfs_parents_row` exactly.  Per level, the
  reference kernel scans the frontier in discovery order and each CSR
  row ascending, first writer wins.  The vectorized form gathers the
  same (parent, child) pairs in the same flat order and assigns them
  *reversed* -- numpy fancy assignment keeps the last write, so the
  first claim in traversal order survives -- and orders the next
  frontier by first-occurrence position, which is exactly discovery
  order.

Grouped traversal runs all sources as **one batched operation** over
``uint64`` bitset frontiers: each vertex carries one bit per source,
frontier expansion OR-merges the masks of every parent edge in a single
sort + ``bitwise_or.reduceat`` sweep, and newly reached (vertex, source)
pairs are peeled per 64-source word.  Distance semantics are identical
to per-source BFS; grouped *parent* rows route through the per-source
vectorized kernel instead, because parent tie-breaks are defined by
per-source discovery order, which a shared bitset frontier does not
carry.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence

import numpy as np

from repro.graphs.indexed import IndexedGraph
from repro.kernels.backend import KernelBackend

#: dtype by buffer itemsize: every CSR storage this library produces is a
#: native little-endian signed integer buffer of one of these widths.
_DTYPES = {1: np.int8, 2: np.int16, 4: np.int32, 8: np.int64}


def _adopt(buf) -> "np.ndarray":
    """Zero-copy ``np.frombuffer`` view over any CSR integer storage."""
    view = memoryview(buf)
    try:
        dtype = _DTYPES[view.itemsize]
    except KeyError:  # pragma: no cover - no such storage exists here
        raise TypeError(f"unsupported CSR buffer itemsize {view.itemsize}") from None
    return np.frombuffer(view, dtype=dtype)


class NumpyScratch:
    """Per-graph state of the numpy lane: adopted CSR views + row template.

    Adoption happens once per graph (the oracle keeps the scratch for the
    context's lifetime); the views alias the graph's own bytes, so the
    scratch adds O(n) for the template and O(1) for the CSR.
    """

    __slots__ = ("n", "indptr", "indices", "_template")

    def __init__(self, graph: IndexedGraph) -> None:
        self.n = graph.n
        self.indptr = _adopt(graph.indptr).astype(np.int64, copy=False)
        self.indices = _adopt(graph.indices).astype(np.int64, copy=False)
        self._template = np.full(graph.n, -1, dtype=np.int32)

    def new_row(self) -> "np.ndarray":
        """Return a fresh int32 row of ``n`` entries, all ``-1``."""
        return self._template.copy()


def _to_row(values: "np.ndarray") -> array:
    """Convert an int32 result buffer to the canonical ``array('i')`` row."""
    row = array("i")
    row.frombytes(values.tobytes())
    return row


def _expand(indptr, indices, frontier):
    """Gather the neighbour lists of ``frontier`` in traversal order.

    Returns ``(parents, neighbours)``: for each frontier vertex in order,
    its CSR row (ascending), flattened -- the exact edge order the
    reference kernel scans.  Both arrays are empty when the frontier has
    no edges.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # flat CSR positions: arange over the concatenation, rebased per row
    offsets = np.repeat(
        starts - np.concatenate(([np.int64(0)], np.cumsum(counts)[:-1])), counts
    )
    flat = np.arange(total, dtype=np.int64) + offsets
    return np.repeat(frontier, counts), indices[flat]


class NumpyBackend(KernelBackend):
    """The vectorized lane: frontier expansion as batched array operations."""

    name = "numpy"

    def scratch(self, graph: IndexedGraph) -> NumpyScratch:
        """Return (building) the adopted-CSR scratch for ``graph``."""
        return NumpyScratch(graph)

    def _scratch(self, graph: IndexedGraph, scratch) -> NumpyScratch:
        if isinstance(scratch, NumpyScratch) and scratch.n == graph.n:
            return scratch
        return NumpyScratch(graph)

    def bfs_levels_row(self, graph: IndexedGraph, source: int, scratch=None) -> array:
        """Vectorized single-source distance row (``-1`` = unreachable)."""
        scratch = self._scratch(graph, scratch)
        indptr, indices = scratch.indptr, scratch.indices
        dist = scratch.new_row()
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            level += 1
            _, neighbours = _expand(indptr, indices, frontier)
            if neighbours.size == 0:
                break
            fresh = neighbours[dist[neighbours] < 0]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh)  # distance rows are order-free
            dist[frontier] = level
        return _to_row(dist)

    def bfs_parents_row(self, graph: IndexedGraph, source: int, scratch=None) -> array:
        """Vectorized parent row with exact discovery-order tie-breaks."""
        scratch = self._scratch(graph, scratch)
        indptr, indices = scratch.indptr, scratch.indices
        parents = scratch.new_row()
        parents[source] = source
        frontier = np.array([source], dtype=np.int64)
        while frontier.size:
            claimants, neighbours = _expand(indptr, indices, frontier)
            if neighbours.size == 0:
                break
            undiscovered = parents[neighbours] < 0
            children = neighbours[undiscovered]
            if children.size == 0:
                break
            claimants = claimants[undiscovered]
            # reversed write: numpy keeps the last assignment per index,
            # so the FIRST claimant in traversal order wins -- the exact
            # tie-break of the reference kernel
            parents[children[::-1]] = claimants[::-1]
            # next frontier in discovery order = first-occurrence order
            _, first = np.unique(children, return_index=True)
            frontier = children[np.sort(first)]
        return _to_row(parents)

    def grouped_bfs_levels(
        self, graph: IndexedGraph, sources: Sequence[int], scratch=None
    ) -> List[array]:
        """All sources as one batched traversal over uint64 bitset frontiers.

        Each vertex carries ``ceil(k / 64)`` uint64 words -- one bit per
        source.  A level expands every active vertex once (instead of
        once per source), OR-merging source masks edge-wise with a sort +
        ``bitwise_or.reduceat`` sweep; newly reached pairs are peeled per
        word into the per-source distance rows.  Values match per-source
        :meth:`bfs_levels_row` exactly.
        """
        sources = list(sources)
        if not sources:
            return []
        scratch = self._scratch(graph, scratch)
        indptr, indices = scratch.indptr, scratch.indices
        n, k = scratch.n, len(sources)
        words = (k + 63) >> 6
        src = np.array(sources, dtype=np.int64)
        word_of = np.arange(k, dtype=np.int64) >> 6
        mask_of = (np.uint64(1) << (np.arange(k, dtype=np.uint64) & np.uint64(63)))

        frontier_bits = np.zeros((n, words), dtype=np.uint64)
        # duplicate sources must OR, not overwrite -> ufunc.at (k writes)
        np.bitwise_or.at(frontier_bits, (src, word_of), mask_of)
        visited = frontier_bits.copy()
        dist = np.full((k, n), -1, dtype=np.int32)
        dist[np.arange(k), src] = 0

        level = 0
        while True:
            active = np.nonzero(frontier_bits.any(axis=1))[0]
            if active.size == 0:
                break
            level += 1
            parents_, neighbours = _expand(indptr, indices, active)
            if neighbours.size == 0:
                break
            # OR-merge the parent masks per distinct neighbour: sort the
            # edge list by neighbour, reduce each run in one C sweep
            order = np.argsort(neighbours, kind="stable")
            grouped = neighbours[order]
            bounds = np.nonzero(
                np.concatenate(([True], grouped[1:] != grouped[:-1]))
            )[0]
            targets = grouped[bounds]
            merged = np.bitwise_or.reduceat(
                frontier_bits[parents_[order]], bounds, axis=0
            )
            nxt = np.zeros_like(frontier_bits)
            nxt[targets] = merged
            nxt &= ~visited
            reached = np.nonzero(nxt.any(axis=1))[0]
            if reached.size == 0:
                break
            visited[reached] |= nxt[reached]
            # peel the reached (vertex, source) pairs per 64-source word
            for w in range(words):
                column = nxt[reached, w]
                hit = np.nonzero(column)[0]
                if hit.size == 0:
                    continue
                lo, hi = w << 6, min(k, (w + 1) << 6)
                for j in range(lo, hi):
                    bit = np.uint64(1) << np.uint64(j & 63)
                    rows = reached[hit[(column[hit] & bit) != 0]]
                    if rows.size:
                        dist[j, rows] = level
            frontier_bits = nxt
        return [_to_row(dist[j]) for j in range(k)]

    def grouped_bfs_parents(
        self, graph: IndexedGraph, sources: Sequence[int], scratch=None
    ) -> List[array]:
        """One parent row per source through the vectorized per-source kernel.

        Parent tie-breaks are defined by per-source discovery order,
        which the shared bitset frontier of the grouped distance kernel
        does not carry -- so parent batches share the adopted CSR views
        but traverse per source, preserving byte-identity.
        """
        scratch = self._scratch(graph, scratch)
        return [
            self.bfs_parents_row(graph, source, scratch) for source in sources
        ]


def bitset_frontier_words(k: int) -> int:
    """Return how many uint64 words a ``k``-source grouped frontier uses."""
    return (max(0, k) + 63) >> 6
