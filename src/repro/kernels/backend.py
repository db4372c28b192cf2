"""The BFS kernel lane: the one object every distance-oracle row is filled through.

:class:`ArrayBackend` delegates to the ``array('i')`` kernels of
:mod:`repro.kernels.bfs`, and :func:`resolve_backend` returns its single
instance.  The :class:`~repro.kernels.oracle.DistanceOracle` fills rows
through that instance's methods (looked up on the class at call time), so
a profiler that wraps them on ``type(resolve_backend(None))`` sees every
oracle miss.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence

from repro.graphs.indexed import IndexedGraph
from repro.kernels.bfs import KernelScratch, bfs_levels_row, bfs_parents_row


class ArrayBackend:
    """The ``array('i')`` lane: thin delegation to :mod:`repro.kernels.bfs`."""

    def bfs_levels_row(
        self, graph: IndexedGraph, source: int, scratch: KernelScratch = None
    ) -> array:
        """Return the distance row via :func:`repro.kernels.bfs.bfs_levels_row`."""
        return bfs_levels_row(graph, source, scratch)

    def bfs_parents_row(
        self, graph: IndexedGraph, source: int, scratch: KernelScratch = None
    ) -> array:
        """Return the parent row via :func:`repro.kernels.bfs.bfs_parents_row`."""
        return bfs_parents_row(graph, source, scratch)

    # The two grouped methods below have one caller: the per-layer tracer
    # of perfbench/tracing.py wraps them by name.  They go once that
    # tracer reads request spans instead of wrapping names.
    def grouped_bfs_levels(
        self, graph: IndexedGraph, sources: Sequence[int], scratch: KernelScratch = None
    ) -> List[array]:
        """Run the single-source kernel per source, sharing one scratch."""
        scratch = scratch if scratch is not None else KernelScratch(graph.n)
        return [bfs_levels_row(graph, source, scratch) for source in sources]

    def grouped_bfs_parents(
        self, graph: IndexedGraph, sources: Sequence[int], scratch: KernelScratch = None
    ) -> List[array]:
        """Run the single-source parent kernel per source, sharing one scratch."""
        scratch = scratch if scratch is not None else KernelScratch(graph.n)
        return [bfs_parents_row(graph, source, scratch) for source in sources]


_LANE = ArrayBackend()


def resolve_backend(name: None = None) -> ArrayBackend:
    """Return the single :class:`ArrayBackend` instance (``name`` must be ``None``)."""
    if name is not None:
        raise TypeError("resolve_backend() takes no lane name since 3.0.0")
    return _LANE
