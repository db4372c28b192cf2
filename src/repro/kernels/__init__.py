"""``repro.kernels``: the BFS kernels and the cross-query distance oracle.

The kernel layer sits between the graph substrate and the engine:

* :mod:`repro.kernels.bfs` -- the level-synchronous single-source BFS
  kernels over :class:`~repro.graphs.indexed.IndexedGraph` CSR rows,
  producing flat ``array('i')`` distance/parent rows from reusable
  scratch buffers;
* :mod:`repro.kernels.backend` -- :class:`ArrayBackend`, the one lane
  object the oracle fills rows through (:func:`resolve_backend`);
* :mod:`repro.kernels.oracle` -- :class:`DistanceOracle`, the
  cross-query LRU of those rows attached to every
  :class:`~repro.engine.cache.SchemaContext`, with component-granular
  invalidation wired into ``apply_delta`` and an optional byte budget
  under which it evicts instead of growing.

See ``docs/backends.md`` for the buffer layout and memory budgets, and
``docs/performance.md`` for the measured numbers.
"""

from repro.kernels.backend import ArrayBackend, resolve_backend
from repro.kernels.bfs import (
    KernelScratch,
    bfs_levels_row,
    bfs_parents_row,
    levels_to_dict,
)
from repro.kernels.oracle import DistanceOracle, OracleStats

__all__ = [
    "ArrayBackend",
    "KernelScratch",
    "bfs_levels_row",
    "bfs_parents_row",
    "levels_to_dict",
    "resolve_backend",
    "DistanceOracle",
    "OracleStats",
]
