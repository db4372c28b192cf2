"""Incremental schema evolution (``repro.dynamic``).

The paper's interactive scenario assumes the conceptual schema itself
evolves: designers add and drop concepts and associations while users
keep querying.  This package makes schema churn a first-class workload
instead of a cache-flush:

* :class:`~repro.dynamic.editor.SchemaEditor` batches edits into one
  transaction -- applied immediately, rolled back on error, exactly one
  :attr:`~repro.graphs.graph.Graph.mutation_version` bump at commit --
  and emits a structured :class:`~repro.dynamic.delta.SchemaDelta`
  journal;
* :class:`~repro.dynamic.blocks.BlockClassifier` is the one production
  Theorem 1 classification path: it classifies cold schema contexts
  block by block and then maintains the classification incrementally
  (cut vertices are the local separators: an edit only ever classifies
  the blocks it created);
* :meth:`repro.engine.cache.SchemaContext.apply_delta` patches a cached
  schema context -- CSR backend, BFS rows, classification -- instead of
  discarding it, and the :class:`~repro.api.service.ConnectionService`
  uses it automatically when a bound schema mutates
  (:attr:`~repro.api.config.ServiceConfig.incremental`).

See ``docs/dynamic.md`` for the full guide, including the invalidation
chain through the persistent cache, and churn workloads: the ``mutate``
traffic of a :class:`~repro.load.spec.LoadSpec`.
"""

from repro.dynamic.blocks import (
    BlockClassifier,
    biconnected_edge_blocks,
    combine_reports,
)
from repro.dynamic.delta import EditOp, SchemaDelta
from repro.dynamic.editor import SchemaEditor

__all__ = [
    "BlockClassifier",
    "EditOp",
    "SchemaDelta",
    "SchemaEditor",
    "biconnected_edge_blocks",
    "combine_reports",
]
