"""repro: chordality properties on bipartite graphs and minimal conceptual connections.

A from-scratch reproduction of

    G. Ausiello, A. D'Atri, M. Moscarini,
    "Chordality Properties on Graphs and Minimal Conceptual Connections in
    Semantic Data Models", PODS 1985 / JCSS 33(2), 1986.

The package provides:

* a graph and hypergraph substrate (``repro.graphs``, ``repro.hypergraphs``),
* the chordality and acyclicity machinery of Section 2
  (``repro.chordality``, Theorem 1 correspondences),
* the Steiner / pseudo-Steiner algorithms and hardness gadgets of Section 3
  (``repro.steiner``, ``repro.core``),
* the semantic-data-model layer of the motivation -- entity-relationship
  and relational schemas, query interpretation, join plans
  (``repro.semantic``),
* named figure instances and workload generators (``repro.datasets``),
* the interpretation engine -- solver registry, query planner and
  schema-level precomputation cache -- built on the integer-indexed
  graph backend (``repro.engine``, ``repro.graphs.indexed``),
* the typed service façade (``repro.api``): ``ConnectionService`` with
  ``ConnectionRequest``/``ConnectionResult`` objects (optimality
  guarantees, provenance), ``connect``/``batch`` and the resumable
  ``EnumerationStream`` for interactive disambiguation -- the one entry
  point for answering queries,
* the persistent runtime (``repro.runtime``): ``DiskCache`` persists
  classifications and results across processes
  (``ServiceConfig(cache_dir=...)``),
* the one workload model (``repro.load``): a ``LoadSpec`` compiles to a
  deterministic plan that ``python -m repro load`` drives open-loop
  (``run_load``) and ``python -m repro run`` replays serially as cold,
  warm and disk-cached phases (``run_phases``), every run checked
  against one serial oracle,
* the incremental dynamic-schema subsystem (``repro.dynamic``):
  ``SchemaEditor`` batches schema edits into atomic transactions (one
  version bump, rollback on error, structured ``SchemaDelta``
  journals), and ``SchemaContext.apply_delta`` patches cached schema
  contexts blockwise instead of re-running the Theorem 1 recognition --
  schema churn as a first-class workload (the ``mutate`` traffic of a
  ``LoadSpec``),
* the kernel layer (``repro.kernels``): BFS kernels over the CSR
  backend and the cross-query ``DistanceOracle`` attached to every
  schema context (component-granular invalidation under edits; see
  ``docs/performance.md``),
* the observability layer (``repro.metrics``): zero-dependency
  counters/gauges/histograms with Prometheus text exposition, wired
  through the service, runtime and dynamic layers -- injectable per
  service via ``ServiceConfig(metrics=...)``, disabled wholesale with
  ``NullRegistry`` (see ``docs/observability.md``),
* the multi-tenant connection server (``repro.server``):
  ``python -m repro serve`` puts the whole API surface behind
  length-prefixed JSON frames over TCP -- a ``SchemaRegistry`` hosts
  many named schemas with per-tenant config, admission control and LRU
  eviction (disk-warm rebinds via the shared ``DiskCache``),
  enumeration pauses/resumes **across the wire** through opaque
  continuation tokens, and a sidecar HTTP listener serves
  ``GET /metrics`` (see ``docs/server.md``).

The most common entry points are re-exported here; see ``README.md`` for a
guided tour and the ``docs/`` site for the architecture, scenario and
runtime guides.
"""

from repro.api import (
    ConnectionRequest,
    ConnectionResult,
    ConnectionService,
    EnumerationStream,
    Guarantee,
    Provenance,
    ServiceConfig,
)
from repro.chordality import (
    is_41_chordal_bipartite,
    is_61_chordal_bipartite,
    is_62_chordal_bipartite,
    is_chordal,
    is_chordal_bipartite,
    is_mn_chordal,
    is_side_chordal,
    is_side_chordal_and_conformal,
    is_side_conformal,
)
from repro.core import (
    ChordalityReport,
    chordality_class,
    classify_bipartite_graph,
    is_cover,
    is_good_ordering,
    is_minimum_cover,
    is_nonredundant_cover,
    minimum_cover_size,
)
from repro.faults import FaultPlan
from repro.exceptions import (
    BipartitenessError,
    DisconnectedTerminalsError,
    GraphError,
    HypergraphError,
    MissingDependencyError,
    NotApplicableError,
    ReproError,
    ValidationError,
)
from repro.dynamic import BlockClassifier, EditOp, SchemaDelta, SchemaEditor
from repro.engine import InterpretationEngine, schema_digest
from repro.kernels import DistanceOracle
from repro.load import LoadReport, LoadSpec, run_load, run_phases
from repro.metrics import MetricsRegistry, NullRegistry, default_metrics
from repro.graphs import (
    BipartiteGraph,
    Graph,
    GraphIndex,
    IndexedGraph,
    from_indexed,
    to_indexed,
)
from repro.hypergraphs import (
    Hypergraph,
    acyclicity_degree,
    is_alpha_acyclic,
    is_berge_acyclic,
    is_beta_acyclic,
    is_gamma_acyclic,
)
from repro.semantic import (
    Database,
    ERSchema,
    QueryInterpreter,
    Relation,
    RelationalSchema,
)
from repro.runtime import DiskCache
from repro.server import (
    RemoteError,
    ReproClient,
    ReproServer,
    RetryPolicy,
    SchemaRegistry,
    TenantLimits,
)
from repro.steiner import (
    SteinerInstance,
    SteinerSolution,
    pseudo_steiner_algorithm1,
    pseudo_steiner_bruteforce,
    steiner_algorithm2,
    steiner_tree_bruteforce,
    steiner_tree_dreyfus_wagner,
)

__version__ = "8.0.0"

__all__ = [
    "BipartiteGraph",
    "BipartitenessError",
    "BlockClassifier",
    "ChordalityReport",
    "ConnectionRequest",
    "ConnectionResult",
    "ConnectionService",
    "Database",
    "DisconnectedTerminalsError",
    "DiskCache",
    "DistanceOracle",
    "ERSchema",
    "EditOp",
    "EnumerationStream",
    "FaultPlan",
    "Graph",
    "GraphError",
    "GraphIndex",
    "Guarantee",
    "Hypergraph",
    "HypergraphError",
    "IndexedGraph",
    "InterpretationEngine",
    "LoadReport",
    "LoadSpec",
    "MetricsRegistry",
    "MissingDependencyError",
    "NotApplicableError",
    "NullRegistry",
    "Provenance",
    "QueryInterpreter",
    "Relation",
    "RelationalSchema",
    "RemoteError",
    "ReproClient",
    "ReproError",
    "ReproServer",
    "RetryPolicy",
    "SchemaDelta",
    "SchemaEditor",
    "SchemaRegistry",
    "ServiceConfig",
    "TenantLimits",
    "SteinerInstance",
    "SteinerSolution",
    "ValidationError",
    "acyclicity_degree",
    "chordality_class",
    "classify_bipartite_graph",
    "default_metrics",
    "from_indexed",
    "is_41_chordal_bipartite",
    "is_61_chordal_bipartite",
    "is_62_chordal_bipartite",
    "is_alpha_acyclic",
    "is_berge_acyclic",
    "is_beta_acyclic",
    "is_chordal",
    "is_chordal_bipartite",
    "is_cover",
    "is_gamma_acyclic",
    "is_good_ordering",
    "is_minimum_cover",
    "is_mn_chordal",
    "is_nonredundant_cover",
    "is_side_chordal",
    "is_side_chordal_and_conformal",
    "is_side_conformal",
    "minimum_cover_size",
    "pseudo_steiner_algorithm1",
    "pseudo_steiner_bruteforce",
    "run_load",
    "run_phases",
    "schema_digest",
    "steiner_algorithm2",
    "steiner_tree_bruteforce",
    "steiner_tree_dreyfus_wagner",
    "to_indexed",
    "__version__",
]
