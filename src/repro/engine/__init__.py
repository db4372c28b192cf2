"""Interpretation engine: registry, planner, schema cache, plan execution.

This package is the scaling layer on top of the paper's algorithms.  The
architecture, in one picture::

    ConnectionService.connect / .batch   (repro.api: requests, limits)
        |
        v
    SchemaCache (LRU, structural fingerprints)
        |           one SchemaContext per schema:
        v           IndexedGraph + GraphIndex, ChordalityReport,
    SchemaContext   BFS rows, Lemma 1 orderings, component plans
        |
        v
    plan_query  ->  QueryPlan (solver name + fallbacks)
        |
        v
    InterpretationEngine.execute_plan
        |
        v
    SolverRegistry  ->  chordal-elimination / algorithm1-indexed /
                        dreyfus-wagner / bruteforce / kmb / ...

The engine has no request or batch API of its own:
:class:`~repro.api.service.ConnectionService` is the one front door, and
``tests/test_differential_engine.py`` pins its answers to the exhaustive
oracles.
"""

from repro.engine.batch import InterpretationEngine
from repro.engine.cache import (
    LRUCache,
    SchemaCache,
    SchemaContext,
    schema_digest,
    schema_fingerprint,
)
from repro.engine.planner import QueryPlan, plan_query
from repro.engine.registry import InstanceClass, SolverRegistry, default_registry

__all__ = [
    "InstanceClass",
    "InterpretationEngine",
    "LRUCache",
    "QueryPlan",
    "SchemaCache",
    "SchemaContext",
    "SolverRegistry",
    "default_registry",
    "plan_query",
    "schema_digest",
    "schema_fingerprint",
]
