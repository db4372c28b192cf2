"""Memory-budgeted degradation: bounded caches instead of unbounded growth.

``ServiceConfig(memory_budget_bytes=...)`` promises that the engine's
growing structures -- the per-context
:class:`~repro.kernels.oracle.DistanceOracle` and the
:class:`~repro.engine.cache.SchemaCache` itself -- *evict* under memory
pressure rather than grow without bound.  This suite pins that promise at
every layer:

* the oracle alone: ``bytes_held()`` never exceeds the byte budget, the
  hottest rows survive, and ``stats.evictions`` proves eviction happened;
* the schema cache: cold contexts are dropped oldest-first until
  ``memory_bytes()`` fits, never below one resident context;
* the service: a budgeted workload over an at-scale generator schema
  stays under budget end-to-end, keeps answering correctly, and exports
  the ``repro_memory_held_bytes`` / ``repro_memory_budget_bytes`` gauges.
"""

import gc
import random
import tracemalloc

import pytest

from repro.api import ConnectionService, ServiceConfig
from repro.datasets.generators import random_62_chordal_graph, random_terminals
from repro.engine.cache import SchemaCache
from repro.exceptions import ValidationError
from repro.graphs.generators import large_block_chain, large_terminal_ids
from repro.graphs.indexed import GraphIndex, from_indexed
from repro.kernels import DistanceOracle


# ----------------------------------------------------------------------
# DistanceOracle: byte budget enforced row-by-row, LRU order
# ----------------------------------------------------------------------
class TestOracleBudget:
    def _graph(self, blocks=40):
        return large_block_chain(blocks, 2, 2)

    def test_bytes_held_never_exceeds_budget(self):
        graph = self._graph()
        budget = 4 * 4 * graph.n  # room for four int32 level rows
        oracle = DistanceOracle(graph, maxsize=10**9, memory_budget_bytes=budget)
        rng = random.Random(3)
        for _ in range(64):
            oracle.levels(rng.randrange(graph.n))
            assert oracle.bytes_held() <= budget
        assert oracle.stats.evictions > 0

    def test_newest_row_survives_eviction(self):
        graph = self._graph()
        budget = 4 * 4 * graph.n
        oracle = DistanceOracle(graph, maxsize=10**9, memory_budget_bytes=budget)
        for source in range(16):
            oracle.levels(source)
        # the most recent source must still be resident: answering it
        # again is a pure hit, with no new eviction
        evictions = oracle.stats.evictions
        hits = oracle.stats.hits
        oracle.levels(15)
        assert oracle.stats.hits == hits + 1
        assert oracle.stats.evictions == evictions

    def test_tiny_budget_keeps_at_least_one_row(self):
        """A budget smaller than one row still answers -- newest row stays."""
        graph = self._graph(blocks=8)
        oracle = DistanceOracle(graph, maxsize=10**9, memory_budget_bytes=1)
        row = oracle.levels(0)
        assert oracle.rows_cached() == 1
        assert list(row) == graph.bfs_levels(0)
        oracle.levels(1)
        assert oracle.rows_cached() == 1  # 0 evicted, 1 resident

    def test_evicted_rows_recompute_correctly(self):
        graph = self._graph(blocks=12)
        budget = 2 * 4 * graph.n
        oracle = DistanceOracle(graph, maxsize=10**9, memory_budget_bytes=budget)
        baseline = {s: list(oracle.levels(s)) for s in range(6)}
        assert oracle.stats.evictions > 0
        for source, expected in baseline.items():
            assert list(oracle.levels(source)) == expected

    def test_stats_dict_exposes_bytes_and_budget(self):
        graph = self._graph(blocks=8)
        oracle = DistanceOracle(graph, memory_budget_bytes=10**6)
        oracle.levels(0)
        stats = oracle.stats_dict()
        assert stats["bytes"] == oracle.bytes_held() > 0
        assert stats["memory_budget_bytes"] == 10**6

    def test_budget_must_be_positive(self):
        graph = self._graph(blocks=4)
        with pytest.raises(ValueError):
            DistanceOracle(graph, memory_budget_bytes=0)


# ----------------------------------------------------------------------
# SchemaCache: whole contexts evicted coldest-first under the budget
# ----------------------------------------------------------------------
class TestSchemaCacheBudget:
    def _schemas(self, count):
        return [
            random_62_chordal_graph(12, rng=random.Random(seed))
            for seed in range(count)
        ]

    def test_cold_contexts_evicted_until_budget_fits(self):
        schemas = self._schemas(6)
        probe = SchemaCache(maxsize=64)
        probe.get_or_build(schemas[0])
        one_context = probe.memory_bytes()
        assert one_context > 0

        cache = SchemaCache(maxsize=64, memory_budget_bytes=3 * one_context)
        for schema in schemas:
            cache.get_or_build(schema)
            assert cache.memory_bytes() <= cache.memory_budget_bytes
        stats = cache.stats()
        assert stats["evictions"] > 0
        assert stats["size"] < len(schemas)

    def test_never_evicts_below_one_context(self):
        schema = random_62_chordal_graph(12, rng=random.Random(1))
        cache = SchemaCache(maxsize=64, memory_budget_bytes=1)
        context = cache.get_or_build(schema)
        cache.enforce_memory_budget()
        assert cache.stats()["size"] == 1
        assert cache.get_or_build(schema) is context  # still a hit

    def test_stats_report_memory_keys(self):
        cache = SchemaCache(maxsize=8, memory_budget_bytes=1 << 20)
        cache.get_or_build(random_62_chordal_graph(10, rng=random.Random(2)))
        stats = cache.stats()
        assert stats["memory_bytes"] == cache.memory_bytes() > 0
        assert stats["memory_budget_bytes"] == 1 << 20

    def test_unbudgeted_cache_never_evicts_on_memory(self):
        cache = SchemaCache(maxsize=64)
        for schema in self._schemas(4):
            cache.get_or_build(schema)
        assert cache.stats()["evictions"] == 0
        assert cache.stats()["memory_budget_bytes"] is None


# ----------------------------------------------------------------------
# service level: the ISSUE's budgeted large-schema workload
# ----------------------------------------------------------------------
class TestServiceBudget:
    def test_config_rejects_non_positive_budget(self):
        with pytest.raises(ValidationError):
            ServiceConfig(memory_budget_bytes=0)
        with pytest.raises(ValidationError):
            ServiceConfig(memory_budget_bytes=-5)

    def test_budgeted_workload_on_large_schema_stays_bounded(self):
        """Heavy traffic over an at-scale chain schema under a tight budget.

        Without the budget the oracle would retain every distinct source
        row; with it, held bytes stay bounded by ``budget`` plus the
        single-context base (the CSR, which the cache never evicts below
        one resident schema) while answers stay correct (spot-checked
        against a fresh unbudgeted service).
        """
        indexed = large_block_chain(250, 2, 2)
        schema = from_indexed(indexed, GraphIndex(range(indexed.n)))
        budget = 16 * 4 * indexed.n  # room for 16 oracle rows; far more requested
        service = ConnectionService(
            schema=schema, config=ServiceConfig(memory_budget_bytes=budget)
        )
        service.classification()  # builds the resident context
        stats = service.cache_stats()
        base = stats["memory_bytes"]  # the CSR bytes
        assert base == indexed.nbytes()
        rng = random.Random(7)
        sampled = []
        for _ in range(48):
            terminals = large_terminal_ids(indexed, 3, rng=rng)
            result = service.connect(terminals)
            sampled.append((terminals, result.cost))
            stats = service.cache_stats()
            assert stats["memory_bytes"] <= base + budget
            assert stats["memory_budget_bytes"] == budget
        assert service.cache_stats()["distance_oracle"]["evictions"] > 0

        oracle_service = ConnectionService(schema=schema)
        for terminals, cost in sampled[:3]:
            assert oracle_service.connect(terminals).cost == cost

    def test_budgeted_kmb_queries_hold_no_rows_outside_the_budget(self):
        """KMB's metric closure keeps no distances the budget cannot see.

        The closure reads only terminal-pair distances, which come off the
        oracle's id rows.  A label-space ``{vertex: distance}`` dict per
        terminal used to be cached beside the oracle, uncounted by
        ``memory_bytes()``: ~0.25 MB per terminal here.  Measured under
        ``tracemalloc``, what the queries retain must stay within the
        budget plus the resident context's CSR.
        """
        indexed = large_block_chain(1000, 2, 2)  # 3001 vertices
        schema = from_indexed(indexed, GraphIndex(range(indexed.n)))
        budget = 8 * 4 * indexed.n  # room for 8 oracle rows
        service = ConnectionService(
            schema=schema, config=ServiceConfig(memory_budget_bytes=budget)
        )
        rng = random.Random(11)
        queries = [large_terminal_ids(indexed, 6, rng=rng) for _ in range(4)]
        service.connect(queries[0], solver="kmb")  # builds the resident context
        stats = service.cache_stats()
        resident = stats["memory_bytes"] - stats["oracle_bytes"]  # the CSR
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for terminals in queries[1:]:
                assert service.connect(terminals, solver="kmb").provenance.solver == "kmb"
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert held <= budget + resident
        assert service.cache_stats()["oracle_bytes"] <= budget

    def test_memory_gauges_exported(self):
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        schema = random_62_chordal_graph(14, rng=random.Random(9))
        service = ConnectionService(
            schema=schema,
            config=ServiceConfig(memory_budget_bytes=1 << 22, metrics=registry),
        )
        service.connect(random_terminals(schema, 3, rng=random.Random(4)))
        assert service.cache_stats()["oracle_bytes"] > 0
        text = registry.render_text()
        assert 'repro_memory_held_bytes{component="schema_cache"}' in text
        assert "repro_memory_budget_bytes" in text
        oracle_line = next(
            line
            for line in text.splitlines()
            if line.startswith('repro_memory_held_bytes{component="distance_oracle"}')
        )
        # a warm oracle must report real held bytes, not a dead zero
        assert float(oracle_line.split()[-1]) > 0
        budget_line = next(
            line
            for line in text.splitlines()
            if line.startswith("repro_memory_budget_bytes ")
        )
        assert float(budget_line.split()[-1]) == float(1 << 22)

    def test_unbudgeted_service_reports_zero_budget_gauge(self):
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        schema = random_62_chordal_graph(10, rng=random.Random(5))
        service = ConnectionService(
            schema=schema, config=ServiceConfig(metrics=registry)
        )
        service.connect(random_terminals(schema, 2, rng=random.Random(6)))
        text = registry.render_text()
        budget_line = next(
            line
            for line in text.splitlines()
            if line.startswith("repro_memory_budget_bytes ")
        )
        assert float(budget_line.split()[-1]) == 0.0

    def test_budget_survives_worker_config(self):
        """A config derived with ``with_overrides`` carries the budget along."""
        schema = random_62_chordal_graph(12, rng=random.Random(8))
        service = ConnectionService(
            schema=schema, config=ServiceConfig(memory_budget_bytes=1 << 20)
        )
        worker_config = service.config.with_overrides(cache_dir=None, metrics=None)
        assert worker_config.memory_budget_bytes == 1 << 20
        rebuilt = ConnectionService(schema=schema, config=worker_config)
        assert rebuilt.cache_stats()["memory_budget_bytes"] == 1 << 20
