"""Differential tests for the ``repro.kernels`` layer.

Three contracts are pinned here:

* **kernel exactness** -- the BFS kernels produce rows value-identical
  to ``bfs_levels`` / ``bfs_parents`` on arbitrary (including
  disconnected and bipartite) graphs, also when many sources share one
  scratch, so rewiring the solvers onto them cannot move a single answer;
* **oracle invalidation** -- cached distance/parent rows survive exactly
  the schema edits that cannot affect them (component granularity), and
  a service answering interleaved edits and queries agrees
  checksum-for-checksum with a fresh-context oracle;
* **compact pickling** -- an :class:`IndexedGraph` and its
  :class:`GraphIndex` round-trip through ``pickle`` losslessly, shipping
  only the CSR arrays.
"""

import pickle
import random

from hypothesis import given, strategies as st
from strategies import (
    COMMON_SETTINGS,
    bipartite_graphs,
    chordal_bipartite_graphs,
    small_graphs,
)

from repro.api import ConnectionService
from repro.datasets.generators import random_62_chordal_graph, random_terminals
from repro.dynamic.delta import SchemaDelta
from repro.dynamic.editor import SchemaEditor
from repro.engine.cache import SchemaContext
from repro.graphs import from_indexed
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.indexed import IndexedGraph, to_indexed
from repro.kernels import (
    DistanceOracle,
    KernelScratch,
    bfs_levels_row,
    bfs_parents_row,
)
from repro.load.clients import canonical_checksum


# ----------------------------------------------------------------------
# kernel exactness (hypothesis differential)
# ----------------------------------------------------------------------
@given(graph=small_graphs(max_vertices=9))
@COMMON_SETTINGS
def test_kernels_match_naive_bfs_on_arbitrary_graphs(graph):
    indexed, _ = to_indexed(graph)
    scratch = KernelScratch(indexed.n)
    for source in range(indexed.n):
        assert list(bfs_levels_row(indexed, source, scratch)) == indexed.bfs_levels(source)
        assert list(bfs_parents_row(indexed, source, scratch)) == indexed.bfs_parents(source)


@given(graph=bipartite_graphs())
@COMMON_SETTINGS
def test_kernels_match_naive_bfs_on_bipartite_graphs(graph):
    indexed, _ = to_indexed(graph)
    for source in range(indexed.n):
        assert list(bfs_levels_row(indexed, source)) == indexed.bfs_levels(source)


@given(graph=chordal_bipartite_graphs())
@COMMON_SETTINGS
def test_oracle_rows_match_naive_bfs_and_are_cached(graph):
    indexed, _ = to_indexed(graph)
    oracle = DistanceOracle(indexed)
    for source in range(indexed.n):
        assert list(oracle.levels(source)) == indexed.bfs_levels(source)
        assert list(oracle.parents(source)) == indexed.bfs_parents(source)
        # second read serves the cached object
        assert oracle.levels(source) is oracle.levels(source)
    # hit/miss counting is per row *kind*: the first levels and the first
    # parents read of a source are both misses (each ran its own BFS)
    assert oracle.stats.misses == 2 * indexed.n
    assert oracle.stats.hits == 2 * indexed.n


def test_oracle_lru_counts_evictions():
    indexed = IndexedGraph(4, edges=[(0, 1), (1, 2), (2, 3)])
    oracle = DistanceOracle(indexed, maxsize=2)
    for source in (0, 1, 2):
        oracle.levels(source)
    assert oracle.stats.evictions == 1
    assert oracle.rows_cached() == 2


# ----------------------------------------------------------------------
# oracle invalidation
# ----------------------------------------------------------------------
def _two_component_schema():
    """Two disjoint paths: component A = la0-ra0-la1, component B likewise."""
    return BipartiteGraph(
        left=["la0", "la1", "lb0", "lb1"],
        right=["ra0", "rb0"],
        edges=[
            ("la0", "ra0"), ("la1", "ra0"),
            ("lb0", "rb0"), ("lb1", "rb0"),
        ],
    )


def test_apply_delta_keeps_rows_of_untouched_components():
    graph = _two_component_schema()
    context = SchemaContext(graph)
    oracle = context.distance_oracle
    ids = context.index.ids
    row_a = oracle.levels(ids["la0"])
    row_b = oracle.levels(ids["lb0"])
    assert oracle.stats.invalidated == 0

    edited = graph.copy()
    edited.remove_edge("lb1", "rb0")  # touches component B only
    delta = SchemaDelta.between(context.graph, edited)
    patched = context.apply_delta(delta)

    # component A's row transferred verbatim (same object, no recompute);
    # component B's row was dropped and recomputes against the new graph
    assert patched.distance_oracle.levels(ids["la0"]) is row_a
    assert oracle.stats.invalidated == 1
    fresh_b = patched.indexed.bfs_levels(ids["lb0"])
    assert list(patched.distance_oracle.levels(ids["lb0"])) == fresh_b
    assert list(row_b) != fresh_b  # the old row really was stale
    # the original context still answers from its own snapshot
    assert list(oracle.levels(ids["lb0"])) == list(row_b)


def test_apply_delta_with_vertex_churn_drops_all_rows():
    graph = _two_component_schema()
    context = SchemaContext(graph)
    context.distance_oracle.levels(0)
    context.distance_oracle.levels(3)
    edited = graph.copy()
    edited.add_to_side("lc0", 1)
    edited.add_edge("lc0", "ra0")
    delta = SchemaDelta.between(context.graph, edited)
    patched = context.apply_delta(delta)
    stats = patched.distance_oracle.stats
    assert stats is context.distance_oracle.stats
    assert stats.invalidated == 2
    # rows on the re-keyed ids are recomputed correctly
    ids = patched.index.ids
    assert list(patched.distance_oracle.levels(ids["lc0"]))[ids["ra0"]] == 1


def test_cache_stats_expose_distance_oracle_counters():
    graph = random_62_chordal_graph(4, rng=5)
    service = ConnectionService(schema=graph)
    service.batch([random_terminals(graph, 3, rng=random.Random(1)) for _ in range(6)])
    oracle = service.cache_stats()["distance_oracle"]
    assert set(oracle) == {"hits", "misses", "evictions", "invalidated"}
    assert oracle["misses"] >= 1


def _churn_step(graph, rng, fresh_ids):
    """One deterministic editor transaction: alternate grow/drop edits."""
    kind = rng.choice(["grow-leaf", "drop-edge"])
    if kind == "drop-edge":
        edges = sorted(
            (tuple(sorted(edge, key=repr)) for edge in graph.edges()), key=repr
        )
        if edges:
            u, v = rng.choice(edges)
            with SchemaEditor(graph) as tx:
                tx.remove_edge(u, v)
            return
    anchor = rng.choice(graph.sorted_vertices())
    vertex = ("churn", next(fresh_ids))
    side = 3 - graph.side_of(anchor)
    with SchemaEditor(graph) as tx:
        tx.add_vertex(vertex, side=side)
        tx.add_edge(vertex, anchor)


def test_oracle_invalidation_under_editor_churn():
    """Interleaved edits + queries: the incremental service == a fresh oracle."""
    import itertools

    graph = random_62_chordal_graph(6, rng=3)
    service = ConnectionService(schema=graph)
    rng = random.Random(42)
    fresh_ids = itertools.count(1)
    for _ in range(6):
        _churn_step(graph, rng, fresh_ids)
        queries = [random_terminals(graph, 3, rng=rng) for _ in range(4)]
        serial = service.batch(queries)
        oracle_service = ConnectionService(schema=graph.copy())
        expected = oracle_service.batch(queries)
        assert canonical_checksum(serial) == canonical_checksum(expected)


# ----------------------------------------------------------------------
# compact pickling
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(data=st.data())
def test_indexed_graph_pickle_round_trip(data):
    graph = data.draw(bipartite_graphs(max_left=4, max_right=4))
    indexed, index = to_indexed(graph)
    clone = pickle.loads(pickle.dumps(indexed))
    assert clone == indexed
    assert list(clone.edges()) == list(indexed.edges())
    for v in range(indexed.n):
        assert clone.row(v) == indexed.row(v)
    index_clone = pickle.loads(pickle.dumps(index))
    assert index_clone.labels == index.labels
    assert index_clone.ids == index.ids
    assert from_indexed(clone, index_clone) == graph


def test_indexed_pickle_is_compact():
    """A pickle ships the CSR arrays only, never the derived row cache."""
    graph = random_62_chordal_graph(40, rng=5)
    indexed, _ = to_indexed(graph)
    assert indexed._rows_cache is not None  # built with the graph
    assert set(indexed.__getstate__()) == {"n", "indptr", "indices", "sides"}
    clone = pickle.loads(pickle.dumps(indexed, protocol=pickle.HIGHEST_PROTOCOL))
    assert clone._rows_cache is None
    assert clone == indexed
