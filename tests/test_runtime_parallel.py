"""Differential suite: parallel shard merge vs. serial execution.

The contract of :class:`repro.runtime.ParallelExecutor` is that sharding
changes *nothing* observable: results come back in request order, trees,
costs, guarantees and provenance are byte-identical to a serial
:meth:`ConnectionService.batch` on an equivalent fresh service, and error
semantics (all-or-nothing, earliest failing request wins) are preserved.
The hypothesis-driven tests here pin that over random schemas, query
shapes and objectives; one shared 2-worker pool serves the whole module
to keep process start-up out of the hot loop.

Also covers the worker-transport building blocks: the compact
:class:`IndexedGraph` pickle and the :meth:`SchemaContext.shard_state`
round trip.
"""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from strategies import (
    COMMON_SETTINGS,
    bipartite_graphs,
    chordal_bipartite_graphs,
    draw_terminals,
)

from repro.api import ConnectionRequest, ConnectionService
from repro.engine.cache import SchemaContext, schema_digest
from repro.exceptions import NotApplicableError, ValidationError
from repro.graphs import from_indexed, to_indexed
from repro.runtime import ParallelExecutor

DIFFERENTIAL_SETTINGS = settings(COMMON_SETTINGS, max_examples=12)


@pytest.fixture(scope="module")
def executor():
    """One 2-worker pool shared by the whole module (real IPC, low set-up)."""
    with ParallelExecutor(workers=2, shard_size=2) as shared:
        yield shared


def canonical(results, keep_cache_hit: bool = True):
    """Byte-exact serialisation of everything but wall-clock timings.

    ``keep_cache_hit=False`` drops the schema-cache flag: it reflects the
    service's LRU state, which a long-lived executor legitimately carries
    across hypothesis examples while the per-example serial service starts
    cold (the flag's own invariant is asserted separately).
    """
    records = []
    for result in results:
        record = result.to_dict(include_timing=False)
        if not keep_cache_hit:
            record["provenance"].pop("cache_hit", None)
        records.append(json.dumps(record, sort_keys=True, default=repr))
    return records


def assert_cache_hit_pattern(results):
    """All results after the first solved one must report a context hit."""
    flags = [r.provenance.cache_hit for r in results]
    assert all(flags[1:]), f"non-leading cache miss in {flags}"


def tree_keys(results):
    return [
        (
            sorted(map(repr, r.tree.vertices())),
            sorted(tuple(sorted(map(repr, edge))) for edge in r.tree.edge_set()),
        )
        for r in results
    ]


# ----------------------------------------------------------------------
# differential: hypothesis workloads
# ----------------------------------------------------------------------
@DIFFERENTIAL_SETTINGS
@given(data=st.data())
def test_parallel_merge_is_byte_identical_on_chordal_workloads(executor, data):
    graph = data.draw(chordal_bipartite_graphs(max_blocks=5))
    n_queries = data.draw(st.integers(min_value=2, max_value=8))
    queries = [
        sorted(draw_terminals(data.draw, graph, max_terminals=4), key=repr)
        for _ in range(n_queries)
    ]

    serial = ConnectionService(schema=graph).batch(queries)
    parallel = executor.batch(queries, schema=graph)

    assert canonical(parallel, keep_cache_hit=False) == canonical(
        serial, keep_cache_hit=False
    )
    assert tree_keys(parallel) == tree_keys(serial)
    assert_cache_hit_pattern(parallel)


@DIFFERENTIAL_SETTINGS
@given(data=st.data())
def test_parallel_merge_matches_serial_on_general_bipartite(executor, data):
    graph = data.draw(bipartite_graphs(max_left=4, max_right=4))
    objective = data.draw(st.sampled_from(["steiner", "side"]))
    side = data.draw(st.sampled_from([1, 2])) if objective == "side" else None
    n_queries = data.draw(st.integers(min_value=2, max_value=6))
    queries = []
    for _ in range(n_queries):
        terminals = draw_terminals(data.draw, graph, max_terminals=3)
        if not terminals:
            return
        queries.append(sorted(terminals, key=repr))

    serial = ConnectionService(schema=graph).batch(
        queries, objective=objective, side=side
    )
    parallel = executor.batch(queries, schema=graph, objective=objective, side=side)
    assert canonical(parallel, keep_cache_hit=False) == canonical(
        serial, keep_cache_hit=False
    )
    assert_cache_hit_pattern(parallel)


def test_mixed_request_objects_and_request_order(executor):
    from repro.datasets.generators import random_62_chordal_graph, random_terminals

    graph = random_62_chordal_graph(6, rng=13)
    requests = [
        ConnectionRequest.of(random_terminals(graph, k % 3 + 1, rng=k))
        for k in range(11)
    ]
    serial = ConnectionService(schema=graph).batch(list(requests))
    parallel = executor.batch(list(requests), schema=graph)
    assert [r.request.terminals for r in parallel] == [
        r.request.terminals for r in serial
    ]
    assert canonical(parallel) == canonical(serial)
    # ranks and cache-hit pattern match the serial batch exactly
    assert [r.provenance.cache_hit for r in parallel] == [
        r.provenance.cache_hit for r in serial
    ]


# ----------------------------------------------------------------------
# error semantics
# ----------------------------------------------------------------------
def test_parallel_batch_propagates_earliest_error(executor):
    from repro.datasets.generators import random_62_chordal_graph, random_terminals

    graph = random_62_chordal_graph(5, rng=3)
    good = [random_terminals(graph, 2, rng=i) for i in range(6)]
    requests = [ConnectionRequest.of(q) for q in good]
    # an unknown-solver request placed mid-batch fails in whichever shard
    # it lands; the executor must re-raise it (all-or-nothing)
    requests.insert(3, ConnectionRequest.of(good[0], solver="no-such-solver"))
    with pytest.raises(ValidationError):
        executor.batch(list(requests), schema=graph)


def test_parallel_require_optimal_policy_round_trips(executor):
    from repro.graphs import BipartiteGraph

    # C6 without long chords: not (6,2)-chordal, so 3-terminal queries are
    # planner-exact only via small-instance solvers; with tight limits the
    # policy must reject identically through the pool
    cycle = BipartiteGraph(
        left=["a", "b", "c"],
        right=[1, 2, 3],
        edges=[("a", 1), (1, "b"), ("b", 2), (2, "c"), ("c", 3), (3, "a")],
    )
    request = ConnectionRequest.of(
        ["a", "b", "c"],
        policy="require-optimal",
        exact_terminal_limit=0,
        exact_vertex_limit=0,
    )
    serial_error = None
    try:
        ConnectionService(schema=cycle).batch([request])
    except NotApplicableError as error:
        serial_error = str(error)
    assert serial_error is not None
    with pytest.raises(NotApplicableError) as caught:
        executor.batch([request], schema=cycle)
    assert str(caught.value) == serial_error


# ----------------------------------------------------------------------
# transport building blocks
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(data=st.data())
def test_indexed_graph_pickle_round_trip(data):
    graph = data.draw(bipartite_graphs(max_left=4, max_right=4))
    indexed, index = to_indexed(graph)
    clone = pickle.loads(pickle.dumps(indexed))
    assert clone == indexed
    assert clone.number_of_edges() == indexed.number_of_edges()
    assert clone.edge_set() == indexed.edge_set()
    for v in range(indexed.n):
        assert clone.neighbors(v) == indexed.neighbors(v)
        assert clone.degree(v) == indexed.degree(v)
    index_clone = pickle.loads(pickle.dumps(index))
    assert index_clone.labels == index.labels
    assert index_clone.ids == index.ids
    assert from_indexed(clone, index_clone) == graph


def test_indexed_pickle_is_compact():
    from repro.datasets.generators import random_62_chordal_graph

    graph = random_62_chordal_graph(40, rng=5)
    indexed, index = to_indexed(graph)
    payload = pickle.dumps(indexed, protocol=pickle.HIGHEST_PROTOCOL)
    # the custom __getstate__ ships the CSR arrays only; the derived
    # structures a default slot-state pickle would also carry (bitset rows
    # plus the per-vertex row cache) must stay out of the payload
    naive_state = pickle.dumps(
        {
            "n": indexed.n,
            "indptr": indexed.indptr,
            "indices": indexed.indices,
            "sides": indexed.sides,
            "bits": indexed.bits,
            "_rows": indexed._rows,
            "_edge_count": indexed._edge_count,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    assert len(payload) < 0.7 * len(naive_state)


def test_shard_state_round_trip_preserves_context():
    from repro.datasets.generators import random_62_chordal_graph

    graph = random_62_chordal_graph(6, rng=21)
    context = SchemaContext(graph)
    state = pickle.loads(pickle.dumps(context.shard_state()))
    rebuilt = SchemaContext.from_shard_state(*state)
    assert rebuilt.graph == context.graph
    assert rebuilt.report == context.report
    assert rebuilt.indexed == context.indexed
    assert schema_digest(rebuilt.graph) == schema_digest(context.graph)


def test_transport_memo_invalidates_on_mutation(executor):
    from repro.datasets.generators import random_62_chordal_graph, random_terminals

    graph = random_62_chordal_graph(5, rng=9)
    terminals = random_terminals(graph, 3, rng=1)
    first = executor.batch([terminals], schema=graph)

    left = sorted(graph.left(), key=repr)
    graph.add_to_side(("r", "new"), 2)
    for vertex in left[:2]:
        graph.add_edge(vertex, ("r", "new"))

    serial = ConnectionService(schema=graph).batch([terminals])
    parallel = executor.batch([terminals], schema=graph)
    assert canonical(parallel) == canonical(serial)
    assert first  # the pre-mutation answer existed and was not reused


# ----------------------------------------------------------------------
# executor API surface
# ----------------------------------------------------------------------
def test_workers_one_short_circuits_to_serial():
    from repro.datasets.generators import random_62_chordal_graph, random_terminals

    graph = random_62_chordal_graph(4, rng=2)
    queries = [random_terminals(graph, 2, rng=i) for i in range(4)]
    with ParallelExecutor(workers=1, schema=graph) as executor:
        results = executor.batch(queries)
        assert executor._pool is None  # no pool was ever created
    serial = ConnectionService(schema=graph).batch(queries)
    assert canonical(results) == canonical(serial)


def test_executor_constructor_validation():
    with pytest.raises(ValidationError):
        ParallelExecutor(workers=0)
    with pytest.raises(ValidationError):
        ParallelExecutor(workers=2, shard_size=0)
    with pytest.raises(ValidationError):
        ParallelExecutor(service=ConnectionService(), config=None, schema=object())


# ----------------------------------------------------------------------
# worker metrics ride the shard envelope back to the parent
# ----------------------------------------------------------------------
def test_worker_metrics_merge_into_parent_registry():
    from repro.datasets.generators import random_62_chordal_graph, random_terminals
    from repro.metrics import MetricsRegistry
    from repro.api import ServiceConfig

    graph = random_62_chordal_graph(6, rng=3)
    registry = MetricsRegistry()
    queries = [
        sorted(random_terminals(graph, 2, rng=seed), key=repr)
        for seed in range(8)
    ]
    with ParallelExecutor(
        workers=2, shard_size=2,
        service=ConnectionService(
            schema=graph, config=ServiceConfig(metrics=registry)
        ),
    ) as pool:
        pool.batch(queries)
        observed = _query_count(registry)
        # every query answered by a worker lands in the parent registry
        assert observed == len(queries)
        # a second batch adds exactly its own count: per-batch deltas,
        # no double-counting from the workers' long-lived registries
        pool.batch(queries)
        assert _query_count(registry) == 2 * len(queries)


def _query_count(registry) -> float:
    total = 0.0
    for family in registry.snapshot(kinds=("counter",))["families"]:
        if family["name"] == "repro_queries_total":
            total += sum(state for _, state in family["children"])
    return total
