"""E14/E16 -- the database motivation: query interpretation and semijoin programs.

Also home of the batch headline benchmark: a cold
``ConnectionService.batch`` over >= 100 random queries on a >= 500-vertex
(6,2)-chordal schema vs. the per-query ``steiner_algorithm2`` loop.  Set
``REPRO_BENCH_SMOKE=1`` to run a scaled-down smoke variant (used by CI to
catch perf-path import breakage without paying the full measurement).
"""

import os
import random
from time import perf_counter

from conftest import record

from repro.api import ConnectionService
from repro.datasets.figures import figure1_query, figure1_relational_schema
from repro.datasets.generators import (
    random_62_chordal_graph,
    random_alpha_acyclic_schema,
    random_terminals,
)
from repro.engine.planner import plan_query
from repro.semantic import QueryInterpreter, plain_join_plan, semijoin_program
from repro.steiner import steiner_algorithm2

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def test_figure1_query_interpretation(benchmark):
    """E14: the EMPLOYEE/DATE query's minimal reading uses no auxiliary object."""
    interpreter = QueryInterpreter(figure1_relational_schema())

    best = benchmark(interpreter.minimal_interpretation, figure1_query())
    # explicit wall time: CI runs with --benchmark-disable, where the
    # fixture collects no stats for record() to fall back on
    start = perf_counter()
    interpreter.minimal_interpretation(figure1_query())
    wall_seconds = perf_counter() - start
    record(
        benchmark,
        experiment="E14",
        auxiliary_objects=len(best.auxiliary_objects),
        objects=len(best.objects),
        wall_seconds=round(wall_seconds, 6),
    )
    assert not best.auxiliary_objects


def test_query_interpretation_on_large_schema(benchmark):
    """E16: attribute queries over a 40-relation alpha-acyclic schema."""
    schema = random_alpha_acyclic_schema(40, max_arity=4, rng=11)
    interpreter = QueryInterpreter(schema)
    attributes = sorted(schema.attributes(), key=repr)
    rng = random.Random(5)
    queries = [rng.sample(attributes, 3) for _ in range(5)]

    def run():
        relation_counts = []
        for query in queries:
            interpretation = interpreter.fewest_relations_interpretation(query)
            relation_counts.append(len(interpreter.relations_of(interpretation)))
        return relation_counts

    counts = benchmark(run)
    start = perf_counter()
    run()
    wall_seconds = perf_counter() - start
    record(
        benchmark,
        experiment="E16",
        queries=len(queries),
        relations_used=counts,
        wall_seconds=round(wall_seconds, 6),
    )
    assert all(count >= 1 for count in counts)


def test_semijoin_program_matches_plain_join(benchmark):
    """E16: the full reducer computes exactly the same answer as the plain join."""
    schema = random_alpha_acyclic_schema(8, max_arity=4, rng=3)
    database = schema.random_database(rows_per_relation=20, domain_size=4, rng=3)
    names = schema.relation_names()

    def run():
        reduced = semijoin_program(schema, names).execute(database)
        plain = plain_join_plan(names).execute(database)
        assert reduced == plain
        return len(reduced)

    rows = benchmark(run)
    start = perf_counter()
    run()
    wall_seconds = perf_counter() - start
    record(
        benchmark,
        experiment="E16",
        join_result_rows=rows,
        relations=len(names),
        wall_seconds=round(wall_seconds, 6),
    )


def _batch_scenario():
    """A large chordal schema plus a stream of random 3-terminal queries.

    Full mode: >= 500 vertices, 100 queries (the acceptance scenario).
    Smoke mode: a 20-block schema and 10 queries, same code paths.
    """
    blocks, n_queries = (20, 10) if SMOKE else (170, 100)
    graph = random_62_chordal_graph(blocks, rng=1985)
    rng = random.Random(7)
    queries = [random_terminals(graph, 3, rng=rng) for _ in range(n_queries)]
    return graph, queries


def test_service_batch_beats_per_query_loop(benchmark):
    """E16+: ``ConnectionService.batch`` amortises schema precomputation.

    Three timings are recorded:

    * ``loop_seconds``   -- per-query ``steiner_algorithm2`` calls with the
      classification hoisted out (the paper-faithful per-query path);
    * ``batch_cold_seconds`` -- one ``batch`` on a fresh service, i.e.
      including the one-off classification + indexing of the schema;
    * the pytest-benchmark timing -- warm batches on the cached context.

    The acceptance bar is cold-batch >= 3x faster than the loop; warm
    batches are orders of magnitude faster still.  Every query's tree cost
    is asserted equal between the two paths.
    """
    graph, queries = _batch_scenario()
    assert graph.number_of_vertices() >= (40 if SMOKE else 500)
    assert len(queries) >= (10 if SMOKE else 100)

    start = perf_counter()
    per_query = [
        steiner_algorithm2(graph, q, check=False, applicable=True) for q in queries
    ]
    loop_seconds = perf_counter() - start

    service = ConnectionService()
    start = perf_counter()
    batched = service.batch(queries, schema=graph)
    batch_cold_seconds = perf_counter() - start

    assert [s.vertex_count() for s in per_query] == [
        r.cost for r in batched
    ], "the service batch disagrees with the per-query algorithm"

    warm = benchmark(service.batch, queries, schema=graph)
    assert [r.cost for r in warm] == [r.cost for r in batched]

    speedup_cold = loop_seconds / batch_cold_seconds
    record(
        benchmark,
        experiment="E16+",
        vertices=graph.number_of_vertices(),
        edges=graph.number_of_edges(),
        queries=len(queries),
        loop_seconds=round(loop_seconds, 3),
        batch_cold_seconds=round(batch_cold_seconds, 3),
        speedup_cold=round(speedup_cold, 2),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert speedup_cold >= 3.0, (
            f"ConnectionService.batch must be >= 3x faster than the per-query loop, "
            f"got {speedup_cold:.2f}x"
        )


def test_service_facade_overhead(benchmark):
    """E16+: the typed façade must be nearly free on the warm path.

    ``ConnectionService.batch`` wraps the engine's plan/execute loop in
    request normalisation, provenance records and wall-clock stamps; the
    contract is that this bookkeeping adds < 5% latency over a bare
    ``plan_query`` + ``engine.execute_plan`` loop on the same warm context
    (smoke mode uses a loose 50% bar -- tiny instances make the ratio
    noise-dominated).  The two sides alternate within each repetition, so
    host drift hits both alike.
    """
    graph, queries = _batch_scenario()
    service = ConnectionService(schema=graph)
    engine = service.engine
    service.batch(queries)  # warm the schema context and the oracle
    context = engine.cache.get_or_build(graph)
    limits = {
        "exact_terminal_limit": service.config.exact_terminal_limit,
        "exact_vertex_limit": service.config.exact_vertex_limit,
    }

    def bare_loop():
        return [
            engine.execute_plan(context, plan_query(context, query, **limits), query, 2)
            for query in queries
        ]

    engine_seconds = service_seconds = float("inf")
    for _ in range(5):
        start = perf_counter()
        bare_loop()
        engine_seconds = min(engine_seconds, perf_counter() - start)
        start = perf_counter()
        service.batch(queries)
        service_seconds = min(service_seconds, perf_counter() - start)

    results = benchmark(service.batch, queries)
    solutions = bare_loop()
    assert [r.cost for r in results] == [s.vertex_count() for s in solutions], (
        "the façade changed an answer"
    )
    assert all(r.provenance.cache_hit for r in results)

    overhead = service_seconds / engine_seconds - 1.0
    record(
        benchmark,
        experiment="E16+",
        queries=len(queries),
        engine_warm_seconds=round(engine_seconds, 4),
        service_warm_seconds=round(service_seconds, 4),
        facade_overhead_pct=round(overhead * 100, 2),
        smoke=SMOKE,
    )
    bar = 0.50 if SMOKE else 0.05
    assert overhead < bar, (
        f"ConnectionService adds {overhead:.1%} latency over the bare engine "
        f"(warm cache); the bar is {bar:.0%}"
    )
