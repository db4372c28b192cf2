"""Kernel-layer benchmarks: the distance oracle and the hot-loop audit.

Acceptance numbers for the ``repro.kernels`` subsystem on the 515-vertex
(6,2)-chordal acceptance schema (same generator seed as
``python -m repro spec-template``):

* **KN1 -- oracle reads**: reading a group of k=16 distance rows through
  :meth:`~repro.kernels.oracle.DistanceOracle.levels` (the serving path)
  is >= 3x faster than k sequential ``bfs_levels`` calls once the oracle
  is warm (in practice two orders of magnitude; the cold fill is
  recorded too -- it is *not* faster than raw BFS, see the write-bound
  analysis in ``docs/performance.md``, which is exactly why the oracle
  caches rows instead of recomputing them faster).
* **KN2 -- warm service batches**: a warm ``ConnectionService.batch``
  (the one production batch path) over a 200-query mix with overlapping
  terminals is >= 2x faster than the PR 4 warm path (replicated verbatim
  below: per-query ``bfs_parents`` plus the full-edge-scan cover
  induction), with identical trees.
* **KN4 -- hot-loop audit**: the ``row()``/dense-level fast lanes that
  replaced fresh-``set``-allocating ``neighbors()`` calls in the
  steiner/chordality inner loops are measurably faster (the audit also
  *rejected* a bitset Lex-BFS refinement that measured slower; the
  losing variant is kept in ``tests/test_kernels.py`` as a reference).
* **KN6 -- budgeted oracle**: a byte-budgeted oracle streamed far more
  sources than it can hold stays under its budget by evicting.

Set ``REPRO_BENCH_SMOKE=1`` for the scaled-down CI variant: same code
paths, tiny workload, correctness assertions only.
"""

import os
import random
from collections import deque
from time import perf_counter

from conftest import record

from repro.api import ConnectionService
from repro.chordality.peo import is_simplicial
from repro.datasets.generators import random_62_chordal_graph, random_terminals
from repro.engine.registry import _eliminate_within
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.spanning import spanning_tree
from repro.graphs.traversal import vertices_in_same_component
from repro.steiner.problem import SteinerInstance, prune_non_terminal_leaves

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Module-level scenario cache: the schema build + classification is a
#: shared one-off, not part of any measured case.
_SCENARIOS = {}


def _scenario(blocks):
    """Return ``(graph, service, context)`` for a seeded chordal schema.

    The context is built and classified here, once, so the cases below
    measure warm-path behaviour rather than the one-off Theorem 1 cost
    every mode shares.
    """
    if blocks not in _SCENARIOS:
        graph = random_62_chordal_graph(blocks, rng=1985)
        service = ConnectionService(schema=graph)
        context = service.engine.cache.get_or_build(graph)
        context.report
        _SCENARIOS[blocks] = (graph, service, context)
    return _SCENARIOS[blocks]


def _best_of(repeats, function):
    """Return the best wall time of ``repeats`` runs of ``function``."""
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        function()
        best = min(best, perf_counter() - started)
    return best


# ----------------------------------------------------------------------
# KN1: a group of rows read through the oracle vs sequential bfs_levels
# ----------------------------------------------------------------------
def test_grouped_bfs_beats_sequential_bfs_levels(benchmark):
    """Oracle-warm reads of k rows vs k fresh ``bfs_levels`` traversals."""
    blocks, k = (12, 8) if SMOKE else (170, 16)
    graph, _, context = _scenario(blocks)
    indexed = context.indexed
    assert indexed.n >= (30 if SMOKE else 500)
    rng = random.Random(3)
    sources = rng.sample(range(indexed.n), k)

    # cold oracle for the fill timing
    fresh = context.__class__(graph, report=context.report).distance_oracle
    started = perf_counter()
    for source in sources:
        fresh.levels(source)
    cold_fill_seconds = perf_counter() - started

    oracle = context.distance_oracle
    # the amortised fill every later read shares
    rows = [oracle.levels(source) for source in sources]
    naive = [indexed.bfs_levels(source) for source in sources]
    assert [list(row) for row in rows] == naive  # value-identical rows

    repeats = 3 if SMOKE else 20
    grouped_seconds = _best_of(
        repeats, lambda: [oracle.levels(source) for source in sources]
    )
    sequential_seconds = _best_of(
        repeats, lambda: [indexed.bfs_levels(source) for source in sources]
    )
    benchmark(lambda: [oracle.levels(source) for source in sources])

    speedup = (
        sequential_seconds / grouped_seconds if grouped_seconds > 0 else float("inf")
    )
    record(
        benchmark,
        experiment="KN1",
        vertices=indexed.n,
        sources=k,
        wall_seconds=grouped_seconds,
        sequential_seconds=sequential_seconds,
        cold_fill_seconds=round(cold_fill_seconds, 6),
        speedup=round(speedup, 2),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert speedup >= 3.0, (
            f"warm oracle reads must be >= 3x sequential bfs_levels, got "
            f"{speedup:.2f}x"
        )


# ----------------------------------------------------------------------
# KN2: warm ConnectionService.batch vs the PR 4 warm path
# ----------------------------------------------------------------------
def _pr4_warm_solve(context, terminals):
    """The PR 4 warm query path, replicated verbatim as the baseline.

    Per query: one fresh ``bfs_parents`` traversal (no oracle), the seed
    elimination, and the cover induced by a **full edge scan** of the
    schema graph (the pre-kernel ``BipartiteGraph.subgraph``).  Returns
    the pruned tree, which must equal the service's.
    """
    instance = SteinerInstance(context.graph, terminals)
    terminal_ids = sorted(context.index.encode(instance.terminals))
    indexed = context.indexed
    root = terminal_ids[0]
    parents = indexed.bfs_parents(root)
    seed = set(terminal_ids)
    for terminal in terminal_ids:
        current = terminal
        while current != root:
            current = parents[current]
            seed.add(current)
    cover_ids = _eliminate_within(indexed, seed, terminal_ids)
    keep = context.index.decode_set(cover_ids)
    graph = context.graph
    induced = BipartiteGraph(
        left={v for v in keep if graph.side_of(v) == 1},
        right={v for v in keep if graph.side_of(v) == 2},
    )
    for u, v in graph.edges():  # the full scan the kernel layer removed
        if u in keep and v in keep:
            induced.add_edge(u, v)
    tree = spanning_tree(induced)
    return prune_non_terminal_leaves(tree, instance.terminals)


def test_warm_service_batch_beats_pr4_warm_path(benchmark):
    """Warm ``ConnectionService.batch`` on overlapping terminals vs the PR 4 loop."""
    blocks, n_queries = (12, 30) if SMOKE else (170, 200)
    graph, service, context = _scenario(blocks)
    rng = random.Random(7)
    queries = [random_terminals(graph, 3, rng=rng) for _ in range(n_queries)]

    results = service.batch(queries)  # warms the oracle
    baseline_trees = [_pr4_warm_solve(context, query) for query in queries]
    for result, tree in zip(results, baseline_trees):
        assert result.tree.vertices() == tree.vertices()
        assert result.tree.edge_set() == tree.edge_set()

    repeats = 2 if SMOKE else 5
    warm_seconds = _best_of(repeats, lambda: service.batch(queries))
    pr4_seconds = _best_of(
        repeats, lambda: [_pr4_warm_solve(context, query) for query in queries]
    )
    benchmark(service.batch, queries)

    speedup = warm_seconds and pr4_seconds / warm_seconds
    record(
        benchmark,
        experiment="KN2",
        vertices=context.indexed.n,
        queries=n_queries,
        wall_seconds=warm_seconds,
        pr4_warm_seconds=pr4_seconds,
        speedup=round(speedup, 2),
        oracle=service.cache_stats()["distance_oracle"],
        smoke=SMOKE,
    )
    if not SMOKE:
        assert speedup >= 2.0, (
            f"warm ConnectionService.batch must be >= 2x the PR 4 warm path, "
            f"got {speedup:.2f}x"
        )


# ----------------------------------------------------------------------
# KN4: hot-loop audit -- row()/dense-level lanes vs neighbors() sets
# ----------------------------------------------------------------------
def _feasibility_reference(graph, vertices):
    """The pre-audit feasibility check: repr-sorting neighbour-set BFS."""
    targets = list(vertices)
    visited = {targets[0]}
    queue = deque([targets[0]])
    while queue:
        current = queue.popleft()
        for neighbor in sorted(graph.neighbors(current), key=repr):
            if neighbor not in visited:
                visited.add(neighbor)
                queue.append(neighbor)
    return all(v in visited for v in targets)


def test_hot_loop_audit_row_lanes_beat_neighbor_sets(benchmark):
    """The audit's ``row()``/dense-level lanes vs the old set-allocating loops."""
    blocks = 12 if SMOKE else 170
    _, _, context = _scenario(blocks)
    indexed = context.indexed
    rng = random.Random(5)
    triples = [rng.sample(range(indexed.n), 3) for _ in range(20 if SMOKE else 50)]

    for triple in triples:
        assert vertices_in_same_component(indexed, triple) == _feasibility_reference(
            indexed, triple
        )
        for vertex in triple:
            assert is_simplicial(indexed, vertex) == indexed.is_clique(
                indexed.neighbors(vertex)
            )

    repeats = 2 if SMOKE else 5
    feasibility_fast = _best_of(
        repeats,
        lambda: [vertices_in_same_component(indexed, t) for t in triples],
    )
    feasibility_slow = _best_of(
        repeats, lambda: [_feasibility_reference(indexed, t) for t in triples]
    )
    simplicial_fast = _best_of(
        repeats, lambda: [is_simplicial(indexed, v) for v in range(indexed.n)]
    )
    simplicial_slow = _best_of(
        repeats,
        lambda: [
            indexed.is_clique(indexed.neighbors(v)) for v in range(indexed.n)
        ],
    )
    benchmark(lambda: [vertices_in_same_component(indexed, t) for t in triples])

    feasibility_speedup = feasibility_slow / feasibility_fast
    simplicial_speedup = simplicial_slow / simplicial_fast
    record(
        benchmark,
        experiment="KN4",
        vertices=indexed.n,
        wall_seconds=feasibility_fast,
        feasibility_speedup=round(feasibility_speedup, 2),
        simplicial_speedup=round(simplicial_speedup, 2),
        speedup=round(feasibility_speedup, 2),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert feasibility_speedup >= 3.0, (
            f"dense-level feasibility must be >= 3x the repr-sorting walk, "
            f"got {feasibility_speedup:.2f}x"
        )
        assert simplicial_speedup >= 1.1, (
            f"row()-based is_simplicial must beat the neighbour-set variant, "
            f"got {simplicial_speedup:.2f}x"
        )


# ----------------------------------------------------------------------
# KN6: budgeted oracle under memory pressure (bounded, never OOM)
# ----------------------------------------------------------------------
def test_budgeted_oracle_under_memory_pressure(benchmark):
    """KN6: a byte-budgeted oracle stays under budget across heavy traffic.

    Streams far more distinct sources through a
    :class:`~repro.kernels.oracle.DistanceOracle` than its byte budget
    can hold (each row is ``4n`` bytes, the budget fits 16 of them);
    the oracle must evict instead of growing -- ``bytes_held()`` never
    exceeds the budget, rows keep answering correctly, and the eviction
    counter proves degradation actually happened.
    """
    from repro.graphs.generators import large_block_chain
    from repro.kernels import DistanceOracle

    blocks, waves, k = (300, 4, 8) if SMOKE else (33334, 8, 32)
    graph = large_block_chain(blocks, 2, 2)
    budget = 16 * 4 * graph.n
    oracle = DistanceOracle(graph, maxsize=10**9, memory_budget_bytes=budget)
    rng = random.Random(41)

    peak = 0
    started = perf_counter()
    for _ in range(waves):
        for _ in range(k):
            oracle.levels(rng.randrange(graph.n))
            peak = max(peak, oracle.bytes_held())
        assert oracle.bytes_held() <= budget
    fill_seconds = perf_counter() - started

    # rows stay correct after (and despite) budget evictions
    probe = rng.randrange(graph.n)
    assert list(oracle.levels(probe)) == graph.bfs_levels(probe)
    assert oracle.stats.evictions > 0, "the budget never forced an eviction"
    assert oracle.bytes_held() <= budget

    benchmark(lambda: [oracle.levels(rng.randrange(graph.n)) for _ in range(k)])
    record(
        benchmark,
        experiment="KN6",
        vertices=graph.n,
        wall_seconds=fill_seconds,
        budget_bytes=budget,
        peak_bytes=peak,
        evictions=oracle.stats.evictions,
        smoke=SMOKE,
    )
