"""EX1 -- exact Steiner trees on general-class schemas: Dreyfus-Wagner on ids.

The planner answers Steiner queries of up to 8 terminals on schemas
outside the (6,2)-chordal class exactly, with Dreyfus-Wagner; the paper's
Theorem 2 says nothing polynomial exists there in general.  This case
times ``steiner_tree_dreyfus_wagner`` at k = 3, 5 and 8 on a 60-relation
alpha-acyclic schema (the size the serving benchmark's general-class
tenants have) against the label-space formulation of the test-suite
(``tests/steiner_reference.py``): all-pairs BFS per call and an
``O(n^2)`` extension per terminal subset.  Every tree must be identical
to the reference's, and in full mode the id-space solver must be >= 5x
faster at k = 5.

Three timings per k, each the median over the same terminal sets:

* ``solver_seconds`` -- the public call on the label graph (it builds its
  own indexed view and distance rows);
* ``registry_seconds`` -- the engine's registered solver on a warm schema
  context, whose distance oracle already holds the terminals' rows;
* ``reference_seconds`` -- the label-space reference.

EX2 -- the heuristic the planner sends larger general-class requests
to: ``solve_kmb`` on a warm schema context (metric closure from the
distance oracle's level rows, closure edges expanded along its cached
parent rows, the tree built on ids) against the label-space
``reference_kou_markowsky_berman`` of the same module, at k = 9 and 10
on the same 60-relation schema.  Every tree must be identical to the
reference's, and in full mode the registry path must be >= 6x faster.

EX3 -- Algorithm 1 confined to the terminals' blocks: the registered
``solve_algorithm1_indexed`` on a warm context (Step 2 scans only the
blocks on the block-cut-tree paths between the terminals, then adds back
the neighbours of the surviving ``V_2`` vertices) against the
whole-component scan it replaced and against the label-space
``pseudo_steiner_algorithm1``, at k = 6 on a 300-relation alpha schema
(829 vertices).  Covers and trees must be identical to both, and in full
mode the registry path must be >= 3x faster than the whole-component scan.

EX4 -- the seed-local chordal elimination: ``solve_chordal_elimination``
on a warm context of a (6,2)-chordal schema of 11,931 vertices, whose
Step 2 works on masks of the seed's size, against the same answer with
Step 2 done by ``indexed_elimination_cover(restrict=seed)`` (arrays of
the schema's size per call).  Covers and trees must be identical, and in
full mode the registry path must be >= 2.5x faster.

EX5 -- the first side answer at scale: a cold ``ConnectionService``'s
first ``objective="side"`` answer at k = 6 on alpha schemas of 1,712 and
6,863 vertices (``random_alpha_schema_graph(600/2400, rng=7)``).  It pays
the context build, the blockwise classification and the side plan: one
restricted maximum cardinality search on ids over the component, where
the GYO reduction alone used to take 22 s at 1,712 vertices and more than
600 s at 6,863.  The answer must be a valid tree, and its ``V_2`` count
must equal the label-space ``pseudo_steiner_algorithm1``'s (about 0.6 s
at 1,712 vertices and 12 s at 6,863); in full mode it must take at most
0.5 s and 2 s.

Set ``REPRO_BENCH_SMOKE=1`` for the scaled-down CI variant: same code
paths, a 20-relation schema (EX3 too), a 100-block chordal schema (EX4)
and 20- and 60-relation schemas (EX5), correctness assertions only.
"""

import importlib.util
import os
import random
from pathlib import Path
from statistics import median
from time import perf_counter

import pytest

from conftest import record

from repro.datasets.generators import (
    random_62_chordal_graph,
    random_alpha_schema_graph,
    random_terminals,
)
from repro.api import ConnectionService
from repro.engine.cache import SchemaContext
from repro.engine.registry import (
    _cover_tree,
    solve_algorithm1_indexed,
    solve_chordal_elimination,
    solve_dreyfus_wagner,
    solve_kmb,
)
from repro.graphs.indexed import indexed_elimination_cover
from repro.steiner import pseudo_steiner_algorithm1, steiner_tree_dreyfus_wagner

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Terminal sets timed per k (the median is reported).
QUERIES = 2 if SMOKE else 5

#: Full-mode bar at k = 5, against the label-space reference.
MIN_SPEEDUP_K5 = 5.0

#: Full-mode EX2 bar for KMB on a warm context, against the label-space
#: reference (18-19x measured on a 2-core VM).
MIN_SPEEDUP_KMB = 6.0

#: Full-mode EX3 bar for the region scan against the whole-component
#: scan at 829 vertices (7.2-10.3x measured on a 2-core VM).
MIN_SPEEDUP_REGION = 3.0

#: Full-mode EX4 bar for the seed-local elimination against
#: ``indexed_elimination_cover(restrict=seed)`` at 11,931 vertices
#: (4.9-5.2x measured on a 2-core VM).
MIN_SPEEDUP_SEED_LOCAL = 2.5

#: EX5 cases: relations of the alpha schema -> full-mode bar on the cold
#: first side answer, in seconds (1,712 and 6,863 vertices).
FIRST_SIDE_CASES = {20: None, 60: None} if SMOKE else {600: 0.5, 2400: 2.0}

#: Relation counts at which EX5 also runs the label-space Algorithm 1.
FIRST_SIDE_REFERENCE = (20, 60, 600, 2400)


def _load_reference():
    """Import the test-suite's reference module (``tests/`` is no package)."""
    path = Path(__file__).resolve().parents[1] / "tests" / "steiner_reference.py"
    spec = importlib.util.spec_from_file_location("steiner_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_REFERENCE = _load_reference()
reference_dreyfus_wagner = _REFERENCE.reference_dreyfus_wagner
reference_kou_markowsky_berman = _REFERENCE.reference_kou_markowsky_berman


def _timed(solve, queries):
    """Run ``solve`` on every query; return (median seconds, solutions)."""
    samples, solutions = [], []
    for terminals in queries:
        start = perf_counter()
        solutions.append(solve(terminals))
        samples.append(perf_counter() - start)
    return median(samples), solutions


def _shape(solution):
    return (
        solution.tree.vertices(),
        solution.tree.edge_set(),
        solution.metadata["dp_cost_edges"],
    )


@pytest.mark.parametrize("k", [3, 5, 8])
def test_dreyfus_wagner_on_ids(benchmark, k):
    """EX1: id-space Dreyfus-Wagner against the label-space reference."""
    graph = random_alpha_schema_graph(20 if SMOKE else 60, rng=7)
    rng = random.Random(1000 + k)
    queries = [random_terminals(graph, k, rng=rng) for _ in range(QUERIES)]
    context = SchemaContext(graph)
    for terminals in queries:  # warm the oracle rows the registry path reads
        solve_dreyfus_wagner(context, terminals)

    solver_seconds, solved = _timed(
        lambda terminals: steiner_tree_dreyfus_wagner(graph, terminals), queries
    )
    registry_seconds, served = _timed(
        lambda terminals: solve_dreyfus_wagner(context, terminals), queries
    )
    reference_seconds, expected = _timed(
        lambda terminals: reference_dreyfus_wagner(graph, terminals), queries
    )
    for mine, engine, reference in zip(solved, served, expected):
        assert _shape(mine) == _shape(engine) == _shape(reference)

    benchmark(lambda: solve_dreyfus_wagner(context, queries[0]))

    speedup = reference_seconds / solver_seconds if solver_seconds > 0 else 0.0
    record(
        benchmark,
        experiment="EX1",
        k=k,
        vertices=graph.number_of_vertices(),
        edges=graph.number_of_edges(),
        solver_seconds=round(solver_seconds, 5),
        registry_seconds=round(registry_seconds, 5),
        reference_seconds=round(reference_seconds, 4),
        speedup=round(speedup, 1),
        smoke=SMOKE,
    )
    if k == 5 and not SMOKE:
        assert speedup >= MIN_SPEEDUP_K5, (
            f"Dreyfus-Wagner on ids must be >= {MIN_SPEEDUP_K5}x faster than "
            f"the label-space reference at k = 5, got {speedup:.1f}x"
        )


def _tree(solution):
    return solution.tree.vertices(), solution.tree.edge_set()


@pytest.mark.parametrize("k", [9, 10])
def test_kmb_on_ids(benchmark, k):
    """EX2: KMB on ids and the distance oracle against the label-space reference."""
    graph = random_alpha_schema_graph(20 if SMOKE else 60, rng=7)
    rng = random.Random(2000 + k)
    queries = [random_terminals(graph, k, rng=rng) for _ in range(QUERIES)]
    context = SchemaContext(graph)
    for terminals in queries:  # warm the level and parent rows KMB reads
        solve_kmb(context, terminals)

    registry_seconds, served = _timed(
        lambda terminals: solve_kmb(context, terminals), queries
    )
    reference_seconds, expected = _timed(
        lambda terminals: reference_kou_markowsky_berman(graph, terminals), queries
    )
    for engine, reference in zip(served, expected):
        assert _tree(engine) == _tree(reference)

    benchmark(lambda: solve_kmb(context, queries[0]))

    speedup = reference_seconds / registry_seconds if registry_seconds > 0 else 0.0
    record(
        benchmark,
        experiment="EX2",
        k=k,
        vertices=graph.number_of_vertices(),
        edges=graph.number_of_edges(),
        registry_seconds=round(registry_seconds, 5),
        reference_seconds=round(reference_seconds, 4),
        speedup=round(speedup, 1),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP_KMB, (
            f"KMB on a warm context must be >= {MIN_SPEEDUP_KMB}x faster than "
            f"the label-space reference at k = {k}, got {speedup:.1f}x"
        )


def _whole_component_scan(context, terminals):
    """Algorithm 1's Step 2 over the whole component: ``(cover, tree)`` labels."""
    ids = sorted(context.index.encode(terminals))
    plan = context.side_plan(2, ids[0])
    cover = indexed_elimination_cover(
        context.indexed,
        ids,
        ordering=plan.ordering,
        removal_batches=True,
        restrict=plan.component,
    )
    tree = _cover_tree(context, cover, ids)
    return context.index.decode_set(cover), (tree.vertices(), tree.edge_set())


def test_algorithm1_region_scan(benchmark):
    """EX3: Step 2 on the terminals' blocks against the whole-component scan."""
    graph = random_alpha_schema_graph(20 if SMOKE else 300, rng=7)
    rng = random.Random(3006)
    queries = [random_terminals(graph, 6, rng=rng) for _ in range(QUERIES)]
    context = SchemaContext(graph)
    for terminals in queries:  # build the side plan once
        solve_algorithm1_indexed(context, terminals)

    registry_seconds, served = _timed(
        lambda terminals: solve_algorithm1_indexed(context, terminals), queries
    )
    whole_seconds, whole = _timed(
        lambda terminals: _whole_component_scan(context, terminals), queries
    )
    reference_seconds, expected = _timed(
        lambda terminals: pseudo_steiner_algorithm1(graph, terminals, applicable=True),
        queries,
    )
    for engine, (cover, tree), reference in zip(served, whole, expected):
        assert engine.metadata["cover"] == cover == reference.metadata["cover"]
        assert _tree(engine) == tree == _tree(reference)

    benchmark(lambda: solve_algorithm1_indexed(context, queries[0]))

    speedup = whole_seconds / registry_seconds if registry_seconds > 0 else 0.0
    record(
        benchmark,
        experiment="EX3",
        k=6,
        vertices=graph.number_of_vertices(),
        edges=graph.number_of_edges(),
        registry_seconds=round(registry_seconds, 5),
        whole_component_seconds=round(whole_seconds, 5),
        reference_seconds=round(reference_seconds, 4),
        speedup=round(speedup, 1),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP_REGION, (
            f"Algorithm 1 on the terminals' blocks must be >= {MIN_SPEEDUP_REGION}x "
            f"faster than the whole-component scan, got {speedup:.1f}x"
        )


def _restricted_elimination_answer(context, terminals):
    """The chordal answer with Step 2 by ``indexed_elimination_cover(restrict=seed)``."""
    ids = sorted(context.index.encode(terminals))
    parents = context.distance_oracle.parents(ids[0])
    seed = set(ids)
    for terminal in ids:
        while terminal != ids[0]:
            terminal = parents[terminal]
            seed.add(terminal)
    cover = indexed_elimination_cover(context.indexed, ids, restrict=seed)
    tree = _cover_tree(context, cover, ids)
    return context.index.decode_set(cover), (tree.vertices(), tree.edge_set())


def test_chordal_elimination_seed_local(benchmark):
    """EX4: a warm chordal answer on seed-local masks against the restricted scan."""
    graph = random_62_chordal_graph(100 if SMOKE else 4000, rng=7)
    rng = random.Random(4004)
    queries = [random_terminals(graph, 4, rng=rng) for _ in range(QUERIES)]
    context = SchemaContext(graph)
    for terminals in queries:  # warm the oracle's parent rows
        solve_chordal_elimination(context, terminals)

    registry_seconds, served = _timed(
        lambda terminals: solve_chordal_elimination(context, terminals), queries
    )
    reference_seconds, expected = _timed(
        lambda terminals: _restricted_elimination_answer(context, terminals), queries
    )
    for engine, (cover, tree) in zip(served, expected):
        assert engine.metadata["cover"] == cover
        assert _tree(engine) == tree

    benchmark(lambda: solve_chordal_elimination(context, queries[0]))

    speedup = reference_seconds / registry_seconds if registry_seconds > 0 else 0.0
    record(
        benchmark,
        experiment="EX4",
        k=4,
        vertices=graph.number_of_vertices(),
        edges=graph.number_of_edges(),
        registry_seconds=round(registry_seconds, 6),
        reference_seconds=round(reference_seconds, 5),
        speedup=round(speedup, 1),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP_SEED_LOCAL, (
            f"the seed-local chordal elimination must be >= {MIN_SPEEDUP_SEED_LOCAL}x "
            f"faster than indexed_elimination_cover(restrict=seed), got {speedup:.1f}x"
        )


@pytest.mark.parametrize("relations", sorted(FIRST_SIDE_CASES))
def test_first_side_answer_at_scale(benchmark, relations):
    """EX5: a cold service's first ``objective="side"`` answer."""
    graph = random_alpha_schema_graph(relations, rng=7)
    terminals = random_terminals(graph, 6, rng=random.Random(1))

    def first_answer():
        return ConnectionService(schema=graph).connect(terminals, objective="side", side=2)

    cold_seconds, answers = _timed(lambda _: first_answer(), range(1 if SMOKE else 3))
    answer = answers[0]
    assert answer.provenance.solver == "algorithm1-indexed"
    answer.solution.validate()
    info = dict(
        experiment="EX5",
        k=6,
        vertices=graph.number_of_vertices(),
        edges=graph.number_of_edges(),
        first_answer_seconds=round(cold_seconds, 4),
        smoke=SMOKE,
    )
    if relations in FIRST_SIDE_REFERENCE:
        reference_seconds, (reference,) = _timed(
            lambda _: pseudo_steiner_algorithm1(graph, terminals, side=2, applicable=True),
            [None],
        )
        assert answer.solution.side_count(2) == reference.side_count(2)
        info["reference_seconds"] = round(reference_seconds, 4)

    benchmark.pedantic(first_answer, rounds=1, iterations=1)

    record(benchmark, **info)
    bar = FIRST_SIDE_CASES[relations]
    if bar is not None:
        assert cold_seconds <= bar, (
            f"the first side answer at {graph.number_of_vertices()} vertices must "
            f"take <= {bar} s, got {cold_seconds:.2f} s"
        )
