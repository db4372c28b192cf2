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

Set ``REPRO_BENCH_SMOKE=1`` for the scaled-down CI variant: same code
paths, a 20-relation schema, correctness assertions only.
"""

import importlib.util
import os
import random
from pathlib import Path
from statistics import median
from time import perf_counter

import pytest

from conftest import record

from repro.datasets.generators import random_alpha_schema_graph, random_terminals
from repro.engine.cache import SchemaContext
from repro.engine.registry import solve_dreyfus_wagner, solve_kmb
from repro.steiner import steiner_tree_dreyfus_wagner

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Terminal sets timed per k (the median is reported).
QUERIES = 2 if SMOKE else 5

#: Full-mode bar at k = 5, against the label-space reference.
MIN_SPEEDUP_K5 = 5.0

#: Full-mode EX2 bar for KMB on a warm context, against the label-space
#: reference (18-19x measured on a 2-core VM).
MIN_SPEEDUP_KMB = 6.0


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
