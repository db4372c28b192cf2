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
from repro.engine.registry import solve_dreyfus_wagner
from repro.steiner import steiner_tree_dreyfus_wagner

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Terminal sets timed per k (the median is reported).
QUERIES = 2 if SMOKE else 5

#: Full-mode bar at k = 5, against the label-space reference.
MIN_SPEEDUP_K5 = 5.0


def _load_reference():
    """Import the test-suite's reference module (``tests/`` is no package)."""
    path = Path(__file__).resolve().parents[1] / "tests" / "steiner_reference.py"
    spec = importlib.util.spec_from_file_location("steiner_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference_dreyfus_wagner = _load_reference().reference_dreyfus_wagner


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
