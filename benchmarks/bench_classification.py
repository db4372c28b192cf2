"""CL1 -- cold Theorem 1 classification: near-linear, blockwise, at scale.

Every cold schema pays its classification before its first answer.  This
case times exactly that, a cold ``SchemaContext(graph).report`` (context
build plus the blockwise hierarchy walk), on three shapes:

* ``large_block_chain`` at 10^3 and 10^4 vertices: hundreds and
  thousands of small (6,2)-chordal blocks, where per-block overhead shows;
* one giant (6,1)-chordal block (the largest block of an interval schema
  with 200 relations over 100 attributes): the case where the cubic
  gamma-pattern scan and Gilmore's conformality test dominate a
  field-by-field classification;
* a V2-alpha schema of 6,863 vertices (``random_alpha_schema_graph(2400,
  rng=7)``) whose 31 beta-cyclic blocks -- the largest of 719 edges --
  reach step 4 of the walk: one restricted maximum cardinality search
  per side (``running_intersection_order``), where the walk used to run
  MCS chordality and Gilmore's test (a 4.2 s cold report at this size,
  0.15-0.23 s now, on a 2-core VM).

Each report is checked against the field-by-field reference of the
test-suite (``tests/classification_reference.py``): the classification
as it was before the hierarchy walk, every field tested on its own, with
the rescanning nest-point loop for (6,1), the cubic gamma-pattern scan
plus that loop for (6,2), and MCS chordality plus Gilmore's criterion
for each side's alpha field, applied per block (the blockwise
decomposition itself is property-tested in the test-suite).  In full
mode the giant block must classify >= 20x faster than that reference,
and the 6,863-vertex alpha schema within ``MAX_ALPHA_COLD_SECONDS``.

Set ``REPRO_BENCH_SMOKE=1`` for the scaled-down CI variant: same code
paths, smaller schemas, correctness assertions only.
"""

import importlib.util
import os
from pathlib import Path
from statistics import median
from time import perf_counter

import pytest

from conftest import record

from repro.datasets.generators import random_alpha_schema_graph, random_beta_schema_graph
from repro.dynamic import biconnected_edge_blocks, block_subgraph, combine_reports
from repro.engine.cache import SchemaContext
from repro.graphs.generators import large_block_chain
from repro.graphs.indexed import GraphIndex, from_indexed

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Cold classifications timed per case (the median is reported).
REPEATS = 3 if SMOKE else 5

#: Full-mode bar for the giant block, against the field-by-field reference.
MIN_GIANT_SPEEDUP = 20.0

#: Full-mode bar for the cold report of the 6,863-vertex alpha schema.
MAX_ALPHA_COLD_SECONDS = 0.5


def _load_reference():
    """Import the test-suite's reference module (``tests/`` is no package)."""
    path = Path(__file__).resolve().parents[1] / "tests" / "classification_reference.py"
    spec = importlib.util.spec_from_file_location("classification_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


field_by_field_report = _load_reference().field_by_field_report


def _chain(vertices):
    """``large_block_chain`` of K_{2,2} blocks with about ``vertices`` vertices."""
    indexed = large_block_chain((vertices - 1) // 3)
    return from_indexed(indexed, GraphIndex(range(indexed.n)))


def _giant_block():
    """The largest block of a seeded interval schema: one (6,1)-chordal block."""
    if SMOKE:
        graph = random_beta_schema_graph(40, attributes=20, rng=1)
    else:
        graph = random_beta_schema_graph(200, attributes=100, rng=2)
    return block_subgraph(graph, max(biconnected_edge_blocks(graph), key=len))


CASES = {
    "chain-1e3": (lambda: _chain(100 if SMOKE else 1_000), "(6,2)-chordal"),
    "chain-1e4": (lambda: _chain(1_000 if SMOKE else 10_000), "(6,2)-chordal"),
    "giant-beta-block": (_giant_block, "(6,1)-chordal"),
    "alpha-6.9k": (
        lambda: random_alpha_schema_graph(60 if SMOKE else 2400, rng=7),
        "V2-alpha",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cold_classification(benchmark, case):
    """CL1: cold ``SchemaContext(...).report`` against the reference."""
    make, expected_class = CASES[case]
    graph = make()
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        report = SchemaContext(graph).report
        samples.append(perf_counter() - start)
    cold_seconds = median(samples)

    start = perf_counter()
    reference = combine_reports(
        field_by_field_report(block_subgraph(graph, edges))
        for edges in biconnected_edge_blocks(graph)
    )
    reference_seconds = perf_counter() - start
    assert report == reference
    assert report.strongest_class == expected_class

    benchmark(lambda: SchemaContext(graph).report)

    speedup = reference_seconds / cold_seconds if cold_seconds > 0 else 0.0
    info = dict(
        experiment="CL1",
        case=case,
        vertices=graph.number_of_vertices(),
        edges=graph.number_of_edges(),
        cold_seconds=round(cold_seconds, 4),
        reference_seconds=round(reference_seconds, 4),
        smoke=SMOKE,
    )
    if case in ("giant-beta-block", "alpha-6.9k"):
        info["speedup"] = round(speedup, 1)
    record(benchmark, **info)
    if case == "giant-beta-block" and not SMOKE:
        assert speedup >= MIN_GIANT_SPEEDUP, (
            f"the hierarchy walk must classify one giant (6,1)-chordal block "
            f">= {MIN_GIANT_SPEEDUP}x faster than the field-by-field reference, "
            f"got {speedup:.1f}x"
        )
    if case == "alpha-6.9k" and not SMOKE:
        assert cold_seconds <= MAX_ALPHA_COLD_SECONDS, (
            f"a cold report of the 6,863-vertex alpha schema must take "
            f"<= {MAX_ALPHA_COLD_SECONDS} s, got {cold_seconds:.2f} s"
        )
