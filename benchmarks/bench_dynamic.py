"""Dynamic-schema benchmarks: incremental context updates vs full rebuilds.

Acceptance numbers for the `repro.dynamic` subsystem on the 515-vertex
(6,2)-chordal acceptance schema (293 biconnected blocks):

* `SchemaContext.apply_delta` answers a single-edge edit faster than
  rebuilding the context from scratch.  Both sides classify blockwise:
  the edit reuses the block memo its cold build seeded and classifies
  only the blocks the edit created, while the rebuild classifies all 293
  blocks cold with the near-linear hierarchy walk.  What is left to save
  is those per-block classifications; the block decomposition, memo keys,
  graph copy and CSR work are paid by both sides;
* the patched context is *observably equal* to the rebuilt one: same
  graph, same CSR backend, same classification (asserted in every mode);
* at the service level, a churn loop (edit, then answer queries) on an
  incremental service produces answers checksum-identical to a
  fresh-context oracle, and stays ahead of rebuilding per edit.

Set ``REPRO_BENCH_SMOKE=1`` for the scaled-down CI variant: same code
paths, tiny schema, correctness assertions only.
"""

import itertools
import os
import random
from time import perf_counter

from conftest import record

from repro.api import ConnectionService, ServiceConfig
from repro.datasets.generators import random_62_chordal_graph, random_terminals
from repro.dynamic import SchemaDelta, SchemaEditor
from repro.engine.cache import SchemaContext
from repro.runtime.workload import canonical_checksum

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Full-mode bars, set from ten full-mode runs of this module alone on a
#: shared 2-core VM (medians and quartiles in the test docstrings), below
#: the lowest sample of either case (1.33x).
DY1_MIN_SPEEDUP = 1.1
DY2_MIN_SPEEDUP = 1.1


def _schema():
    """The dynamic workload schema: smoke = tiny CI variant, full = acceptance."""
    blocks = 12 if SMOKE else 170
    return random_62_chordal_graph(blocks, rng=1985)


def _single_edge_edits(graph, count, rng, fresh):
    """Yield ``count`` single-edge editor transactions applied to ``graph``.

    Alternates pendant insertions, edge deletions and pendant deletions --
    the single edge/vertex edit mix the incremental engine's local
    separator checks target.  ``fresh`` is the shared vertex-name counter
    (one per graph lineage, so repeated calls never recreate a name).
    """
    for step in range(count):
        mode = step % 3
        if mode == 0:
            anchor = rng.choice(graph.sorted_vertices())
            side = 3 - graph.side_of(anchor)
            vertex = ("bench", next(fresh))
            with SchemaEditor(graph) as tx:
                tx.add_vertex(vertex, side=side)
                tx.add_edge(vertex, anchor)
        elif mode == 1:
            edges = sorted(
                (tuple(sorted(edge, key=repr)) for edge in graph.edges()), key=repr
            )
            u, v = rng.choice(edges)
            with SchemaEditor(graph) as tx:
                tx.remove_edge(u, v)
        else:
            leaves = [v for v in graph.sorted_vertices() if graph.degree(v) == 1]
            with SchemaEditor(graph) as tx:
                if leaves:
                    tx.remove_vertex(rng.choice(leaves))
                else:  # pragma: no cover - the edit mix always leaves leaves
                    anchor = rng.choice(graph.sorted_vertices())
                    vertex = ("bench", next(fresh))
                    tx.add_vertex(vertex, side=3 - graph.side_of(anchor))
                    tx.add_edge(vertex, anchor)
        yield


def test_memo_warm_edit_beats_cold_rebuild(benchmark):
    """DY1: a memo-warm edit vs a cold blockwise rebuild, single-edge edits.

    The rebuild side is a fresh ``SchemaContext`` and its cold report,
    which classifies every block.  The incremental side diffs the graphs
    and applies the delta to the cached context, whose block memo already
    holds every surviving block.  Equality of the resulting contexts is
    asserted edit by edit.  The bar (``DY1_MIN_SPEEDUP``) is asserted in
    full mode and recorded in smoke mode; ten full-mode runs measured a
    median of 1.39x (quartiles 1.38x-1.43x).
    """
    graph = _schema()
    rng = random.Random(7)
    fresh = itertools.count(1)
    context = SchemaContext(graph)
    context.report  # cold classification seeds the block memo, off-clock

    edits = 3 if SMOKE else 15
    incremental_seconds = 0.0
    rebuild_seconds = 0.0
    deltas = 0
    for _ in _single_edge_edits(graph, edits, rng, fresh):
        snapshot = context.graph
        start = perf_counter()
        delta = SchemaDelta.between(snapshot, graph)
        patched = context.apply_delta(delta)
        incremental_seconds += perf_counter() - start

        start = perf_counter()
        rebuilt = SchemaContext(graph)
        rebuilt.report
        rebuild_seconds += perf_counter() - start

        assert patched.graph == rebuilt.graph
        assert patched.indexed == rebuilt.indexed
        assert patched.report == rebuilt.report
        context = patched
        deltas += 1

    def one_edit():
        for _ in _single_edge_edits(graph, 1, rng, fresh):
            pass
        return SchemaDelta.between(context.graph, graph)

    delta = one_edit()
    benchmark(context.apply_delta, delta)

    speedup = (
        rebuild_seconds / incremental_seconds if incremental_seconds > 0 else 0.0
    )
    record(
        benchmark,
        experiment="DY1",
        vertices=graph.number_of_vertices(),
        edits=deltas,
        incremental_seconds=round(incremental_seconds, 4),
        rebuild_seconds=round(rebuild_seconds, 4),
        speedup=round(speedup, 2),
        block_stats=context._blocks.stats(),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert speedup >= DY1_MIN_SPEEDUP, (
            f"a memo-warm apply_delta must beat the cold blockwise rebuild "
            f">= {DY1_MIN_SPEEDUP}x on single-edge edits, got {speedup:.2f}x"
        )


def test_lockstep_churn_matches_rebuild_oracle(benchmark):
    """DY2: service-level churn -- incremental vs fresh-context oracle.

    An incremental ``ConnectionService`` absorbs an edit-then-query loop;
    the oracle answers the identical traffic with ``incremental=False``,
    which rebuilds the context per mutation (a cold blockwise
    classification).  The two services advance edit by edit in lockstep,
    so a burst of host noise hits both sides alike.  Answers must be
    checksum-identical in every mode; the bar (``DY2_MIN_SPEEDUP``) is
    asserted in full mode.  Both sides pay the same distance-oracle refill
    after each edit (the schema is one connected component), so the bar
    guards a modest margin; ten full-mode runs measured a median of 1.35x
    (quartiles 1.33x-1.35x).
    """
    base = _schema()
    edits = 4 if SMOKE else 24
    queries_per_edit = 3

    lanes = []
    for incremental in (True, False):
        graph = base.copy()
        service = ConnectionService(
            schema=graph, config=ServiceConfig(incremental=incremental)
        )
        rng = random.Random(11)
        fresh = itertools.count(1)
        service.connect(random_terminals(graph, 3, rng=rng))  # warm, off-clock
        lanes.append(
            {
                "service": service,
                "graph": graph,
                "rng": rng,
                "edits": _single_edge_edits(graph, edits, rng, fresh),
                "results": [],
                "seconds": 0.0,
            }
        )
    for _ in range(edits):
        for lane in lanes:
            start = perf_counter()
            next(lane["edits"])
            for _ in range(queries_per_edit):
                lane["results"].append(
                    lane["service"].connect(
                        random_terminals(lane["graph"], 3, rng=lane["rng"])
                    )
                )
            lane["seconds"] += perf_counter() - start
    incremental_lane, oracle_lane = lanes
    assert canonical_checksum(incremental_lane["results"]) == canonical_checksum(
        oracle_lane["results"]
    )
    incremental_seconds = incremental_lane["seconds"]
    oracle_seconds = oracle_lane["seconds"]

    def churn_once():
        graph = base.copy()
        service = ConnectionService(schema=graph)
        rng = random.Random(13)
        fresh = itertools.count(1)
        for _ in _single_edge_edits(graph, 2, rng, fresh):
            service.connect(random_terminals(graph, 3, rng=rng))

    benchmark(churn_once)

    speedup = (
        oracle_seconds / incremental_seconds if incremental_seconds > 0 else 0.0
    )
    record(
        benchmark,
        experiment="DY2",
        vertices=base.number_of_vertices(),
        edits=edits,
        queries=edits * queries_per_edit,
        incremental_seconds=round(incremental_seconds, 4),
        oracle_seconds=round(oracle_seconds, 4),
        speedup=round(speedup, 2),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert speedup >= DY2_MIN_SPEEDUP, (
            f"the incremental service must keep up with churn at least "
            f"{DY2_MIN_SPEEDUP}x as fast as full rebuilds, got {speedup:.2f}x"
        )
