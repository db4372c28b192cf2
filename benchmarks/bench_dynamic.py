"""Dynamic-schema benchmarks: incremental context updates vs full rebuilds.

Acceptance numbers for the `repro.dynamic` subsystem on the 515-vertex
(6,2)-chordal acceptance schema (293 biconnected blocks), and on an
11,931-vertex one:

* `SchemaContext.apply_delta` answers a single-edge edit faster than
  rebuilding the context from scratch.  The edit works in proportion to
  what it touches: the net delta lists only the rows that differ, the
  context's block records re-split only the blocks that lost an edge and
  merge only the blocks on an added edge's block-cut path, and only the
  blocks the edit created are classified; the canonical key reuses the
  parent's vertex tokens.  The rebuild runs Hopcroft--Tarjan, classifies
  all 293 blocks and encodes every vertex's token.  Both sides still copy
  the label graph (one set copy per row), build or patch the CSR arrays
  and join the key's bytes, which stay O(|V| + |A|);
* the patched context is *observably equal* to the rebuilt one: same
  graph, same CSR backend, same classification (asserted in every mode);
* at the service level, a churn loop (edit, then answer queries) on an
  incremental service produces answers checksum-identical to a
  fresh-context oracle, and stays ahead of rebuilding per edit -- also
  at 11,931 vertices (DY3), where a rebuild costs about a second.

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
from repro.dynamic import SchemaDelta, SchemaEditor, biconnected_edge_blocks
from repro.engine.cache import SchemaContext
from repro.load.clients import canonical_checksum

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Full-mode bars, set from ten full-mode runs of this module alone on a
#: shared 2-core VM (medians and quartiles in the test docstrings), below
#: the lowest sample of each case (DY1 6.93x, DY2 3.00x, DY3 4.47x).
#: Since 6.0.0 the cold rebuild these ratios divide by no longer builds a
#: memo key per block and runs 25-40% faster, while the incremental side
#: costs the same: five full-mode runs read DY1 5.45-5.76x, DY2
#: 2.11-2.35x (below its bar) and DY3 3.25-5.35x.
DY1_MIN_SPEEDUP = 5.5
DY2_MIN_SPEEDUP = 2.5
DY3_MIN_SPEEDUP = 3.0
#: DY3's schema is ``random_62_chordal_graph(DY3_BLOCKS, rng=7)``: 11,931 vertices.
DY3_BLOCKS = 4000


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
    """DY1: an edit on a classified context vs a cold blockwise rebuild.

    The rebuild side is a fresh ``SchemaContext`` and its cold report,
    which splits and classifies every block.  The incremental side
    diffs the graphs and applies the delta to the cached context, whose
    block records re-split or merge only the blocks the edit touched and
    classify only the blocks it created.  Equality of the resulting
    contexts is asserted edit by edit.  The bar (``DY1_MIN_SPEEDUP``) is
    asserted in full mode and recorded in smoke mode; ten full-mode runs
    measured a median of 7.64x (quartiles 7.36x-7.89x).
    """
    graph = _schema()
    rng = random.Random(7)
    fresh = itertools.count(1)
    context = SchemaContext(graph)
    context.report  # cold classification, off-clock

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
            f"an apply_delta must beat the cold blockwise rebuild "
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
    after each edit (the schema is one connected component), which caps
    the ratio; ten full-mode runs measured a median of 3.05x (quartiles
    3.01x-3.12x).
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


def _cycle_edit(graph, step, anchor, leaf, u, v):
    """Apply edit ``step % 4`` of the DY3 cycle to ``graph``.

    Grow a leaf on ``anchor``, drop the edge ``uv`` inside its block, prune
    the leaf, add ``uv`` back: the cycle returns to the base schema.
    """
    with SchemaEditor(graph) as tx:
        if step % 4 == 0:
            tx.add_vertex(leaf, side=3 - graph.side_of(anchor))
            tx.add_edge(leaf, anchor)
        elif step % 4 == 1:
            tx.remove_edge(u, v)
        elif step % 4 == 2:
            tx.remove_vertex(leaf)
        else:
            tx.add_edge(u, v)


def test_post_edit_connect_at_scale(benchmark):
    """DY3: a post-edit ``connect`` at 11,931 vertices, incremental vs rebuild.

    An incremental ``ConnectionService`` and an ``incremental=False`` one
    with a one-entry schema cache (which rebuilds the context after every
    edit) run the same edit cycle in lockstep on
    ``random_62_chordal_graph(4000, rng=7)``: grow a leaf, drop an edge
    inside a block, prune the leaf, add the edge back.  Each edit is
    followed by one timed ``connect``; answers must be checksum-identical.  The incremental side's first edit also builds
    the context's block records from its cold pass.  Full mode asserts
    ``DY3_MIN_SPEEDUP``; smoke mode runs the small schema and checks
    correctness only.  Ten full-mode runs measured a median of 4.62x
    (quartiles 4.54x-4.66x): 181 ms per post-edit ``connect`` against
    865 ms, both sides refilling the distance-oracle rows of new
    terminals.
    """
    base = _schema() if SMOKE else random_62_chordal_graph(DY3_BLOCKS, rng=7)
    anchor = sorted(base.right(), key=repr)[0]
    leaf = ("dy3-leaf", 1)
    cyclic = sorted(
        (sorted(edges, key=repr) for edges in biconnected_edge_blocks(base) if len(edges) >= 4),
        key=repr,
    )
    u, v = cyclic[0][0]
    edits = 8
    terminal_rng = random.Random(5)
    queries = [random_terminals(base, 4, rng=terminal_rng) for _ in range(edits)]

    lanes = []
    # the rebuild side keeps one context: the cycle revisits schemas, and
    # an LRU hit would stand in for the rebuild being timed
    for config in (ServiceConfig(), ServiceConfig(incremental=False, cache_size=1)):
        graph = base.copy()
        service = ConnectionService(schema=graph, config=config)
        service.connect(queries[0])  # cold build and first answer, off-clock
        lanes.append({"service": service, "graph": graph, "results": [], "seconds": 0.0})
    for step in range(edits):
        for lane in lanes:
            _cycle_edit(lane["graph"], step, anchor, leaf, u, v)
            start = perf_counter()
            lane["results"].append(lane["service"].connect(queries[step]))
            lane["seconds"] += perf_counter() - start
    incremental_lane, oracle_lane = lanes
    assert canonical_checksum(incremental_lane["results"]) == canonical_checksum(
        oracle_lane["results"]
    )
    assert incremental_lane["service"].cache_stats()["rebind_fallbacks"] == 0

    def one_post_edit_connect():
        _cycle_edit(incremental_lane["graph"], edits, anchor, leaf, u, v)
        return incremental_lane["service"].connect(queries[0])

    benchmark.pedantic(one_post_edit_connect, rounds=1, iterations=1)

    incremental_seconds = incremental_lane["seconds"]
    oracle_seconds = oracle_lane["seconds"]
    speedup = oracle_seconds / incremental_seconds if incremental_seconds > 0 else 0.0
    record(
        benchmark,
        experiment="DY3",
        vertices=base.number_of_vertices(),
        edits=edits,
        incremental_seconds=round(incremental_seconds, 4),
        oracle_seconds=round(oracle_seconds, 4),
        incremental_ms_per_edit=round(1000.0 * incremental_seconds / edits, 1),
        oracle_ms_per_edit=round(1000.0 * oracle_seconds / edits, 1),
        speedup=round(speedup, 2),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert speedup >= DY3_MIN_SPEEDUP, (
            f"a post-edit connect at {base.number_of_vertices()} vertices must "
            f"beat a rebuild >= {DY3_MIN_SPEEDUP}x, got {speedup:.2f}x"
        )
