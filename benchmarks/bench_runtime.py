"""Runtime benchmarks: the persistent result cache.

Acceptance numbers for the `repro.runtime` subsystem on the 515-vertex
(6,2)-chordal workload (``random_62_chordal_graph(170, rng=1985)``,
2,000 three-terminal queries):

* a disk-warm replay (fresh service, populated cache) lands within 10%
  of the in-memory warm batch (in practice it is faster);
* replayed answers are byte-identical to computed ones (asserted always,
  including smoke mode).

Set ``REPRO_BENCH_SMOKE=1`` for the scaled-down CI variant: same code
paths, tiny workload, correctness assertions only.
"""

import os
import random
from time import perf_counter

from conftest import record

from repro.api import ConnectionService, ServiceConfig
from repro.datasets.generators import random_62_chordal_graph, random_terminals
from repro.load.clients import canonical_checksum

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def _scenario():
    """The runtime workload: smoke = tiny CI variant, full = acceptance."""
    blocks, n_queries = (12, 30) if SMOKE else (170, 2000)
    graph = random_62_chordal_graph(blocks, rng=1985)
    rng = random.Random(7)
    queries = [random_terminals(graph, 3, rng=rng) for _ in range(n_queries)]
    return graph, queries


def test_disk_warm_within_10pct_of_memory_warm(benchmark, tmp_path):
    """Disk-warm replay vs the in-memory warm batch.

    A fresh service over a populated cache answers the whole workload
    from disk -- no classification, no solving.  The bar: within 10% of
    the in-memory warm batch (full mode; smoke records only).  Replay
    answers must digest identically to computed ones in every mode.
    """
    graph, queries = _scenario()
    cache_dir = str(tmp_path / "cache")

    memory_service = ConnectionService(schema=graph)
    memory_service.batch(queries)  # warm the context
    start = perf_counter()
    computed = memory_service.batch(queries)
    memory_seconds = perf_counter() - start

    populate = ConnectionService(
        schema=graph, config=ServiceConfig(cache_dir=cache_dir)
    )
    populate.batch(queries)

    replay_service = ConnectionService(
        schema=graph, config=ServiceConfig(cache_dir=cache_dir)
    )
    solves = []
    replay_service.engine.execute_plan = lambda *args: solves.append(args)
    start = perf_counter()
    replayed = replay_service.batch(queries)
    disk_seconds = perf_counter() - start

    assert all(r.provenance.result_cache == "disk" for r in replayed)
    assert canonical_checksum(replayed) == canonical_checksum(computed)
    # the replay service keyed an unclassified context: it classified no
    # block and solved nothing
    context, _ = replay_service._context(None)
    assert context._blocks.stats()["blocks_classified"] == 0
    assert solves == []

    warm_replay = benchmark(replay_service.batch, queries)
    assert canonical_checksum(warm_replay) == canonical_checksum(computed)

    ratio = disk_seconds / memory_seconds if memory_seconds > 0 else 0.0
    record(
        benchmark,
        experiment="RT2",
        vertices=graph.number_of_vertices(),
        queries=len(queries),
        memory_warm_seconds=round(memory_seconds, 3),
        disk_warm_seconds=round(disk_seconds, 3),
        disk_over_memory=round(ratio, 3),
        cache_stats=replay_service.cache_stats().get("disk"),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert ratio <= 1.10, (
            f"disk-warm must land within 10% of the in-memory warm batch, "
            f"got {ratio:.2f}x"
        )
