"""Metrics-overhead benchmark: instrumented vs no-op registry, warm batches.

The observability layer claims its hot-path cost is negligible: per
answered query the service touches exactly two instruments (a labeled
counter increment and a labeled histogram observe -- everything else is
exported by snapshot collectors at render time).  **MX1** pins that
claim: the oracle-warm ``batch`` path with a real
:class:`~repro.metrics.MetricsRegistry` must stay within 3% of the same
path with a :class:`~repro.metrics.NullRegistry` injected, with
byte-identical answers (the differential suite asserts the same equality
property-based; here it guards the timing comparison).

Set ``REPRO_BENCH_SMOKE=1`` for the scaled-down CI variant: same code
paths, tiny workload, correctness assertions only (millisecond-scale
smoke timings cannot resolve a 3% bound).
"""

import os
import random
from time import perf_counter

from conftest import record

from repro.api import ConnectionService, ServiceConfig
from repro.datasets.generators import random_62_chordal_graph, random_terminals
from repro.metrics import MetricsRegistry, NullRegistry
from repro.load.clients import canonical_checksum

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def _best_of(repeats, function):
    """Return the best wall time of ``repeats`` runs of ``function``."""
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        function()
        best = min(best, perf_counter() - started)
    return best


def test_metrics_overhead_within_3_percent_on_warm_batches(benchmark):
    """MX1: warm ``batch`` with live instruments vs a NullRegistry baseline."""
    blocks, n_queries = (12, 30) if SMOKE else (170, 200)
    graph = random_62_chordal_graph(blocks, rng=1985)
    rng = random.Random(7)
    queries = [random_terminals(graph, 3, rng=rng) for _ in range(n_queries)]

    services = {
        "instrumented": ConnectionService(
            schema=graph, config=ServiceConfig(metrics=MetricsRegistry())
        ),
        "null": ConnectionService(
            schema=graph, config=ServiceConfig(metrics=NullRegistry())
        ),
    }
    checksums = {
        kind: canonical_checksum(service.batch(queries))  # warm-up batch
        for kind, service in services.items()
    }
    assert checksums["instrumented"] == checksums["null"]

    timings = {kind: float("inf") for kind in services}
    rounds = 2 if SMOKE else 5
    for _ in range(rounds):  # interleaved to cancel drift
        for kind, service in services.items():
            timings[kind] = min(
                timings[kind], _best_of(1, lambda: service.batch(queries))
            )
    benchmark(services["instrumented"].batch, queries)

    instrumented = services["instrumented"]
    latency = instrumented.metrics.get("repro_query_latency_seconds")
    assert latency is not None and latency.total_count() >= n_queries
    assert instrumented.metrics.render_text().startswith("# HELP")

    ratio = (
        timings["instrumented"] / timings["null"]
        if timings["null"] > 0
        else float("inf")
    )
    record(
        benchmark,
        experiment="MX1",
        vertices=graph.number_of_vertices(),
        queries=n_queries,
        wall_seconds=timings["instrumented"],
        null_registry_seconds=timings["null"],
        overhead_ratio=round(ratio, 4),
        speedup=round(1.0 / ratio, 4) if ratio > 0 else None,
        smoke=SMOKE,
    )
    if not SMOKE:
        assert ratio <= 1.03, (
            f"metrics overhead must stay within 3% on the oracle-warm batch "
            f"path, got {ratio:.4f}x"
        )
