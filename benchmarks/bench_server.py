"""Server round-trip benchmark: warm batch over the socket vs in-process.

The server's design promise is that the wire adds *transport*, not
*work*: an RPC ``batch`` resolves to the same facade call the caller
could have made in-process, on a context-warm service.  **SV1** pins the
size of that transport tax: a warm batch through
:class:`~repro.server.ReproClient` (JSON framing, tuple/set tagging, the
per-request span context, one event-loop hop and one worker thread) must
stay within **1.5x** of the identical in-process ``service.batch`` call,
with the decoded wire answers checksum-identical to the in-process ones.

Both sides are measured context-warm but *solve-cold*: each timing round
uses a fresh deterministic query set (the same set on both sides), so
the comparison is solver-vs-solver plus transport, not a cache-replay
microbenchmark of the codec.

Set ``REPRO_BENCH_SMOKE=1`` for the scaled-down CI variant: same code
paths, tiny workload, correctness assertions only (millisecond-scale
smoke timings cannot resolve the 1.5x bound).
"""

import asyncio
import contextlib
import dataclasses
import os
import random
import threading
from time import perf_counter

from conftest import record

from repro.api import ConnectionService
from repro.datasets.generators import random_62_chordal_graph, random_terminals
from repro.runtime.workload import canonical_checksum
from repro.server import ReproClient, ReproServer
from repro.server.codec import decode_wire_result

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

TENANT = "bench"


@contextlib.contextmanager
def running_server(**kwargs):
    """Start a :class:`ReproServer` on a background event-loop thread."""
    server = ReproServer(port=0, **kwargs)
    ready = threading.Event()

    def run():
        async def main():
            await server.start()
            ready.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    try:
        yield server
    finally:
        server.request_drain()
        thread.join(10)
        assert not thread.is_alive(), "server did not drain"


def _strip_span(results):
    """Drop the server-minted span fields so checksums compare answers."""
    return [
        dataclasses.replace(
            result,
            provenance=dataclasses.replace(
                result.provenance, request_id=None, tenant=None, phases=None
            ),
        )
        for result in results
    ]


def test_server_round_trip_overhead_within_1_5x(benchmark):
    """SV1: warm RPC ``batch`` vs the identical in-process ``batch``."""
    blocks, n_queries, rounds = (12, 30, 2) if SMOKE else (170, 150, 4)
    graph = random_62_chordal_graph(blocks, rng=1985)
    rng = random.Random(7)
    # one query set per timing round plus the warm-up/checksum set;
    # identical sets on both sides, each solved exactly once per side
    query_sets = [
        [random_terminals(graph, 3, rng=rng) for _ in range(n_queries)]
        for _ in range(rounds + 1)
    ]

    local = ConnectionService(schema=graph)
    with running_server() as server:
        # the first RPC triggers the server-side context build and
        # Theorem 1 classification, so give the socket headroom
        with ReproClient("127.0.0.1", server.port, timeout=600.0) as client:
            client.create_schema(TENANT, graph)

            # warm both contexts (classification + plan caches) and pin
            # the differential: decoded wire answers == in-process answers
            local_results = local.batch(query_sets[0])
            wire_payloads = client.batch(
                TENANT, [{"terminals": list(q)} for q in query_sets[0]]
            )
            remote_results = _strip_span(
                decode_wire_result(payload, graph=graph)
                for payload in wire_payloads
            )
            assert canonical_checksum(remote_results) == canonical_checksum(
                local_results
            )

            timings = {"in_process": float("inf"), "server": float("inf")}
            for queries in query_sets[1:]:  # interleaved to cancel drift
                requests = [{"terminals": list(q)} for q in queries]
                started = perf_counter()
                local.batch(queries)
                timings["in_process"] = min(
                    timings["in_process"], perf_counter() - started
                )
                started = perf_counter()
                client.batch(TENANT, requests)
                timings["server"] = min(
                    timings["server"], perf_counter() - started
                )

            benchmark(
                client.batch,
                TENANT,
                [{"terminals": list(q)} for q in query_sets[0]],
            )

    ratio = (
        timings["server"] / timings["in_process"]
        if timings["in_process"] > 0
        else float("inf")
    )
    record(
        benchmark,
        experiment="SV1",
        vertices=graph.number_of_vertices(),
        queries=n_queries,
        wall_seconds=timings["server"],
        in_process_seconds=timings["in_process"],
        overhead_ratio=round(ratio, 4),
        speedup=round(1.0 / ratio, 4) if ratio > 0 else None,
        smoke=SMOKE,
    )
    if not SMOKE:
        assert ratio <= 1.5, (
            f"the wire must stay within 1.5x of the in-process warm batch, "
            f"got {ratio:.4f}x"
        )
