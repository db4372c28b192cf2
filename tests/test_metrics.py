"""The observability layer: instruments, registries, exposition, wiring.

Property-based coverage of the zero-dependency metric primitives --
bucket bookkeeping, the streaming quantile estimate, label-child
independence, and a full render/parse round-trip through a minimal
Prometheus text-format parser written *here* (the renderer must not be
trusted to test itself) -- plus the registry contracts (get-or-create,
redefinition errors, weakly-held snapshot collectors, the no-op
:class:`~repro.metrics.NullRegistry`) and the end-to-end wiring:
instrumented :class:`~repro.api.ConnectionService` queries, the
metrics a ``python -m repro run`` phase run collects, and its
``--metrics-out`` exposition file.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from strategies import common_settings

from repro.api import ConnectionService, ServiceConfig
from repro.datasets.generators import random_62_chordal_graph, random_terminals
from repro.exceptions import ValidationError
from repro.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    default_metrics,
    escape_label_value,
    format_value,
)
from repro.load import LoadSpec, run_phases

SETTINGS = common_settings()


# ----------------------------------------------------------------------
# a minimal text-exposition parser (deliberately independent of the
# renderer: the round-trip property below pins the format from outside)
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (.*)$")
_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(raw: str) -> str:
    out, i = [], 0
    while i < len(raw):
        if raw[i] == "\\" and i + 1 < len(raw):
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(raw[i + 1], raw[i + 1]))
            i += 2
        else:
            out.append(raw[i])
            i += 1
    return "".join(out)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_exposition(text: str):
    """Parse exposition text into ``(metadata, samples)``.

    ``metadata`` maps metric name to its ``help``/``type``; ``samples``
    maps ``(sample name, ((label, value), ...))`` to the float value.
    Raises ``AssertionError`` on anything it cannot parse -- malformed
    output must fail the round-trip test, not slip through.
    """
    metadata, samples = {}, {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            metadata.setdefault(name, {})["help"] = help_text
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            metadata.setdefault(name, {})["type"] = kind
        elif not line:
            continue
        else:
            match = _SAMPLE.match(line)
            assert match is not None, f"unparsable sample line: {line!r}"
            name, block, value = match.groups()
            pairs = ()
            if block is not None:
                found = _PAIR.findall(block)
                rebuilt = ",".join(f'{label}="{raw}"' for label, raw in found)
                assert rebuilt == block, f"unparsable label block: {block!r}"
                pairs = tuple((label, _unescape(raw)) for label, raw in found)
            assert (name, pairs) not in samples, f"duplicate sample {line!r}"
            samples[(name, pairs)] = _parse_value(value)
    return metadata, samples


# ----------------------------------------------------------------------
# properties: histogram bookkeeping and the streaming quantile
# ----------------------------------------------------------------------
EDGES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


@SETTINGS
@given(values=st.lists(st.floats(0.0, 50.0), max_size=60))
def test_bucket_counts_sum_to_count(values):
    histogram = Histogram("h_seconds", buckets=EDGES)
    for value in values:
        histogram.observe(value)
    (_, child), = histogram.children()
    assert sum(child.counts) == child.count == len(values)
    cumulative = child.cumulative()
    assert cumulative[-1] == len(values)
    assert cumulative == sorted(cumulative)  # cumulative is monotone


@SETTINGS
@given(
    values=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=80),
    q=st.floats(0.01, 0.99),
)
def test_quantile_is_bounded_and_lands_in_the_exact_bucket(values, q):
    histogram = Histogram("h_seconds", buckets=EDGES)
    for value in values:
        histogram.observe(value)
    estimate = histogram.quantile(q)
    low, high = min(values), max(values)
    assert low <= estimate <= high

    # the exact empirical quantile at the same rank convention
    exact = sorted(values)[max(1, math.ceil(q * len(values))) - 1]
    # the estimate interpolates inside exact's bucket, so it can be off
    # by at most that bucket's (observed-range-clamped) width
    position = bisect_left(EDGES, exact)
    lower = EDGES[position - 1] if position > 0 else low
    upper = EDGES[position] if position < len(EDGES) else high
    assert abs(estimate - exact) <= max(upper - lower, 0.0) + 1e-9


def test_quantile_edge_cases():
    histogram = Histogram("h_seconds", buckets=EDGES)
    assert histogram.quantile(0.5) is None  # no observations yet
    histogram.observe(3.0)
    assert histogram.quantile(0.0) == 3.0
    assert histogram.quantile(1.0) == 3.0
    assert histogram.quantile(0.5) == 3.0  # single point: clamped to range


@SETTINGS
@given(
    increments=st.dictionaries(
        st.text(alphabet="abc", min_size=1, max_size=3),
        st.integers(min_value=0, max_value=20),
        min_size=1,
        max_size=6,
    )
)
def test_labeled_children_are_independent(increments):
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "per-key counts", ("key",))
    latency = registry.histogram("h_seconds", "per-key times", ("key",), buckets=EDGES)
    for key, n in increments.items():
        for _ in range(n):
            counter.labels(key=key).inc()
            latency.labels(key=key).observe(1.0)
    for key, n in increments.items():
        assert counter.labels(key=key).value == n
        assert latency.labels(key=key).count == n
    assert latency.total_count() == sum(increments.values())
    assert latency.merged().count == sum(increments.values())


# ----------------------------------------------------------------------
# property: render -> parse round-trip (adversarial label values)
# ----------------------------------------------------------------------
LABEL_VALUES = st.text(alphabet='ab "\\\n{},=', max_size=8)


@SETTINGS
@given(
    counter_children=st.dictionaries(
        LABEL_VALUES, st.integers(min_value=0, max_value=50), min_size=1, max_size=5
    ),
    gauge_value=st.floats(allow_nan=False, allow_infinity=False, width=32),
    observations=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=30),
)
def test_render_text_round_trips_through_the_parser(
    counter_children, gauge_value, observations
):
    registry = MetricsRegistry()
    counter = registry.counter("rt_requests_total", "requests\nby path", ("path",))
    gauge = registry.gauge("rt_level", "a level")
    histogram = registry.histogram(
        "rt_wait_seconds", "waits", ("lane",), buckets=(0.5, 1.0, 4.0)
    )
    for path, n in counter_children.items():
        counter.labels(path=path).inc(n)
    gauge.set(gauge_value)
    for value in observations:
        histogram.labels(lane="slow").observe(value)

    metadata, samples = parse_exposition(registry.render_text())

    assert metadata["rt_requests_total"] == {
        "help": "requests\\nby path", "type": "counter",
    }
    assert metadata["rt_level"]["type"] == "gauge"
    assert metadata["rt_wait_seconds"]["type"] == "histogram"

    for path, n in counter_children.items():
        assert samples[("rt_requests_total", (("path", path),))] == n
    assert samples[("rt_level", ())] == pytest.approx(gauge_value)

    child = histogram.labels(lane="slow")
    lane = (("lane", "slow"),)
    assert samples[("rt_wait_seconds_count", lane)] == len(observations)
    assert samples[("rt_wait_seconds_sum", lane)] == pytest.approx(sum(observations))
    edges = [*histogram.bucket_edges, math.inf]
    for edge, cumulative in zip(edges, child.cumulative()):
        key = ("rt_wait_seconds_bucket", lane + (("le", format_value(edge)),))
        assert samples[key] == cumulative
    # the +Inf bucket always equals the count (exposition invariant)
    inf_key = ("rt_wait_seconds_bucket", lane + (("le", "+Inf"),))
    assert samples[inf_key] == len(observations)


def test_escaping_helpers():
    assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
    assert format_value(float("inf")) == "+Inf"
    assert format_value(float("-inf")) == "-Inf"
    assert format_value(3.0) == "3"
    assert format_value(0.25) == "0.25"


# ----------------------------------------------------------------------
# instrument and registry contracts
# ----------------------------------------------------------------------
def test_metric_and_label_name_validation():
    registry = MetricsRegistry()
    with pytest.raises(ValidationError):
        registry.counter("0bad")
    with pytest.raises(ValidationError):
        registry.counter("ok_total", labelnames=("9bad",))
    for reserved in ("le", "__secret"):
        with pytest.raises(ValidationError):
            registry.counter("ok_total", labelnames=(reserved,))
    with pytest.raises(ValidationError):
        registry.counter("ok_total", labelnames=("a", "a"))


def test_counters_only_increase():
    counter = Counter("c_total")
    counter.inc(2)
    with pytest.raises(ValidationError):
        counter.inc(-1)
    assert counter.value == 2


def test_gauge_goes_both_ways():
    gauge = Gauge("g")
    gauge.set(5)
    gauge.inc(2)
    gauge.dec(3)
    assert gauge.value == 4.0


def test_registry_get_or_create_is_idempotent_and_typed():
    registry = MetricsRegistry()
    first = registry.counter("x_total", "help", ("a",))
    assert registry.counter("x_total", "other help", ("a",)) is first
    with pytest.raises(ValidationError):
        registry.gauge("x_total")  # same name, different kind
    with pytest.raises(ValidationError):
        registry.counter("x_total", labelnames=("b",))  # different labels
    assert "x_total" in registry
    assert registry.get("x_total") is first
    assert registry.get("missing") is None
    assert registry.families() == [first]


def test_labeled_family_requires_labels_call():
    registry = MetricsRegistry()
    counter = registry.counter("y_total", labelnames=("a",))
    with pytest.raises(ValidationError):
        counter.inc()  # must go through .labels(...)
    with pytest.raises(ValidationError):
        counter.labels(b="1")  # wrong label set
    counter.labels(a=7).inc()  # values are coerced to strings
    assert counter.labels(a="7").value == 1


def test_histogram_bucket_validation_and_normalisation():
    with pytest.raises(ValidationError):
        Histogram("h", buckets=())
    with pytest.raises(ValidationError):
        Histogram("h", buckets=(1.0, float("inf")))
    with pytest.raises(ValidationError):
        Histogram("h", buckets=(float("nan"),))
    histogram = Histogram("h", buckets=(2.0, 1.0, 2.0))
    assert histogram.bucket_edges == (1.0, 2.0)
    assert Histogram("h").bucket_edges == DEFAULT_LATENCY_BUCKETS


def test_merged_rolls_up_across_children():
    histogram = Histogram("h_seconds", labelnames=("k",), buckets=(1.0, 2.0))
    histogram.labels(k="a").observe(0.5)
    histogram.labels(k="b").observe(1.5)
    merged = histogram.merged()
    assert merged.count == 2
    assert merged.sum == pytest.approx(2.0)
    assert (merged.min, merged.max) == (0.5, 1.5)
    assert merged.counts == [1, 1, 0]


def test_collectors_run_at_render_and_dead_ones_are_pruned():
    registry = MetricsRegistry()
    gauge = registry.gauge("snapshot")

    class Exporter:
        def __init__(self):
            self.level = 0

        def export(self):
            gauge.set(self.level)

    exporter = Exporter()
    registry.register_collector(exporter.export)
    exporter.level = 42
    assert "snapshot 42" in registry.render_text()
    assert registry.collector_count() == 1

    del exporter
    gc.collect()
    registry.render_text()  # prunes the dead WeakMethod
    assert registry.collector_count() == 0


def test_raising_collector_is_dropped_not_fatal():
    registry = MetricsRegistry()
    registry.gauge("ok").set(1)

    def broken():
        raise RuntimeError("scrape-time failure")

    registry.register_collector(broken)
    assert registry.collector_count() == 1
    assert "ok 1" in registry.render_text()  # render survives
    assert registry.collector_count() == 0  # and drops the offender


def test_null_registry_discards_everything():
    registry = NullRegistry()
    assert isinstance(registry, MetricsRegistry)
    counter = registry.counter("n_total", labelnames=("a",))
    counter.labels(a="x").inc()
    counter.inc(-5)  # even invalid writes are swallowed
    histogram = registry.histogram("n_seconds")
    histogram.observe(1.0)
    assert histogram.quantile(0.5) is None
    assert histogram.merged().total_count() == 0
    assert counter.value == 0.0 and histogram.count == 0
    registry.register_collector(lambda: 1 / 0)
    assert registry.render_text() == ""


def test_default_metrics_is_a_process_wide_singleton():
    assert default_metrics() is default_metrics()
    assert isinstance(default_metrics(), MetricsRegistry)


# ----------------------------------------------------------------------
# wiring: instrumented service, phase runs, CLI
# ----------------------------------------------------------------------
def _instrumented_service():
    graph = random_62_chordal_graph(4, rng=11)
    registry = MetricsRegistry()
    service = ConnectionService(
        schema=graph, config=ServiceConfig(metrics=registry)
    )
    return graph, registry, service


def test_service_queries_feed_the_latency_histogram():
    import random

    graph, registry, service = _instrumented_service()
    rng = random.Random(3)
    queries = [random_terminals(graph, 3, rng=rng) for _ in range(6)]
    service.batch(queries)
    service.batch(queries)  # second pass: warm caches, more samples

    queries_total = registry.get("repro_queries_total")
    latency = registry.get("repro_query_latency_seconds")
    observed = sum(child.value for _, child in queries_total.children())
    assert observed == 12
    assert latency.total_count() == 12
    assert latency.merged().quantile(0.99) is not None
    # every child key carries the full (instance_class, solver, guarantee,
    # tenant) -- tenant is "" outside the multi-tenant server's scopes
    assert all(len(key) == 4 for key, _ in latency.children())
    assert all(key[3] == "" for key, _ in latency.children())


def test_service_render_exports_cache_and_oracle_snapshots():
    import random

    graph, registry, service = _instrumented_service()
    rng = random.Random(3)
    queries = [random_terminals(graph, 3, rng=rng) for _ in range(5)]
    service.batch(queries)
    service.batch(queries)

    metadata, samples = parse_exposition(registry.render_text())
    assert metadata["repro_query_latency_seconds"]["type"] == "histogram"
    stats = service.cache_stats()
    schema_hits = samples[("repro_schema_cache", (("stat", "hits"),))]
    assert schema_hits == stats["hits"]
    oracle_hits = samples[("repro_distance_oracle", (("stat", "hits"),))]
    assert oracle_hits == stats["distance_oracle"]["hits"]
    assert oracle_hits > 0  # the second batch replays the warm oracle


TINY_SPEC = {
    "name": "tiny-metrics",
    "tenants": [
        {
            "name": "t0",
            "schema": {"generator": "random_62_chordal_graph",
                       "params": {"blocks": 4, "rng": 11}},
            "token": "tk",
        }
    ],
    "arrival": {"requests": 16},
    "profile": {"connect": 3, "mutate": 1},
    "seed": 5,
}


def test_run_workload_rolls_metrics_into_the_report():
    registry = MetricsRegistry()
    report = run_phases(LoadSpec.from_dict(TINY_SPEC), metrics=registry)
    assert report.ok()
    connects = dict((stats.op, stats.count) for stats in report.op_stats)["connect"]
    # the exposition text parses and covers the query path and the phases
    metadata, samples = parse_exposition(registry.render_text())
    assert metadata["repro_query_latency_seconds"]["type"] == "histogram"
    assert metadata["repro_phase_seconds"]["type"] == "gauge"
    assert samples[("repro_phase_seconds", (("phase", "serial-cold"),))] > 0
    counts = [
        value for (name, _), value in samples.items()
        if name == "repro_query_latency_seconds_count"
    ]
    assert sum(counts) == connects > 0
    # the mutations rebound the tenant's context
    rebinds = {
        labels: value for (name, labels), value in samples.items()
        if name == "repro_rebind_total"
    }
    assert sum(rebinds.values()) > 0


def test_run_workload_honours_an_injected_null_registry():
    registry = NullRegistry()
    report = run_phases(LoadSpec.from_dict(TINY_SPEC), metrics=registry)
    assert registry.render_text() == ""
    assert report.ok()
    assert report.checksum == report.oracle_checksum


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=300, env=env, cwd=cwd,
    )


def test_cli_prints_metrics_section_and_writes_exposition(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    metrics_path = tmp_path / "metrics.prom"

    proc = run_cli("run", str(spec_path), "--metrics-out", str(metrics_path))
    assert proc.returncode == 0, proc.stderr
    assert "p50ms" in proc.stdout and "p99ms" in proc.stdout
    assert "verify: MATCH" in proc.stdout
    assert f"metrics: {metrics_path}" in proc.stdout

    metadata, samples = parse_exposition(metrics_path.read_text())
    assert metadata["repro_query_latency_seconds"]["type"] == "histogram"
    counts = [
        value for (name, _), value in samples.items()
        if name == "repro_query_latency_seconds_count"
    ]
    assert sum(counts) > 0
