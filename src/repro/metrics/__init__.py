"""Zero-dependency observability: instruments, registries, text exposition.

The subsystem ROADMAP item 2 asked for: Prometheus-style
:class:`Counter` / :class:`Gauge` / :class:`Histogram` families with
labeled children, a process-wide default :class:`MetricsRegistry`
(injectable per :class:`~repro.api.config.ServiceConfig`), and
:meth:`MetricsRegistry.render_text` emitting the text exposition format.
Collection sites live in the layers themselves -- see
``docs/observability.md`` for the full site table.
"""

from repro.metrics.instruments import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    escape_label_value,
    format_value,
)
from repro.metrics.registry import (
    MetricsRegistry,
    NullRegistry,
    default_metrics,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "default_metrics",
    "escape_label_value",
    "format_value",
]
