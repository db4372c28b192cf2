"""Metric registries and the Prometheus text exposition renderer.

A :class:`MetricsRegistry` owns a namespace of instrument families
(get-or-create by name, so every component naming the same metric shares
one family) plus a set of *snapshot collectors*: callbacks run at
:meth:`MetricsRegistry.render_text` time that copy existing plain-int
counters -- ``cache_stats()``, :class:`~repro.kernels.oracle.OracleStats`
-- into gauges, the MAAS pattern of keeping metric definitions separate
from collection sites so everything is testable without a live scrape.  Collectors registered from bound
methods are held through :class:`weakref.WeakMethod`, so instrumented
objects (services, servers) stay garbage-collectable; a dead collector
is silently pruned at the next render.

:func:`default_metrics` returns the process-wide registry every
:class:`~repro.api.service.ConnectionService` uses unless its
:class:`~repro.api.config.ServiceConfig` injects one.
:class:`NullRegistry` is the no-op implementation the differential suite
(and overhead-sensitive callers) inject: every instrument it hands out
swallows writes, and rendering returns the empty string.

The renderer emits the Prometheus text exposition format (version
0.0.4): ``# HELP`` / ``# TYPE`` comment pairs followed by one sample
line per child, with histogram children expanded into cumulative
``_bucket{le=...}`` series plus ``_sum`` and ``_count`` -- exactly what
the ROADMAP item 1 server will serve verbatim from its ``/metrics``
endpoint.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ValidationError
from repro.metrics.instruments import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    escape_label_value,
    format_value,
)



class MetricsRegistry:
    """A namespace of instrument families plus render-time collectors."""

    def __init__(self) -> None:
        """Start empty; families appear on first get-or-create."""
        self._families: "Dict[str, MetricFamily]" = {}
        self._collectors: List[Callable[[], Optional[Callable[[], None]]]] = []

    # ------------------------------------------------------------------
    # instrument factories (get-or-create, validated against redefinition)
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        family = self._families.get(name)
        if family is not None:
            if type(family) is not cls or family.labelnames != tuple(labelnames):
                raise ValidationError(
                    f"metric {name!r} already registered as a "
                    f"{family.kind} with labels {list(family.labelnames)}"
                )
            return family
        family = cls(name, help, labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        """Return (creating on first use) the named :class:`Counter` family."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        """Return (creating on first use) the named :class:`Gauge` family."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Return (creating on first use) the named :class:`Histogram` family."""
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[MetricFamily]:
        """Return the named family, or ``None`` when nothing declared it."""
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        """Return every declared family, in declaration order."""
        return list(self._families.values())

    def __contains__(self, name: str) -> bool:
        """True when a family with this name has been declared."""
        return name in self._families

    # ------------------------------------------------------------------
    # snapshot collectors
    # ------------------------------------------------------------------
    def register_collector(self, collector: Callable[[], None]) -> None:
        """Register a callback run before every :meth:`render_text`.

        Collectors copy existing plain counters into gauges at scrape
        time.  A *bound method* is held weakly (through
        :class:`weakref.WeakMethod`): when its owner is collected the
        entry is pruned silently, so registering a service's exporter
        here never pins the service alive.  Any other callable is held
        strongly -- the caller owns its lifetime.
        """
        if hasattr(collector, "__self__"):
            self._collectors.append(weakref.WeakMethod(collector))
        else:
            self._collectors.append(lambda bound=collector: bound)

    def run_collectors(self) -> None:
        """Run every live collector, pruning the dead ones.

        A collector that raises is dropped (and the error swallowed):
        observability must never take the serving path down, the same
        contract the :class:`~repro.runtime.diskcache.DiskCache` keeps.
        """
        survivors = []
        for entry in self._collectors:
            bound = entry()
            if bound is None:
                continue
            try:
                bound()
            except Exception:
                continue
            survivors.append(entry)
        self._collectors = survivors

    def collector_count(self) -> int:
        """Return how many collectors are currently registered (live or dead)."""
        return len(self._collectors)

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """Render every family in the Prometheus text exposition format.

        Snapshot collectors run first, so exported gauges are current as
        of this call.  The output ends with a newline (as the format
        requires) unless no family was ever declared.
        """
        self.run_collectors()
        lines: List[str] = []
        for family in self._families.values():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.children():
                pairs = list(zip(family.labelnames, key))
                if isinstance(family, Histogram):
                    cumulative = child.cumulative()
                    edges = [*family.bucket_edges, float("inf")]
                    for edge, count in zip(edges, cumulative):
                        lines.append(
                            _sample(
                                f"{family.name}_bucket",
                                pairs + [("le", format_value(edge))],
                                count,
                            )
                        )
                    lines.append(_sample(f"{family.name}_sum", pairs, child.sum))
                    lines.append(_sample(f"{family.name}_count", pairs, child.count))
                else:
                    lines.append(_sample(family.name, pairs, child.value))
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_help(text: str) -> str:
    """Escape a help string for its ``# HELP`` comment line."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _sample(name: str, pairs: List[Tuple[str, str]], value) -> str:
    """Format one exposition sample line."""
    if pairs:
        labels = ",".join(
            f'{label}="{escape_label_value(str(v))}"' for label, v in pairs
        )
        return f"{name}{{{labels}}} {format_value(float(value))}"
    return f"{name} {format_value(float(value))}"


class _NullInstrument:
    """The shared do-nothing instrument every :class:`NullRegistry` hands out."""

    def labels(self, **labelvalues) -> "_NullInstrument":
        """Return itself: children of a no-op are the same no-op."""
        return self

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def dec(self, amount: float = 1.0) -> None:
        """Discard the decrement."""

    def set(self, value: float) -> None:
        """Discard the value."""

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def quantile(self, q: float) -> None:
        """No data: always ``None``."""
        return None

    def merged(self) -> "_NullInstrument":
        """Return itself (family-level roll-up of nothing)."""
        return self

    def total_count(self) -> int:
        """No data: always zero."""
        return 0

    @property
    def value(self) -> float:
        """No data: always zero."""
        return 0.0

    @property
    def count(self) -> int:
        """No data: always zero."""
        return 0


_NULL = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """A registry whose instruments discard everything.

    Injected through ``ServiceConfig(metrics=NullRegistry())`` to disable
    instrumentation entirely -- the overhead benchmark's baseline, and
    the differential suite's proof that metrics never perturb answers.
    """

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        """Return the shared no-op instrument."""
        return _NULL

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        """Return the shared no-op instrument."""
        return _NULL

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        """Return the shared no-op instrument."""
        return _NULL

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Discard the collector (nothing will ever render)."""

    def render_text(self) -> str:
        """A no-op registry exposes nothing."""
        return ""


_DEFAULT_REGISTRY: Optional[MetricsRegistry] = None


def default_metrics() -> MetricsRegistry:
    """Return the process-wide default registry (lazily constructed).

    Every service whose :class:`~repro.api.config.ServiceConfig` does not
    inject a registry collects here, mirroring
    :func:`~repro.api.service.default_service`.
    """
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = MetricsRegistry()
    return _DEFAULT_REGISTRY
