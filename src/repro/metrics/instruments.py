"""Prometheus-style instruments: :class:`Counter`, :class:`Gauge`, :class:`Histogram`.

Each instrument is a *family*: a metric name, a help string, and an
optional tuple of label names.  Calling :meth:`MetricFamily.labels` with
one value per label name returns (creating on first use) an independent
*child* holding that label combination's state; a family declared without
label names owns a single implicit child and exposes the child operations
(``inc`` / ``set`` / ``observe``) directly, so unlabeled metrics read
naturally at call sites.

The histogram keeps fixed cumulative-style buckets (log-spaced latency
edges by default, see :data:`DEFAULT_LATENCY_BUCKETS`) plus the running
sum, count, minimum and maximum, which together power a streaming
quantile estimate (:meth:`HistogramChild.quantile`): the estimate is
linearly interpolated inside the bucket that contains the requested rank
and clamped to the observed ``[min, max]`` range, so it always lands in
the same bucket as the exact empirical quantile -- the property the test
suite pins on random workloads.

Everything here is zero-dependency and, like the engine's LRU caches,
single-threaded by contract: collection sites and scrapes run on the
service's thread.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ValidationError

#: Default histogram bucket upper edges, in seconds: log-spaced from
#: 100 microseconds to 10 seconds (the latency range the query paths
#: span), with ``+Inf`` always appended implicitly.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _validate_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal exposition metric name, else raise."""
    if not isinstance(name, str) or not _METRIC_NAME.match(name):
        raise ValidationError(
            f"invalid metric name {name!r}: must match {_METRIC_NAME.pattern}"
        )
    return name


def _validate_label_names(labelnames: Iterable[str]) -> Tuple[str, ...]:
    """Return the validated, tuple-ised label names of a family."""
    names = tuple(labelnames)
    seen = set()
    for label in names:
        if not isinstance(label, str) or not _LABEL_NAME.match(label):
            raise ValidationError(
                f"invalid label name {label!r}: must match {_LABEL_NAME.pattern}"
            )
        if label.startswith("__") or label == "le":
            # __-prefixed names are reserved by Prometheus, and ``le`` is
            # the histogram bucket label the renderer adds itself
            raise ValidationError(f"reserved label name {label!r}")
        if label in seen:
            raise ValidationError(f"duplicate label name {label!r}")
        seen.add(label)
    return names


def escape_label_value(value: str) -> str:
    """Escape a label value for the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value the way the exposition format expects."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricFamily:
    """Shared family machinery: name, help, label names, child registry."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> None:
        """Declare a family; ``labelnames`` fixes the child key schema."""
        self.name = _validate_metric_name(name)
        self.help = help
        self.labelnames = _validate_label_names(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            # the implicit single child of an unlabeled family
            self._children[()] = self._new_child()

    # child construction is the only per-kind variation
    def _new_child(self):
        raise NotImplementedError  # pragma: no cover - abstract

    def labels(self, **labelvalues) -> object:
        """Return (creating on first use) the child for one label combination.

        Every declared label name must be supplied; values are coerced to
        strings (label values are strings in the exposition format).
        """
        if set(labelvalues) != set(self.labelnames):
            raise ValidationError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}, "
                f"got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[label]) for label in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Return ``[(label value tuple, child), ...]`` in creation order."""
        return list(self._children.items())

    def _solo(self):
        """Return the implicit child; unlabeled families proxy through it."""
        if self.labelnames:
            raise ValidationError(
                f"metric {self.name!r} is labeled ({list(self.labelnames)}); "
                "call .labels(...) first"
            )
        return self._children[()]


class CounterChild:
    """A monotonically increasing count for one label combination."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        """Start at zero."""
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters only go up)."""
        if amount < 0:
            raise ValidationError("counters can only increase")
        self.value += amount


class Counter(MetricFamily):
    """A family of monotonically increasing counts."""

    kind = "counter"

    def _new_child(self) -> CounterChild:
        """Return a fresh zeroed child."""
        return CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the implicit child of an unlabeled counter."""
        self._solo().inc(amount)

    @property
    def value(self) -> float:
        """The implicit child's current count (unlabeled counters only)."""
        return self._solo().value


class GaugeChild:
    """A value that can go up and down, for one label combination."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        """Start at zero."""
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.value -= amount


class Gauge(MetricFamily):
    """A family of set-able values (sizes, rates, snapshot exports)."""

    kind = "gauge"

    def _new_child(self) -> GaugeChild:
        """Return a fresh zeroed child."""
        return GaugeChild()

    def set(self, value: float) -> None:
        """Set the implicit child of an unlabeled gauge."""
        self._solo().set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the implicit child of an unlabeled gauge."""
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the implicit child of an unlabeled gauge."""
        self._solo().dec(amount)

    @property
    def value(self) -> float:
        """The implicit child's current value (unlabeled gauges only)."""
        return self._solo().value


class HistogramChild:
    """Fixed-bucket distribution plus a streaming quantile estimate."""

    __slots__ = ("buckets", "counts", "sum", "count", "min", "max")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        """``buckets`` are the finite upper edges; ``+Inf`` is implicit."""
        self.buckets = buckets
        # counts[i] is the number of observations in (buckets[i-1],
        # buckets[i]]; the final slot is the implicit +Inf bucket
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def cumulative(self) -> List[int]:
        """Return the cumulative bucket counts (exposition ``le`` semantics)."""
        out: List[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile from the bucket counts.

        The estimate is linearly interpolated inside the bucket whose
        cumulative count first reaches rank ``q * count`` -- the same
        bucket the exact empirical quantile lies in -- and clamped to the
        observed ``[min, max]``, so it can never leave the observed range.
        Returns ``None`` before the first observation.
        """
        if self.count == 0 or self.min is None or self.max is None:
            return None
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        running = 0
        lower = self.min
        for position, count in enumerate(self.counts):
            upper = (
                self.buckets[position] if position < len(self.buckets) else self.max
            )
            if running + count >= target and count > 0:
                fraction = (target - running) / count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
            running += count
            lower = max(upper, self.min)
        return self.max  # pragma: no cover - counts always sum to count


class Histogram(MetricFamily):
    """A family of fixed-bucket latency/size distributions."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        """``buckets`` are finite upper edges (sorted, deduplicated here)."""
        chosen = DEFAULT_LATENCY_BUCKETS if buckets is None else tuple(buckets)
        edges = tuple(sorted(set(float(edge) for edge in chosen)))
        if not edges or any(
            edge != edge or edge in (float("inf"), float("-inf")) for edge in edges
        ):
            raise ValidationError(
                "histogram buckets must be a non-empty sequence of finite "
                "edges (+Inf is implicit)"
            )
        self._buckets = edges
        super().__init__(name, help, labelnames)

    def _new_child(self) -> HistogramChild:
        """Return a fresh child sharing this family's bucket edges."""
        return HistogramChild(self._buckets)

    @property
    def bucket_edges(self) -> Tuple[float, ...]:
        """The finite upper bucket edges of every child."""
        return self._buckets

    def observe(self, value: float) -> None:
        """Observe into the implicit child of an unlabeled histogram."""
        self._solo().observe(value)

    def quantile(self, q: float) -> Optional[float]:
        """Quantile estimate of the implicit child (unlabeled histograms)."""
        return self._solo().quantile(q)

    def merged(self) -> HistogramChild:
        """Return a synthetic child aggregating every labeled child.

        The roll-up the CLI report uses: bucket counts, sum, count and
        min/max are merged across label combinations, so family-level
        p50/p99 come out of the same :meth:`HistogramChild.quantile`
        estimator.
        """
        total = HistogramChild(self._buckets)
        for _, child in self.children():
            total.sum += child.sum
            total.count += child.count
            for position, count in enumerate(child.counts):
                total.counts[position] += count
            if child.min is not None and (total.min is None or child.min < total.min):
                total.min = child.min
            if child.max is not None and (total.max is None or child.max > total.max):
                total.max = child.max
        return total

    def total_count(self) -> int:
        """Total observations across every child of the family."""
        return sum(child.count for _, child in self.children())
