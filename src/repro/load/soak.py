"""Soak mode: repeated churn+query cycles with resource-leak detection.

A load burst shows tail latency; what kills a long-lived service is the
slow leak -- a cache keyed on something that never repeats, a store
nobody prunes, an oracle that survives invalidation.  :func:`run_soak`
runs ``cycles`` rounds of the full write/read surface (grow-and-prune
schema churn through :class:`~repro.dynamic.editor.SchemaEditor`,
connection queries, paged enumeration) against one
:class:`~repro.api.service.ConnectionService`, sampling **resource
probes** once per cycle:

=================  ====================================================
``schema_contexts``  Cached :class:`~repro.engine.cache.SchemaContext`
                     objects (:meth:`ConnectionService.resource_stats`).
``oracle_rows``      BFS rows held across the cached distance oracles.
``disk_bytes``       Bytes in the persistent result store.
=================  ====================================================

Each churn edit is a *grow-then-prune* pair inside the cycle, so the
schema ends every cycle structurally identical to how it started; a
correct stack therefore reaches a plateau on every probe after a warmup
(caches legitimately fill first).  :class:`SoakMonitor` flags any probe
whose final value exceeds its post-warmup baseline by more than the
spec's allowance -- and because the probes are injectable, the detector
itself is testable: hand it a deliberately leaky probe and it must
report the leak (``tests/test_load.py``).
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.load.spec import LoadSpec, SoakSpec

#: Label prefix for leaves grown by soak churn (pruned in-cycle).
SOAK_LEAF = "soak-leaf"


class SoakMonitor:
    """Samples named resource probes and flags monotonic growth.

    Parameters
    ----------
    probes:
        ``{name: zero-arg callable -> number}``; sampled together on
        every :meth:`sample` call.
    allowed_growth:
        Per-probe allowance (default 0): how far above the post-warmup
        baseline the final value may sit without being called a leak.
    warmup:
        How many leading samples to ignore -- caches fill during the
        first cycles, and calling that a leak would make every run red.
    """

    def __init__(
        self,
        probes: Dict[str, Callable[[], float]],
        *,
        allowed_growth: Tuple[Tuple[str, float], ...] = (),
        warmup: int = 1,
    ) -> None:
        self._probes = dict(probes)
        self._allowance = dict(allowed_growth)
        self._warmup = warmup
        self._samples: Dict[str, List[float]] = {name: [] for name in self._probes}

    def sample(self) -> Dict[str, float]:
        """Sample every probe once; returns this cycle's readings."""
        reading = {name: float(probe()) for name, probe in self._probes.items()}
        for name, value in reading.items():
            self._samples[name].append(value)
        return reading

    @property
    def samples(self) -> Dict[str, List[float]]:
        """All readings so far, per probe (one entry per cycle)."""
        return {name: list(values) for name, values in self._samples.items()}

    def leaks(self) -> List[str]:
        """Return one message per probe that grew beyond its allowance.

        The rule: take the first post-warmup reading as the baseline;
        the *final* reading may not exceed it by more than the probe's
        allowance.  A plateau (flat or wobbling within the allowance)
        passes; anything still climbing at the end of the run fails.
        """
        messages: List[str] = []
        for name, values in self._samples.items():
            if len(values) <= self._warmup:
                continue
            window = values[self._warmup :]
            baseline, final = window[0], window[-1]
            allowance = self._allowance.get(name, 0.0)
            growth = final - baseline
            if growth > allowance:
                messages.append(
                    f"{name} grew from {baseline:g} to {final:g} "
                    f"(+{growth:g} > allowed {allowance:g}) over "
                    f"{len(window)} post-warmup cycles"
                )
        return messages


@dataclass(frozen=True)
class SoakReport:
    """The result of one soak run: per-cycle probe readings and verdicts."""

    cycles: int
    samples: Tuple[Tuple[str, Tuple[float, ...]], ...]
    leaks: Tuple[str, ...]
    cache_stats: Tuple[Tuple[str, object], ...] = ()

    def ok(self) -> bool:
        """True when no probe leaked."""
        return not self.leaks

    def to_dict(self) -> dict:
        """Return a JSON-ready mapping of the soak results."""
        return {
            "cycles": self.cycles,
            "samples": {name: list(values) for name, values in self.samples},
            "leaks": list(self.leaks),
            "ok": self.ok(),
            "cache_stats": dict(self.cache_stats),
        }

    def render_text(self) -> str:
        """Render the per-probe trajectories as an aligned block."""
        lines = [f"  soak: {self.cycles} cycles"]
        for name, values in self.samples:
            trajectory = " -> ".join(f"{value:g}" for value in values)
            lines.append(f"    {name:<16} {trajectory}")
        if self.leaks:
            lines.extend(f"    LEAK: {leak}" for leak in self.leaks)
        else:
            lines.append("    no monotonic growth beyond allowance")
        return "\n".join(lines)


def _churn(service, graph, anchors) -> None:
    """One cycle's grow-then-prune churn (net structural no-op).

    The leaf labels and anchors are identical every cycle on purpose:
    cycle *k* must revisit exactly the schema states cycle *k-1* saw, so
    every content-addressed layer (schema digests, disk entries) gets
    the chance to plateau -- repeating state is what makes "still
    growing" a meaningful verdict.
    """
    from repro.dynamic.editor import SchemaEditor

    for edit, anchor in enumerate(anchors):
        leaf = (SOAK_LEAF, edit)
        with SchemaEditor(graph) as transaction:
            transaction.add_vertex(leaf, side=3 - graph.side_of(anchor))
            transaction.add_edge(leaf, anchor)
        # query the grown schema so the incremental rebind actually runs
        service.connect([anchor, leaf])
        with SchemaEditor(graph) as transaction:
            transaction.remove_vertex(leaf)


def run_soak(
    spec: LoadSpec,
    *,
    probes_override: Optional[Dict[str, Callable[[], float]]] = None,
) -> SoakReport:
    """Run the spec's soak section; returns the probe report.

    Traffic targets the spec's *first* tenant schema, bound to a fresh
    :class:`~repro.api.service.ConnectionService` with a temporary disk
    cache, so the run starts cold and owns everything it measures.
    ``probes_override`` replaces the default probe set entirely -- that
    is how the leak-detector regression test injects a deliberately
    leaky stub.
    """
    from repro.api.config import ServiceConfig
    from repro.api.service import ConnectionService
    from repro.datasets.generators import random_terminals
    from repro.metrics import MetricsRegistry

    soak = spec.soak if spec.soak is not None else SoakSpec()
    seed = soak.seed if soak.seed is not None else spec.seed * 1000003 + 303
    rng = random.Random(seed)
    tenant = spec.tenants[0]
    graph = tenant.build_schema()
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as cache_dir:
        service = ConnectionService(
            schema=graph,
            config=ServiceConfig(
                cache_dir=cache_dir, metrics=MetricsRegistry()
            ),
        )
        if probes_override is not None:
            probes = dict(probes_override)
        else:
            probes = {
                "schema_contexts": lambda: service.resource_stats()[
                    "schema_contexts"
                ],
                "oracle_rows": lambda: service.resource_stats()["oracle_rows"],
                "disk_bytes": lambda: service.resource_stats()["disk_bytes"],
            }
        monitor = SoakMonitor(
            probes,
            allowed_growth=soak.allowed_growth,
            warmup=soak.warmup,
        )
        # fixed per-run traffic, repeated every cycle: a steady-state
        # workload revisits the same schema states and request keys, so
        # every held resource must plateau (fresh keys per cycle would
        # make content-addressed stores grow by design)
        anchors = [
            rng.choice(graph.sorted_vertices())
            for _ in range(soak.edits_per_cycle)
        ]
        queries = [
            random_terminals(graph, soak.terminals, rng=rng)
            for _ in range(soak.queries_per_cycle)
        ]
        for _cycle in range(soak.cycles):
            _churn(service, graph, anchors)
            service.batch(queries)
            stream = service.enumerate(queries[0], budget=soak.enumerate_budget)
            stream.take(soak.enumerate_budget)
            monitor.sample()
        return SoakReport(
            cycles=soak.cycles,
            samples=tuple(
                (name, tuple(values))
                for name, values in sorted(monitor.samples.items())
            ),
            leaks=tuple(monitor.leaks()),
            cache_stats=tuple(sorted(_flatten(service.cache_stats()))),
        )


def _flatten(stats: dict, prefix: str = "") -> List[Tuple[str, object]]:
    """Flatten nested cache-stats dicts to dotted scalar keys."""
    items: List[Tuple[str, object]] = []
    for key, value in stats.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            items.extend(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (int, float, str, bool)):
            items.append((name, value))
    return items


__all__ = ["SoakMonitor", "SoakReport", "run_soak", "SOAK_LEAF"]
