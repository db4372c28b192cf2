"""Service-level configuration for the :class:`~repro.api.service.ConnectionService`.

The knobs governing solver dispatch -- exact-solver limits, cache size,
enumeration budgets, kernel lane, memory budget -- live in one immutable
object, so a deployment can define its policy once and hand it to every
service instance.  It is the only place dispatch limits are set (besides
per-request overrides on :class:`~repro.api.request.ConnectionRequest`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.exceptions import ValidationError
from repro.metrics import MetricsRegistry


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable policy/limits bundle for a :class:`ConnectionService`.

    Attributes
    ----------
    exact_terminal_limit:
        Terminal-set sizes up to this limit fall back to the Dreyfus-Wagner
        exact solver when no polynomial class applies.
    exact_vertex_limit:
        Instances with at most this many optional vertices may use a
        brute-force solver as a last exact resort.
    cache_size:
        Number of schema contexts kept in the engine's LRU.
    default_side:
        The bipartition side minimised by ``objective="side"`` requests
        that do not specify one (side 2 is "relations" in the paper's
        database reading).
    enumeration_budget:
        Default number of connections an :class:`~repro.api.stream.EnumerationStream`
        may yield before pausing (``None`` = unbounded).
    enumeration_max_extra:
        Default bound on the number of auxiliary vertices enumeration will
        explore (``None`` = all of them).
    cache_dir:
        Opt-in directory for the persistent result cache
        (:class:`~repro.runtime.diskcache.DiskCache`).  When set, the
        service stores every classification report and every
        :class:`~repro.api.result.ConnectionResult` on disk, keyed by the
        schema's structural digest and the request, and serves repeat
        requests from disk across processes and interpreter restarts.
        ``None`` (the default) keeps the service purely in-memory.
    incremental:
        When ``True`` (the default) a mutation of the service's *bound*
        schema patches the cached schema context through
        :meth:`~repro.engine.cache.SchemaContext.apply_delta` -- only the
        biconnected blocks the edit created are classified -- instead
        of rebuilding it and classifying every block cold.  Set to
        ``False`` to force full rebuilds (the churn oracle and the
        dynamic benchmarks do, to have a baseline to compare against).
    metrics:
        The :class:`~repro.metrics.MetricsRegistry` the service's
        instruments collect into.  ``None`` (the default) means the
        process-wide registry from :func:`~repro.metrics.default_metrics`;
        inject a fresh registry to isolate one service's metrics, or a
        :class:`~repro.metrics.NullRegistry` to disable instrumentation
        entirely.  Pool workers always run with ``metrics=None``
        overridden in (registries do not cross process boundaries).
    kernel_backend:
        Which kernel lane (:mod:`repro.kernels.backend`) BFS rows are
        produced on: ``"array"`` (the zero-dependency default),
        ``"numpy"`` (the vectorized lane; raises
        :class:`~repro.exceptions.MissingDependencyError` at service
        construction when numpy is absent), ``"auto"`` (numpy when
        importable, else array) or ``None`` to defer to the
        ``REPRO_KERNEL_BACKEND`` environment variable / the array
        default.  Both lanes return byte-identical rows; the resolved
        lane is stamped into every answer's provenance, and -- because
        the config travels to pool workers via ``with_overrides`` --
        workers resolve the same lane after fork *or* spawn.
    memory_budget_bytes:
        Optional byte budget for the engine's schema cache and its
        distance oracles.  When an insert pushes the held bytes past the
        budget, least-recently-used schema contexts / oracle rows are
        evicted instead of growing without bound; current usage is
        exported as ``repro_memory_*`` gauges.  ``None`` (the default)
        means unbounded.
    """

    exact_terminal_limit: int = 8
    exact_vertex_limit: int = 18
    cache_size: int = 16
    default_side: int = 2
    enumeration_budget: Optional[int] = None
    enumeration_max_extra: Optional[int] = None
    cache_dir: Optional[Union[str, os.PathLike]] = None
    incremental: bool = True
    metrics: Optional[MetricsRegistry] = None
    kernel_backend: Optional[str] = None
    memory_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.exact_terminal_limit < 0 or self.exact_vertex_limit < 0:
            raise ValidationError("exact limits must be non-negative")
        if self.cache_size < 1:
            raise ValidationError("cache_size must be positive")
        if self.default_side not in (1, 2):
            raise ValidationError("default_side must be 1 or 2")
        if self.cache_dir is not None and not isinstance(
            self.cache_dir, (str, os.PathLike)
        ):
            raise ValidationError("cache_dir must be a path string (or None)")
        if self.enumeration_budget is not None and self.enumeration_budget < 0:
            raise ValidationError("enumeration_budget must be non-negative")
        if self.enumeration_max_extra is not None and self.enumeration_max_extra < 0:
            raise ValidationError("enumeration_max_extra must be non-negative")
        if not isinstance(self.incremental, bool):
            raise ValidationError("incremental must be a bool")
        if self.metrics is not None and not isinstance(self.metrics, MetricsRegistry):
            raise ValidationError("metrics must be a MetricsRegistry (or None)")
        if self.kernel_backend is not None and self.kernel_backend not in (
            "array",
            "numpy",
            "auto",
        ):
            raise ValidationError(
                "kernel_backend must be 'array', 'numpy', 'auto' or None"
            )
        if self.memory_budget_bytes is not None and (
            not isinstance(self.memory_budget_bytes, int)
            or self.memory_budget_bytes < 1
        ):
            raise ValidationError("memory_budget_bytes must be a positive int (or None)")

    def with_overrides(self, **overrides) -> "ServiceConfig":
        """Return a copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)
