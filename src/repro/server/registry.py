"""Multi-tenant `SchemaRegistry`: named schemas, quotas, LRU service eviction.

One server process fronts many tenants, each with its own named schema,
:class:`~repro.api.config.ServiceConfig` and limits.  The registry is
the single owner of that state:

* **Tenant records** keep the schema *definition* (the live
  :class:`~repro.graphs.bipartite.BipartiteGraph` that mutation RPCs
  edit) for as long as the tenant exists.
* **Services are a cache.** The per-tenant
  :class:`~repro.api.service.ConnectionService` -- with its bound
  context, distance oracle and LRU caches -- is built lazily and
  evicted LRU-style once more than ``capacity`` tenants have live
  services.  Eviction never touches a tenant with in-flight requests
  (the count may transiently exceed ``capacity`` under load); it drops
  only the derived state, so the next request rebuilds the service --
  and with a ``cache_dir`` configured, repeated requests replay from
  the shared :class:`~repro.runtime.diskcache.DiskCache` with
  ``provenance.result_cache == "disk"`` instead of recomputing: warm
  restarts for free.
* **Admission control** is per tenant: :meth:`SchemaRegistry.acquire`
  bounces requests past ``max_inflight`` with a typed ``admission``
  error, and :meth:`SchemaRegistry.check_quota` enforces the size
  quotas (batch length, terminal count) before any work is done.
* **Authentication** is a per-tenant shared token, stored only as a
  SHA-256 hash and compared with :func:`hmac.compare_digest`.  A tenant
  created with a token requires it on *mutating* RPCs (``mutate``,
  ``drop_schema``); tenants created without one are open.

The registry itself is not thread-safe: the server confines it to the
event-loop thread.  Only service calls leave that thread: all but short
warm connects run in a worker thread (see
:meth:`~repro.server.app.ReproServer._solve`), and a service call never
calls into the registry.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api.config import ServiceConfig
from repro.api.service import ConnectionService
from repro.exceptions import ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.metrics import MetricsRegistry, default_metrics
from repro.server.errors import (
    AdmissionError,
    AuthenticationError,
    QuotaError,
    TenantExistsError,
    UnknownTenantError,
)


@dataclass(frozen=True)
class TenantLimits:
    """Per-tenant admission and size quotas.

    Attributes
    ----------
    max_inflight:
        Concurrent requests admitted for this tenant; further requests
        bounce with an ``admission`` error envelope (clients retry).
    max_batch_requests:
        Upper bound on ``batch``/``interpret`` lengths.
    max_terminals:
        Upper bound on one request's terminal count.
    deadline_ms:
        Optional per-request wall-clock budget enforced at the admission
        layer; requests that run past it are abandoned with a typed
        ``deadline`` error envelope (``None`` = no deadline).
    """

    max_inflight: int = 64
    max_batch_requests: int = 1024
    max_terminals: int = 256
    deadline_ms: Optional[int] = None

    def __post_init__(self) -> None:
        if (
            self.max_inflight < 1
            or self.max_batch_requests < 1
            or self.max_terminals < 1
        ):
            raise ValidationError("tenant limits must be positive")
        if self.deadline_ms is not None and self.deadline_ms < 1:
            raise ValidationError("deadline_ms must be >= 1 when set")


@dataclass
class TenantRecord:
    """One tenant's registry entry (definition + cached derived state)."""

    name: str
    graph: BipartiteGraph
    config: ServiceConfig
    limits: TenantLimits
    token_hash: Optional[str] = None
    service: Optional[ConnectionService] = None
    inflight: int = 0
    serial: int = 0
    evictions: int = 0
    mutations: int = field(default=0)
    # mutate idempotency: key -> cached response payload, bounded FIFO
    applied_keys: "OrderedDict[str, dict]" = field(default_factory=OrderedDict)


def _hash_token(token: str) -> str:
    """Return the stored form of a tenant token (SHA-256 hex)."""
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


#: ServiceConfig fields a ``create_schema`` upload may override.
CONFIG_FIELDS = (
    "exact_terminal_limit",
    "exact_vertex_limit",
    "cache_size",
    "default_side",
    "enumeration_budget",
    "enumeration_max_extra",
    "incremental",
)

#: TenantLimits fields a ``create_schema`` upload may set.
LIMIT_FIELDS = (
    "max_inflight",
    "max_batch_requests",
    "max_terminals",
    "deadline_ms",
)

#: How many mutate idempotency keys each tenant retains (FIFO).  A
#: retrying client needs only its most recent keys; the bound keeps a
#: hostile or buggy client from growing the record without limit.
MAX_IDEMPOTENCY_KEYS = 128


class SchemaRegistry:
    """Named schemas with per-tenant config, quotas, and LRU service eviction.

    Parameters
    ----------
    capacity:
        How many tenants may hold a *live* service at once; colder ones
        are evicted back to their definition (never while in flight).
    cache_dir:
        Optional directory for the shared persistent
        :class:`~repro.runtime.diskcache.DiskCache`.  The store is
        content-addressed by schema digest and request key, so sharing
        one directory across tenants deduplicates identical schemas and
        gives evicted tenants disk-warm rebinds.
    metrics:
        Registry the tenants' services collect into (the process-wide
        default when ``None``).
    base_config:
        The :class:`ServiceConfig` tenant overrides are applied to.

    Examples
    --------
    >>> registry = SchemaRegistry(capacity=2)
    >>> g = BipartiteGraph(left=["A"], right=[1], edges=[("A", 1)])
    >>> registry.create("acme", g)
    >>> registry.service("acme").connect(["A", 1]).cost
    2
    """

    def __init__(
        self,
        capacity: int = 8,
        *,
        cache_dir: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        base_config: Optional[ServiceConfig] = None,
    ) -> None:
        if capacity < 1:
            raise ValidationError("capacity must be >= 1")
        self._capacity = capacity
        self._cache_dir = cache_dir
        self._metrics = metrics if metrics is not None else default_metrics()
        self._base_config = base_config if base_config is not None else ServiceConfig()
        # LRU order: oldest-touched first; touched on every service() call
        self._records: "OrderedDict[str, TenantRecord]" = OrderedDict()
        self._serial = itertools.count(1)
        self._tenants_gauge = self._metrics.gauge(
            "repro_server_tenants",
            "Registered tenants (live = service currently built).",
            ("state",),
        )
        self._evictions_total = self._metrics.counter(
            "repro_server_evictions_total",
            "Cold-tenant service evictions from the schema registry.",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def create(
        self,
        name: str,
        graph: BipartiteGraph,
        *,
        config_overrides: Optional[dict] = None,
        limits: Optional[dict] = None,
        token: Optional[str] = None,
        exist_ok: bool = False,
    ) -> TenantRecord:
        """Register a tenant; ``exist_ok`` makes re-creation idempotent.

        ``config_overrides`` may set any field in :data:`CONFIG_FIELDS`;
        ``limits`` any in :data:`LIMIT_FIELDS`.  Unknown keys are
        rejected -- a typo must not silently run with defaults.
        """
        if not name:
            raise ValidationError("tenant name must be a non-empty string")
        if name in self._records:
            if exist_ok:
                return self._records[name]
            raise TenantExistsError(f"tenant {name!r} already exists")
        overrides = dict(config_overrides or {})
        unknown = sorted(set(overrides) - set(CONFIG_FIELDS))
        if unknown:
            raise ValidationError(
                f"unknown config override(s) {unknown}; "
                f"accepted: {list(CONFIG_FIELDS)}"
            )
        config = self._base_config.with_overrides(
            cache_dir=self._cache_dir, metrics=self._metrics, **overrides
        )
        limit_values = dict(limits or {})
        unknown = sorted(set(limit_values) - set(LIMIT_FIELDS))
        if unknown:
            raise ValidationError(
                f"unknown limit(s) {unknown}; accepted: {list(LIMIT_FIELDS)}"
            )
        record = TenantRecord(
            name=name,
            graph=graph,
            config=config,
            limits=TenantLimits(**limit_values),
            token_hash=_hash_token(token) if token is not None else None,
            serial=next(self._serial),
        )
        self._records[name] = record
        self._export_gauges()
        return record

    def drop(self, name: str) -> None:
        """Remove a tenant entirely (definition included)."""
        record = self._record(name)
        if record.inflight:
            raise AdmissionError(
                f"tenant {name!r} has {record.inflight} request(s) in flight; "
                "drain before dropping"
            )
        del self._records[name]
        self._export_gauges()

    def names(self) -> List[str]:
        """Return the registered tenant names (LRU order, coldest first)."""
        return list(self._records)

    def __contains__(self, name: str) -> bool:
        """True when a tenant with this name is registered."""
        return name in self._records

    def _record(self, name: str) -> TenantRecord:
        record = self._records.get(name)
        if record is None:
            raise UnknownTenantError(f"unknown tenant {name!r}")
        return record

    def record(self, name: str) -> TenantRecord:
        """Return the tenant's record (raising for unknown tenants)."""
        return self._record(name)

    # ------------------------------------------------------------------
    # service cache (LRU with in-flight protection)
    # ------------------------------------------------------------------
    def service(self, name: str) -> ConnectionService:
        """Return the tenant's service, building it on first use.

        Touches the LRU and evicts the coldest idle services beyond
        ``capacity``.  A rebuilt service re-binds the tenant's live
        graph; with a ``cache_dir`` its first repeated requests replay
        from disk (``provenance.result_cache == "disk"``).
        """
        record = self._record(name)
        self._records.move_to_end(name)
        if record.service is None:
            record.service = ConnectionService(
                schema=record.graph, config=record.config
            )
        self._evict_cold(protect=name)
        return record.service

    def live_count(self) -> int:
        """How many tenants currently hold a built service."""
        return sum(1 for record in self._records.values() if record.service)

    def _evict_cold(self, protect: Optional[str] = None) -> None:
        """Drop the coldest idle services until at most ``capacity`` live.

        In-flight tenants and ``protect`` (the tenant being served right
        now) are skipped, so the live count may transiently exceed
        ``capacity`` -- eviction must never yank a service out from
        under a running solve or the caller's hands.
        """
        if self.live_count() <= self._capacity:
            return
        for name, record in list(self._records.items()):  # coldest first
            if self.live_count() <= self._capacity:
                break
            if record.service is None or record.inflight > 0 or name == protect:
                continue
            record.service = None
            record.evictions += 1
            self._evictions_total.inc()
        self._export_gauges()

    # ------------------------------------------------------------------
    # admission / quotas / auth
    # ------------------------------------------------------------------
    def acquire(self, name: str) -> TenantRecord:
        """Admit one request for the tenant (pair with :meth:`release`)."""
        record = self._record(name)
        if record.inflight >= record.limits.max_inflight:
            raise AdmissionError(
                f"tenant {name!r} is at its in-flight limit "
                f"({record.limits.max_inflight}); retry later"
            )
        record.inflight += 1
        return record

    def release(self, name: str) -> None:
        """Mark one admitted request finished."""
        record = self._records.get(name)
        if record is not None and record.inflight > 0:
            record.inflight -= 1

    def check_quota(
        self, name: str, *, requests: int = 1, terminals: int = 0
    ) -> None:
        """Reject request sizes beyond the tenant's quotas (typed envelope)."""
        record = self._record(name)
        if requests > record.limits.max_batch_requests:
            raise QuotaError(
                f"tenant {name!r}: batch of {requests} request(s) exceeds "
                f"max_batch_requests={record.limits.max_batch_requests}"
            )
        if terminals > record.limits.max_terminals:
            raise QuotaError(
                f"tenant {name!r}: {terminals} terminal(s) exceed "
                f"max_terminals={record.limits.max_terminals}"
            )

    def authenticate(
        self, name: str, token: Optional[str], *, mutating: bool = False
    ) -> None:
        """Check a tenant token; mutating RPCs on tokened tenants require it.

        Comparison uses :func:`hmac.compare_digest` over SHA-256 hashes;
        a wrong token always fails, a missing token fails only for
        mutating commands (reads on a tokened tenant stay open -- the
        token authenticates *writes*, mirroring the authenticated
        mutation RPCs the ROADMAP names).
        """
        record = self._record(name)
        if record.token_hash is None:
            return
        if token is None:
            if mutating:
                raise AuthenticationError(
                    f"tenant {name!r} requires a token for mutating commands"
                )
            return
        if not hmac.compare_digest(record.token_hash, _hash_token(token)):
            raise AuthenticationError(f"invalid token for tenant {name!r}")

    # ------------------------------------------------------------------
    # mutate idempotency
    # ------------------------------------------------------------------
    def recall_idempotent(self, name: str, key: str) -> Optional[dict]:
        """Return the cached mutate response for ``key``, if already applied.

        The dedupe store is per tenant: a client that retried a mutate
        after a lost reply gets the original response back instead of a
        double-applied transaction.
        """
        return self._record(name).applied_keys.get(key)

    def remember_idempotent(self, name: str, key: str, response: dict) -> None:
        """Record a mutate response under its idempotency key (bounded FIFO)."""
        applied = self._record(name).applied_keys
        applied[key] = response
        while len(applied) > MAX_IDEMPOTENCY_KEYS:
            applied.popitem(last=False)

    # ------------------------------------------------------------------
    # drain support / observability
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Persist every live tenant's classification report to disk.

        Results are stored synchronously as they are answered; the
        classification report of the currently bound context is the one
        piece of derived state worth flushing at drain time, so a
        restarted server rebinds large schemas without re-running the
        Theorem 1 recognition.  The report goes under that context's own
        digest: a ``mutate`` since its last request has edited the live
        graph, not the context.  Returns how many reports were stored;
        best-effort (a tenant without disk or context contributes 0).
        """
        flushed = 0
        for record in self._records.values():
            service = record.service
            if service is None:
                continue
            try:
                context = service._bound_context
                disk = None if context is None else service._persistent_layer(context)
                if disk is None:
                    continue
                disk.store_report(context.digest, context.report)
                flushed += 1
            except Exception:
                continue
        return flushed

    def stats(self) -> Dict[str, Any]:
        """Return per-tenant observability counters (the ``stats`` RPC body)."""
        tenants = {}
        for name, record in self._records.items():
            tenants[name] = {
                "vertices": len(record.graph.vertices()),
                "edges": sum(1 for _ in record.graph.edges()),
                "live": record.service is not None,
                "inflight": record.inflight,
                "evictions": record.evictions,
                "mutations": record.mutations,
                "protected": record.token_hash is not None,
            }
        return {
            "capacity": self._capacity,
            "live": self.live_count(),
            "tenants": tenants,
        }

    def _export_gauges(self) -> None:
        live = self.live_count()
        self._tenants_gauge.labels(state="live").set(live)
        self._tenants_gauge.labels(state="total").set(len(self._records))
