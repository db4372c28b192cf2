"""Sharded parallel execution of connection batches over a process pool.

The engine (PR 1) amortises schema-level precomputation and the facade
(PR 2) types the traffic, but every query still runs on one core.
:class:`ParallelExecutor` removes that ceiling for batch traffic: it
splits a batch into shards, ships each shard to a
:class:`concurrent.futures.ProcessPoolExecutor` worker, and merges the
answers back **in request order** with provenance identical to a serial
:meth:`~repro.api.service.ConnectionService.batch` call (the differential
suite pins byte-identity).

How a shard travels
-------------------
* The parent resolves the schema once and transports the context's
  *shard state* -- the :class:`~repro.graphs.indexed.IndexedGraph` CSR
  backend, the label index and the classification report
  (:meth:`~repro.engine.cache.SchemaContext.shard_state`).  Workers
  rebuild an equivalent context without re-running the Theorem 1
  recognition.
* On POSIX the default transport is **zero-copy shared memory**
  (:mod:`repro.kernels.shm`): the CSR arrays live in one named segment
  per schema version, workers attach ``memoryview`` casts over the
  segment buffer, and each shard submission carries only the segment
  name -- constant-size dispatch no matter how large the schema or how
  many shards a batch produces.  ``transport="pickle"`` forces the
  legacy per-submission pickled blob (the benchmark baseline);
  ``transport="auto"`` (default) picks shared memory when available.
* Transport is memoised per schema and keyed on
  :attr:`~repro.graphs.graph.Graph.mutation_version`: mutating the
  schema between batches re-keys the transport (unlinking the stale
  segment) automatically, so a worker can never answer from a stale
  structure.
* The parent owns every segment it created:
  :meth:`ParallelExecutor.close` unlinks them all after the pool has
  drained, so neither worker errors nor crashes can leak shared memory.
* Workers keep a tiny LRU of rebuilt services keyed by ``(schema digest,
  config)``, so a long-lived pool answers alternating schemas without
  rebuilding -- and with shared memory, a warm worker never even reads
  the transport payload again.
* Results come back as schema-free payloads
  (:func:`~repro.runtime.codec.encode_result`) and are re-materialised
  against the parent's graph -- the schema is never pickled per answer.

Error semantics match the serial batch: all-or-nothing, and the raised
error is the one the *earliest* failing request produces (shards are
joined in order, and within a shard the worker fails at its first
failing request).

Vertex labels must be picklable (true for every type the library's
generators produce).  Use the executor as a context manager, or call
:meth:`ParallelExecutor.close` to release the pool.

Examples
--------
>>> from repro.datasets.generators import random_62_chordal_graph, random_terminals
>>> graph = random_62_chordal_graph(6, rng=7)
>>> queries = [random_terminals(graph, 3, rng=i) for i in range(8)]
>>> with ParallelExecutor(workers=2) as executor:
...     results = executor.batch(queries, schema=graph)
>>> len(results)
8
"""

from __future__ import annotations

import os
import pickle
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from math import ceil
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.api.config import ServiceConfig
from repro.api.request import ConnectionRequest
from repro.api.result import ConnectionResult
from repro.api.service import ConnectionService
from repro.engine.cache import SchemaContext, schema_digest
from repro.exceptions import ValidationError
from repro.faults.plan import ACTIVE as _FAULTS
from repro.kernels.shm import (
    attach_segment,
    create_segment,
    shared_memory_available,
    sweep_orphans,
)
from repro.runtime.codec import decode_result, encode_result

#: Transport payload: ``("shm", segment name)`` or ``("pickle", blob)``.
TransportPayload = Tuple[str, Any]


def _release_segments(segments: Dict[str, Any]) -> None:
    """Unlink and close every parent-owned segment (idempotent, best-effort).

    Module-level so a :func:`weakref.finalize` on the executor can call
    it without keeping the executor alive; failures are swallowed because
    double-unlinks (close + finalizer, or two close calls) are expected.
    """
    while segments:
        _, segment = segments.popitem()
        for release in (segment.unlink, segment.close):
            try:
                release()
            except Exception:
                pass


class ParallelExecutor:
    """Shard :meth:`ConnectionService.batch` traffic across a process pool.

    Parameters
    ----------
    workers:
        Number of pool processes.  ``None`` uses :func:`os.cpu_count`;
        ``workers=1`` short-circuits to the serial in-process path (same
        results, no pool).
    shard_size:
        Requests per dispatched shard.  ``None`` targets two shards per
        worker, which balances straggler tolerance against dispatch
        overhead for the library's millisecond-scale queries.
    service:
        An existing :class:`~repro.api.service.ConnectionService` to
        shard for (its engine cache, config and persistent cache are
        reused).  Built from ``config``/``schema`` when omitted.
    config / schema:
        Forwarded to the internally constructed service when ``service``
        is not given.
    transport:
        ``"auto"`` (default: shared memory where available, else
        pickle), ``"shm"`` (force the zero-copy shared-memory CSR
        transport) or ``"pickle"`` (force the per-submission pickled
        blob).  Answers are byte-identical either way; only dispatch
        cost differs.

    Examples
    --------
    >>> from repro.graphs import BipartiteGraph
    >>> g = BipartiteGraph(left=["A", "B"], right=[1], edges=[("A", 1), ("B", 1)])
    >>> with ParallelExecutor(workers=2, schema=g) as executor:
    ...     [r.cost for r in executor.batch([["A", "B"], ["A"]])]
    [3, 1]
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        shard_size: Optional[int] = None,
        service: Optional[ConnectionService] = None,
        config: Optional[ServiceConfig] = None,
        schema: Any = None,
        transport: str = "auto",
    ) -> None:
        if service is not None and (config is not None or schema is not None):
            raise ValidationError(
                "pass either an existing service or config/schema to build "
                "one, not both"
            )
        if service is None:
            service = ConnectionService(schema=schema, config=config)
        self._service = service
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValidationError("workers must be >= 1")
        if shard_size is not None and shard_size < 1:
            raise ValidationError("shard_size must be >= 1 (or None)")
        if transport not in ("auto", "shm", "pickle"):
            raise ValidationError(
                f"transport must be 'auto', 'shm' or 'pickle', got {transport!r}"
            )
        if transport == "shm" and not shared_memory_available():
            raise ValidationError(
                "transport='shm' requires POSIX multiprocessing.shared_memory"
            )
        if transport == "auto":
            transport = "shm" if shared_memory_available() else "pickle"
        self._workers = workers
        self._shard_size = shard_size
        self._transport_kind = transport
        self._pool: Optional[ProcessPoolExecutor] = None
        # (schema handle, mutation_version, digest, transport payload)
        self._transport: Optional[Tuple[Any, Optional[int], str, TransportPayload]] = None
        # parent-owned shared-memory segments, by name; released on
        # close(), on transport re-key, and -- as a last resort -- by the
        # GC finalizer (so an executor dropped without close() cannot
        # leak segments for the life of the machine)
        self._segments: Dict[str, Any] = {}
        self._segment_finalizer = weakref.finalize(
            self, _release_segments, self._segments
        )
        # observability: instruments share the parent service's registry;
        # the shm inventory is exported by a snapshot collector at render
        # time, so dispatch pays only the two fan-out instruments
        self._metrics = service.metrics
        self._shards_total = self._metrics.counter(
            "repro_shards_total",
            "Shards dispatched to pool workers.",
        )
        self._shard_fanout = self._metrics.histogram(
            "repro_shard_fanout",
            "Shards per parallel batch.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )
        self._orphans_reaped = self._metrics.counter(
            "repro_shm_orphans_reaped_total",
            "Orphaned repro-shm segments reclaimed by the recovery sweep.",
        )
        self._serial_fallbacks = self._metrics.counter(
            "repro_shard_serial_fallbacks_total",
            "Batches recomputed serially after a pool worker died mid-shard.",
        )
        self._metrics.register_collector(self._collect_shm_metrics)
        # recover segments stranded by SIGKILLed predecessors before this
        # executor starts minting its own
        self.reap_orphans()

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """The configured pool size."""
        return self._workers

    @property
    def service(self) -> ConnectionService:
        """The parent-side service this executor shards for."""
        return self._service

    @property
    def transport(self) -> str:
        """The resolved transport kind (``"shm"`` or ``"pickle"``)."""
        return self._transport_kind

    def active_segments(self) -> Tuple[str, ...]:
        """Return the names of the shared-memory segments currently owned."""
        return tuple(self._segments)

    def reap_orphans(self) -> Tuple[str, ...]:
        """Unlink ``repro-shm`` segments whose creator process is dead.

        Runs :func:`~repro.kernels.shm.sweep_orphans` -- the recovery
        path for segments stranded by a SIGKILLed parent, which neither
        the GC finalizer nor the atexit hook could reach -- and counts
        the reclaimed segments in ``repro_shm_orphans_reaped_total``.
        Called automatically at construction and on :meth:`close`; safe
        to call any time (live processes' segments are never touched).
        """
        reaped = sweep_orphans()
        if reaped:
            self._orphans_reaped.inc(len(reaped))
        return tuple(reaped)

    def _collect_shm_metrics(self) -> None:
        """Export the shared-memory inventory as gauges (snapshot collector)."""
        self._metrics.gauge(
            "repro_shm_segments",
            "Parent-owned shared-memory transport segments.",
        ).set(len(self._segments))
        self._metrics.gauge(
            "repro_shm_bytes",
            "Total bytes of parent-owned shared-memory segments.",
        ).set(sum(segment.size for segment in self._segments.values()))

    def close(self) -> None:
        """Shut the worker pool down and release the shared-memory segments.

        Idempotent; the executor stays usable (the pool is recreated and
        the transport re-derived lazily on the next batch).  Segments are
        unlinked only *after* the pool has drained, so no in-flight shard
        can lose its mapping -- and they are unlinked unconditionally,
        including after worker errors or crashes (the parent owns them;
        workers never do).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        _release_segments(self._segments)
        self._transport = None
        self.reap_orphans()

    def __enter__(self) -> "ParallelExecutor":
        """Return ``self`` (the pool is created lazily on first use)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Release the pool on scope exit."""
        self.close()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def batch(
        self,
        requests: Iterable,
        *,
        schema: Any = None,
        objective: str = "steiner",
        side: Optional[int] = None,
        policy: str = "auto",
    ) -> List[ConnectionResult]:
        """Answer a batch in parallel; mirror of :meth:`ConnectionService.batch`.

        Results are returned in request order and are byte-identical (tree,
        cost, guarantee, provenance minus wall time) to the serial batch.
        When the service has a persistent cache, stored answers are
        replayed in the parent and only the misses are dispatched.
        """
        materialised = self._service._materialise_batch(
            requests, objective=objective, side=side, policy=policy
        )
        batch_schema = self._service._batch_schema(materialised, schema)
        if self._workers == 1 or len(materialised) <= 1:
            return self._service.batch(materialised, schema=batch_schema)
        return self._parallel_batch(materialised, batch_schema)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _parallel_batch(
        self, materialised: List[ConnectionRequest], batch_schema: Any
    ) -> List[ConnectionResult]:
        service = self._service
        resolved = service.engine.resolve_schema(batch_schema)

        disk, digest = service._persistent_layer(batch_schema)
        replayed = (
            service._disk_replay_scan(disk, materialised, digest)
            if disk is not None
            else {}
        )

        pending = [
            (position, request)
            for position, request in enumerate(materialised)
            if position not in replayed
        ]
        payloads = {}
        context = None
        parent_hit = False
        if pending:
            # the context (and the pickled transport blob derived from it)
            # is only needed when something actually dispatches -- a fully
            # replayed batch never builds either
            context, parent_hit = service._context(batch_schema, digest)
            digest, payload = self._transport_for(
                batch_schema, resolved, context, digest
            )
            shards = self._shard(pending)
            self._shards_total.inc(len(shards))
            self._shard_fanout.observe(len(shards))
            # workers never ship the parent's disk cache or its metrics
            # registry (registries hold callables and do not pickle); the
            # kernel_backend / memory_budget_bytes fields DO ride along --
            # the lane is a plain string, so each worker re-resolves the
            # same backend after fork or spawn (numpy-lane workers adopt
            # the shm segment's bytes zero-copy via np.frombuffer)
            worker_config = service.config.with_overrides(
                cache_dir=None, metrics=None
            )
            pool = self._ensure_pool()
            # the worker-crash decision is made parent-side (workers do
            # not share the parent's injector) and shipped as a flag the
            # doomed worker acts on mid-shard
            injector = _FAULTS.injector  # no-op default: one check
            futures = [
                pool.submit(
                    _solve_shard,
                    digest,
                    payload,
                    worker_config,
                    [replace(request, schema=None) for _, request in shard],
                    crash=injector is not None
                    and injector.fire("worker-crash") is not None,
                )
                for shard in shards
            ]
            # joining in shard order makes the propagated error the one the
            # earliest failing request raises -- exactly the serial batch's
            # all-or-nothing contract
            for index, (shard, future) in enumerate(zip(shards, futures)):
                try:
                    shard_payloads, metrics_delta = future.result()
                except BrokenProcessPool:
                    # a killed worker poisons the whole pool: discard it
                    # and recompute every not-yet-joined shard serially
                    # on the parent's own service, which already holds
                    # the schema context (retry-once-serial) -- same
                    # answers, degraded throughput, no error surfaces.
                    # The encode round-trip keeps the downstream decode
                    # pipeline identical to the worker path.
                    pool.shutdown(wait=True)
                    self._pool = None
                    self._serial_fallbacks.inc()
                    for retry_shard in shards[index:]:
                        retry_results = service.batch(
                            [request for _, request in retry_shard],
                            schema=batch_schema,
                        )
                        for (position, _), result in zip(
                            retry_shard, retry_results
                        ):
                            payloads[position] = encode_result(result)
                    break
                # fold the worker-side instruments (queries, latency,
                # solver outcomes) into the parent registry: per-batch
                # deltas, so reused workers never double-count
                self._metrics.merge_snapshot(metrics_delta)
                for (position, _), encoded in zip(shard, shard_payloads):
                    payloads[position] = encoded

        results: List[ConnectionResult] = []
        first_solved = True
        for position, request in enumerate(materialised):
            if position in replayed:
                results.append(replayed[position])
                continue
            result = decode_result(
                payloads[position],
                graph=resolved,
                request=request,
                # stamp the parent's schema-cache status, matching what a
                # serial batch on this service would have reported
                cache_hit=parent_hit if first_solved else True,
            )
            first_solved = False
            results.append(result)
            if disk is not None:
                service._disk_store(disk, request, digest, result)
        if disk is not None and context is not None:
            disk.store_report(digest, context.report)
        return results

    def _transport_for(
        self,
        schema: Any,
        resolved,
        context: SchemaContext,
        digest: Optional[str] = None,
    ) -> Tuple[str, TransportPayload]:
        """Return ``(digest, transport payload)``, memoised per schema.

        The memo is keyed on the schema handle's identity plus its
        ``mutation_version`` (``None`` for the immutable Relational/ER
        handles): a structural mutation bumps the version, so the stale
        transport -- including its shared-memory segment, which is
        unlinked on the spot -- is rebuilt before the next shard is
        dispatched.  A caller that already computed the schema ``digest``
        passes it in.

        With the shared-memory transport the payload is just the segment
        name; with the pickle transport it is the full shard-state blob,
        re-shipped inside every submission.  An open
        :class:`~repro.dynamic.editor.SchemaEditor` transaction holds the
        version, so it cannot key the memo: mid-transaction dispatches
        fall back to an unmemoised pickle payload built from the live
        structure (a segment without a memo would have no owner slot).
        """
        version = getattr(schema, "mutation_version", None)
        held = getattr(schema, "_version_hold", False)
        memo = self._transport
        if not held and memo is not None and memo[0] is schema and memo[1] == version:
            return memo[2], memo[3]
        if digest is None:
            digest = schema_digest(resolved)
        if held or self._transport_kind == "pickle":
            payload: TransportPayload = (
                "pickle",
                pickle.dumps(
                    context.shard_state(), protocol=pickle.HIGHEST_PROTOCOL
                ),
            )
        else:
            indexed, index, report = context.shard_state()
            segment = create_segment(indexed, index, report)
            self._segments[segment.name] = segment
            payload = ("shm", segment.name)
        if not held:
            if memo is not None and memo[3][0] == "shm":
                # the stale version's segment: no future submission can
                # name it, so reclaim it now rather than at close()
                stale = self._segments.pop(memo[3][1], None)
                if stale is not None:
                    _release_segments({memo[3][1]: stale})
            self._transport = (schema, version, digest, payload)
        return digest, payload

    def _shard(self, pending: List) -> List[List]:
        size = self._shard_size
        if size is None:
            size = max(1, ceil(len(pending) / (self._workers * 2)))
        return [pending[start: start + size] for start in range(0, len(pending), size)]

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        return self._pool


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-process LRU of rebuilt services keyed by (schema digest, config);
#: each entry also pins the attached SharedMemory handle (when the shard
#: arrived over shared memory) because the service's graph holds
#: zero-copy views into its buffer.
_WORKER_SERVICES: "OrderedDict[Tuple[str, ServiceConfig], Tuple[ConnectionService, Any]]" = (
    OrderedDict()
)
_WORKER_SERVICE_LIMIT = 4


def _worker_service(
    digest: str, payload: TransportPayload, config: ServiceConfig
) -> ConnectionService:
    """Return this worker's service for a schema, rebuilding it on first use.

    A warm worker never reads ``payload`` at all -- with the
    shared-memory transport that makes the steady-state dispatch cost
    independent of the schema size.  Cold rebuilds attach the segment
    (zero-copy CSR views) or unpickle the legacy blob.  Evicting an
    entry drops the last references to its service and its pinned
    SharedMemory holder, which unmaps the segment in this worker;
    *unlinking* remains the parent's job.
    """
    key = (digest, config)
    entry = _WORKER_SERVICES.get(key)
    if entry is None:
        kind, data = payload
        holder: Any = None
        if kind == "shm":
            holder, indexed, index, report = attach_segment(data)
        else:
            indexed, index, report = pickle.loads(data)
        context = SchemaContext.from_shard_state(indexed, index, report)
        service = ConnectionService(schema=context.graph, config=config)
        service.engine.adopt_context(context)
        _WORKER_SERVICES[key] = (service, holder)
        while len(_WORKER_SERVICES) > _WORKER_SERVICE_LIMIT:
            _WORKER_SERVICES.popitem(last=False)
    else:
        _WORKER_SERVICES.move_to_end(key)
        service = entry[0]
    return service


def _solve_shard(
    digest: str,
    payload: TransportPayload,
    config: ServiceConfig,
    requests: List[ConnectionRequest],
    crash: bool = False,
) -> Tuple[List[dict], dict]:
    """Answer one shard in a pool worker.

    Returns ``(encoded result payloads, metrics snapshot delta)``.  The
    worker's registry is long-lived (services are LRU-cached across
    batches), so the envelope carries only the counters and histograms
    this shard moved (:func:`~repro.metrics.snapshot_delta`) -- the
    parent merges them instead of dropping the worker's registry on the
    floor.

    ``crash=True`` is the parent-scheduled ``worker-crash`` fault: the
    worker dies via :func:`os._exit` (no unwinding, no atexit -- a real
    SIGKILL-shaped death) before answering, which breaks the pool and
    exercises the parent's retry-once-serial fallback.
    """
    from repro.metrics import snapshot_delta

    if crash:  # pragma: no cover - the exiting worker reports no coverage
        os._exit(3)
    service = _worker_service(digest, payload, config)
    additive = ("counter", "histogram")
    before = service.metrics.snapshot(kinds=additive)
    results = service.batch(requests)
    delta = snapshot_delta(service.metrics.snapshot(kinds=additive), before)
    return [encode_result(result) for result in results], delta
