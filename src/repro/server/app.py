"""`ReproServer`: the asyncio connection server fronting the SchemaRegistry.

One process, two listeners:

* the **RPC listener** speaks the length-prefixed JSON frame protocol of
  :mod:`repro.server.protocol` -- every connection runs a read loop that
  validates each frame against the typed command table and dispatches to
  a ``_cmd_<name>`` handler, answering with typed success/error
  envelopes (and ``stream`` frames for ``enumerate``);
* the **metrics listener** speaks just enough HTTP/1.0 to serve
  ``GET /metrics`` (the registry's Prometheus text exposition, tenant
  labels included) and ``GET /healthz``.

Concurrency model: all registry and stream bookkeeping is confined to
the event-loop thread, and every service call is serialized **per
tenant** by an :class:`asyncio.Lock` -- a
:class:`~repro.api.service.ConnectionService` is single-threaded by
contract.  One kind of call solves inline on the event loop: a
``connect`` whose answer is a Lemma 5 elimination on warm state with a
work bound of at most :data:`LOOP_WORK_LIMIT` (no deadline, no disk
cache).  Every other call -- batches, mutations, enumeration pages,
exact or heuristic plans, anything that builds a context, a side plan
or an oracle row -- runs in a worker thread (:func:`asyncio.to_thread`),
where different tenants' services solve concurrently.  See
:meth:`ReproServer._solve` for the rule and its trade-off.  Each RPC
runs inside a
:func:`~repro.api.context.request_scope` (which ``to_thread`` propagates
via ``contextvars``), so every answer's provenance carries the
server-assigned request id, the tenant, and the wall-clock phase
breakdown -- the identity the server's own accounting uses.

Enumeration resumes **across the wire**: a budget-paused stream stays in
a server-side table keyed by the continuation token's stream id, and
the token also carries everything needed to rebuild the stream
statelessly (terminals, bounds, resume rank) -- so resumption survives
client reconnects *and* server restarts, with identical continuation
order either way (enumeration is deterministic).  Graceful drain
(SIGTERM or :meth:`ReproServer.request_drain`) stops accepting, lets
in-flight commands finish, flushes classification reports to the disk
cache, and only then lets ``serve_forever`` return.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
from typing import Dict, Optional, Set

from repro.api.context import request_scope
from repro.api.request import ConnectionRequest
from repro.dynamic.editor import SchemaEditor
from repro.faults.plan import ACTIVE as _FAULTS
from repro.metrics import MetricsRegistry, default_metrics
from repro.server.codec import (
    decode_continuation,
    decode_schema,
    decode_value,
    encode_continuation,
    encode_wire_result,
)
from repro.server.errors import (
    AuthenticationError,
    DeadlineError,
    ProtocolError,
    envelope_for,
)
from repro.server.protocol import (
    BATCH_REQUEST,
    WIRE_FORMAT_VERSION,
    Rendered,
    encode_frame,
    lookup_command,
    read_frame,
)
from repro.server.registry import SchemaRegistry

#: Default page size for ``enumerate`` calls that specify no budget and
#: whose tenant config has none either.
DEFAULT_ENUMERATION_PAGE = 8

#: Paused streams kept live for fast resume; older ones fall back to the
#: stateless continuation-token path.
MAX_LIVE_STREAMS = 128

#: Largest work bound (seed vertices squared plus their degrees, see
#: :func:`~repro.engine.registry.chordal_elimination_work`) of a
#: ``connect`` that may solve on the event loop.  On a 2-core VM the
#: slowest seed shape within it, a 63-vertex path, solves in ~0.9 ms,
#: well under the 5 ms GIL switch interval at which a worker thread
#: lets the loop in anyway; perfbench's warm-connect pools bound at
#: most ~1,500.
LOOP_WORK_LIMIT = 4096


class _Connection:
    """Per-connection state: the writer plus a busy flag for drain."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.busy = False


class ReproServer:
    """Multi-tenant JSON-over-TCP connection server.

    Parameters
    ----------
    host / port:
        RPC listener address; ``port=0`` picks an ephemeral port
        (readable as :attr:`port` after :meth:`start`).
    metrics_port:
        HTTP listener port for ``GET /metrics`` / ``GET /healthz``
        (``0`` = ephemeral, readable as :attr:`metrics_port`).
    registry:
        An existing :class:`~repro.server.registry.SchemaRegistry` to
        serve; built from ``capacity`` / ``cache_dir`` / ``metrics``
        when omitted.
    drain_grace:
        Seconds :meth:`drain` waits for in-flight commands before
        force-closing their connections.

    Examples
    --------
    ::

        server = ReproServer(port=0)
        await server.start()
        ...
        await server.drain()
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics_port: int = 0,
        registry: Optional[SchemaRegistry] = None,
        capacity: int = 8,
        cache_dir: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        drain_grace: float = 10.0,
    ) -> None:
        self._host = host
        self._requested_port = port
        self._requested_metrics_port = metrics_port
        self._metrics = metrics if metrics is not None else default_metrics()
        self._registry = (
            registry
            if registry is not None
            else SchemaRegistry(
                capacity, cache_dir=cache_dir, metrics=self._metrics
            )
        )
        self._drain_grace = drain_grace
        self._server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: Dict[asyncio.Task, _Connection] = {}
        self._tenant_locks: Dict[str, asyncio.Lock] = {}
        # deadline-expired solves whose thread still runs (see _solve)
        self._abandoned: Set[asyncio.Task] = set()
        self._streams: "Dict[str, dict]" = {}
        self._stream_seq = itertools.count(1)
        self._request_seq = itertools.count(1)
        self._draining = False
        self._stopped = asyncio.Event()
        self.port: Optional[int] = None
        self.metrics_port: Optional[int] = None
        self._requests_total = self._metrics.counter(
            "repro_server_requests_total",
            "RPC commands handled, by command and outcome.",
            ("command", "outcome"),
        )
        self._deadline_total = self._metrics.counter(
            "repro_deadline_exceeded_total",
            "Requests abandoned past their tenant's deadline_ms budget.",
            ("tenant",),
        )
        solves = self._metrics.counter(
            "repro_server_solves_total",
            "Service calls run, by where they ran (event loop or worker thread).",
            ("path",),
        )
        self._solves_on_loop = solves.labels(path="loop")
        self._solves_on_worker = solves.labels(path="worker")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The interface both listeners bind."""
        return self._host

    @property
    def registry(self) -> SchemaRegistry:
        """The schema registry this server fronts."""
        return self._registry

    @property
    def draining(self) -> bool:
        """True once a drain has been requested."""
        return self._draining

    async def start(self) -> None:
        """Bind both listeners and record the resolved ports."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._requested_port
        )
        self._http_server = await asyncio.start_server(
            self._on_http, self._host, self._requested_metrics_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.metrics_port = self._http_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until a drain completes."""
        await self._stopped.wait()

    def request_drain(self) -> None:
        """Begin a graceful drain; safe from signal handlers and other threads."""
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(
            lambda: loop.create_task(self.drain())
        )

    async def drain(self) -> dict:
        """Stop accepting, finish in-flight commands, flush, shut down.

        Idempotent: concurrent calls all wait for the one drain.  Idle
        connections are closed immediately; busy ones get
        ``drain_grace`` seconds to finish their current command (each
        read loop exits at its next frame boundary once draining), and
        solves abandoned past their deadline get as long again to return
        before the flush.
        Returns ``{"flushed": <classification reports stored>}``.
        """
        if self._draining:
            await self._stopped.wait()
            return {"flushed": 0}
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for connection in self._connections.values():
            if not connection.busy:
                connection.writer.close()
        if self._connections:
            await asyncio.wait(
                set(self._connections), timeout=self._drain_grace
            )
        for connection in self._connections.values():
            connection.writer.close()
        if self._abandoned:
            await asyncio.wait(set(self._abandoned), timeout=self._drain_grace)
        flushed = self._registry.flush()
        self._streams.clear()
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
        self._stopped.set()
        return {"flushed": flushed}

    # ------------------------------------------------------------------
    # RPC connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        connection = _Connection(writer)
        if task is not None:
            self._connections[task] = connection
        try:
            await self._read_loop(reader, writer, connection)
        finally:
            if task is not None:
                self._connections.pop(task, None)
            writer.close()

    async def _read_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        connection: _Connection,
    ) -> None:
        while True:
            try:
                frame = await read_frame(reader)
            except ProtocolError as error:
                # unframeable input: report once, then close -- resync
                # inside a corrupt byte stream is not possible
                await self._send(
                    writer, {"id": None, "ok": False, "error": envelope_for(error)}
                )
                return
            except (ConnectionError, asyncio.CancelledError):
                return
            if frame is None:
                return
            message_id = frame.get("id")
            connection.busy = True
            command_name = "?"
            try:
                command = lookup_command(frame.get("cmd"))
                command_name = command.name
                params = command.validate(frame.get("params", {}))
                handler = getattr(self, f"_cmd_{command.name}")
                result = await handler(params, writer, message_id)
                await self._send(
                    writer, {"id": message_id, "ok": True, "result": result}
                )
                self._requests_total.labels(
                    command=command_name, outcome="ok"
                ).inc()
            except asyncio.CancelledError:
                raise
            except Exception as error:
                envelope = envelope_for(error)
                self._requests_total.labels(
                    command=command_name, outcome=envelope["kind"]
                ).inc()
                try:
                    await self._send(
                        writer,
                        {"id": message_id, "ok": False, "error": envelope},
                    )
                except (ConnectionError, ProtocolError):
                    return
            finally:
                connection.busy = False
            if self._draining:
                return

    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        injector = _FAULTS.injector  # no-op default: one attribute check
        if injector is not None:
            rule = injector.fire("wire-frame-delay")
            if rule is not None:
                await asyncio.sleep(rule.delay_ms / 1000.0)
            if injector.fire("wire-frame-drop") is not None:
                # the frame vanishes and the connection dies with it, as
                # a mid-write crash would look from the client's side
                writer.close()
                raise ConnectionResetError("fault-injected frame drop")
        writer.write(encode_frame(message))
        await writer.drain()

    def _lock_for(self, tenant: str) -> asyncio.Lock:
        lock = self._tenant_locks.get(tenant)
        if lock is None:
            lock = asyncio.Lock()
            self._tenant_locks[tenant] = lock
        return lock

    async def _solve(self, tenant: str, token: Optional[str], fn, *, inline_if=None):
        """Run one service call for a tenant: auth, admit, lock, scope, run.

        ``fn`` receives the tenant's service and runs under the tenant's
        lock, inside a :func:`~repro.api.context.request_scope` whose
        identity lands on the returned provenance.

        ``fn`` runs in a worker thread (:func:`asyncio.to_thread`) unless
        the caller passes ``inline_if``, a read-only test of the service
        that bounds the call's work, and it holds: then ``fn`` runs inline
        on the event loop.  The test runs under the lock, with no await
        between it and the call, and never for a tenant with
        ``deadline_ms``.  Only ``connect`` passes one
        (:meth:`~repro.api.service.ConnectionService.warm_within`).
        Under the GIL a CPU-bound solve in a worker never ran beside the
        loop anyway: it let the loop in only at the 5 ms switch interval.
        For a call bounded well below that (:data:`LOOP_WORK_LIMIT`), the
        hop buys only a round trip between threads; inline, the call
        holds the loop for its own duration instead.
        ``repro_server_solves_total{path}`` counts both paths.

        With ``TenantLimits.deadline_ms`` set, the call always takes the
        worker path, and the whole admitted span (lock wait included)
        runs as a task awaited with that timeout; on expiry the caller
        gets a typed ``deadline`` envelope at once and
        ``repro_deadline_exceeded_total`` is incremented.  An answer the
        loop finds ready only after the deadline (a worker that held the
        GIL until its solve was done) is treated the same way.  A request
        still waiting for the lock is cancelled.  One whose solve already
        runs is *abandoned*: its thread finishes in the background, and
        the task keeps the tenant's lock and inflight slot until it does,
        so the tenant's next request cannot enter the same (not
        thread-safe) service and LRU eviction cannot drop it.
        :meth:`drain` waits for abandoned tasks.
        """
        self._registry.authenticate(tenant, token)
        record = self._registry.acquire(tenant)
        handed_off = False
        try:
            deadline_ms = record.limits.deadline_ms
            injector = _FAULTS.injector
            if (
                injector is not None
                and injector.fire("deadline-exceeded") is not None
            ):
                self._deadline_total.labels(tenant=tenant).inc()
                raise DeadlineError(
                    f"tenant {tenant!r}: fault-injected deadline expiry"
                )
            service = self._registry.service(tenant)
            solving = False
            inline = inline_if if deadline_ms is None else None

            async def admitted():
                nonlocal solving
                async with self._lock_for(tenant):
                    solving = True
                    with request_scope(
                        request_id=f"req-{next(self._request_seq)}",
                        tenant=tenant,
                    ):
                        if inline is not None and inline(service):
                            self._solves_on_loop.inc()
                            return fn(service)
                        self._solves_on_worker.inc()
                        return await asyncio.to_thread(fn, service)

            if deadline_ms is None:
                return await admitted()
            loop = asyncio.get_running_loop()
            expires = loop.time() + deadline_ms / 1000.0
            task = asyncio.ensure_future(admitted())

            def settle(finished: asyncio.Task) -> None:
                # the task owns the inflight slot from here on and gives it
                # back however it ends; an abandoned answer has no reader,
                # so its error is retrieved here
                self._registry.release(tenant)
                self._abandoned.discard(finished)
                if not finished.cancelled():
                    finished.exception()

            task.add_done_callback(settle)
            handed_off = True
            done: Set[asyncio.Task] = set()
            try:
                done, _ = await asyncio.wait({task}, timeout=deadline_ms / 1000.0)
            finally:
                if task not in done:
                    if solving:
                        self._abandoned.add(task)
                    else:
                        task.cancel()
            # a worker that held the GIL past the deadline ends before the
            # loop can run the timer: the task is done, and its answer late
            if task in done and loop.time() <= expires:
                return task.result()
            self._deadline_total.labels(tenant=tenant).inc()
            raise DeadlineError(
                f"tenant {tenant!r}: request exceeded deadline_ms={deadline_ms}"
            )
        finally:
            if not handed_off:
                self._registry.release(tenant)

    # ------------------------------------------------------------------
    # command handlers (one per COMMANDS entry)
    # ------------------------------------------------------------------
    async def _cmd_ping(self, params, writer, message_id) -> dict:
        """Liveness check; also reports the library version."""
        from repro import __version__

        return {"pong": True, "version": __version__}

    async def _cmd_hello(self, params, writer, message_id) -> dict:
        """Negotiate the wire-format version (ROADMAP item 2).

        A client declaring any generation other than
        :data:`~repro.server.protocol.WIRE_FORMAT_VERSION` gets a typed
        ``protocol`` error envelope naming both versions -- a clean,
        machine-readable refusal instead of a mid-session frame guess.
        """
        declared = params["version"]
        if declared != WIRE_FORMAT_VERSION:
            raise ProtocolError(
                f"unsupported wire-format version {declared}; this server "
                f"speaks version {WIRE_FORMAT_VERSION}"
            )
        from repro import __version__

        return {
            "version": WIRE_FORMAT_VERSION,
            "library": __version__,
            "client": params["client"],
        }

    async def _cmd_create_schema(self, params, writer, message_id) -> dict:
        """Register a tenant from an uploaded bipartite schema."""
        graph = decode_schema(params["schema"])
        record = self._registry.create(
            params["tenant"],
            graph,
            config_overrides=params["config"],
            limits=params["limits"],
            token=params["token"],
            exist_ok=params["exist_ok"],
        )
        return {
            "tenant": record.name,
            "vertices": len(record.graph.vertices()),
            "edges": sum(1 for _ in record.graph.edges()),
            "protected": record.token_hash is not None,
        }

    async def _cmd_drop_schema(self, params, writer, message_id) -> dict:
        """Remove a tenant (authenticated when the tenant has a token)."""
        tenant = params["tenant"]
        self._registry.authenticate(tenant, params["token"], mutating=True)
        self._drop_streams(tenant)
        self._registry.drop(tenant)
        self._tenant_locks.pop(tenant, None)
        return {"dropped": tenant}

    async def _cmd_list_schemas(self, params, writer, message_id) -> dict:
        """List registered tenant names (coldest first)."""
        return {"tenants": self._registry.names()}

    async def _cmd_connect(self, params, writer, message_id) -> Rendered:
        """Answer one connection request; the body is a wire-encoded result."""
        tenant = params["tenant"]
        terminals = [decode_value(t) for t in params["terminals"]]
        self._registry.check_quota(tenant, terminals=len(terminals))
        kwargs = {
            "objective": params["objective"],
            "policy": params["policy"],
        }
        if params["side"] is not None:
            kwargs["side"] = params["side"]
        if params["solver"] is not None:
            kwargs["solver"] = params["solver"]
        if params["tags"] is not None:
            kwargs["tags"] = decode_value(params["tags"])
        # one request for both calls, built in the first of them, so
        # authentication, admission and quota errors still come first
        request = functools.cache(lambda: ConnectionRequest.of(terminals, **kwargs))
        result = await self._solve(
            tenant,
            params["token"],
            lambda service: service.connect(request()),
            inline_if=lambda service: service.warm_within(request(), LOOP_WORK_LIMIT),
        )
        return Rendered('{"result":' + encode_wire_result(result) + "}")

    def _decode_batch_requests(self, tenant: str, params) -> list:
        """Build the typed request list for ``batch`` (validating quotas)."""
        entries = params["requests"]
        self._registry.check_quota(tenant, requests=len(entries))
        requests = []
        for entry in entries:
            fields = BATCH_REQUEST.validate(entry)
            terminals = [decode_value(t) for t in fields["terminals"]]
            self._registry.check_quota(tenant, terminals=len(terminals))
            kwargs = {
                name: fields[name] if fields[name] is not None else params[name]
                for name in ("objective", "policy", "side")
            }
            if fields["solver"] is not None:
                kwargs["solver"] = fields["solver"]
            if fields["tags"] is not None:
                kwargs["tags"] = decode_value(fields["tags"])
            requests.append(ConnectionRequest.of(terminals, **kwargs))
        return requests

    async def _cmd_batch(self, params, writer, message_id) -> Rendered:
        """Answer many requests over the tenant's schema in one call."""
        tenant = params["tenant"]
        requests = self._decode_batch_requests(tenant, params)
        results = await self._solve(
            tenant, params["token"], lambda service: service.batch(requests)
        )
        return _rendered_results(results)

    async def _cmd_interpret(self, params, writer, message_id) -> Rendered:
        """Batch over bare terminal lists (``ConnectionService.batch``)."""
        tenant = params["tenant"]
        queries = params["queries"]
        self._registry.check_quota(tenant, requests=len(queries))
        decoded = []
        for query in queries:
            if not isinstance(query, list):
                raise ProtocolError(
                    "interpret: each query must be a list of terminals"
                )
            terminals = [decode_value(t) for t in query]
            self._registry.check_quota(tenant, terminals=len(terminals))
            decoded.append(terminals)
        objective = params["objective"]
        side = params["side"]
        results = await self._solve(
            tenant,
            params["token"],
            lambda service: service.batch(
                decoded, objective=objective, side=side
            ),
        )
        return _rendered_results(results)

    async def _cmd_mutate(self, params, writer, message_id) -> dict:
        """Apply one transactional schema evolution (authenticated).

        The edit list becomes a single
        :class:`~repro.dynamic.editor.SchemaEditor` transaction: one
        version bump, rollback on any failing edit.  The next query pays
        the PR4 incremental rebind, not a full reclassification.  Live
        enumeration streams for the tenant are dropped (their order is
        only meaningful against the schema they started on); stateless
        continuations resume against the *new* schema.

        A client-supplied ``idempotency_key`` makes the call safely
        retryable: the server remembers the response per tenant and key
        (bounded FIFO), so a retry after a lost reply returns the
        original response instead of applying the transaction twice.
        """
        tenant = params["tenant"]
        self._registry.authenticate(tenant, params["token"], mutating=True)
        record = self._registry.record(tenant)
        key = params["idempotency_key"]
        if key is not None:
            replay = self._registry.recall_idempotent(tenant, key)
            if replay is not None:
                return dict(replay, deduplicated=True)
        edits = params["edits"]

        def apply(service):
            with SchemaEditor(record.graph) as transaction:
                for position, edit in enumerate(edits):
                    _apply_edit(transaction, edit, position)
            return transaction.delta

        delta = await self._solve(tenant, params["token"], apply)
        record.mutations += 1
        self._drop_streams(tenant)
        response = {
            "version": record.graph.mutation_version,
            "delta": delta.counts(),
        }
        if key is not None:
            self._registry.remember_idempotent(tenant, key, response)
        return response

    async def _cmd_enumerate(self, params, writer, message_id) -> dict:
        """Stream one page of ranked connections; resumable via continuation.

        Starting call: ``terminals`` (+ optional ``budget`` page size and
        ``max_extra``).  Resuming call: ``continuation`` from a previous
        footer.  Each yielded connection goes out as its own ``stream``
        frame; the footer carries ``paused`` / ``exhausted`` and the next
        continuation token (``null`` once exhausted).
        """
        tenant = params["tenant"]
        token = params["token"]
        if (params["terminals"] is None) == (params["continuation"] is None):
            raise ProtocolError(
                "enumerate: pass exactly one of 'terminals' (new stream) "
                "or 'continuation' (resume)"
            )
        if params["continuation"] is not None:
            return await self._resume_enumeration(
                tenant, token, params, writer, message_id
            )
        encoded_terminals = params["terminals"]
        terminals = [decode_value(t) for t in encoded_terminals]
        self._registry.check_quota(tenant, terminals=len(terminals))
        page = self._page_size(tenant, params["budget"])
        max_extra = params["max_extra"]

        def start(service):
            stream = service.enumerate(
                terminals, budget=page, max_extra=max_extra
            )
            return stream, stream.take(page)

        stream, results = await self._solve(tenant, token, start)
        sid = f"s{next(self._stream_seq)}"
        return await self._finish_enumeration(
            writer,
            message_id,
            tenant=tenant,
            sid=sid,
            stream=stream,
            results=results,
            encoded_terminals=encoded_terminals,
            max_extra=max_extra,
        )

    async def _resume_enumeration(
        self, tenant, token, params, writer, message_id
    ) -> dict:
        record = decode_continuation(params["continuation"])
        if record["tenant"] != tenant:
            raise AuthenticationError(
                "continuation token was minted for a different tenant"
            )
        encoded_terminals = record["terminals"]
        terminals = [decode_value(t) for t in encoded_terminals]
        max_extra = record.get("max_extra")
        skip = record["skip"]
        sid = record["sid"]
        page = self._page_size(tenant, params["budget"])
        entry = self._streams.get(sid)
        live = (
            entry["stream"]
            if entry is not None and entry["tenant"] == tenant
            else None
        )

        def resume(service):
            # checked under the tenant lock: a resume abandoned past its
            # deadline may have moved the live stream on after it expired
            if live is not None and live.yielded == skip:
                # fast path: the paused stream is still live server-side
                live.extend_budget(page)
                return live, live.take(page)
            # stateless path: rebuild and replay -- enumeration is
            # deterministic, so ranks skip+1.. come out identical (this
            # is what survives reconnects, eviction, and restarts)
            stream = service.enumerate(
                terminals, budget=skip + page, max_extra=max_extra
            )
            replayed = stream.take(skip)
            if len(replayed) < skip:
                return stream, []
            return stream, stream.take(page)

        stream, results = await self._solve(tenant, token, resume)
        return await self._finish_enumeration(
            writer,
            message_id,
            tenant=tenant,
            sid=sid,
            stream=stream,
            results=results,
            encoded_terminals=encoded_terminals,
            max_extra=max_extra,
        )

    async def _finish_enumeration(
        self,
        writer,
        message_id,
        *,
        tenant,
        sid,
        stream,
        results,
        encoded_terminals,
        max_extra,
    ) -> dict:
        for result in results:
            await self._send(
                writer,
                {"id": message_id, "stream": Rendered(encode_wire_result(result))},
            )
        continuation = None
        if stream.paused and not stream.exhausted:
            continuation = encode_continuation(
                tenant=tenant,
                terminals=encoded_terminals,
                max_extra=max_extra,
                skip=stream.yielded,
                sid=sid,
            )
            self._streams[sid] = {
                "tenant": tenant,
                "stream": stream,
            }
            while len(self._streams) > MAX_LIVE_STREAMS:
                # oldest first; stateless resume covers the evicted ones
                self._streams.pop(next(iter(self._streams)))
        else:
            self._streams.pop(sid, None)
        return {
            "count": len(results),
            "yielded": stream.yielded,
            "paused": stream.paused,
            "exhausted": stream.exhausted,
            "continuation": continuation,
        }

    async def _cmd_stats(self, params, writer, message_id) -> dict:
        """Registry and stream-table observability counters."""
        return {
            "registry": self._registry.stats(),
            "live_streams": len(self._streams),
            "draining": self._draining,
        }

    async def _cmd_metrics(self, params, writer, message_id) -> dict:
        """The Prometheus exposition text, inline over RPC."""
        return {"text": self._metrics.render_text()}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _page_size(self, tenant: str, budget) -> int:
        if budget is not None:
            if budget < 1:
                raise ProtocolError("enumerate: budget must be >= 1")
            return budget
        configured = self._registry.record(tenant).config.enumeration_budget
        if configured is not None and configured > 0:
            return configured
        return DEFAULT_ENUMERATION_PAGE

    def _drop_streams(self, tenant: str) -> None:
        for sid in [
            sid
            for sid, entry in self._streams.items()
            if entry["tenant"] == tenant
        ]:
            self._streams.pop(sid, None)

    # ------------------------------------------------------------------
    # metrics HTTP endpoint
    # ------------------------------------------------------------------
    async def _on_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one minimal HTTP exchange: /metrics, /healthz, else 404."""
        try:
            request_line = await reader.readline()
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            path = parts[1] if len(parts) > 1 else "/"
            if method != "GET":
                status, ctype, body = (
                    "405 Method Not Allowed",
                    "text/plain; charset=utf-8",
                    b"method not allowed\n",
                )
            elif path == "/metrics":
                status = "200 OK"
                ctype = "text/plain; version=0.0.4; charset=utf-8"
                body = self._metrics.render_text().encode("utf-8")
            elif path == "/healthz":
                status, ctype = "200 OK", "text/plain; charset=utf-8"
                body = b"draining\n" if self._draining else b"ok\n"
            else:
                status, ctype, body = (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    b"not found\n",
                )
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()


def _rendered_results(results) -> Rendered:
    """The ``{"results": [...]}`` body of a batch reply, one rendered answer each."""
    return Rendered(
        '{"results":[' + ",".join([encode_wire_result(result) for result in results]) + "]}"
    )


def _apply_edit(transaction: SchemaEditor, edit, position: int) -> None:
    """Apply one wire edit record to an open transaction."""
    if not isinstance(edit, dict) or "op" not in edit:
        raise ProtocolError(
            f"mutate: edit #{position} must be an object with an 'op'"
        )
    op = edit["op"]
    keys = set(edit) - {"op"}
    if op == "add_vertex":
        if not {"vertex"} <= keys or keys - {"vertex", "side"}:
            raise ProtocolError(
                f"mutate: edit #{position} (add_vertex) takes "
                "'vertex' and optional 'side'"
            )
        transaction.add_vertex(
            decode_value(edit["vertex"]), side=edit.get("side")
        )
    elif op == "remove_vertex":
        if keys != {"vertex"}:
            raise ProtocolError(
                f"mutate: edit #{position} (remove_vertex) takes 'vertex'"
            )
        transaction.remove_vertex(decode_value(edit["vertex"]))
    elif op in ("add_edge", "remove_edge"):
        if keys != {"u", "v"}:
            raise ProtocolError(
                f"mutate: edit #{position} ({op}) takes 'u' and 'v'"
            )
        method = getattr(transaction, op)
        method(decode_value(edit["u"]), decode_value(edit["v"]))
    else:
        raise ProtocolError(
            f"mutate: edit #{position} has unknown op {op!r}; accepted: "
            "add_vertex / remove_vertex / add_edge / remove_edge"
        )


__all__ = ["ReproServer", "DEFAULT_ENUMERATION_PAGE", "MAX_LIVE_STREAMS"]
