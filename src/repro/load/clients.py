"""Concurrent plan execution: simulated clients over two transports.

:func:`run_plan` replays a compiled plan (see
:mod:`repro.load.schedule`) with ``clients`` worker threads in **open
loop**: each operation has a scheduled arrival offset, workers sleep
until it and then issue the request regardless of how many earlier
requests are still in flight.  A slow stack falls behind its schedule
(visible as achieved-rate degradation and tail latency) instead of
silently throttling the generator -- the coordinated-omission mistake
closed-loop harnesses make.

Two transports implement the same operation vocabulary:

* :class:`InProcessTransport` drives a
  :class:`~repro.server.registry.SchemaRegistry` directly on this
  process's threads, replicating the server's request path
  (authenticate, admission ``acquire``/``release``, quota checks, the
  per-tenant solve lock) without any sockets -- the fastest way to
  saturate the engine, and the transport of the serial verify oracle
  and of ``python -m repro run``'s phases;
* :class:`WireTransport` speaks the real protocol through one blocking
  :class:`~repro.server.client.ReproClient` per worker thread, with
  enumeration follow-up pages optionally resumed on a *fresh
  connection* via the continuation token (resume-across-reconnect).

Every answer reduces to one **answer digest** over its answer fields
and none of its run conditions (:func:`digest_result_object` for a live
result, :func:`digest_wire_payload` for its wire form), so in-process
and wire runs of the same plan produce the same :func:`samples_checksum`
(and :func:`canonical_checksum` folds a plain result sequence).
Deliberate error traffic digests as ``error:<kind>``; admission bounces
are retried with backoff (they are a concurrency artefact, not an
answer) and surface only in the retry counters and error taxonomy.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.load.report import OpSample
from repro.load.schedule import PlannedOp, apply_edits
from repro.load.spec import LoadSpec
from repro.server.errors import RemoteError, envelope_for

#: Admission bounces absorbed per operation before giving up.
MAX_ADMISSION_RETRIES = 8

#: Base backoff between admission retries (doubles per attempt).
ADMISSION_BACKOFF_S = 0.002

#: Upper bound on waiting for a tenant's earlier mutations to apply.
WRITE_GATE_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# the answer digest
# ----------------------------------------------------------------------
def _digest_answer(
    *,
    terminals,
    objective: str,
    side: Optional[int],
    cost: int,
    guarantee: str,
    rank: int,
    solver: str,
    instance_class: str,
    plan: str,
    fallback_from: Optional[str],
    vertices,
    edges,
) -> str:
    """SHA-256 of one answer record: the one definition of "same answer".

    The record is what was asked (terminals, objective, side), what was
    answered (cost, guarantee, rank, the tree's vertices and its
    orientation-free edges) and how the engine chose it (solver,
    instance class, plan, ``fallback_from``).  Run conditions -- wall
    times, phases, request id, tenant, tags, cache flags -- are not part
    of an answer, so the same answer digests alike cold or warm, replayed
    from disk or served over the wire.
    """
    record = [
        sorted(repr(t) for t in terminals),
        objective,
        side,
        cost,
        guarantee,
        rank,
        solver,
        instance_class,
        plan,
        fallback_from,
        sorted(repr(v) for v in vertices),
        sorted(sorted((repr(u), repr(v))) for u, v in edges),
    ]
    text = json.dumps(record, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_result_object(result) -> str:
    """Digest an in-process :class:`~repro.api.result.ConnectionResult`."""
    provenance = result.provenance
    return _digest_answer(
        terminals=result.request.terminals,
        objective=result.request.objective,
        side=result.solution.side,
        cost=result.cost,
        guarantee=result.guarantee.value,
        rank=result.rank,
        solver=provenance.solver,
        instance_class=provenance.instance_class,
        plan=provenance.plan,
        fallback_from=provenance.fallback_from,
        vertices=result.tree.vertices(),
        edges=result.tree.edges(),
    )


def digest_wire_payload(payload: Dict[str, Any]) -> str:
    """Digest a wire result payload (the server's JSON encoding)."""
    from repro.server.codec import decode_value

    provenance = payload["provenance"]
    edges = [(decode_value(u), decode_value(v)) for u, v in payload["tree_edges"]]
    if "tree_vertices" in payload:
        vertices = [decode_value(v) for v in payload["tree_vertices"]]
    else:  # omitted on the wire when the edges cover every vertex
        vertices = {v for edge in edges for v in edge}
    return _digest_answer(
        terminals=[decode_value(t) for t in payload["terminals"]],
        objective=payload["objective"],
        side=payload["side"],
        cost=payload["cost"],
        guarantee=payload["guarantee"],
        rank=payload["rank"],
        solver=provenance["solver"],
        instance_class=provenance["instance_class"],
        plan=provenance["plan"],
        fallback_from=provenance["fallback_from"],
        vertices=vertices,
        edges=edges,
    )


def canonical_checksum(results) -> str:
    """Fold the answer digests of a result sequence, in order.

    Two runs that answered the same requests alike agree on this
    checksum whatever their run conditions (cold or warm, replayed from
    disk, instrumented or not).
    """
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(digest_result_object(result).encode("ascii"))
    return hasher.hexdigest()


def _join_digests(parts: Sequence[str]) -> str:
    """Fold many per-result digests into one op digest."""
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def samples_checksum(samples: Sequence[OpSample]) -> str:
    """The verify checksum: every digested outcome, in plan order.

    Samples without a digest (operations that exhausted their admission
    retries or failed in transport) are excluded -- they carry no
    answer to compare.  A run where everything completed therefore
    checksums identically to the serial oracle, and any divergence in
    any answer changes the checksum.
    """
    lines = [
        f"{sample.index}:{sample.op}:{sample.digest}"
        for sample in sorted(samples, key=lambda s: s.index)
        if sample.digest is not None
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
class InProcessTransport:
    """Drive a :class:`SchemaRegistry` directly, mirroring the server path.

    The registry is not thread-safe, so every registry touch
    (authenticate / admission / quota / service lookup) happens under
    one short global lock -- the moral equivalent of the server's
    event-loop confinement -- while the solve itself runs under a
    per-tenant lock only, so different tenants solve concurrently
    exactly as they do server-side.
    """

    def __init__(self, registry, spec: LoadSpec) -> None:
        """Wrap ``registry`` for plan execution against ``spec``."""
        self._registry = registry
        self._spec = spec
        self._tokens = {t.name: t.token for t in spec.tenants}
        self._registry_lock = threading.Lock()
        self._tenant_locks: Dict[str, threading.Lock] = {
            t.name: threading.Lock() for t in spec.tenants
        }

    def close(self) -> None:
        """Nothing to release (the caller owns the registry)."""

    def reset(self, registry) -> None:
        """Swap in a fresh registry -- the in-process analogue of a server
        restart.

        The chaos harness (:mod:`repro.load.chaos`) calls this at its
        scheduled kill points: every warm context, admission counter and
        enumeration stream the old registry held is gone, exactly as a
        SIGKILLed server loses them.  In-flight operations finish (and
        release) against the registry they were admitted on; operations
        admitted after the swap see only the pristine replacement.
        """
        with self._registry_lock:
            self._registry = registry

    def _solve(self, tenant: str, fn) -> Any:
        """Authenticate, admit, lock, run ``fn(service)``, release."""
        with self._registry_lock:
            # captured so the admit/release pair lands on one registry
            # even when reset() swaps it mid-operation
            registry = self._registry
            registry.authenticate(tenant, None)
            registry.acquire(tenant)
            service = registry.service(tenant)
        try:
            with self._tenant_locks[tenant]:
                return fn(service)
        finally:
            with self._registry_lock:
                registry.release(tenant)

    def run_op(self, op: PlannedOp) -> Tuple[str, Optional[str]]:
        """Execute one planned op; return ``(error_kind, digest)``.

        ``error_kind`` is ``""`` on success.  Typed failures are mapped
        through :func:`~repro.server.errors.envelope_for`, so the kinds
        match the wire vocabulary exactly.  Admission bounces propagate
        as ``AdmissionError`` for the executor's retry loop.
        """
        from repro.server.errors import AdmissionError

        try:
            return "", self._dispatch(op)
        except AdmissionError:
            raise
        except Exception as error:
            return envelope_for(error)["kind"], None

    def _dispatch(self, op: PlannedOp) -> str:
        payload = op.payload
        tenant = op.tenant
        shape = {"objective": self._spec.objective, "side": self._spec.side}
        if op.op == "connect":
            terminals = payload["terminals"]
            with self._registry_lock:
                self._registry.check_quota(tenant, terminals=len(terminals))
            result = self._solve(tenant, lambda s: s.connect(terminals, **shape))
            return _join_digests([digest_result_object(result)])
        if op.op in ("batch", "interpret"):
            queries = payload["queries"]
            with self._registry_lock:
                self._registry.check_quota(tenant, requests=len(queries))
                for query in queries:
                    self._registry.check_quota(tenant, terminals=len(query))
            results = self._solve(tenant, lambda s: s.batch(queries, **shape))
            return _join_digests([digest_result_object(r) for r in results])
        if op.op == "enumerate":
            return self._enumerate(op)
        if op.op == "mutate":
            return self._mutate(tenant, payload["edits"], self._tokens[tenant])
        if op.op == "bad_auth":
            with self._registry_lock:
                self._registry.authenticate(
                    tenant, payload["token"], mutating=True
                )
            raise RemoteError(  # pragma: no cover - auth must have raised
                "internal", "bad_auth traffic was unexpectedly accepted"
            )
        if op.op == "over_quota":
            with self._registry_lock:
                self._registry.check_quota(
                    tenant, requests=len(payload["queries"])
                )
            raise RemoteError(  # pragma: no cover - quota must have raised
                "internal", "over_quota traffic was unexpectedly accepted"
            )
        raise RemoteError("internal", f"unknown planned op {op.op!r}")

    def _enumerate(self, op: PlannedOp) -> str:
        payload = op.payload
        tenant = op.tenant
        terminals = payload["terminals"]
        budget = payload["budget"]
        pages = payload["pages"]
        with self._registry_lock:
            self._registry.check_quota(tenant, terminals=len(terminals))

        def pull(service) -> str:
            stream = service.enumerate(terminals, budget=budget)
            digests = [digest_result_object(r) for r in stream.take(budget)]
            taken = 1
            while taken < pages and stream.paused and not stream.exhausted:
                stream.extend_budget(budget)
                digests.extend(
                    digest_result_object(r) for r in stream.take(budget)
                )
                taken += 1
            digests.append(f"exhausted={stream.exhausted}")
            return _join_digests(digests)

        return self._solve(tenant, pull)

    def _mutate(self, tenant: str, edits, token: Optional[str]) -> str:
        with self._registry_lock:
            self._registry.authenticate(tenant, token, mutating=True)
            record = self._registry.record(tenant)
            self._registry.acquire(tenant)
            self._registry.service(tenant)
        try:
            with self._tenant_locks[tenant]:
                delta = apply_edits(record.graph, edits)
        finally:
            with self._registry_lock:
                self._registry.release(tenant)
        record.mutations += 1
        return _mutation_digest(record.graph.mutation_version, delta.counts())


def _mutation_digest(version: int, delta: Dict[str, int]) -> str:
    """Digest a committed mutation from its version and net delta counts."""
    return (
        f"mutate:v{version}"
        f":+v{delta['added_vertices']}-v{delta['removed_vertices']}"
        f":+e{delta['added_edges']}-e{delta['removed_edges']}"
    )


class WireTransport:
    """Drive a live server through one :class:`ReproClient` per thread."""

    def __init__(self, host: str, port: int, spec: LoadSpec, timeout: float = 30.0):
        """Target the server at ``host:port`` for plan execution."""
        self._host = host
        self._port = port
        self._timeout = timeout
        self._spec = spec
        self._tokens = {t.name: t.token for t in spec.tenants}
        self._local = threading.local()
        self._clients: List[Any] = []
        self._clients_lock = threading.Lock()

    def _client(self):
        client = getattr(self._local, "client", None)
        if client is None:
            from repro.server.client import ReproClient

            client = ReproClient(self._host, self._port, timeout=self._timeout)
            self._local.client = client
            with self._clients_lock:
                self._clients.append(client)
        return client

    def close(self) -> None:
        """Close every per-thread client this transport opened."""
        with self._clients_lock:
            clients, self._clients = self._clients, []
        for client in clients:
            client.close()

    def run_op(self, op: PlannedOp) -> Tuple[str, Optional[str]]:
        """Execute one planned op over the wire; ``(error_kind, digest)``.

        Admission bounces are re-raised for the executor's retry loop;
        every other :class:`RemoteError` is reported by kind.
        """
        from repro.server.errors import AdmissionError

        try:
            return "", self._dispatch(op)
        except RemoteError as error:
            if error.kind == "admission":
                raise AdmissionError(str(error))
            return error.kind, None
        except Exception as error:
            return envelope_for(error)["kind"], None

    def _dispatch(self, op: PlannedOp) -> str:
        payload = op.payload
        tenant = op.tenant
        client = self._client()
        shape = {"objective": self._spec.objective, "side": self._spec.side}
        if op.op == "connect":
            answer = client.connect(tenant, payload["terminals"], **shape)
            return _join_digests([digest_wire_payload(answer)])
        if op.op == "batch":
            answers = client.batch(
                tenant, [{"terminals": q} for q in payload["queries"]], **shape
            )
            return _join_digests([digest_wire_payload(a) for a in answers])
        if op.op == "interpret":
            answers = client.interpret(tenant, payload["queries"], **shape)
            return _join_digests([digest_wire_payload(a) for a in answers])
        if op.op == "enumerate":
            return self._enumerate(client, op)
        if op.op == "mutate":
            answer = client.mutate(
                tenant, payload["edits"], token=self._tokens[tenant]
            )
            return _mutation_digest(answer["version"], answer["delta"])
        if op.op == "bad_auth":
            client.mutate(tenant, payload["edits"], token=payload["token"])
            raise RemoteError(  # pragma: no cover - auth must have raised
                "internal", "bad_auth traffic was unexpectedly accepted"
            )
        if op.op == "over_quota":
            client.interpret(tenant, payload["queries"])
            raise RemoteError(  # pragma: no cover - quota must have raised
                "internal", "over_quota traffic was unexpectedly accepted"
            )
        raise RemoteError("internal", f"unknown planned op {op.op!r}")

    def _enumerate(self, client, op: PlannedOp) -> str:
        payload = op.payload
        tenant = op.tenant
        budget = payload["budget"]
        pages = payload["pages"]
        page = client.enumerate(tenant, payload["terminals"], budget=budget)
        digests = [digest_wire_payload(p) for p in page.get("results", [])]
        taken = 1
        exhausted = page["exhausted"]
        continuation = page.get("continuation")
        while taken < pages and continuation:
            if self._spec.reconnect:
                # resume on a *fresh* connection: the continuation token
                # must be the only state the protocol needs
                from repro.server.client import ReproClient

                with ReproClient(
                    self._host, self._port, timeout=self._timeout
                ) as fresh:
                    page = fresh.enumerate(
                        tenant, continuation=continuation, budget=budget
                    )
            else:
                page = client.enumerate(
                    tenant, continuation=continuation, budget=budget
                )
            digests.extend(
                digest_wire_payload(p) for p in page.get("results", [])
            )
            exhausted = page["exhausted"]
            continuation = page.get("continuation")
            taken += 1
        digests.append(f"exhausted={exhausted}")
        return _join_digests(digests)


# ----------------------------------------------------------------------
# the open-loop executor
# ----------------------------------------------------------------------
class _WriteGate:
    """Per-tenant plan-order gate for mutated tenants (see the schedule module)."""

    def __init__(self, tenants: Sequence[str]) -> None:
        self._condition = threading.Condition()
        self._next: Dict[str, int] = {name: 0 for name in tenants}

    def wait_for(self, tenant: str, seq: int) -> None:
        """Block until every earlier sequenced op of ``tenant`` has finished."""
        with self._condition:
            if not self._condition.wait_for(
                lambda: self._next[tenant] >= seq,
                timeout=WRITE_GATE_TIMEOUT_S,
            ):
                raise RemoteError(
                    "internal",
                    f"write gate timed out waiting for {tenant!r} seq {seq}",
                )

    def advance(self, tenant: str, seq: int) -> None:
        """Mark op ``seq`` finished (success or failure alike)."""
        with self._condition:
            self._next[tenant] = max(self._next[tenant], seq + 1)
            self._condition.notify_all()


def execute_op(
    transport,
    op: PlannedOp,
    *,
    pace: bool,
    started: Optional[float] = None,
    gate: Optional[_WriteGate] = None,
) -> OpSample:
    """Run one planned op (pacing, write gate, admission retries) to a sample."""
    if pace and started is not None:
        delay = started + op.at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
    if gate is not None and op.write_seq is not None:
        gate.wait_for(op.tenant, op.write_seq)
    begun = time.perf_counter()
    retries = 0
    try:
        while True:
            try:
                error_kind, digest = transport.run_op(op)
                break
            except Exception as error:
                kind = envelope_for(error)["kind"]
                if kind != "admission" or retries >= MAX_ADMISSION_RETRIES:
                    error_kind, digest = kind, None
                    break
                retries += 1
                time.sleep(ADMISSION_BACKOFF_S * (2 ** (retries - 1)))
    finally:
        if gate is not None and op.write_seq is not None:
            gate.advance(op.tenant, op.write_seq)
    latency = time.perf_counter() - begun
    if op.expect_error is not None:
        if error_kind == op.expect_error:
            return OpSample(
                index=op.index,
                op=op.op,
                tenant=op.tenant,
                latency_s=latency,
                error=error_kind,
                expected=True,
                digest=f"error:{error_kind}",
                retries=retries,
            )
        # the scripted rejection did not happen: that is itself a failure
        return OpSample(
            index=op.index,
            op=op.op,
            tenant=op.tenant,
            latency_s=latency,
            error=error_kind or "unexpected-success",
            expected=False,
            digest=None,
            retries=retries,
        )
    return OpSample(
        index=op.index,
        op=op.op,
        tenant=op.tenant,
        latency_s=latency,
        error=error_kind,
        expected=False,
        digest=digest,
        retries=retries,
    )


def run_plan(
    plan: Sequence[PlannedOp],
    transport,
    *,
    clients: int,
    pace: bool = True,
    on_progress: Optional[Callable[[int], None]] = None,
) -> Tuple[List[OpSample], float]:
    """Execute ``plan`` with ``clients`` worker threads; samples + duration.

    Workers pull operations from a shared cursor in plan order, sleep
    until each one's scheduled arrival (open loop), and record one
    :class:`~repro.load.report.OpSample` per operation.  The returned
    duration spans the first arrival to the last completion, so
    ``len(samples) / duration`` is the achieved rate.
    """
    samples: List[OpSample] = []
    samples_lock = threading.Lock()
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    gate = _WriteGate([op.tenant for op in plan])
    started = time.perf_counter()

    def worker() -> None:
        while True:
            with cursor_lock:
                index = cursor["next"]
                if index >= len(plan):
                    return
                cursor["next"] = index + 1
            sample = execute_op(
                transport, plan[index], pace=pace, started=started, gate=gate
            )
            with samples_lock:
                samples.append(sample)
                done = len(samples)
            if on_progress is not None:
                on_progress(done)

    threads = [
        threading.Thread(target=worker, name=f"load-client-{i}", daemon=True)
        for i in range(max(1, clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started
    return samples, duration


__all__ = [
    "InProcessTransport",
    "WireTransport",
    "canonical_checksum",
    "execute_op",
    "digest_result_object",
    "digest_wire_payload",
    "run_plan",
    "samples_checksum",
    "MAX_ADMISSION_RETRIES",
]
