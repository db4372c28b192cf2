"""Fault-injection plane, crash-safe recovery, and chaos-mode acceptance.

Three layers of proof, in rough order of ambition:

* the **plan layer** -- :class:`~repro.faults.plan.FaultPlan` spec
  validation and the determinism contract (same seed, same schedule --
  pinned with hypothesis);
* the **site layer** -- each instrumented site produces exactly the
  failure it models (torn disk writes read as misses, dropped wire
  frames are survived by the client's :class:`RetryPolicy`, deadlines
  raise typed ``deadline`` envelopes and an abandoned solve keeps its
  tenant serialised);
* the **chaos layer** -- the ISSUE's acceptance criterion: a load run
  that SIGKILLs and restarts the server mid-traffic must still produce
  the serial oracle's answer checksum, with paused enumeration streams
  splicing across the restart in exact oracle order.
"""

import asyncio
import contextlib
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import ValidationError
from repro.faults import (
    ACTIVE,
    FaultInjector,
    FaultPlan,
    clear,
    injected,
    install,
)
from repro.load.chaos import (
    CHAOS_SPEC,
    chaos_spec,
    default_fault_plan,
    run_chaos,
)
from repro.load.spec import LoadSpec
from repro.runtime.diskcache import DiskCache
from repro.server import (
    ReproServer,
    RetryPolicy,
    TenantLimits,
    WIRE_FORMAT_VERSION,
)
from repro.server.client import ReproClient
from repro.server.errors import RemoteError

CHAOS_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@contextlib.contextmanager
def running_server(**kwargs):
    """Start a :class:`ReproServer` on a background event-loop thread."""
    server = ReproServer(port=0, **kwargs)
    ready = threading.Event()

    def run():
        async def main():
            await server.start()
            ready.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    try:
        yield server
    finally:
        server.request_drain()
        thread.join(10)
        assert not thread.is_alive(), "server did not drain"


def small_graph():
    from repro.graphs import BipartiteGraph

    return BipartiteGraph(
        left=["A", "B", "C"],
        right=[1, 2, 3],
        edges=[("A", 1), ("B", 1), ("B", 2), ("C", 2), ("C", 3)],
    )


def cycle_graph():
    """A six-cycle: "A" and "C" connect two ways, so a stream pages."""
    from repro.graphs import BipartiteGraph

    return BipartiteGraph(
        left=["A", "B", "C"],
        right=[1, 2, 3],
        edges=[("A", 1), ("B", 1), ("B", 2), ("C", 2), ("C", 3), ("A", 3)],
    )


@pytest.fixture(autouse=True)
def _no_ambient_injector():
    """Every test starts and ends with the fault plane disabled."""
    clear()
    yield
    clear()


# ----------------------------------------------------------------------
# plan layer: spec validation
# ----------------------------------------------------------------------
class TestFaultPlanSpec:
    def test_round_trip(self):
        data = {
            "seed": 9,
            "rules": [
                {"site": "wire-frame-drop", "at": [2, 0]},
                {"site": "disk-write-tear", "every": 3, "limit": 2},
                {"site": "wire-frame-delay", "probability": 0.5, "delay_ms": 5},
            ],
        }
        plan = FaultPlan.from_dict(data)
        again = FaultPlan.from_dict(plan.to_dict())
        assert plan == again
        assert plan.rules[0].at == (0, 2)  # sorted on parse

    def test_unknown_site_rejected(self):
        with pytest.raises(ValidationError, match="unknown site"):
            FaultPlan.from_dict(
                {"seed": 0, "rules": [{"site": "nope", "at": [0]}]}
            )

    def test_exactly_one_trigger(self):
        with pytest.raises(ValidationError, match="exactly one"):
            FaultPlan.from_dict(
                {"seed": 0, "rules": [{"site": "server-kill"}]}
            )
        with pytest.raises(ValidationError, match="exactly one"):
            FaultPlan.from_dict(
                {
                    "seed": 0,
                    "rules": [{"site": "server-kill", "at": [0], "every": 2}],
                }
            )

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            FaultPlan.from_dict(
                {
                    "seed": 0,
                    "rules": [
                        {"site": "server-kill", "at": [0]},
                        {"site": "server-kill", "every": 2},
                    ],
                }
            )

    @pytest.mark.parametrize(
        "rule",
        [
            {"site": "server-kill", "at": [-1]},
            {"site": "server-kill", "every": 0},
            {"site": "server-kill", "probability": 1.5},
            {"site": "server-kill", "at": [0], "limit": 0},
            {"site": "wire-frame-delay", "at": [0], "delay_ms": -1},
            {"site": "server-kill", "at": [0], "bogus": 1},
        ],
    )
    def test_bad_rule_values_rejected(self, rule):
        with pytest.raises(ValidationError):
            FaultPlan.from_dict({"seed": 0, "rules": [rule]})

    def test_default_slot_is_disabled(self):
        assert ACTIVE.injector is None

    def test_install_and_clear(self):
        plan = FaultPlan.from_dict(
            {"seed": 0, "rules": [{"site": "server-kill", "at": [0]}]}
        )
        injector = install(plan)
        assert ACTIVE.injector is injector
        assert isinstance(injector, FaultInjector)
        clear()
        assert ACTIVE.injector is None

    def test_injected_context_restores(self):
        plan = FaultPlan.from_dict(
            {"seed": 0, "rules": [{"site": "server-kill", "at": [0]}]}
        )
        with injected(plan) as injector:
            assert ACTIVE.injector is injector
        assert ACTIVE.injector is None


# ----------------------------------------------------------------------
# plan layer: schedule determinism (hypothesis)
# ----------------------------------------------------------------------
class TestScheduleDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        probability=st.floats(min_value=0.05, max_value=0.95),
        hits=st.integers(min_value=1, max_value=200),
    )
    @CHAOS_SETTINGS
    def test_same_seed_same_schedule(self, seed, probability, hits):
        data = {
            "seed": seed,
            "rules": [{"site": "server-kill", "probability": probability}],
        }
        first = FaultPlan.from_dict(data).schedule("server-kill", hits)
        second = FaultPlan.from_dict(data).schedule("server-kill", hits)
        assert first == second

    @given(
        at=st.lists(
            st.integers(min_value=0, max_value=50), min_size=1, unique=True
        )
    )
    @CHAOS_SETTINGS
    def test_at_schedule_is_exact(self, at):
        plan = FaultPlan.from_dict(
            {"seed": 0, "rules": [{"site": "server-kill", "at": at}]}
        )
        assert plan.schedule("server-kill", 51) == tuple(sorted(at))

    def test_every_and_limit(self):
        plan = FaultPlan.from_dict(
            {
                "seed": 0,
                "rules": [{"site": "server-kill", "every": 3, "limit": 2}],
            }
        )
        assert plan.schedule("server-kill", 12) == (2, 5)

    def test_live_injector_matches_schedule(self):
        plan = FaultPlan.from_dict(
            {"seed": 4, "rules": [{"site": "server-kill", "probability": 0.4}]}
        )
        injector = plan.injector()
        fired = tuple(
            i for i in range(40) if injector.fire("server-kill") is not None
        )
        assert fired == plan.schedule("server-kill", 40)
        assert injector.decisions() == tuple(
            ("server-kill", i) for i in fired
        )

    def test_unruled_site_never_fires(self):
        injector = FaultPlan().injector()
        assert injector.fire("disk-write-tear") is None
        assert injector.fired("disk-write-tear") == 0
        assert injector.decisions() == ()


# ----------------------------------------------------------------------
# site layer: disk-write-tear
# ----------------------------------------------------------------------
class TestDiskWriteTear:
    def test_torn_write_reads_as_miss_and_rebuilds(self, tmp_path):
        cache = DiskCache(tmp_path)
        plan = FaultPlan.from_dict(
            {"seed": 0, "rules": [{"site": "disk-write-tear", "at": [0]}]}
        )
        with injected(plan) as injector:
            cache.store_result("digest", "key", {"cost": 3})
            assert injector.fired("disk-write-tear") == 1
            # the torn file exists on disk but must read as a miss
            assert cache.load_result("digest", "key") is None
            assert cache.invalid == 1
            # the rebuild (rule exhausted: no tear) lands and replays
            cache.store_result("digest", "key", {"cost": 3})
            assert cache.load_result("digest", "key") == {"cost": 3}


# ----------------------------------------------------------------------
# site layer: wire faults, deadline, retry, idempotency, hello
# ----------------------------------------------------------------------
class TestWireFaultsAndRetry:
    def test_dropped_frame_is_survived_by_retry(self):
        with running_server() as server:
            client = ReproClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(attempts=3, backoff_s=0.01, jitter=0.0),
            )
            plan = FaultPlan.from_dict(
                {"seed": 0, "rules": [{"site": "wire-frame-drop", "at": [0]}]}
            )
            with injected(plan) as injector:
                assert client.ping()["pong"] is True
                assert injector.fired("wire-frame-drop") == 1
            client.close()

    def test_dropped_frame_without_policy_raises_transport(self):
        with running_server() as server:
            client = ReproClient("127.0.0.1", server.port)
            plan = FaultPlan.from_dict(
                {"seed": 0, "rules": [{"site": "wire-frame-drop", "at": [0]}]}
            )
            with injected(plan):
                with pytest.raises(RemoteError) as info:
                    client.ping()
                assert info.value.kind == "transport"
            client.close()

    def test_frame_delay_fires_and_answers(self):
        with running_server() as server:
            client = ReproClient("127.0.0.1", server.port)
            plan = FaultPlan.from_dict(
                {
                    "seed": 0,
                    "rules": [
                        {"site": "wire-frame-delay", "at": [0], "delay_ms": 40}
                    ],
                }
            )
            with injected(plan) as injector:
                begun = time.perf_counter()
                assert client.ping()["pong"] is True
                elapsed = time.perf_counter() - begun
                assert injector.fired("wire-frame-delay") == 1
                assert elapsed >= 0.04
            client.close()

    def test_retry_policy_validation_and_delay(self):
        import random

        with pytest.raises(ValidationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValidationError):
            RetryPolicy(multiplier=0.5)
        policy = RetryPolicy(
            backoff_s=0.1, multiplier=2.0, max_backoff_s=0.3, jitter=0.0
        )
        assert policy.delay(0, random.Random(0)) == pytest.approx(0.1)
        assert policy.delay(1, random.Random(0)) == pytest.approx(0.2)
        assert policy.delay(5, random.Random(0)) == pytest.approx(0.3)
        jittered = RetryPolicy(backoff_s=0.1, jitter=0.5, seed=7)
        assert jittered.delay(0, random.Random(3)) == jittered.delay(
            0, random.Random(3)
        )


class TestDeadline:
    def test_limits_validation(self):
        with pytest.raises(ValidationError):
            TenantLimits(deadline_ms=0)
        assert TenantLimits(deadline_ms=250).deadline_ms == 250

    def test_injected_deadline_is_typed_and_counted(self):
        with running_server() as server:
            with ReproClient("127.0.0.1", server.port) as client:
                client.create_schema(
                    "acme", small_graph(), limits={"deadline_ms": 60000}
                )
                plan = FaultPlan.from_dict(
                    {
                        "seed": 0,
                        "rules": [{"site": "deadline-exceeded", "at": [0]}],
                    }
                )
                with injected(plan):
                    with pytest.raises(RemoteError) as info:
                        client.connect("acme", ["A", 3])
                    assert info.value.kind == "deadline"
                text = client.metrics_text()
                assert "repro_deadline_exceeded_total" in text
                assert 'tenant="acme"' in text
                # past the fault, the same request answers normally
                answer = client.connect("acme", ["A", 3])
                assert answer["cost"] >= 1

    def test_real_deadline_expires_cold_solve(self):
        with running_server() as server:
            with ReproClient("127.0.0.1", server.port) as client:
                from repro.datasets.generators import (
                    random_62_chordal_graph,
                    random_terminals,
                )

                graph = random_62_chordal_graph(200, rng=2)
                terminals = random_terminals(graph, 3, rng=0)
                client.create_schema(
                    "tight",
                    graph,
                    limits={"deadline_ms": 1},
                )
                # the cold solve first builds and classifies a context of
                # ~600 vertices (tens of milliseconds) -- far over a 1ms
                # admission budget
                with pytest.raises(RemoteError) as info:
                    client.connect("tight", terminals)
                assert info.value.kind == "deadline"

    def test_no_deadline_by_default(self):
        with running_server() as server:
            with ReproClient("127.0.0.1", server.port) as client:
                client.create_schema("free", small_graph())
                assert client.connect("free", ["A", 3])["cost"] >= 1

    def test_abandoned_solve_keeps_the_tenant_serialised(self, monkeypatch):
        from repro.api.service import ConnectionService

        lock = threading.Lock()
        inside = {"now": 0, "peak": 0}
        original = ConnectionService.connect

        def slow_connect(service, *args, **kwargs):
            with lock:
                inside["now"] += 1
                inside["peak"] = max(inside["peak"], inside["now"])
            try:
                time.sleep(0.3)
                return original(service, *args, **kwargs)
            finally:
                with lock:
                    inside["now"] -= 1

        monkeypatch.setattr(ConnectionService, "connect", slow_connect)
        with running_server() as server:
            with ReproClient("127.0.0.1", server.port) as admin:
                admin.create_schema(
                    "slow", small_graph(), limits={"deadline_ms": 50}
                )
            kinds = []

            def client_call():
                with ReproClient("127.0.0.1", server.port) as client:
                    try:
                        client.connect("slow", ["A", 3])
                        kinds.append("ok")
                    except RemoteError as error:
                        kinds.append(error.kind)

            callers = []
            for _ in range(4):
                caller = threading.Thread(target=client_call)
                caller.start()
                callers.append(caller)
                time.sleep(0.06)
            for caller in callers:
                caller.join(10)
                assert not caller.is_alive()
            # the abandoned solve still runs; wait for it to hand back
            # the tenant's lock and inflight slot
            stop = time.monotonic() + 5
            while time.monotonic() < stop and (
                inside["now"] or server.registry.record("slow").inflight
            ):
                time.sleep(0.02)
            assert kinds == ["deadline"] * 4
            assert inside["peak"] == 1
            assert server.registry.record("slow").inflight == 0

    def test_injected_deadline_stops_an_enumeration_resume(self):
        with running_server() as server:
            with ReproClient("127.0.0.1", server.port) as client:
                client.create_schema(
                    "acme", cycle_graph(), limits={"deadline_ms": 60000}
                )
                page = client.enumerate("acme", ["A", "C"], budget=1)
                plan = FaultPlan.from_dict(
                    {
                        "seed": 0,
                        "rules": [{"site": "deadline-exceeded", "at": [0]}],
                    }
                )
                with injected(plan):
                    with pytest.raises(RemoteError) as info:
                        client.enumerate(
                            "acme", continuation=page["continuation"], budget=1
                        )
                    assert info.value.kind == "deadline"
                # the fault fired on the resume, not on the next request
                assert client.connect("acme", ["A", "C"])["cost"] == 3

    def test_real_deadline_stops_an_enumeration_resume(self, monkeypatch):
        from repro.api import ConnectionService
        from repro.api.stream import EnumerationStream
        from repro.load.clients import digest_result_object, digest_wire_payload

        slow = threading.Event()
        original = EnumerationStream.take

        def slow_take(stream, count):
            if slow.is_set():
                time.sleep(1.0)
            return original(stream, count)

        monkeypatch.setattr(EnumerationStream, "take", slow_take)
        with running_server() as server:
            with ReproClient("127.0.0.1", server.port) as client:
                # room for the cold first page, none for a slowed resume
                client.create_schema(
                    "acme", cycle_graph(), limits={"deadline_ms": 200}
                )
                first = client.enumerate("acme", ["A", "C"], budget=1)
                token = first["continuation"]
                slow.set()
                with pytest.raises(RemoteError) as info:
                    client.enumerate("acme", continuation=token, budget=1)
                assert info.value.kind == "deadline"
                slow.clear()
                # the abandoned take still runs and moves the live stream
                # past the token; once it hands the tenant back, the same
                # token resumes on the stateless path at the right page
                stop = time.monotonic() + 5
                while (
                    time.monotonic() < stop
                    and server.registry.record("acme").inflight
                ):
                    time.sleep(0.02)
                second = client.enumerate("acme", continuation=token, budget=1)
        stream = ConnectionService(schema=cycle_graph()).enumerate(
            ["A", "C"], budget=1
        )
        expected = [digest_result_object(r) for r in stream.take(1)]
        stream.extend_budget(1)
        expected += [digest_result_object(r) for r in stream.take(1)]
        got = [
            digest_wire_payload(r) for r in first["results"] + second["results"]
        ]
        assert got == expected
        assert [r["rank"] for r in second["results"]] == [2]


class TestIdempotentMutate:
    def test_same_key_applies_once(self):
        with running_server() as server:
            with ReproClient("127.0.0.1", server.port) as client:
                client.create_schema("acme", small_graph(), token="tk")
                edits = [{"op": "add_vertex", "vertex": "fresh", "side": 1}]
                first = client.mutate(
                    "acme", edits, token="tk", idempotency_key="k1"
                )
                replay = client.mutate(
                    "acme", edits, token="tk", idempotency_key="k1"
                )
                assert replay["deduplicated"] is True
                assert replay["version"] == first["version"]
                assert "deduplicated" not in first
                # a new key applies a new transaction
                third = client.mutate(
                    "acme",
                    [{"op": "remove_vertex", "vertex": "fresh"}],
                    token="tk",
                    idempotency_key="k2",
                )
                assert third["version"] == first["version"] + 1

    def test_mutate_with_key_retries_through_dropped_frame(self):
        with running_server() as server:
            client = ReproClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(attempts=3, backoff_s=0.01, jitter=0.0),
            )
            client.create_schema("acme", small_graph(), token="tk")
            plan = FaultPlan.from_dict(
                {"seed": 0, "rules": [{"site": "wire-frame-drop", "at": [0]}]}
            )
            edits = [{"op": "add_vertex", "vertex": "fresh", "side": 1}]
            with injected(plan) as injector:
                # the first response frame is dropped after the server
                # applied the edit; the keyed retry replays the stored
                # response instead of double-applying
                answer = client.mutate(
                    "acme", edits, token="tk", idempotency_key="k1"
                )
                assert injector.fired("wire-frame-drop") == 1
            assert answer.get("deduplicated") is True
            # the edit applied exactly once: a quiet keyed replay lands
            # on the same version instead of advancing it
            replay = client.mutate(
                "acme", edits, token="tk", idempotency_key="k1"
            )
            assert replay["version"] == answer["version"]
            client.close()

    def test_mutate_without_key_is_not_retried(self):
        with running_server() as server:
            client = ReproClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(attempts=3, backoff_s=0.01, jitter=0.0),
            )
            client.create_schema("acme", small_graph(), token="tk")
            plan = FaultPlan.from_dict(
                {"seed": 0, "rules": [{"site": "wire-frame-drop", "at": [0]}]}
            )
            with injected(plan):
                with pytest.raises(RemoteError) as info:
                    client.mutate(
                        "acme",
                        [{"op": "add_vertex", "vertex": "x", "side": 1}],
                        token="tk",
                    )
                assert info.value.kind == "transport"
            client.close()


class TestHello:
    def test_hello_negotiates(self):
        with running_server() as server:
            with ReproClient("127.0.0.1", server.port) as client:
                answer = client.call(
                    "hello", version=WIRE_FORMAT_VERSION, client="tests"
                )
                assert answer["version"] == WIRE_FORMAT_VERSION
                assert answer["client"] == "tests"
                assert answer["library"]

    def test_wrong_version_is_typed_protocol_error(self):
        with running_server() as server:
            with ReproClient("127.0.0.1", server.port) as client:
                with pytest.raises(RemoteError) as info:
                    client.call("hello", version=WIRE_FORMAT_VERSION + 1)
                assert info.value.kind == "protocol"
                assert str(WIRE_FORMAT_VERSION) in str(info.value)

    def test_client_sends_hello_on_connect(self):
        with running_server() as server:
            # constructing the client performs the handshake; a healthy
            # negotiated connection then serves normal traffic
            with ReproClient("127.0.0.1", server.port) as client:
                assert client.ping()["pong"] is True


# ----------------------------------------------------------------------
# chaos layer
# ----------------------------------------------------------------------
class TestChaos:
    def test_query_only_guard(self):
        data = dict(CHAOS_SPEC, name="bad")
        data["profile"] = dict(data["profile"], mutate=1)
        data["tenants"] = list(data["tenants"])
        spec = LoadSpec.from_dict(data)
        with pytest.raises(ValidationError, match="query-only"):
            run_chaos(spec, mode="in-process")

    def test_default_fault_plan_validation(self):
        with pytest.raises(ValidationError):
            default_fault_plan(10, 0)
        with pytest.raises(ValidationError):
            default_fault_plan(2, 2)
        plan = default_fault_plan(48, 2, seed=7)
        assert plan.schedule("server-kill", 48) == (15, 31)

    def test_in_process_chaos_matches_oracle(self):
        report = run_chaos(chaos_spec(), mode="in-process", pace=False)
        assert report.ok()
        data = report.to_dict()
        assert data["chaos"]["kills"] == 2
        assert data["checksum"] == data["oracle_checksum"] != ""

    @given(seed=st.integers(min_value=0, max_value=2**8))
    @CHAOS_SETTINGS
    def test_in_process_chaos_is_deterministic_per_seed(self, seed):
        spec = chaos_spec()
        plan = FaultPlan.from_dict(
            {
                "seed": seed,
                "rules": [{"site": "server-kill", "probability": 0.05}],
            }
        )
        first = run_chaos(
            spec, mode="in-process", fault_plan=plan, pace=False
        )
        second = run_chaos(
            spec, mode="in-process", fault_plan=plan, pace=False
        )
        assert first.ok() and second.ok()
        assert first.checksum == second.checksum == first.oracle_checksum
        assert (
            first.to_dict()["chaos"]["scheduled_kills"]
            == second.to_dict()["chaos"]["scheduled_kills"]
        )

    def test_wire_chaos_acceptance(self):
        """The ISSUE's acceptance gate: two SIGKILLs mid-run, no corruption.

        A real ``repro serve`` subprocess is killed and restarted twice
        under the committed chaos spec; the run passes only if every
        answer (enumeration pages resumed across the restarts included)
        checksums to the serial oracle -- and the wire checksum equals
        the in-process chaos checksum, pinning transport equivalence.
        """
        spec = chaos_spec()
        wire = run_chaos(spec, mode="wire")
        assert wire.ok(), wire.budget_violations
        data = wire.to_dict()
        assert data["chaos"]["kills"] == 2
        assert data["checksum"] == data["oracle_checksum"] != ""
        in_process = run_chaos(spec, mode="in-process", pace=False)
        assert in_process.checksum == wire.checksum


class TestEnumerationSpliceAcrossRestart:
    def test_continuation_resumes_after_server_kill(self, tmp_path):
        """A paused stream's pages splice in exact oracle order across a kill."""
        from repro.load.runner import spawn_server, stop_server

        from repro.datasets.generators import (
            random_62_chordal_graph,
            random_terminals,
        )

        graph = random_62_chordal_graph(4, rng=11)
        terminals = random_terminals(graph, 3, rng=1)

        # ground truth: one uninterrupted enumeration on a quiet server
        process, host, port = spawn_server()
        try:
            with ReproClient(host, port) as client:
                client.create_schema("acme", graph)
                oracle_pages = []
                page = client.enumerate("acme", terminals, budget=2)
                oracle_pages.extend(
                    r["cost"] for r in page.get("results", [])
                )
                while page.get("continuation"):
                    page = client.enumerate(
                        "acme", continuation=page["continuation"], budget=2
                    )
                    oracle_pages.extend(
                        r["cost"] for r in page.get("results", [])
                    )
        finally:
            stop_server(process)

        # chaos replay: SIGKILL the server between the first and second
        # page, restart it on the same port, resume from the token the
        # dead incarnation minted
        process, host, port = spawn_server()
        try:
            with ReproClient(host, port) as client:
                client.create_schema("acme", graph)
                page = client.enumerate("acme", terminals, budget=2)
            spliced = [r["cost"] for r in page.get("results", [])]
            continuation = page["continuation"]
            assert continuation, "stream must pause with a resume token"

            process.kill()
            process.wait()
            if process.stdout is not None:
                process.stdout.close()
            process, _, _ = spawn_server(port=port)

            with ReproClient(host, port) as client:
                client.create_schema("acme", graph, exist_ok=True)
                while continuation:
                    page = client.enumerate(
                        "acme", continuation=continuation, budget=2
                    )
                    spliced.extend(
                        r["cost"] for r in page.get("results", [])
                    )
                    continuation = page.get("continuation")
        finally:
            stop_server(process)

        assert spliced == oracle_pages
