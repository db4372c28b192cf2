"""ConnectionService: typed façade behaviour, error paths, provenance.

Covers what the differential harness does not: the request/result surface
itself -- validation and error taxonomy, cache hit/miss provenance across
repeated calls, solver policies, the resumable enumeration stream, and a
golden fixture pinning one full provenance record
(``tests/golden/provenance.json``, regenerate deliberately with
``REPRO_REGEN_GOLDEN=1``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.api import (
    ConnectionRequest,
    ConnectionResult,
    ConnectionService,
    EnumerationStream,
    Guarantee,
    Provenance,
    ServiceConfig,
)
from repro.datasets.figures import figure1_query, figure1_relational_schema
from repro.datasets.generators import random_alpha_schema_graph
from repro.exceptions import (
    DisconnectedTerminalsError,
    NotApplicableError,
    ValidationError,
)
from repro.graphs import BipartiteGraph, complete_bipartite, even_cycle_bipartite

GOLDEN_DIR = Path(__file__).parent / "golden"
PROVENANCE_PATH = GOLDEN_DIR / "provenance.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def two_component_graph() -> BipartiteGraph:
    return BipartiteGraph(
        left=["A", "B"],
        right=[1, 2],
        edges=[("A", 1), ("B", 2)],
    )


def path_graph() -> BipartiteGraph:
    return BipartiteGraph(
        left=["A", "B"], right=[1], edges=[("A", 1), ("B", 1)]
    )


class TestRequestValidation:
    def test_objective_is_checked(self):
        with pytest.raises(ValidationError):
            ConnectionRequest.of(["A"], objective="fastest")

    def test_policy_is_checked(self):
        with pytest.raises(ValidationError):
            ConnectionRequest.of(["A"], policy="yolo")

    def test_side_is_checked(self):
        with pytest.raises(ValidationError):
            ConnectionRequest.of(["A"], objective="side", side=3)

    def test_terminals_are_normalised(self):
        request = ConnectionRequest.of(["B", "A", "B"])
        assert request.terminals == ("A", "B")

    def test_request_and_kwargs_are_exclusive(self):
        service = ConnectionService(schema=path_graph())
        with pytest.raises(ValidationError):
            service.connect(ConnectionRequest.of(["A"]), objective="side")

    def test_unknown_request_kwargs_are_validation_errors(self):
        # typos and misplaced enumeration knobs must not escape as raw
        # TypeErrors from the dataclass constructor
        service = ConnectionService(schema=path_graph())
        with pytest.raises(ValidationError, match="unknown request field"):
            service.connect(["A", "B"], budget=3)
        with pytest.raises(ValidationError, match="unknown request field"):
            ConnectionRequest.of(["A"], objectve="side")

    def test_unbound_service_requires_a_schema(self):
        with pytest.raises(ValidationError):
            ConnectionService().connect(["A"])


class TestErrorPaths:
    def test_empty_terminals(self):
        service = ConnectionService(schema=path_graph())
        with pytest.raises(ValidationError):
            service.connect([])

    def test_unknown_terminal(self):
        service = ConnectionService(schema=path_graph())
        with pytest.raises(ValidationError):
            service.connect(["A", "NOPE"])

    def test_singleton_terminal_set(self):
        service = ConnectionService(schema=path_graph())
        result = service.connect(["A"])
        assert result.cost == 1
        assert result.guarantee is Guarantee.OPTIMAL
        assert result.tree.vertices() == {"A"}

    def test_disconnected_terminals(self):
        service = ConnectionService(schema=two_component_graph())
        with pytest.raises(DisconnectedTerminalsError):
            service.connect(["A", "B"])

    def test_disconnected_terminals_in_enumeration(self):
        service = ConnectionService(schema=two_component_graph())
        with pytest.raises(DisconnectedTerminalsError):
            service.enumerate(["A", "B"])

    def test_explicit_solver_not_applicable(self):
        # an even 10-cycle is not (6,2)-chordal: the chordal fast lane's
        # guarantee does not hold, and algorithm1 needs V2-alpha structure
        service = ConnectionService(schema=even_cycle_bipartite(10))
        with pytest.raises(NotApplicableError):
            service.connect(
                [0, 5], objective="side", side=2, solver="algorithm1-indexed"
            )

    def test_unknown_solver_name_is_a_validation_error(self):
        # typos must surface through the library's error taxonomy, not as
        # a raw KeyError from the registry at execution time
        service = ConnectionService(schema=path_graph())
        with pytest.raises(ValidationError, match="unknown solver"):
            service.connect(["A", "B"], solver="typo")

    def test_solver_objective_mismatch_is_a_validation_error(self):
        # a side-minimising solver forced onto a steiner request would
        # return a tree certified optimal for the WRONG objective; a
        # steiner-only solver on a side request would crash in execution
        service = ConnectionService(schema=random_alpha_schema_graph(4, rng=1))
        graph = service.schema
        terminals = sorted(graph.vertices(), key=repr)[:2]
        with pytest.raises(ValidationError, match="cannot answer"):
            service.connect(terminals, solver="algorithm1-indexed")
        with pytest.raises(ValidationError, match="cannot answer"):
            service.connect(
                terminals, objective="side", side=2, solver="dreyfus-wagner"
            )

    def test_explicit_solver_disables_fallbacks_even_when_planned(self):
        # asking for the planner's own pick must still pin the plan to that
        # solver alone -- no silent fallback to a different solver
        service = ConnectionService(schema=random_alpha_schema_graph(4, rng=1))
        graph = service.schema
        terminals = sorted(graph.vertices(), key=repr)[:2]
        request = ConnectionRequest.of(
            terminals, objective="side", side=2, solver="algorithm1-indexed"
        )
        context, _ = service.engine.cache.lookup(graph)
        plan = service._plan(context, request, 2)
        assert plan.solver == "algorithm1-indexed"
        assert plan.fallbacks == ()

    def test_enumerate_rejects_policy_and_solver_fields(self):
        service = ConnectionService(schema=path_graph())
        with pytest.raises(ValidationError, match="do not apply"):
            service.enumerate(["A", "B"], policy="require-optimal")
        with pytest.raises(ValidationError, match="do not apply"):
            service.enumerate(["A", "B"], solver="kmb")
        # exact-limit overrides never reach the stream either: rejecting
        # them beats silently ignoring a knob the caller believes applied
        with pytest.raises(ValidationError, match="do not apply"):
            service.enumerate(["A", "B"], exact_vertex_limit=0)

    def test_batch_kwargs_do_not_apply_to_prebuilt_requests(self):
        service = ConnectionService(schema=path_graph())
        with pytest.raises(ValidationError, match="bare terminal iterables"):
            service.batch(
                [ConnectionRequest.of(["A", "B"])], objective="side", side=2
            )
        # kwargs still fill in the blanks for bare iterables
        results = service.batch([["A", "B"]], objective="side", side=2)
        assert results[0].side_cost == 1

    def test_side_objective_is_not_streamable(self):
        # enumeration orders by total size; a side request would get the
        # wrong ordering and a wrong rank-1 optimality claim
        service = ConnectionService(schema=path_graph())
        with pytest.raises(ValidationError, match="not streamable"):
            service.enumerate(["A", "B"], objective="side", side=2)

    def test_require_optimal_policy_rejects_heuristic_paths(self):
        # 30-cycle, 10 spread-out terminals: too many terminals for
        # Dreyfus-Wagner, too many optional vertices for brute force ->
        # the planner can only offer KMB, which "require-optimal" refuses
        graph = even_cycle_bipartite(30)
        service = ConnectionService(schema=graph)
        terminals = list(range(0, 30, 3))
        heuristic = service.connect(terminals)
        assert heuristic.guarantee is Guarantee.HEURISTIC
        assert heuristic.provenance.solver == "kmb"
        with pytest.raises(NotApplicableError):
            service.connect(terminals, policy="require-optimal")


class TestProvenance:
    def test_every_result_is_fully_attributed(self):
        service = ConnectionService(schema=path_graph())
        result = service.connect(["A", "B"])
        provenance = result.provenance
        assert provenance.solver == "chordal-elimination"
        assert provenance.instance_class == "chordal"
        assert "Lemma 5" in provenance.plan
        assert provenance.fallback_from is None
        assert provenance.wall_time_ms >= 0.0

    def test_cache_miss_then_hit_across_calls(self):
        service = ConnectionService(schema=path_graph())
        first = service.connect(["A", "B"])
        second = service.connect(["A", "B"])
        assert first.provenance.cache_hit is False
        assert second.provenance.cache_hit is True
        stats = service.cache_stats()
        assert stats["misses"] >= 1 and stats["hits"] >= 1

    def test_structurally_equal_schema_shares_the_context(self):
        service = ConnectionService()
        first = service.connect(["A", "B"], schema=path_graph())
        second = service.connect(["A", "B"], schema=path_graph())
        assert first.provenance.cache_hit is False
        assert second.provenance.cache_hit is True

    def test_batch_accepts_structurally_equal_schema_objects(self):
        # requests rebuilt per query carry distinct-but-equal graph objects;
        # the batch check compares fingerprints, same as the LRU
        service = ConnectionService()
        results = service.batch(
            [
                ConnectionRequest.of(["A"], schema=path_graph()),
                ConnectionRequest.of(["B"], schema=path_graph()),
            ]
        )
        assert [r.cost for r in results] == [1, 1]
        genuinely_different = ConnectionRequest.of(
            [("l", 0)], schema=complete_bipartite(2, 2)
        )
        with pytest.raises(ValidationError, match="one schema at a time"):
            service.batch(
                [ConnectionRequest.of(["A"], schema=path_graph()), genuinely_different]
            )

    def test_batch_marks_context_reuse(self):
        service = ConnectionService(schema=path_graph())
        results = service.batch([["A", "B"], ["A"], ["B"]])
        assert [r.provenance.cache_hit for r in results] == [False, True, True]
        again = service.batch([["A", "B"]])
        assert again[0].provenance.cache_hit is True

    def test_explicit_solver_is_reported_verbatim(self):
        service = ConnectionService(schema=path_graph())
        result = service.connect(["A", "B"], solver="kmb")
        assert result.provenance.solver == "kmb"
        assert "explicit solver" in result.provenance.plan
        assert result.guarantee is Guarantee.HEURISTIC

    def test_fallback_is_recorded(self):
        # a V2-alpha graph with an isolated-ish degenerate query can push
        # algorithm1 into its fallback; cheaper to force it explicitly via
        # the registry plan: request side objective on a graph whose class
        # check passes globally but whose component is degenerate is rare,
        # so instead assert the field exists and defaults to None
        service = ConnectionService(schema=random_alpha_schema_graph(4, rng=3))
        graph = service.schema
        terminals = [next(iter(graph.vertices()))]
        result = service.connect(terminals, objective="side")
        assert result.provenance.fallback_from in (None, "algorithm1-indexed")

    def test_tags_none_is_normalised_and_non_dict_rejected(self):
        service = ConnectionService(schema=path_graph())
        result = service.connect(ConnectionRequest.of(["A", "B"], tags=None))
        assert result.provenance.tags == {}
        with pytest.raises(ValidationError, match="tags must be a dict"):
            ConnectionRequest.of(["A"], tags=["not", "a", "dict"])

    def test_require_optimal_fails_fast_without_running_the_heuristic(self):
        # the plan itself names a heuristic, so rejection happens before
        # any solver runs (provable via the registry: poison the kmb entry)
        from repro.engine import default_registry

        registry = default_registry()

        def exploding_kmb(context, terminals, side=None):
            raise AssertionError("heuristic must not run under require-optimal")

        registry.register("kmb", exploding_kmb)
        cycle = even_cycle_bipartite(30)
        service = ConnectionService(schema=cycle, registry=registry)
        terminals = list(range(0, 30, 3))
        with pytest.raises(NotApplicableError, match="require-optimal"):
            service.connect(terminals, policy="require-optimal")

    def test_request_tags_are_echoed(self):
        service = ConnectionService(schema=path_graph())
        request = ConnectionRequest.of(["A", "B"], tags={"request_id": "r-17"})
        result = service.connect(request)
        assert result.provenance.tags == {"request_id": "r-17"}

    def test_bound_schema_is_resolved_once(self):
        """A bound Relational/ER schema must not rebuild its graph per call."""
        calls = {"n": 0}

        class CountingSchema:
            def __init__(self, inner):
                self._inner = inner

            def schema_graph(self):
                calls["n"] += 1
                return self._inner.schema_graph()

        schema = CountingSchema(figure1_relational_schema())
        service = ConnectionService(schema=schema)
        service.connect(figure1_query())
        service.connect(figure1_query())
        service.batch([figure1_query()])
        assert calls["n"] == 1

    def test_bound_graph_skips_refingerprinting_until_mutated(self):
        """The bound-context memo is gated on the graph's mutation version."""
        graph = path_graph()
        service = ConnectionService(schema=graph)
        service.connect(["A", "B"])
        before = graph.mutation_version
        service.connect(["A"])
        service.connect(["B"])
        stats = service.cache_stats()
        # memoised hits are still counted, and nothing bumped the version
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert graph.mutation_version == before
        graph.add_edge("A", 1)  # already present: no-op, no version bump
        assert graph.mutation_version == before
        assert service.connect(["A", "B"]).provenance.cache_hit is True

    def test_bound_mutable_graph_mutation_is_not_served_stale(self):
        """A bound plain Graph converts per call, so mutations are seen."""
        from repro.graphs import Graph

        graph = Graph(edges=[("a", "x"), ("x", "b"), ("b", "y"), ("y", "c")])
        service = ConnectionService(schema=graph)
        before = service.connect(["a", "c"])
        assert before.cost == 5
        graph.add_edge("a", "y")  # still bipartite, shortcuts the path
        after = service.connect(["a", "c"])
        assert after.cost == 3
        assert after.provenance.cache_hit is False  # structural miss by design

    def test_custom_solver_declared_objectives_are_enforced(self):
        from repro.engine import default_registry
        from repro.engine.registry import solve_pseudo_bruteforce

        registry = default_registry()
        registry.register(
            "my-side-solver", solve_pseudo_bruteforce, objectives=("side",)
        )
        service = ConnectionService(schema=path_graph(), registry=registry)
        with pytest.raises(ValidationError, match="cannot answer"):
            service.connect(["A", "B"], solver="my-side-solver")
        ok = service.connect(
            ["A", "B"], objective="side", side=2, solver="my-side-solver"
        )
        assert ok.provenance.solver == "my-side-solver"
        # undeclared custom solvers skip the check (caller's responsibility)
        registry.register("mystery", solve_pseudo_bruteforce)
        assert registry.objectives_of("mystery") is None

    def test_reregistering_a_solver_keeps_its_objective_declaration(self):
        # wrapping a stock solver for instrumentation must not silently
        # disable the objective-mismatch guard
        from repro.engine import default_registry

        registry = default_registry()
        original = registry.get("dreyfus-wagner")

        def wrapped(context, terminals):
            return original(context, terminals)

        registry.register("dreyfus-wagner", wrapped)
        assert registry.objectives_of("dreyfus-wagner") == ("steiner",)
        service = ConnectionService(schema=path_graph(), registry=registry)
        with pytest.raises(ValidationError, match="cannot answer"):
            service.connect(["A", "B"], objective="side", side=2, solver="dreyfus-wagner")

    def test_extend_budget_negative_is_a_validation_error(self):
        service = ConnectionService(schema=path_graph())
        stream = service.enumerate(["A", "B"], budget=1)
        with pytest.raises(ValidationError):
            stream.extend_budget(-1)

    def test_golden_provenance_record(self):
        """One full provenance record, pinned byte-for-byte (sans timing)."""
        schema = figure1_relational_schema()
        service = ConnectionService(schema=schema)
        service.connect(figure1_query())  # warm the context: pin a cache hit
        result = service.connect(figure1_query())
        current = result.to_dict(include_timing=False)
        if REGEN:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            PROVENANCE_PATH.write_text(
                json.dumps(current, indent=2, sort_keys=True) + "\n"
            )
        if not PROVENANCE_PATH.exists():
            pytest.fail(
                f"golden fixture {PROVENANCE_PATH} is missing; regenerate "
                "deliberately with REPRO_REGEN_GOLDEN=1 and commit the file"
            )
        assert current == json.loads(PROVENANCE_PATH.read_text())


class TestEnumerationStream:
    def test_budget_pauses_and_resumes(self):
        graph = complete_bipartite(2, 3)
        service = ConnectionService(schema=graph)
        stream = service.enumerate([("l", 0), ("l", 1)], budget=2)
        first_page = list(stream)
        assert len(first_page) == 2
        assert not stream.exhausted  # paused on budget, not dry
        assert stream.budget_remaining == 0
        stream.extend_budget(10)
        second_page = list(stream)
        assert second_page, "resuming after extend_budget continues the stream"
        all_costs = [r.cost for r in first_page + second_page]
        assert all_costs == sorted(all_costs)
        assert {r.rank for r in first_page + second_page} == set(
            range(1, len(all_costs) + 1)
        )

    def test_take_pages_through_results(self):
        graph = complete_bipartite(2, 3)
        service = ConnectionService(schema=graph)
        stream = service.enumerate([("l", 0), ("l", 1)])
        page = stream.take(3)
        assert len(page) == 3
        assert stream.yielded == 3
        rest = stream.take(100)
        assert stream.exhausted
        assert len({frozenset(r.tree.vertices()) for r in page + rest}) == len(
            page + rest
        )

    def test_max_extra_bounds_the_search(self):
        graph = complete_bipartite(2, 3)
        service = ConnectionService(schema=graph)
        bounded = list(service.enumerate([("l", 0), ("l", 1)], max_extra=1))
        assert all(r.solution.auxiliary_count() <= 1 for r in bounded)

    def test_stream_is_an_enumeration_stream(self):
        service = ConnectionService(schema=path_graph())
        stream = service.enumerate(["A", "B"])
        assert isinstance(stream, EnumerationStream)
        assert stream.request.terminals == ("A", "B")


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ServiceConfig(cache_size=0)
        with pytest.raises(ValidationError):
            ServiceConfig(default_side=7)
        with pytest.raises(ValidationError):
            ServiceConfig(exact_terminal_limit=-1)

    def test_negative_enumeration_knobs_are_rejected(self):
        with pytest.raises(ValidationError):
            ServiceConfig(enumeration_max_extra=-1)
        with pytest.raises(ValidationError):
            ServiceConfig(enumeration_budget=-1)
        service = ConnectionService(schema=path_graph())
        with pytest.raises(ValidationError):
            service.enumerate(["A", "B"], max_extra=-1)
        with pytest.raises(ValidationError):
            service.enumerate(["A", "B"], budget=-1)

    def test_provenance_has_identity_hash(self):
        # frozen + dict field: the auto-generated value hash would raise;
        # identity semantics let records live in sets/dict keys
        service = ConnectionService(schema=path_graph())
        result = service.connect(["A", "B"])
        assert len({result.provenance, result.provenance}) == 1

    def test_with_overrides(self):
        config = ServiceConfig().with_overrides(exact_terminal_limit=2)
        assert config.exact_terminal_limit == 2
        assert config.exact_vertex_limit == ServiceConfig().exact_vertex_limit

    def test_config_flows_into_dispatch(self):
        cycle = even_cycle_bipartite(10)
        service = ConnectionService(
            schema=cycle,
            config=ServiceConfig(exact_terminal_limit=0, exact_vertex_limit=0),
        )
        result = service.connect([0, 5])
        assert result.provenance.solver == "kmb"
        assert result.guarantee is Guarantee.HEURISTIC

    def test_per_request_limit_overrides(self):
        cycle = even_cycle_bipartite(10)
        service = ConnectionService(
            schema=cycle,
            config=ServiceConfig(exact_terminal_limit=0, exact_vertex_limit=0),
        )
        result = service.connect(
            ConnectionRequest.of([0, 5], exact_terminal_limit=8)
        )
        assert result.provenance.solver == "dreyfus-wagner"
        assert result.guarantee is Guarantee.OPTIMAL

    def test_default_enumeration_budget(self):
        service = ConnectionService(
            schema=complete_bipartite(2, 3),
            config=ServiceConfig(enumeration_budget=1),
        )
        assert len(list(service.enumerate([("l", 0), ("l", 1)]))) == 1


class TestPackaging:
    def test_version_and_exports(self):
        import repro

        assert repro.__version__ == "8.0.0"
        for name in (
            "BlockClassifier",
            "ConnectionRequest",
            "ConnectionResult",
            "ConnectionService",
            "DiskCache",
            "DistanceOracle",
            "EnumerationStream",
            "FaultPlan",
            "Guarantee",
            "LoadReport",
            "LoadSpec",
            "MetricsRegistry",
            "NullRegistry",
            "Provenance",
            "RetryPolicy",
            "SchemaDelta",
            "SchemaEditor",
            "ServiceConfig",
            "run_load",
            "run_phases",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_removed_surfaces_are_gone(self):
        """2.0.0 keeps one front door, 3.0.0 one lane, 4.0.0 one answer
        digest, 5.0.0 one workload model, 6.0.0 one alpha-acyclicity test,
        7.0.0 one representation per layer, 8.0.0 one key per schema
        version."""
        import importlib

        import repro
        import repro.core
        import repro.engine
        import repro.graphs.indexed
        import repro.kernels
        import repro.load
        import repro.load.clients
        import repro.load.schedule
        import repro.runtime
        from repro.engine import InterpretationEngine
        from repro.faults import FaultPlan
        from repro.kernels import DistanceOracle
        from repro.load import LoadSpec
        from repro.runtime.cli import main
        from repro.steiner import kou_markowsky_berman, steiner_tree_dreyfus_wagner

        removed = {
            repro: (
                "MinimalConnectionFinder",
                "batch_interpret",
                "ParallelExecutor",
                "grouped_bfs_levels",
                "grouped_bfs_parents",
                "WorkloadSpec",
                "WorkloadReport",
                "run_workload",
            ),
            repro.core: ("MinimalConnectionFinder",),
            repro.engine: ("batch_interpret", "default_engine"),
            repro.graphs: ("GraphReadProtocol", "is_indexed", "ensure_indexed"),
            repro.kernels: (
                "grouped_bfs_levels",
                "grouped_bfs_parents",
                "available_backends",
                "levels_to_dict",
            ),
            repro.runtime: (
                "ParallelExecutor",
                "WorkloadSpec",
                "WorkloadReport",
                "PhaseResult",
                "QueryMix",
                "GENERATORS",
                "canonical_checksum",
                "run_workload",
            ),
            repro.load.clients: ("result_digest",),
            repro.load.schedule: ("LEAF_PREFIX",),
        }
        for module, names in removed.items():
            for name in names:
                assert name not in module.__all__, (module.__name__, name)
                assert not hasattr(module, name), (module.__name__, name)
        for name in ("batch_interpret", "plan", "interpret", "context_for"):
            assert not hasattr(InterpretationEngine, name), name
        assert not hasattr(repro.QueryInterpreter, "finder")
        assert not hasattr(DistanceOracle, "ensure")
        # one construction path: the engine is always built from the config
        with pytest.raises(TypeError):
            ConnectionService(engine=InterpretationEngine())
        with pytest.raises(TypeError):
            InterpretationEngine(exact_terminal_limit=0)
        # 3.0.0: the lane and pool knobs fail as typed errors, no shim
        with pytest.raises(TypeError):
            ServiceConfig(kernel_backend="array")
        graph = path_graph()
        with pytest.raises(TypeError):
            kou_markowsky_berman(graph, ["A", "B"], distances={})
        with pytest.raises(ValidationError, match="unknown site"):
            FaultPlan.from_dict(
                {"seed": 0, "rules": [{"site": "worker-crash", "at": [0]}]}
            )
        # 4.0.0: the lane name is gone from provenance too
        with pytest.raises(TypeError):
            Provenance(
                solver="s", instance_class="c", plan="p", cache_hit=False,
                backend="array",
            )
        # 5.0.0: one workload model -- the 4.x `repro run` module, its spec
        # shape, the --no-cold flag and the separate run template are gone
        with pytest.raises(ImportError):
            importlib.import_module("repro.runtime.workload")
        with pytest.raises(ValidationError, match="unknown load spec"):
            LoadSpec.from_dict(
                {
                    "schema": {"generator": "random_62_chordal_graph"},
                    "queries": {"count": 1},
                    "churn": {"edits": 1},
                }
            )
        for argv in (["run", "spec.json", "--no-cold"], ["spec-template"]):
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2
        assert not hasattr(repro.load.clients.InProcessTransport, "run_serial")
        # 6.0.0: a five-class report, no block memo, no SidePlan.applicable
        from dataclasses import fields

        from repro.engine.cache import SchemaCache, SidePlan

        assert [f.name for f in fields(repro.ChordalityReport)] == [
            "chordal_41", "chordal_61", "chordal_62", "v1_alpha", "v2_alpha",
        ]
        assert "applicable" not in [f.name for f in fields(SidePlan)]
        with pytest.raises(TypeError):
            repro.BlockClassifier(maxsize=16)
        classifier = repro.BlockClassifier()
        assert classifier.stats() == {"blocks_classified": 0}
        for name in ("memory_budget_bytes", "bytes_held"):
            assert not hasattr(classifier, name), name
        assert not hasattr(SchemaCache, "block_memo_bytes")
        assert "block_memo_bytes" not in SchemaCache().stats()
        # the dynamic layer sits below the engine: no import reaches up
        import ast

        import repro.dynamic

        for path in Path(repro.dynamic.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    assert not name.startswith(("repro.engine", "repro.api")), (path, name)
        # 7.0.0: label functions take a Graph; IndexedGraph is the CSR store
        with pytest.raises(ImportError):
            importlib.import_module("repro.graphs.backend")
        for name in (
            "vertices", "sorted_vertices", "edge_set", "neighbors", "adjacency",
            "neighborhood_of_set", "private_neighbors", "has_vertex", "has_edge",
            "degree", "number_of_vertices", "number_of_edges", "is_clique",
            "subgraph", "without_vertices", "without_vertex", "to_graph", "copy",
            "side_of_id", "__contains__", "__len__", "__iter__", "bits",
        ):
            assert not hasattr(repro.IndexedGraph, name), name
        assert not hasattr(repro.graphs.indexed, "bit_members")
        # 8.0.0: one canonical byte key per context; its SHA-256 is the digest
        import repro.engine.cache

        for name in ("vertex_token", "vertex_tokens", "AMBIGUOUS_DIGEST_PREFIX"):
            assert not hasattr(repro.engine.cache, name), name
        assert isinstance(repro.engine.schema_fingerprint(graph), bytes)
        # the id solvers' indexed=/index= keywords go together
        indexed, _ = repro.graphs.indexed.to_indexed(graph)
        for solver in (kou_markowsky_berman, steiner_tree_dreyfus_wagner):
            with pytest.raises(TypeError, match="pass both or neither"):
                solver(graph, ["A", "B"], indexed=indexed)

    def test_py_typed_marker_ships(self):
        import repro

        marker = Path(repro.__file__).parent / "py.typed"
        assert marker.exists(), "py.typed must ship with the package"

    def test_result_is_a_connection_result(self):
        service = ConnectionService(schema=path_graph())
        assert isinstance(service.connect(["A"]), ConnectionResult)


class TestSchemaIdentityHardening:
    """Regression: repr collisions must never let two schemas share a context.

    ``schema_fingerprint``/``schema_digest`` used to key vertices by bare
    ``repr`` (and claimed the key was collision-free): two structurally
    different schemas whose vertex objects print identically -- e.g. a
    vertex class with a constant ``__repr__`` -- hashed to the same
    fingerprint, shared one cached ``SchemaContext``, and the second
    schema got the first schema's trees back.
    """

    @staticmethod
    def _constant_repr_schema(direct: bool):
        """Two schemas with identical ``(|V|, |A|, reprs)`` but different wiring.

        Same five constant-repr vertices, same four edges by count -- so
        even the old count-guarded fingerprint collapsed them -- but ``a``
        and ``c`` are 2 apart in one wiring and 4 apart in the other.
        """

        class Concept:
            def __init__(self, name):
                self.name = name

            def __repr__(self):
                return "<concept>"  # deliberately non-injective

        a, b, c = Concept("a"), Concept("b"), Concept("c")
        hub, spare = Concept("hub"), Concept("spare")
        graph = BipartiteGraph()
        for vertex in (a, b, c):
            graph.add_left(vertex)
        for vertex in (hub, spare):
            graph.add_right(vertex)
        graph.add_edge(a, hub)
        graph.add_edge(b, spare)
        if direct:
            graph.add_edge(c, hub)
            graph.add_edge(b, hub)
        else:
            graph.add_edge(b, hub)
            graph.add_edge(c, spare)
        return graph, (a, c)

    def test_colliding_schemas_do_not_share_a_cached_context(self):
        service = ConnectionService()
        first_graph, (a1, c1) = self._constant_repr_schema(direct=True)
        second_graph, (a2, c2) = self._constant_repr_schema(direct=False)
        first = service.connect([a1, c1], schema=first_graph)
        second = service.connect([a2, c2], schema=second_graph)
        # wired directly, a-hub-c connects in 3 vertices; in the second
        # schema the connection must route a-hub-b-spare-c (5 vertices).
        # Under the old repr-keyed fingerprint both schemas hashed alike,
        # so the second call reused the first schema's context and
        # returned a tree over edges the second schema does not even have
        assert first.cost == 3
        assert second.cost == 5
        for result, graph in ((first, first_graph), (second, second_graph)):
            tree = result.solution.tree
            for u, v in tree.edges():
                assert graph.has_edge(u, v)

    def test_ambiguous_fingerprints_and_digests_never_collide(self):
        from repro.engine.cache import schema_digest, schema_fingerprint

        graph, _ = self._constant_repr_schema(direct=False)
        assert schema_fingerprint(graph) != schema_fingerprint(graph)
        assert schema_digest(graph) != schema_digest(graph)

    def test_type_distinguishes_equal_reprs_without_ambiguity(self):
        from repro.engine.cache import schema_fingerprint

        class Left:
            def __repr__(self):
                return "X"

        class Right:
            def __repr__(self):
                return "X"

        # one vertex of each type: reprs collide across types but the
        # (type, repr) tokens stay injective, so the fingerprint is
        # structural and stable
        graph = BipartiteGraph()
        graph.add_left(Left())
        graph.add_right(Right())
        assert schema_fingerprint(graph) == schema_fingerprint(graph)

    def test_vertices_that_print_alike_get_ids_by_type(self):
        # the int 1 and a One() both print "1": ordered by repr alone,
        # their ids (and so the CSR) followed insertion order
        from repro.engine.cache import SchemaContext, schema_digest, schema_fingerprint
        from repro.load.clients import digest_result_object

        class One:
            def __repr__(self):
                return "1"

        one = One()

        def schema(*left):
            graph = BipartiteGraph()
            for vertex in (*left, "L"):
                graph.add_left(vertex)
            graph.add_right("hub")
            graph.add_right("x")
            for u, v in ((1, "hub"), (one, "hub"), (one, "x"), ("L", "x")):
                graph.add_edge(u, v)
            return graph

        first, second = schema(1, one), schema(one, 1)
        assert schema_fingerprint(first) == schema_fingerprint(second)
        assert schema_digest(first) == schema_digest(second)
        assert SchemaContext(first).indexed == SchemaContext(second).indexed
        assert SchemaContext(first).index.labels == SchemaContext(second).index.labels
        service = ConnectionService()
        for terminals in ([1, "L"], [one, "L"], [1, one, "L"]):
            answers = [
                ConnectionService(schema=graph).connect(terminals)
                for graph in (first, second)
            ]
            assert digest_result_object(answers[0]) == digest_result_object(answers[1])
            service.connect(terminals, schema=first)
            assert service.connect(terminals, schema=second).provenance.cache_hit

    def test_key_integers_are_8_byte_little_endian_on_any_platform(self):
        # array('l') is 4 bytes on some platforms; the key widens it
        from array import array

        from repro.engine.cache import _le64

        wide = (1).to_bytes(8, "little") + (-2).to_bytes(8, "little", signed=True)
        assert _le64(array("i", [1, -2])) == _le64(array("q", [1, -2])) == wide

    def test_ambiguous_schemas_do_not_pollute_the_context_lru(self):
        service = ConnectionService()
        graph = path_graph()
        terminals = sorted(graph.vertices(), key=repr)[:2]
        service.connect(terminals, schema=graph)
        size_before = service.cache_stats()["size"]
        # ambiguous fingerprints never repeat: inserting contexts under
        # them could only evict the entries legitimate schemas rely on
        for _ in range(3):
            ambiguous, (a, c) = self._constant_repr_schema(direct=True)
            service.connect([a, c], schema=ambiguous)
        assert service.cache_stats()["size"] == size_before
        # and the legitimate schema still hits
        hits_before = service.cache_stats()["hits"]
        service.connect(terminals, schema=graph.copy())
        assert service.cache_stats()["hits"] == hits_before + 1

    def test_unambiguous_schemas_keep_stable_keys_and_disk_digests(self):
        from repro.engine.cache import schema_digest, schema_fingerprint

        graph = path_graph()
        assert schema_fingerprint(graph) == schema_fingerprint(graph.copy())
        assert schema_digest(graph) == schema_digest(graph.copy())

    def test_digest_is_injective_against_forged_section_markers(self):
        # regression: the digest stream used bare 'v'/'\x1f' separators, so
        # a repr embedding them could make a one-vertex graph hash like a
        # two-vertex graph; length-prefixed blobs close that forgery
        from repro.engine.cache import schema_digest
        from repro.graphs import Graph

        class V:
            def __init__(self, r):
                self._r = r

            def __repr__(self):
                return self._r

        token_type = f"{V.__module__}.{V.__qualname__}"
        forged = Graph(vertices=[V(f"Av{token_type}\x1fB")])
        honest = Graph(vertices=[V("A"), V("B")])
        assert schema_digest(forged) != schema_digest(honest)

    def test_ambiguous_schema_still_answers_and_is_disk_safe(self, tmp_path):
        graph, (a, c) = self._constant_repr_schema(direct=True)
        service = ConnectionService(
            schema=graph, config=ServiceConfig(cache_dir=str(tmp_path))
        )
        first = service.connect([a, c])
        again = service.connect([a, c])
        assert first.cost == again.cost == 3
        # ambiguous digests are unique per call, so nothing stored under
        # one could ever be replayed: the persistent layer must stay
        # untouched instead of filling with write-only entries
        assert first.provenance.result_cache is None
        assert again.provenance.result_cache is None
        assert not any(tmp_path.rglob("*.pkl"))


class TestRequestContext:
    """Span-like request identity on provenance (repro.api.context)."""

    def _graph(self):
        return BipartiteGraph(
            left=["A", "B"], right=[1, 2],
            edges=[("A", 1), ("B", 1), ("B", 2)],
        )

    def test_unscoped_provenance_has_no_identity(self):
        result = ConnectionService(schema=self._graph()).connect(["A", 2])
        assert result.provenance.request_id is None
        assert result.provenance.tenant is None
        assert result.provenance.phases is None
        record = result.to_dict()
        assert "request_id" not in record["provenance"]
        assert "tenant" not in record["provenance"]

    def test_scoped_provenance_carries_identity_and_phases(self):
        from repro.api import request_scope

        service = ConnectionService(schema=self._graph())
        with request_scope(request_id="req-42", tenant="acme"):
            result = service.connect(["A", 2])
        assert result.provenance.request_id == "req-42"
        assert result.provenance.tenant == "acme"
        assert set(result.provenance.phases) >= {"context", "plan", "solve"}
        assert all(ms >= 0 for ms in result.provenance.phases.values())
        record = result.to_dict()
        assert record["provenance"]["tenant"] == "acme"
        # identity survives timing-stripped fixtures, phases do not
        lean = result.to_dict(include_timing=False)
        assert "phases" not in lean["provenance"]
        assert lean["provenance"]["request_id"] == "req-42"

    def test_current_request_and_default_ids(self):
        from repro.api import current_request, request_scope

        assert current_request() is None
        with request_scope(tenant="t") as scope:
            assert current_request() is scope
            assert scope.request_id  # generated when not supplied
            with request_scope(request_id="inner") as nested:
                assert current_request() is nested
            assert current_request() is scope
        assert current_request() is None

    def test_phases_accumulate_within_a_scope(self):
        from repro.api import request_scope

        service = ConnectionService(schema=self._graph())
        with request_scope(request_id="r", tenant="t") as scope:
            service.connect(["A", 2])
            first = scope.phases_ms()["solve"]
            service.connect(["B", 2])
            assert scope.phases_ms()["solve"] >= first

    def test_tenant_label_on_query_counter(self):
        from repro.api import request_scope
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        service = ConnectionService(
            schema=self._graph(), config=ServiceConfig(metrics=registry)
        )
        service.connect(["A", 2])
        with request_scope(tenant="acme"):
            service.connect(["B", 2])
        text = registry.render_text()
        lines = [
            line for line in text.splitlines()
            if line.startswith("repro_queries_total{")
        ]
        tenants = sorted(
            line.split('tenant="')[1].split('"')[0] for line in lines
        )
        assert tenants == ["", "acme"]
