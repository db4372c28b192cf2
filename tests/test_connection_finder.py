"""Theorem 1 classification and the service's classification-driven dispatch."""

import pytest

from repro.api import ConnectionService
from repro.core import chordality_class, classify_bipartite_graph
from repro.core.classification import schema_acyclicity_degree
from repro.datasets.generators import (
    random_62_chordal_graph,
    random_alpha_schema_graph,
    random_terminals,
)
from repro.exceptions import BipartitenessError
from repro.graphs import BipartiteGraph, Graph, complete_bipartite, even_cycle_bipartite
from repro.steiner import steiner_tree_bruteforce


class TestClassification:
    def test_forest_class(self):
        tree = BipartiteGraph(left=["A", "B"], right=[1], edges=[("A", 1), ("B", 1)])
        report = classify_bipartite_graph(tree)
        assert report.chordal_41 and report.strongest_class == "(4,1)-chordal"
        assert report.steiner_tractable()
        assert report.pseudo_steiner_tractable(1) and report.pseudo_steiner_tractable(2)

    def test_complete_bipartite_class(self):
        report = classify_bipartite_graph(complete_bipartite(3, 3))
        assert report.strongest_class == "(6,2)-chordal"

    def test_long_cycle_class(self):
        report = classify_bipartite_graph(even_cycle_bipartite(10))
        assert report.strongest_class == "general"
        assert not report.steiner_tractable()

    def test_plain_graph_accepted(self):
        assert chordality_class(Graph(edges=[("A", 1), ("B", 1)])) == "(4,1)-chordal"

    def test_side_validation(self):
        report = classify_bipartite_graph(complete_bipartite(2, 2))
        with pytest.raises(ValueError):
            report.pseudo_steiner_tractable(3)

    def test_schema_acyclicity_degree(self):
        graph = random_alpha_schema_graph(4, rng=1)
        assert schema_acyclicity_degree(graph, side=2) in {"berge", "gamma", "beta", "alpha"}


class TestFinderDispatch:
    """``ConnectionService`` picks the solver from the cached classification."""

    def test_requires_bipartite_graph(self):
        triangle = Graph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(BipartitenessError):
            ConnectionService(schema=triangle).connect(["a", "b"])

    @pytest.mark.parametrize("seed", range(5))
    def test_minimal_connection_is_optimal_on_tractable_classes(self, seed):
        graph = random_62_chordal_graph(4, rng=seed)
        service = ConnectionService(schema=graph)
        terminals = random_terminals(graph, 3, rng=seed)
        result = service.connect(terminals)
        exact = steiner_tree_bruteforce(graph, terminals)
        assert result.cost == exact.vertex_count()
        result.validate()

    def test_exact_fallback_on_hard_instances(self):
        cycle = even_cycle_bipartite(10)
        result = ConnectionService(schema=cycle).connect([0, 5])
        assert result.cost == 6
        result.validate()

    @pytest.mark.parametrize("seed", range(5))
    def test_minimal_side_connection_uses_algorithm1(self, seed):
        graph = random_alpha_schema_graph(5, rng=seed)
        service = ConnectionService(schema=graph)
        terminals = random_terminals(graph, 3, rng=seed)
        solution = service.connect(terminals, objective="side", side=2).solution
        # the planner must have picked the Algorithm 1 fast lane, not a
        # fallback
        assert solution.metadata.get("solver") == "algorithm1-indexed"
        assert solution.method == "engine-algorithm1"
        assert solution.optimal

    def test_ranked_connections_are_sorted_and_distinct(self):
        graph = random_alpha_schema_graph(4, rng=9)
        service = ConnectionService(schema=graph)
        terminals = random_terminals(graph, 2, rng=9)
        ranked = list(service.enumerate(terminals, budget=4))
        sizes = [result.cost for result in ranked]
        assert sizes == sorted(sizes)
        vertex_sets = {frozenset(result.tree.vertices()) for result in ranked}
        assert len(vertex_sets) == len(ranked)
        assert ranked[0].solution.optimal

    def test_report_is_cached(self):
        graph = complete_bipartite(2, 2)
        service = ConnectionService(schema=graph)
        assert service.classification() is service.classification()
        assert service.schema is graph
