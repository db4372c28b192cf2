"""Algorithm 1 (Theorems 3-4, Corollary 4): polynomial pseudo-Steiner trees."""

import random

import pytest

from repro.core.covers import is_side_minimum_cover
from repro.datasets.figures import figure3c_witness
from repro.datasets.generators import (
    random_alpha_schema_graph,
    random_beta_schema_graph,
    random_terminals,
)
from repro.exceptions import NotApplicableError, ValidationError
from repro.graphs import BipartiteGraph, even_cycle_bipartite
from repro.hypergraphs import hypergraph_of_side, satisfies_suffix_running_intersection
from repro.steiner import (
    lemma1_ordering,
    pseudo_steiner_algorithm1,
    pseudo_steiner_bruteforce,
    steiner_tree_bruteforce,
)


class TestLemma1Ordering:
    @pytest.mark.parametrize("seed", range(6))
    def test_ordering_satisfies_lemma1_properties(self, seed):
        graph = random_alpha_schema_graph(5, rng=seed)
        ordering = lemma1_ordering(graph, side=2)
        assert ordering is not None
        assert set(ordering) == graph.side(2)
        hypergraph = hypergraph_of_side(graph, 2)
        # property (2): the suffix running-intersection property
        assert satisfies_suffix_running_intersection(hypergraph, ordering)
        # property (1): every suffix (plus its neighbourhood) is connected
        from repro.graphs import is_connected

        for start in range(len(ordering)):
            suffix = set(ordering[start:])
            closure = suffix | graph.neighborhood_of_set(suffix)
            assert is_connected(graph.subgraph(closure))

    def test_no_ordering_for_cyclic_graph(self):
        cycle = even_cycle_bipartite(8)
        assert lemma1_ordering(cycle, side=1) is None


class TestAlgorithm1Correctness:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bruteforce_on_alpha_schema_graphs(self, seed):
        rng = random.Random(seed)
        graph = random_alpha_schema_graph(5, rng=rng)
        terminals = random_terminals(graph, min(4, graph.number_of_vertices()), rng=rng)
        fast = pseudo_steiner_algorithm1(graph, terminals, side=2)
        slow = pseudo_steiner_bruteforce(graph, terminals, side=2)
        assert fast.side_count(2) == slow.side_count(2)
        fast.validate()
        assert fast.optimal

    @pytest.mark.parametrize("seed", range(6))
    def test_cover_is_side_minimum(self, seed):
        rng = random.Random(100 + seed)
        graph = random_alpha_schema_graph(4, rng=rng)
        terminals = random_terminals(graph, 3, rng=rng)
        fast = pseudo_steiner_algorithm1(graph, terminals, side=2)
        cover = fast.metadata["cover"]
        assert is_side_minimum_cover(graph, cover, terminals, side=2)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("side", [1, 2])
    def test_corollary4_both_sides_on_beta_graphs(self, seed, side):
        rng = random.Random(seed)
        graph = random_beta_schema_graph(4, attributes=7, rng=rng)
        terminals = random_terminals(graph, 3, rng=rng)
        fast = pseudo_steiner_algorithm1(graph, terminals, side=side)
        slow = pseudo_steiner_bruteforce(graph, terminals, side=side)
        assert fast.side_count(side) == slow.side_count(side)

    def test_terminal_on_relation_side(self):
        graph = random_alpha_schema_graph(4, rng=7)
        relation = sorted(graph.side(2), key=repr)[0]
        attribute = sorted(graph.side(1), key=repr)[-1]
        solution = pseudo_steiner_algorithm1(graph, [relation, attribute], side=2)
        solution.validate()
        assert relation in solution.tree.vertices()


class TestAlgorithm1Preconditions:
    def test_not_applicable_raises(self):
        cycle = even_cycle_bipartite(8)
        terminals = [0, 4]
        with pytest.raises(NotApplicableError):
            pseudo_steiner_algorithm1(cycle, terminals, side=1, check=True)

    def test_check_false_still_returns_a_cover(self):
        cycle = even_cycle_bipartite(8)
        solution = pseudo_steiner_algorithm1(cycle, [0, 4], side=1, check=False)
        solution.validate()
        assert not solution.optimal

    def test_claimed_applicability_without_an_ordering_is_not_optimal(self):
        # H_2 is a triangle: no Lemma 1 ordering, so the sorted fallback
        # ordering gives a nonredundant cover, not a V_2-minimum one
        graph = BipartiteGraph(
            left=["a", "b", "c"],
            right=["R", "S", "T"],
            edges=[("a", "R"), ("b", "R"), ("b", "S"), ("c", "S"), ("c", "T"), ("a", "T")],
        )
        assert lemma1_ordering(graph, 2) is None
        claimed = pseudo_steiner_algorithm1(
            graph, ["a", "b", "c"], side=2, check=False, applicable=True
        )
        assert claimed.metadata["ordering"] == ["R", "S", "T"]
        assert not claimed.optimal
        assert not pseudo_steiner_algorithm1(graph, ["a", "b", "c"], side=2, check=False).optimal

    def test_requires_bipartite_graph(self):
        from repro.graphs import Graph

        with pytest.raises(ValidationError):
            pseudo_steiner_algorithm1(Graph(edges=[("a", "b")]), ["a"], side=1)

    def test_invalid_side(self):
        graph = random_alpha_schema_graph(3, rng=1)
        with pytest.raises(ValueError):
            pseudo_steiner_algorithm1(graph, list(graph.side(1))[:2], side=3)


class TestSection3Remark:
    def test_v2_minimum_cover_is_not_always_a_steiner_tree(self):
        """Fig. 3(c): minimising relations is not the same as minimising objects."""
        graph, terminals, pseudo_cover = figure3c_witness()
        pseudo = pseudo_steiner_bruteforce(graph, terminals, side=2)
        steiner = steiner_tree_bruteforce(graph, terminals)
        # the V2-optimal value is achieved by the quoted 6-vertex cover ...
        quoted_v2 = sum(1 for v in pseudo_cover if graph.side_of(v) == 2)
        assert pseudo.side_count(2) == quoted_v2
        # ... but the Steiner optimum uses strictly fewer vertices in total
        assert steiner.vertex_count() < len(pseudo_cover)
