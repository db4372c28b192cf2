"""Covers (Definition 10), greedy elimination, good orderings (Definition 11),
Lemma 5, Corollary 5 and the Theorem 6 counterexample (sampled, and
exhaustively through its case decomposition)."""

import random

import pytest

from repro.core import (
    OrderingCase,
    candidate_terminal_sets,
    every_ordering_good_sampled,
    fast_greedy_cover,
    find_bad_terminal_set,
    greedy_elimination_cover,
    is_cover,
    is_good_ordering,
    is_minimum_cover,
    is_nonredundant_cover,
    is_side_minimum_cover,
    minimum_cover_size,
    minimum_side_cover_size,
    nonredundant_covers,
    sample_orderings_not_good,
    verify_case_exhaustively,
    verify_no_good_ordering,
)
from repro.core.covers import connects_terminals, terminal_component
from repro.datasets.figures import (
    figure8_example,
    figure11_cases,
    figure11_graph,
)
from repro.datasets.generators import random_62_chordal_graph, random_terminals
from repro.exceptions import DisconnectedTerminalsError, ValidationError
from repro.graphs import BipartiteGraph, Graph


@pytest.fixture
def pendant_square():
    """A 4-cycle P1-a-P2-b with pendants w on a and x on b (Corollary 5 stress case)."""
    graph = Graph(
        edges=[("P1", "a"), ("a", "P2"), ("P2", "b"), ("b", "P1"), ("a", "w"), ("b", "x")]
    )
    return graph


class TestCoverPredicates:
    def test_is_cover(self):
        graph = Graph(edges=[("a", "b"), ("b", "c")])
        assert is_cover(graph, {"a", "b", "c"}, {"a", "c"})
        assert not is_cover(graph, {"a", "c"}, {"a", "c"})
        assert not is_cover(graph, {"a", "b"}, {"a", "c"})

    def test_connects_terminals_ignores_stray_vertices(self):
        graph = Graph(edges=[("a", "b"), ("b", "c"), ("d", "e")])
        assert connects_terminals(graph, {"a", "b", "c", "d"}, {"a", "c"})
        assert not is_cover(graph, {"a", "b", "c", "d"}, {"a", "c"})
        assert terminal_component(graph, {"a", "b", "c", "d"}, {"a", "c"}) == {"a", "b", "c"}

    def test_nonredundant_and_minimum(self):
        graph, terminals, covers = figure8_example()
        assert is_nonredundant_cover(graph, covers["nonredundant"], terminals)
        assert is_nonredundant_cover(graph, covers["minimum"], terminals)
        assert is_minimum_cover(graph, covers["minimum"], terminals)
        assert not is_minimum_cover(graph, covers["nonredundant"], terminals)
        assert minimum_cover_size(graph, terminals) == len(covers["minimum"])

    def test_side_minimum_cover(self):
        graph, terminals, covers = figure8_example()
        side_minimum = minimum_side_cover_size(graph, terminals, side=2)
        assert side_minimum == 2
        assert is_side_minimum_cover(graph, covers["minimum"], terminals, side=2)

    def test_disconnected_terminals_raise(self):
        graph = Graph(edges=[("a", "b"), ("c", "d")])
        with pytest.raises(DisconnectedTerminalsError):
            minimum_cover_size(graph, {"a", "c"})

    def test_nonredundant_covers_enumeration(self):
        graph, terminals, covers = figure8_example()
        found = nonredundant_covers(graph, terminals)
        assert covers["minimum"] in [frozenset(c) for c in found]
        assert covers["nonredundant"] in [frozenset(c) for c in found]


class TestGreedyElimination:
    def test_result_is_nonredundant_cover(self, pendant_square):
        cover = greedy_elimination_cover(pendant_square, {"P1", "P2"})
        assert is_nonredundant_cover(pendant_square, cover, {"P1", "P2"})

    def test_pendant_blockers_do_not_hurt(self, pendant_square):
        # the ordering that removes both hubs' pendants last must still end
        # with a minimum cover (this is the semantics Corollary 5 needs).
        cover = fast_greedy_cover(pendant_square, {"P1", "P2"}, ["a", "b", "w", "x"])
        assert len(cover) == minimum_cover_size(pendant_square, {"P1", "P2"})

    def test_batch_removal_matches_algorithm1_semantics(self):
        graph = BipartiteGraph(left=["A", "B"], right=[1, 2], edges=[("A", 1), ("B", 1), ("A", 2)])
        cover = greedy_elimination_cover(graph, {"A", "B"}, removal_batches=True)
        assert cover == {"A", 1, "B"}

    def test_requires_nonempty_terminals(self, pendant_square):
        with pytest.raises(ValidationError):
            greedy_elimination_cover(pendant_square, [])

    def test_fast_matches_slow(self, pendant_square, rng):
        vertices = pendant_square.sorted_vertices()
        for _ in range(10):
            order = list(vertices)
            rng.shuffle(order)
            fast = fast_greedy_cover(pendant_square, {"P1", "P2"}, order)
            slow = greedy_elimination_cover(pendant_square, {"P1", "P2"}, ordering=order)
            assert fast == slow


class TestGoodOrderings:
    def test_candidate_terminal_sets(self):
        graph = Graph(edges=[("a", "b"), ("b", "c")])
        sets = candidate_terminal_sets(graph, max_size=2)
        assert frozenset({"a", "c"}) in sets

    def test_corollary5_on_62_chordal_graphs(self):
        for seed in range(3):
            graph = random_62_chordal_graph(3, max_left=2, max_right=2, rng=seed)
            assert every_ordering_good_sampled(
                graph, orderings=3, max_terminal_size=3, rng=seed
            )

    def test_ordering_on_fig11_fails(self):
        graph = figure11_graph()
        ordering = ["A", "B", 1, 2, 3, 4, 5, 6, "C", "D", "E", "F"]
        witness = find_bad_terminal_set(
            graph, ordering, terminal_sets=[case.witness for case in figure11_cases()]
        )
        assert witness is not None
        assert not is_good_ordering(
            graph, ordering, terminal_sets=[case.witness for case in figure11_cases()]
        )

    def test_theorem6_sampled(self):
        graph = figure11_graph()
        assert sample_orderings_not_good(graph, figure11_cases(), samples=60, rng=11)

    def test_case_validation_errors(self):
        graph = figure11_graph()
        bad_case = OrderingCase(pivot="Z", hubs=frozenset({"A", "Z"}), witness=frozenset({3, "C"}))
        with pytest.raises(ValidationError):
            verify_case_exhaustively(graph, bad_case)

    def test_theorem6_case_decomposition(self):
        # one case per hub, each checked over every ordering that puts its
        # pivot first among the hubs: no ordering of Figure 11 is good
        assert verify_no_good_ordering(figure11_graph(), figure11_cases())
        assert not verify_no_good_ordering(figure11_graph(), [])

    def test_case_decomposition_validation_errors(self):
        graph = figure11_graph()
        cases = figure11_cases()
        other_hubs = OrderingCase(
            pivot="A", hubs=frozenset({"A", "B"}), witness=cases[0].witness
        )
        with pytest.raises(ValidationError, match="same hub set"):
            verify_no_good_ordering(graph, [*cases[1:], other_hubs])
        with pytest.raises(ValidationError, match="one case per hub"):
            verify_no_good_ordering(graph, cases[:-1])


class TestLemma5:
    """On (6,2)-chordal graphs every nonredundant cover is minimum."""

    @pytest.mark.parametrize("seed", range(3))
    def test_every_nonredundant_cover_is_minimum(self, seed):
        rng = random.Random(seed)
        graph = random_62_chordal_graph(3, max_left=2, max_right=2, rng=rng)
        if graph.number_of_vertices() > 11:
            pytest.skip("instance too large for exhaustive cover enumeration")
        terminals = random_terminals(graph, 3, rng=rng)
        optimum = minimum_cover_size(graph, terminals)
        for cover in nonredundant_covers(graph, terminals, limit=50):
            assert len(cover) == optimum

    def test_fails_on_a_61_only_graph(self):
        from repro.datasets.figures import figure3c_graph

        graph = figure3c_graph()
        terminals = {"B", "E"}
        sizes = {len(c) for c in nonredundant_covers(graph, terminals)}
        assert len(sizes) > 1  # nonredundant covers of different sizes exist
