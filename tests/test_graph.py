"""Unit tests for the basic Graph data structure."""

import pytest
from hypothesis import given, strategies as st
from strategies import common_settings

from repro.exceptions import GraphError
from repro.graphs import Graph


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.number_of_vertices() == 0
        assert graph.number_of_edges() == 0

    def test_vertices_and_edges(self):
        graph = Graph(vertices=["x"], edges=[("a", "b"), ("b", "c")])
        assert graph.vertices() == {"x", "a", "b", "c"}
        assert graph.number_of_edges() == 2

    def test_from_edges(self):
        graph = Graph.from_edges([(1, 2), (2, 3)])
        assert graph.has_edge(1, 2) and graph.has_edge(3, 2)

    def test_from_adjacency(self):
        graph = Graph.from_adjacency({"a": ["b", "c"], "d": []})
        assert graph.has_edge("a", "c")
        assert graph.has_vertex("d") and graph.degree("d") == 0

    def test_copy_is_independent(self):
        graph = Graph(edges=[("a", "b")])
        clone = graph.copy()
        clone.add_edge("b", "c")
        assert not graph.has_vertex("c")
        assert clone.has_edge("b", "c")


class TestMutation:
    def test_add_edge_idempotent(self):
        graph = Graph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        assert graph.number_of_edges() == 1

    def test_self_loop_rejected(self):
        graph = Graph()
        with pytest.raises(GraphError):
            graph.add_edge("a", "a")

    def test_remove_vertex_drops_incident_edges(self):
        graph = Graph(edges=[("a", "b"), ("b", "c")])
        graph.remove_vertex("b")
        assert graph.vertices() == {"a", "c"}
        assert graph.number_of_edges() == 0

    def test_remove_missing_vertex_raises(self):
        with pytest.raises(GraphError):
            Graph().remove_vertex("ghost")

    def test_remove_edge(self):
        graph = Graph(edges=[("a", "b"), ("b", "c")])
        graph.remove_edge("a", "b")
        assert not graph.has_edge("a", "b")
        assert graph.has_vertex("a")

    def test_remove_missing_edge_raises(self):
        graph = Graph(edges=[("a", "b")])
        with pytest.raises(GraphError):
            graph.remove_edge("a", "c")


class TestQueries:
    def test_neighbors_and_degree(self):
        graph = Graph(edges=[("a", "b"), ("a", "c")])
        assert graph.neighbors("a") == {"b", "c"}
        assert graph.degree("a") == 2
        assert graph.degree("b") == 1

    def test_neighbors_of_missing_vertex(self):
        with pytest.raises(GraphError):
            Graph().neighbors("nope")

    def test_neighborhood_of_set(self):
        graph = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
        assert graph.neighborhood_of_set({"a", "c"}) == {"b", "d"}

    def test_private_neighbors(self):
        graph = Graph(edges=[("hub", "leaf"), ("hub", "shared"), ("other", "shared")])
        assert graph.private_neighbors("hub") == {"leaf"}
        assert graph.private_neighbors("other") == set()

    def test_is_clique(self, triangle):
        assert triangle.is_clique({"a", "b", "c"})
        assert triangle.is_clique({"a"})
        triangle.add_vertex("d")
        assert not triangle.is_clique({"a", "d"})

    def test_contains_len_iter(self):
        graph = Graph(edges=[("a", "b")])
        assert "a" in graph and "z" not in graph
        assert len(graph) == 2
        assert set(iter(graph)) == {"a", "b"}

    def test_equality(self):
        g1 = Graph(edges=[("a", "b"), ("b", "c")])
        g2 = Graph(edges=[("b", "c"), ("a", "b")])
        assert g1 == g2
        g2.add_vertex("z")
        assert g1 != g2


class TestDerivedGraphs:
    def test_subgraph_induced(self):
        graph = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        sub = graph.subgraph({"a", "b", "c"})
        assert sub.vertices() == {"a", "b", "c"}
        assert sub.number_of_edges() == 3

    def test_subgraph_ignores_unknown(self):
        graph = Graph(edges=[("a", "b")])
        assert graph.subgraph({"a", "zzz"}).vertices() == {"a"}

    def test_without_vertices(self):
        graph = Graph(edges=[("a", "b"), ("b", "c")])
        assert graph.without_vertex("b").number_of_edges() == 0
        assert graph.without_vertices(["a", "b"]).vertices() == {"c"}

    def test_edge_set(self):
        graph = Graph(edges=[("a", "b")])
        assert graph.edge_set() == {frozenset(("a", "b"))}


class TestSubclassCopy:
    """The base ``copy()`` must round-trip subclass state (regression).

    Before the ``_copy_subclass_state_into`` hook, ``Graph.copy`` rebuilt
    clones through ``Graph.__init__`` alone, silently dropping the state
    of any subclass that forgot to override ``copy`` -- or crashing when
    the subclass's mutators consulted that state.
    """

    def test_subclass_state_round_trips_through_base_copy(self):
        class Labelled(Graph):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.labels = {}

        graph = Labelled(edges=[("a", "b"), ("b", "c")])
        graph.labels["a"] = "alpha"
        clone = graph.copy()
        assert type(clone) is Labelled
        assert clone.labels == {"a": "alpha"}
        # the copied state is independent (shallow per attribute)
        clone.labels["b"] = "beta"
        assert "b" not in graph.labels
        assert clone.edge_set() == graph.edge_set()

    def test_side_guarded_subclass_clones_through_base_copy(self):
        # a BipartiteGraph-like subclass whose add_vertex *requires* the
        # subclass state: the hook must install it before the structure
        # is replayed, or the clone crashes
        class Guarded(Graph):
            def __init__(self, *args, **kwargs):
                self.allowed = set()
                super().__init__(*args, **kwargs)

            def add_vertex(self, vertex):
                self.allowed.add(vertex)
                super().add_vertex(vertex)

        graph = Guarded(edges=[(1, 2)])
        clone = graph.copy()
        assert clone.allowed == {1, 2}
        assert clone == graph

    def test_copy_starts_fresh_version_bookkeeping(self):
        graph = Graph(edges=[("a", "b")])
        graph.add_edge("b", "c")
        clone = graph.copy()
        v = clone.mutation_version
        clone.add_edge("a", "c")  # both endpoints exist: exactly one bump
        assert clone.mutation_version == v + 1
        assert not graph.has_edge("a", "c")


def reference_edges(graph):
    """``Graph.edges`` as it was: one frozenset per edge to skip repeats."""
    seen = set()
    for u, neighbors in graph._adjacency.items():
        for v in neighbors:
            key = frozenset((u, v))
            if key not in seen:
                seen.add(key)
                yield (u, v)


@common_settings(max_examples=60)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40),
    removed_vertices=st.lists(st.integers(0, 12), max_size=4),
    removed_edges=st.integers(0, 6),
)
def test_edges_match_the_frozenset_reference(pairs, removed_vertices, removed_edges):
    graph = Graph(edges=[(u, v) for u, v in pairs if u != v])
    assert list(graph.edges()) == list(reference_edges(graph))
    for vertex in removed_vertices:
        if graph.has_vertex(vertex):
            graph.remove_vertex(vertex)
    for u, v in list(graph.edges())[:removed_edges]:
        graph.remove_edge(u, v)
    # same edges, same order, same orientation -- also on a copy, whose
    # rows may iterate in another order after removals
    assert list(graph.edges()) == list(reference_edges(graph))
    clone = graph.copy()
    assert list(clone.edges()) == list(reference_edges(clone))
    assert clone.edge_set() == graph.edge_set()


def test_copy_copies_rows_without_replaying_mutations():
    graph = Graph(vertices=["x"], edges=[("a", "b"), ("b", "c")])
    clone = graph.copy()
    assert clone == graph and list(clone) == list(graph)
    assert clone.mutation_version == 0
    clone.add_edge("a", "c")
    assert not graph.has_edge("a", "c")
