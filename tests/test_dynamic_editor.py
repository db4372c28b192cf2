"""Transactional semantics of repro.dynamic.SchemaEditor.

One version bump per committed transaction, exact rollback on error
(structure, sides and version), structured journals, and the net-delta
cancellation rules.
"""

import random

import pytest
from hypothesis import given, strategies as st
from strategies import common_settings

from repro.dynamic import SchemaDelta, SchemaEditor
from repro.exceptions import GraphError, ValidationError
from repro.graphs import BipartiteGraph, Graph


def sample_bipartite():
    return BipartiteGraph(
        left=["A", "B"], right=[1, 2], edges=[("A", 1), ("B", 1), ("B", 2)]
    )


# ----------------------------------------------------------------------
# commit semantics
# ----------------------------------------------------------------------
def test_transaction_bumps_version_exactly_once():
    g = sample_bipartite()
    before = g.mutation_version
    with SchemaEditor(g) as tx:
        tx.add_vertex("C", side=1)
        tx.add_edge("C", 2)
        tx.remove_edge("A", 1)
    assert g.mutation_version == before + 1
    assert g.has_edge("C", 2) and not g.has_edge("A", 1)


def test_version_is_held_during_open_transaction():
    g = sample_bipartite()
    before = g.mutation_version
    editor = SchemaEditor(g).begin()
    editor.add_vertex("C", side=1)
    editor.add_edge("C", 2)
    # mid-transaction readers see the pre-transaction version (snapshot
    # isolation for version-gated caches) even though the structure moved
    assert g.mutation_version == before
    assert g.has_edge("C", 2)
    editor.commit()
    assert g.mutation_version == before + 1


def test_untouched_transaction_does_not_bump():
    g = sample_bipartite()
    before = g.mutation_version
    with SchemaEditor(g) as tx:
        tx.add_edge("A", 1)      # already present: no effective edit
        tx.add_vertex("B", side=1)  # already present, same side
    assert g.mutation_version == before
    assert tx.delta.is_empty()


def test_cancelled_out_transaction_still_bumps_once():
    # the graph ends structurally unchanged (empty delta), but a reader
    # may have snapshotted the intermediate structure mid-transaction --
    # the safety bump forces it to revalidate (and find nothing changed)
    g = sample_bipartite()
    before = g.mutation_version
    with SchemaEditor(g) as tx:
        tx.add_edge("A", 2)
        tx.remove_edge("A", 2)
    assert tx.delta.is_empty()
    assert g.mutation_version == before + 1


def test_delta_reports_net_effect_and_versions():
    g = sample_bipartite()
    before = g.mutation_version
    with SchemaEditor(g) as tx:
        tx.add_vertex("C", side=1)
        tx.add_edge("C", 1)
        tx.remove_edge("B", 2)
    delta = tx.delta
    assert delta.added_vertices == (("C", 1),)
    assert delta.added_edges == (("C", 1),)
    assert delta.removed_edges == (("B", 2),)
    assert not delta.removed_vertices
    assert (delta.version_before, delta.version_after) == (before, before + 1)
    assert delta.summary() == "+1v/-0v +1e/-1e"


def test_add_edge_journals_implicit_endpoint():
    g = sample_bipartite()
    with SchemaEditor(g) as tx:
        tx.add_edge("C", 1)  # C is new: side inferred opposite to 1
    assert g.side_of("C") == 1
    assert ("C", 1) in tx.delta.added_vertices
    (op,) = [op for op in tx.delta.journal if op.kind == "add_edge"]
    assert op.implied_vertices == (("C", 1),)


def test_remove_vertex_journals_incident_edges():
    g = sample_bipartite()
    with SchemaEditor(g) as tx:
        tx.remove_vertex("B")
    delta = tx.delta
    assert delta.removed_vertices == (("B", 1),)
    assert sorted(delta.removed_edges) == [("B", 1), ("B", 2)]


# ----------------------------------------------------------------------
# rollback
# ----------------------------------------------------------------------
def test_exception_rolls_back_structure_sides_and_version():
    g = sample_bipartite()
    before_version = g.mutation_version
    before_edges = g.edge_set()
    before_sides = {v: g.side_of(v) for v in g.vertices()}
    with pytest.raises(RuntimeError):
        with SchemaEditor(g) as tx:
            tx.remove_vertex("B")          # drops two edges implicitly
            tx.add_edge("A", 2)
            tx.add_edge("Z", 1)            # implicit new endpoint
            raise RuntimeError("abort")
    assert g.edge_set() == before_edges
    assert g.vertices() == set(before_sides)
    assert {v: g.side_of(v) for v in g.vertices()} == before_sides
    # structure is restored, but the version moves once: any cache that
    # bound the mid-transaction structure must be invalidated
    assert g.mutation_version == before_version + 1


def test_explicit_rollback_restores_and_releases_hold():
    g = Graph(edges=[("a", "b"), ("b", "c")])
    editor = SchemaEditor(g).begin()
    editor.remove_edge("a", "b")
    editor.rollback()
    assert g.has_edge("a", "b")
    # the hold is released: direct mutations bump again
    v = g.mutation_version
    g.add_edge("a", "c")
    assert g.mutation_version == v + 1


# ----------------------------------------------------------------------
# error paths
# ----------------------------------------------------------------------
def test_nested_transactions_are_rejected():
    g = sample_bipartite()
    editor = SchemaEditor(g).begin()
    with pytest.raises(GraphError):
        editor.begin()
    with pytest.raises(GraphError):
        SchemaEditor(g).begin()  # a second editor on the same graph
    editor.commit()


def test_operations_require_an_open_transaction():
    editor = SchemaEditor(sample_bipartite())
    with pytest.raises(GraphError):
        editor.add_edge("A", 2)
    with pytest.raises(ValidationError):
        editor.delta  # no committed transaction yet


def test_bipartite_add_vertex_requires_a_side():
    g = sample_bipartite()
    with pytest.raises(ValidationError):
        with SchemaEditor(g) as tx:
            tx.add_vertex("C")
    # the failed transaction rolled back cleanly
    assert "C" not in g


def test_editor_rejects_non_graphs():
    with pytest.raises(ValidationError):
        SchemaEditor({"not": "a graph"})


# ----------------------------------------------------------------------
# delta diff/apply round trips
# ----------------------------------------------------------------------
def test_between_and_apply_to_round_trip():
    old = sample_bipartite()
    new = old.copy()
    with SchemaEditor(new) as tx:
        tx.remove_vertex("A")
        tx.add_vertex("D", side=2)
        tx.add_edge("B", "D")
    delta = SchemaDelta.between(old, new)
    patched = delta.apply_to(old.copy())
    assert patched == new
    assert {v: patched.side_of(v) for v in patched.vertices()} == {
        v: new.side_of(v) for v in new.vertices()
    }


def test_between_handles_side_changes_as_remove_then_add():
    old = BipartiteGraph(left=["A"], right=[1], edges=[("A", 1)])
    new = BipartiteGraph(left=[1], right=["A"], edges=[("A", 1)])
    delta = SchemaDelta.between(old, new)
    assert not delta.is_empty()
    patched = delta.apply_to(old.copy())
    assert patched.side_of("A") == 2 and patched.side_of(1) == 1
    # regression: the edge exists before and after (a naive set diff nets
    # it out), but the remove+add encoding drops it with the vertex --
    # the delta must re-list it or the re-added vertices come back bare
    assert patched.has_edge("A", 1)
    assert patched == new


def test_side_flip_transaction_keeps_surviving_edges():
    graph = BipartiteGraph(left=["a", "c"], right=["b"], edges=[("a", "b"), ("c", "b")])
    snapshot = graph.copy()
    with SchemaEditor(graph) as tx:
        tx.remove_vertex("a")
        tx.remove_vertex("b")
        tx.remove_vertex("c")
        tx.add_vertex("a", side=2)
        tx.add_vertex("c", side=2)
        tx.add_vertex("b", side=1)
        tx.add_edge("a", "b")
        tx.add_edge("c", "b")
    delta = tx.delta
    # both edges exist before and after the flip; they must still appear
    # in added_edges because the vertex removals drop them implicitly
    assert {frozenset(e) for e in delta.added_edges} == {
        frozenset(("a", "b")), frozenset(("c", "b")),
    }
    patched = delta.apply_to(snapshot.copy())
    assert patched == graph
    assert {v: patched.side_of(v) for v in patched.vertices()} == {
        "a": 2, "b": 1, "c": 2,
    }


def test_touched_vertices_covers_the_edit_locality():
    old = sample_bipartite()
    new = old.copy()
    new.remove_edge("B", 2)
    delta = SchemaDelta.between(old, new)
    assert delta.touched_vertices() == {"B", 2}


def test_add_vertex_side_conflict_fails_loudly():
    from repro.exceptions import BipartitenessError

    g = sample_bipartite()
    with pytest.raises(BipartitenessError):
        with SchemaEditor(g) as tx:
            tx.add_vertex("A", side=2)  # A is on side 1
    # the failed transaction rolled back: nothing moved
    assert g.side_of("A") == 1
    # same-side re-add stays idempotent
    v = g.mutation_version
    with SchemaEditor(g) as tx:
        tx.add_vertex("A", side=1)
    assert g.mutation_version == v


# ----------------------------------------------------------------------
# the editor's net delta against the structural diff
# ----------------------------------------------------------------------
def test_a_type_swap_commits_the_delta_between_lists():
    # 1.0 takes the place of the equal int 1, on its side, with its edge:
    # the canonical token changes, so the net delta is not empty
    graph = BipartiteGraph(left=[1, "A"], right=["x"], edges=[(1, "x"), ("A", "x")])
    before = graph.copy()
    with SchemaEditor(graph) as tx:
        tx.remove_vertex(1)
        tx.add_vertex(1.0, side=1)
        tx.add_edge(1.0, "x")
    assert tx.delta.counts() == {
        "added_vertices": 1, "removed_vertices": 1, "added_edges": 1, "removed_edges": 0,
    }
    assert [(type(v), side) for v, side in tx.delta.removed_vertices] == [(int, 1)]
    assert [(type(v), side) for v, side in tx.delta.added_vertices] == [(float, 1)]
    reference = SchemaDelta.between(before, graph)
    assert vertex_tokens(tx.delta.added_vertices) == vertex_tokens(reference.added_vertices)
    assert edge_keys(tx.delta.added_edges) == edge_keys(reference.added_edges) == {
        frozenset((1.0, "x"))
    }
    assert stored(tx.delta.apply_to(before.copy())) == stored(graph)


def test_a_removal_names_the_object_the_graph_stores():
    # the graph holds 1.0; the caller names it by the equal int 1
    graph = BipartiteGraph(left=[1.0, "A"], right=["x"], edges=[(1.0, "x"), ("A", "x")])
    before = graph.copy()
    with SchemaEditor(graph) as tx:
        tx.remove_vertex(1)
    assert [(type(v), side) for v, side in tx.delta.removed_vertices] == [(float, 1)]
    assert [tuple(map(type, edge)) for edge in tx.delta.removed_edges] == [(float, str)]
    reference = SchemaDelta.between(before, graph)
    assert vertex_tokens(tx.delta.removed_vertices) == vertex_tokens(reference.removed_vertices)
    assert edge_tokens(tx.delta.removed_edges) == edge_tokens(reference.removed_edges)
    with SchemaEditor(graph) as tx:
        tx.add_vertex(2.0, side=1)
        tx.add_edge(2.0, "x")
    with SchemaEditor(graph) as tx:
        tx.remove_edge(2, "x")
    assert edge_tokens(tx.delta.removed_edges) == [[("'x'", "str"), ("2.0", "float")]]


def test_a_removal_by_the_stored_object_keeps_its_type_through_a_rollback():
    # the graph stores 1.0, but the row of "x" holds the int 1 its edge was added with
    graph = BipartiteGraph(left=[1.0, "A"], right=["x"], edges=[(1, "x"), ("A", "x")])
    before, original = graph.copy(), stored(graph)
    with SchemaEditor(graph) as tx:
        tx.remove_vertex(1.0)
    assert [(type(v), side) for v, side in tx.delta.removed_vertices] == [(float, 1)]
    reference = SchemaDelta.between(before, graph)
    assert vertex_tokens(tx.delta.removed_vertices) == vertex_tokens(reference.removed_vertices)
    graph = before.copy()
    with pytest.raises(RuntimeError):
        with SchemaEditor(graph) as tx:
            tx.remove_vertex(1.0)
            tx.remove_edge("A", "x")
            raise RuntimeError("abort")
    assert stored(graph) == original
    assert [type(v) for v in graph.vertices() if v == 1] == [float]


class RetypedStr(str):
    """A string of another type: equal to, and printing like, the ``str`` it copies."""


def vertex_tokens(vertices):
    return sorted((repr(vertex), type(vertex).__name__, side) for vertex, side in vertices)


def edge_keys(edges):
    return {frozenset(edge) for edge in edges}


def edge_tokens(edges):
    """Each edge's endpoints as (repr, type name) pairs: tells ``1`` from ``1.0``."""
    return sorted(sorted((repr(v), type(v).__name__) for v in edge) for edge in edges)


def stored(graph):
    """Each stored vertex object's type, repr and side, and the edge set."""
    vertices = sorted(
        (repr(vertex), type(vertex).__name__, graph.side_of(vertex)) for vertex in graph.vertices()
    )
    return vertices, edge_keys(graph.edges())


def swapped(vertex):
    """An equal object of another type: int <-> float, str <-> RetypedStr."""
    if isinstance(vertex, float):
        return int(vertex)
    if isinstance(vertex, int):
        return float(vertex)
    return str(vertex) if type(vertex) is RetypedStr else RetypedStr(vertex)


def random_edit(graph, tx, rng, fresh):
    """One random editor operation on ``graph``'s stored vertex objects."""
    kind = rng.choice(
        [
            "add-vertex", "remove-vertex", "remove-swapped", "add-edge", "add-swapped-edge",
            "remove-edge", "flip", "swap",
        ]
    )
    vertices = graph.sorted_vertices()
    if kind == "add-vertex" or not vertices:
        side = rng.choice([1, 2])
        tx.add_vertex(next(fresh) if side == 1 else f"r{next(fresh)}", side=side)
    elif kind == "remove-vertex":
        tx.remove_vertex(rng.choice(vertices))
    elif kind == "remove-swapped":
        # named by an equal object of another type than the stored one
        tx.remove_vertex(swapped(rng.choice(vertices)))
    elif kind in ("add-edge", "add-swapped-edge"):
        pairs = [
            (u, v)
            for u in vertices
            for v in vertices
            if graph.side_of(u) == 1 and graph.side_of(v) == 2 and not graph.has_edge(u, v)
        ]
        if pairs:
            u, v = rng.choice(pairs)
            if kind == "add-swapped-edge":
                # the rows then hold objects of another type than the vertex map
                u, v = rng.choice([(swapped(u), v), (u, swapped(v)), (swapped(u), swapped(v))])
            tx.add_edge(u, v)
    elif kind == "remove-edge":
        edges = sorted((tuple(edge) for edge in graph.edges()), key=repr)
        if edges:
            u, v = rng.choice(edges)
            tx.remove_edge(*((swapped(u), swapped(v)) if rng.random() < 0.5 else (u, v)))
    else:
        # remove a vertex and put it back, on the other side (flip) or as
        # an equal object of another type (swap), with some edges
        vertex = rng.choice(vertices)
        side = graph.side_of(vertex)
        neighbours = sorted(graph.neighbors(vertex), key=repr)
        tx.remove_vertex(vertex)
        if kind == "flip":
            partners = [w for w in graph.sorted_vertices() if graph.side_of(w) == side]
            side, back = 3 - side, vertex
        else:
            partners, back = neighbours, swapped(vertex)
        tx.add_vertex(back, side=side)
        for partner in rng.sample(partners, rng.randint(0, min(2, len(partners)))):
            tx.add_edge(back, partner)


@common_settings(max_examples=60)
@given(seed=st.integers(0, 2**16), edits=st.integers(1, 8))
def test_editor_delta_equals_the_structural_diff(seed, edits):
    rng = random.Random(seed)
    left = list(range(rng.randint(1, 4)))
    right = [f"r{j}" for j in range(rng.randint(1, 4))]
    graph = BipartiteGraph(
        left=left, right=right, edges=[(u, v) for u in left for v in right if rng.random() < 0.5]
    )
    fresh = iter(range(100, 10**6))
    before = graph.copy()
    with SchemaEditor(graph) as tx:
        for _ in range(edits):
            random_edit(graph, tx, rng, fresh)
    delta, reference = tx.delta, SchemaDelta.between(before, graph)
    assert vertex_tokens(delta.added_vertices) == vertex_tokens(reference.added_vertices)
    assert vertex_tokens(delta.removed_vertices) == vertex_tokens(reference.removed_vertices)
    assert edge_keys(delta.added_edges) == edge_keys(reference.added_edges)
    assert edge_keys(delta.removed_edges) == edge_keys(reference.removed_edges)
    assert stored(delta.apply_to(before.copy())) == stored(graph)
