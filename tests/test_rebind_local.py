"""The post-edit rebind, patched locally, equals a cold rebuild.

After a ``SchemaEditor`` transaction, ``ConnectionService`` rebinds through
``SchemaDelta.between`` -> ``SchemaContext.apply_delta`` ->
``SchemaCache.adopt``.  Each step now does work in proportion to the edit:
``between`` lists edges only for the rows that differ, the context patches
its block records (re-splitting the blocks that lost an edge, merging the
blocks on the block-cut path of each added edge) and builds its key from
its parent's vertex tokens.  This suite drives multi-edit transactions
over three schema families and checks, after every transaction:

* the patched context equals ``SchemaContext(graph)`` in graph, CSR,
  labels and report;
* its key (``fingerprint``) equals the cold context's and
  ``schema_fingerprint(graph)``, and its digest equals
  ``schema_digest(graph)`` and the SHA-256 of its key -- or all are
  ambiguous;
* its block records equal ``biconnected_edge_blocks(graph)``;
* ``between`` returns the net delta of the whole-graph diff it replaced
  (kept below as ``reference_between``): identical vertex tuples and
  identical edge sets;
* a bound ``ConnectionService`` answers with the digests of a fresh one.

Every edit case is named and also run on its own, so none is reached only
through random churn.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st
from strategies import chordal_bipartite_graphs, common_settings

from repro.api import ConnectionService
from repro.datasets.generators import (
    random_62_chordal_graph,
    random_alpha_schema_graph,
    random_terminals,
)
from repro.dynamic import SchemaDelta, SchemaEditor, biconnected_edge_blocks
from repro.dynamic.delta import restore_readded_incident_edges
from repro.engine.cache import (
    SchemaContext,
    digest_is_ambiguous,
    fingerprint_is_ambiguous,
    schema_digest,
    schema_fingerprint,
)
from repro.graphs import BipartiteGraph
from repro.graphs.traversal import connected_components
from repro.load.clients import digest_result_object

SETTINGS = common_settings(max_examples=30)


# ----------------------------------------------------------------------
# the whole-graph diff that SchemaDelta.between replaced
# ----------------------------------------------------------------------
def reference_between(old, new):
    """``SchemaDelta.between`` as it was: a diff of every vertex and edge."""

    def side_map(graph):
        if isinstance(graph, BipartiteGraph):
            return {vertex: graph.side_of(vertex) for vertex in graph.vertices()}
        return {}

    old_sides, new_sides = side_map(old), side_map(new)
    old_vertices, new_vertices = old.vertices(), new.vertices()
    added, removed = [], []
    for vertex in sorted(new_vertices - old_vertices, key=repr):
        added.append((vertex, new_sides.get(vertex)))
    for vertex in sorted(old_vertices - new_vertices, key=repr):
        removed.append((vertex, old_sides.get(vertex)))
    for vertex in sorted(old_vertices & new_vertices, key=repr):
        if old_sides.get(vertex) != new_sides.get(vertex):
            removed.append((vertex, old_sides.get(vertex)))
            added.append((vertex, new_sides.get(vertex)))
    old_edges = {frozenset(edge): edge for edge in old.edges()}
    new_edges = {frozenset(edge): edge for edge in new.edges()}
    added_edge_map = {key: new_edges[key] for key in new_edges.keys() - old_edges.keys()}
    removed_edges = tuple(
        old_edges[key] for key in sorted(old_edges.keys() - new_edges.keys(), key=repr)
    )
    restore_readded_incident_edges(new, added, removed, added_edge_map)
    return SchemaDelta(
        added_vertices=tuple(added),
        removed_vertices=tuple(removed),
        added_edges=tuple(
            added_edge_map[key] for key in sorted(added_edge_map.keys(), key=repr)
        ),
        removed_edges=removed_edges,
    )


def edge_set(edges):
    return {frozenset(edge) for edge in edges}


def block_set(blocks):
    return {frozenset(map(frozenset, edges)) for edges in blocks}


# ----------------------------------------------------------------------
# named edit cases: each edits inside an open transaction and returns
# whether it applied
# ----------------------------------------------------------------------
class Alias:
    """A vertex type whose instances all print alike: their tokens collide."""

    def __repr__(self):
        return "Alias()"


class Twin:
    """A vertex that prints like the tuple it wraps: the two tie on ``repr``."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return repr(self.value)


def plain_vertices(graph):
    return [
        vertex
        for vertex in graph.sorted_vertices()
        if not isinstance(vertex, (Alias, Twin))
    ]


def grow_pendant(graph, tx, rng, fresh, state):
    anchors = plain_vertices(graph)
    if not anchors:
        return False
    anchor = rng.choice(anchors)
    vertex = ("p", next(fresh))
    tx.add_vertex(vertex, side=3 - graph.side_of(anchor))
    tx.add_edge(vertex, anchor)
    return True


def prune_pendant(graph, tx, rng, fresh, state):
    leaves = [vertex for vertex in plain_vertices(graph) if graph.degree(vertex) == 1]
    if not leaves:
        return False
    tx.remove_vertex(rng.choice(leaves))
    return True


def split_block(graph, tx, rng, fresh, state):
    """Drop an edge that lies on a cycle: its block is re-split."""
    blocks = [edges for edges in biconnected_edge_blocks(graph) if len(edges) > 1]
    if not blocks:
        return False
    tx.remove_edge(*rng.choice(rng.choice(blocks)))
    return True


def grow_cycle(graph, tx, rng, fresh, state):
    """Hang a path of four new vertices on an edge's ends: a 6-cycle through it."""
    edges = sorted(
        (
            tuple(sorted(edge, key=repr))
            for edge in graph.edges()
            if not any(isinstance(vertex, Alias) for vertex in edge)
        ),
        key=repr,
    )
    if not edges:
        return False
    a, b = rng.choice(edges)
    if graph.side_of(a) == 2:
        a, b = b, a
    path = [a] + [("h", next(fresh)) for _ in range(4)] + [b]
    for position, vertex in enumerate(path[1:-1]):
        tx.add_vertex(vertex, side=2 - position % 2)
    for u, v in zip(path, path[1:]):
        tx.add_edge(u, v)
    return True


def _missing_pairs(graph, vertices):
    return [
        (a, b)
        for a, b in itertools.combinations(sorted(vertices, key=repr), 2)
        if graph.side_of(a) != graph.side_of(b) and not graph.has_edge(a, b)
    ]


def add_in_block(graph, tx, rng, fresh, state):
    """Join two non-adjacent vertices of one block."""
    pairs = []
    for edges in biconnected_edge_blocks(graph):
        if len(edges) > 1:
            pairs += _missing_pairs(graph, {vertex for edge in edges for vertex in edge})
    if not pairs:
        return False
    tx.add_edge(*rng.choice(pairs))
    return True


def merge_blocks(graph, tx, rng, fresh, state):
    """Join two vertices of one component that share no block."""
    blocks_of = {}
    for index, edges in enumerate(biconnected_edge_blocks(graph)):
        for edge in edges:
            for vertex in edge:
                blocks_of.setdefault(vertex, set()).add(index)
    pairs = []
    for component in connected_components(graph):
        members = [vertex for vertex in component if vertex in blocks_of]
        pairs += [
            (a, b)
            for a, b in _missing_pairs(graph, members)
            if not blocks_of[a] & blocks_of[b]
        ]
    if not pairs:
        return False
    tx.add_edge(*rng.choice(sorted(pairs, key=repr)))
    return True


def join_components(graph, tx, rng, fresh, state):
    """Join two components that have edges: the new edge is a bridge."""
    components = sorted(
        (sorted(c, key=repr) for c in connected_components(graph) if len(c) > 1),
        key=repr,
    )
    while len(components) < 2:
        # grow the missing component in this transaction first
        a, b = ("c", next(fresh)), ("c", next(fresh))
        tx.add_vertex(a, side=1)
        tx.add_vertex(b, side=2)
        tx.add_edge(a, b)
        components.append([a, b])
    first, second = rng.sample(components, 2)
    u = rng.choice([vertex for vertex in first if not isinstance(vertex, Alias)])
    tx.add_edge(u, rng.choice([v for v in second if graph.side_of(v) != graph.side_of(u)]))
    return True


def add_isolated(graph, tx, rng, fresh, state):
    tx.add_vertex(("i", next(fresh)), side=rng.choice([1, 2]))
    return True


def remove_isolated(graph, tx, rng, fresh, state):
    isolated = [vertex for vertex in graph.sorted_vertices() if graph.degree(vertex) == 0]
    if not isolated:
        return False
    tx.remove_vertex(rng.choice(isolated))
    return True


def flip_side(graph, tx, rng, fresh, state):
    """Remove a vertex, put it back on the other side and give it new edges."""
    candidates = [v for v in plain_vertices(graph) if v not in state["flipped"]]
    if not candidates:
        return False
    vertex = rng.choice(candidates)
    side = graph.side_of(vertex)
    tx.remove_vertex(vertex)
    tx.add_vertex(vertex, side=3 - side)
    partners = [w for w in plain_vertices(graph) if w != vertex and graph.side_of(w) == side]
    for partner in rng.sample(partners, min(2, len(partners))):
        tx.add_edge(vertex, partner)
    state["flipped"].add(vertex)
    return True


def flip_edge(graph, tx, rng, fresh, state):
    """Flip both ends of an edge in one transaction: the edge itself survives."""
    edges = sorted(
        (
            tuple(sorted(edge, key=repr))
            for edge in graph.edges()
            if not state["flipped"].intersection(edge)
            and not any(isinstance(vertex, Alias) for vertex in edge)
        ),
        key=repr,
    )
    if not edges:
        return False
    a, b = rng.choice(edges)
    side_a, side_b = graph.side_of(a), graph.side_of(b)
    tx.remove_vertex(a)
    tx.remove_vertex(b)
    tx.add_vertex(a, side=side_b)
    tx.add_vertex(b, side=side_a)
    tx.add_edge(a, b)
    state["flipped"].update((a, b))
    return True


def alias_collision(graph, tx, rng, fresh, state):
    """Add an isolated vertex whose token equals an existing vertex's.

    One per transaction: two twins added together would tie in every
    repr sort, and their relative ids would follow set order.
    """
    if state["alias"]:
        return False
    tx.add_vertex(Alias(), side=rng.choice([1, 2]))
    state["alias"] = True
    return True


def repr_tie(graph, tx, rng, fresh, state):
    """Add a tuple and a ``Twin`` of it: ids order the pair by type name.

    The twin goes in first, so its id follows the tuple's by type name
    alone; it stays isolated, so no two edges print alike.
    """
    anchors = plain_vertices(graph)
    if not anchors:
        return False
    anchor = rng.choice(anchors)
    vertex = ("t", next(fresh))
    tx.add_vertex(Twin(vertex), side=rng.choice([1, 2]))
    tx.add_vertex(vertex, side=3 - graph.side_of(anchor))
    tx.add_edge(vertex, anchor)
    return True


CASES = {
    "grow-pendant": grow_pendant,
    "prune-pendant": prune_pendant,
    "split-block": split_block,
    "grow-cycle": grow_cycle,
    "add-in-block": add_in_block,
    "merge-blocks": merge_blocks,
    "join-components": join_components,
    "add-isolated": add_isolated,
    "remove-isolated": remove_isolated,
    "flip-side": flip_side,
    "flip-edge": flip_edge,
    "alias-collision": alias_collision,
    "repr-tie": repr_tie,
}

#: Transactions that set a case up before it runs alone (a collision needs
#: a first twin, an in-block edge a block with a missing pair).
SETUP = {
    "remove-isolated": ["add-isolated"],
    "alias-collision": ["alias-collision"],
    "add-in-block": ["grow-cycle"],
}


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
def queries(graph, seed):
    """A few feasible terminal sets in the largest component."""
    largest = max(connected_components(graph), key=len, default=set())
    if len(largest) < 2:
        return []
    rng = random.Random(seed)
    return [
        random_terminals(graph, min(count, len(largest)), rng=rng) for count in (2, 3, 4)
    ]


def check_rebind(context, service, graph, seed):
    """Patch ``context`` to ``graph`` and check it against a cold rebuild."""
    delta = SchemaDelta.between(context.graph, graph)
    reference = reference_between(context.graph, graph)
    assert delta.added_vertices == reference.added_vertices
    assert delta.removed_vertices == reference.removed_vertices
    # same edges; here (no two edges print alike) even the same tuples
    assert edge_set(delta.added_edges) == edge_set(reference.added_edges)
    assert edge_set(delta.removed_edges) == edge_set(reference.removed_edges)
    assert delta.added_edges == reference.added_edges
    assert delta.removed_edges == reference.removed_edges

    patched = context.apply_delta(delta)
    cold = SchemaContext(graph)
    assert patched.graph == cold.graph
    assert patched.indexed == cold.indexed
    assert list(patched.index.labels) == list(cold.index.labels)
    assert patched.report == cold.report
    if fingerprint_is_ambiguous(cold.fingerprint):
        assert fingerprint_is_ambiguous(patched.fingerprint)
        assert fingerprint_is_ambiguous(schema_fingerprint(graph))
        assert digest_is_ambiguous(patched.digest)
    else:
        assert patched.fingerprint == cold.fingerprint == schema_fingerprint(graph)
        assert patched.digest == schema_digest(patched.graph)
        assert patched.digest == hashlib.sha256(patched.fingerprint).hexdigest()
    records = [edges for edges, _, _ in patched._records.records.values()]
    assert block_set(records) == block_set(biconnected_edge_blocks(graph))
    assert sum(map(len, records)) == graph.number_of_edges()

    fresh_service = ConnectionService(schema=graph.copy())
    for terminals in queries(graph, seed):
        assert digest_result_object(service.connect(terminals)) == digest_result_object(
            fresh_service.connect(terminals)
        )
    assert service.cache_stats()["rebind_fallbacks"] == 0
    return patched


def run_transactions(graph, transactions, seed):
    """Apply each transaction's cases in order, checking after each one.

    Returns the names of the cases that applied.
    """
    rng = random.Random(seed)
    fresh = itertools.count(1)
    context = SchemaContext(graph)
    context.report
    service = ConnectionService(schema=graph)
    for terminals in queries(graph, seed):
        service.connect(terminals)
    applied = []
    for names in transactions:
        state = {"alias": False, "flipped": set()}
        with SchemaEditor(graph) as tx:
            for name in names:
                if CASES[name](graph, tx, rng, fresh, state):
                    applied.append(name)
        context = check_rebind(context, service, graph, seed)
    return applied


FAMILIES = {
    "62-chordal": lambda seed: random_62_chordal_graph(3 + seed % 4, rng=seed),
    "alpha": lambda seed: random_alpha_schema_graph(4 + seed % 5, rng=seed),
}

transactions = st.lists(
    st.lists(st.sampled_from(sorted(CASES)), min_size=1, max_size=3),
    min_size=1,
    max_size=5,
)


@SETTINGS
@given(graph=chordal_bipartite_graphs(), steps=transactions, seed=st.integers(0, 2**16))
def test_rebind_matches_cold_on_chordal_bipartite_graphs(graph, steps, seed):
    run_transactions(graph, steps, seed)


@SETTINGS
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    steps=transactions,
    seed=st.integers(0, 2**16),
)
def test_rebind_matches_cold_on_generated_schemas(family, steps, seed):
    run_transactions(FAMILIES[family](seed), steps, seed)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_each_edit_case_alone(case, family):
    for seed in range(3):
        setup = [[name] for name in SETUP.get(case, [])]
        applied = run_transactions(FAMILIES[family](seed), setup + [[case]], seed)
        assert applied[-1] == case, f"{case} did not apply on {family} seed {seed}"


def test_merge_follows_the_block_cut_path():
    # a chain of three 4-cycles glued at cut vertices; joining its two
    # ends merges exactly the three blocks into one
    graph = BipartiteGraph()
    chain = [("l", 0)]
    for index in range(3):
        start = chain[-1]
        a, b, end = ("r", 2 * index), ("r", 2 * index + 1), ("l", index + 1)
        for vertex in (a, b):
            graph.add_to_side(vertex, 2)
        graph.add_to_side(start, 1)
        graph.add_to_side(end, 1)
        for vertex in (a, b):
            graph.add_edge(start, vertex)
            graph.add_edge(vertex, end)
        chain.append(end)
    graph.add_to_side(("r", "tail"), 2)
    graph.add_edge(chain[-1], ("r", "tail"))
    context = SchemaContext(graph)
    context.report
    records = context._block_records()
    assert len(records.records) == 4
    with SchemaEditor(graph) as tx:
        tx.add_edge(chain[0], ("r", "tail"))
    patched = context.apply_delta(SchemaDelta.between(context.graph, graph))
    blocks = [edges for edges, _, _ in patched._records.records.values()]
    assert [len(edges) for edges in blocks] == [14]
    assert block_set(blocks) == block_set(biconnected_edge_blocks(graph))


def test_an_edit_that_makes_two_tokens_collide_gives_an_ambiguous_key():
    # the isolated int 1 is removed through the equal float 1.0 while a
    # twin of an existing Alias is added: the vertex count holds, and the
    # edited graph is ambiguous
    first, second = Alias(), Alias()
    graph = BipartiteGraph(left=[1, "a"], right=[first, "b"], edges=[("a", "b")])
    context = SchemaContext(graph)
    assert not fingerprint_is_ambiguous(context.fingerprint)
    delta = SchemaDelta(removed_vertices=((1.0, 1),), added_vertices=((second, 2),))
    edited = delta.apply_to(graph.copy())
    assert edited.number_of_vertices() == graph.number_of_vertices()
    patched = context.apply_delta(delta)
    assert fingerprint_is_ambiguous(patched.fingerprint)
    assert digest_is_ambiguous(patched.digest)
    assert fingerprint_is_ambiguous(schema_fingerprint(edited))


def test_a_token_is_reused_only_for_the_same_object():
    # 1.0 replaces the equal int 1: the parent's token names an int, so
    # reusing it by equality would key the edited graph as the old one
    graph = BipartiteGraph(left=[1, "a"], right=["b"], edges=[("a", "b")])
    context = SchemaContext(graph)
    delta = SchemaDelta(removed_vertices=((1, 1),), added_vertices=((1.0, 1),))
    edited = delta.apply_to(graph.copy())
    patched = context.apply_delta(delta)
    assert patched.fingerprint == SchemaContext(edited).fingerprint
    assert patched.fingerprint != context.fingerprint
