"""The engine's id-space answer trees against their label-space definitions.

Every engine solver finds its cover on CSR ids and builds the answer tree
there too (``repro.graphs.indexed.indexed_pruned_tree``), decoding labels
once.  Ids follow ``repr`` order, so the trees must equal the label-space
formulations exactly -- the same vertex set and the same edge set.  This
suite pins that:

* chordal-elimination and algorithm1-indexed trees equal
  ``prune_non_terminal_leaves(spanning_tree(graph.subgraph(cover)), terminals)``
  for the solution's own ``metadata["cover"]``;
* ``steiner_tree_dreyfus_wagner`` equals ``reference_dreyfus_wagner``;
* ``kou_markowsky_berman`` on the label graph, and ``solve_kmb`` on a warm
  context, equal ``reference_kou_markowsky_berman``;
* a single terminal, an adjacent pair, and disconnected or unknown
  terminals keep their exception types;
* a warm solve runs no label-space graph code at all;
* the chordal elimination's seed-local cover equals
  ``indexed_elimination_cover`` restricted to the seed.

The families are (6,2)-chordal block trees, V2-alpha schema graphs and
unrestricted bipartite graphs.
"""

import random

import pytest
from hypothesis import given, strategies as st
from steiner_reference import reference_dreyfus_wagner, reference_kou_markowsky_berman
from strategies import (
    alpha_schema_graphs,
    bipartite_graphs,
    chordal_bipartite_graphs,
    common_settings,
    draw_terminals,
)

from repro.datasets.generators import random_alpha_schema_graph, random_terminals
from repro.engine.cache import SchemaContext
from repro.engine.registry import _eliminate_within, default_registry, solve_kmb
from repro.exceptions import (
    DisconnectedTerminalsError,
    GraphError,
    NotApplicableError,
    ValidationError,
)
from repro.graphs import BipartiteGraph, Graph, random_graph
from repro.graphs.indexed import (
    edge_adjacency,
    indexed_elimination_cover,
    indexed_pruned_tree,
    parent_path_edges,
)
from repro.graphs.spanning import spanning_tree
from repro.steiner import kou_markowsky_berman, steiner_tree_dreyfus_wagner
from repro.steiner.problem import prune_non_terminal_leaves

SETTINGS = common_settings(max_examples=25)

FAMILIES = {
    "62-chordal": chordal_bipartite_graphs(),
    "v2-alpha": alpha_schema_graphs(),
    "bipartite": bipartite_graphs(),
}

#: (registry name, keyword arguments) of the solvers whose tree is a
#: pruned spanning tree of their reported cover
COVER_SOLVERS = (
    ("chordal-elimination", {}),
    ("algorithm1-indexed", {"side": 1}),
    ("algorithm1-indexed", {"side": 2}),
)


def tree_shape(tree):
    return tree.vertices(), tree.edge_set()


def shape(solution):
    return tree_shape(solution.tree)


def draw_instance(data, family, queries=2):
    """A graph, a few feasible terminal sets, and a context on the graph."""
    graph = data.draw(FAMILIES[family])
    terminal_sets = [
        sorted(draw_terminals(data.draw, graph, max_terminals=5), key=repr)
        for _ in range(queries)
    ]
    context = SchemaContext(graph)
    return graph, terminal_sets, context


# ----------------------------------------------------------------------
# hypothesis differentials, per family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
@SETTINGS
@given(data=st.data())
def test_cover_solver_trees_are_pruned_spanning_trees_of_the_cover(family, data):
    graph, terminal_sets, context = draw_instance(data, family)
    registry = default_registry()
    for terminals in terminal_sets:
        for name, kwargs in COVER_SOLVERS:
            try:
                solution = registry.get(name)(context, terminals, **kwargs)
            except NotApplicableError:
                continue  # Algorithm 1 outside its class
            cover = solution.metadata["cover"]
            expected = prune_non_terminal_leaves(
                spanning_tree(graph.subgraph(cover)), terminals
            )
            assert shape(solution) == tree_shape(expected)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@SETTINGS
@given(data=st.data())
def test_dreyfus_wagner_equals_reference(family, data):
    graph, terminal_sets, context = draw_instance(data, family)
    solve = default_registry().get("dreyfus-wagner")
    for terminals in terminal_sets:
        expected = shape(reference_dreyfus_wagner(graph, terminals))
        assert shape(steiner_tree_dreyfus_wagner(graph, terminals)) == expected
        assert shape(solve(context, terminals)) == expected


@pytest.mark.parametrize("family", sorted(FAMILIES))
@SETTINGS
@given(data=st.data())
def test_kmb_equals_reference(family, data):
    graph, terminal_sets, context = draw_instance(data, family)
    expected = [
        shape(reference_kou_markowsky_berman(graph, terminals))
        for terminals in terminal_sets
    ]
    for terminals, tree in zip(terminal_sets, expected):
        assert shape(kou_markowsky_berman(graph, terminals)) == tree
        solve_kmb(context, terminals)
    # warm: every level and parent row the queries need is cached now
    misses = context.distance_oracle.stats.misses
    for terminals, tree in zip(terminal_sets, expected):
        assert shape(solve_kmb(context, terminals)) == tree
    assert context.distance_oracle.stats.misses == misses


def test_kmb_equals_reference_on_dense_random_graphs():
    """Dense graphs of 10-14 vertices, where KMB's tie-breaks show.

    Prim's ``(d, u, v)`` ties and the parent-row paths only change the
    tree when several closure edges or shortest paths tie; the small
    families rarely produce that, this sweep often does.  Integer labels
    of ten and more sort differently by ``repr`` than by value, so the
    ids are not the labels here.
    """
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(10, 14)
        graph = random_graph(n, rng.uniform(0.25, 0.5), rng=rng)
        terminals = rng.sample(range(n), rng.randint(3, 6))
        try:
            expected = shape(reference_kou_markowsky_berman(graph, terminals))
        except DisconnectedTerminalsError:
            with pytest.raises(DisconnectedTerminalsError):
                kou_markowsky_berman(graph, terminals)
            continue
        assert shape(kou_markowsky_berman(graph, terminals)) == expected, seed


@pytest.mark.parametrize("k", [9, 10])
def test_solve_kmb_equals_reference_on_alpha_schema(k):
    """The sizes the planner sends to KMB, on a 60-relation alpha schema."""
    schema = random_alpha_schema_graph(60, rng=3)
    context = SchemaContext(schema)
    rng = random.Random(k)
    for _ in range(6):
        terminals = random_terminals(schema, k, rng=rng)
        expected = shape(reference_kou_markowsky_berman(schema, terminals))
        assert shape(solve_kmb(context, terminals)) == expected


# ----------------------------------------------------------------------
# edge cases: exception types and the smallest answers
# ----------------------------------------------------------------------
def _split_schema():
    """Two components: l0-r0-l1 and l2-r2."""
    return BipartiteGraph(
        left=["l0", "l1", "l2"],
        right=["r0", "r2"],
        edges=[("l0", "r0"), ("l1", "r0"), ("l2", "r2")],
    )


def _all_solvers(graph):
    """Every id-space entry point, each as ``terminals -> solution``."""
    context = SchemaContext(graph)
    registry = default_registry()
    return {
        "chordal-elimination": lambda ts: registry.get("chordal-elimination")(context, ts),
        "algorithm1-indexed": lambda ts: registry.get("algorithm1-indexed")(context, ts, side=1),
        "dreyfus-wagner": lambda ts: registry.get("dreyfus-wagner")(context, ts),
        "kmb": lambda ts: solve_kmb(context, ts),
        "public-dw": lambda ts: steiner_tree_dreyfus_wagner(graph, ts),
        "public-kmb": lambda ts: kou_markowsky_berman(graph, ts),
        "reference-dw": lambda ts: reference_dreyfus_wagner(graph, ts),
        "reference-kmb": lambda ts: reference_kou_markowsky_berman(graph, ts),
    }


def test_single_terminal_and_adjacent_pair():
    graph = _split_schema()
    for name, solve in _all_solvers(graph).items():
        assert shape(solve(["r0"])) == ({"r0"}, set()), name
        assert shape(solve(["l1", "r0"])) == (
            {"l1", "r0"},
            {frozenset(("l1", "r0"))},
        ), name


@pytest.mark.parametrize(
    "terminals, error",
    [
        (["l0", "l2"], DisconnectedTerminalsError),
        (["l0", "missing"], ValidationError),
        ([], ValidationError),
    ],
)
def test_invalid_terminals_keep_their_exception_types(terminals, error):
    for name, solve in _all_solvers(_split_schema()).items():
        with pytest.raises(error):
            solve(terminals)


def test_tree_helper_keeps_spanning_trees_checks():
    labels = ["a", "b", "c", "d"]
    path = {0: [1], 1: [0, 2], 2: [1]}
    tree = indexed_pruned_tree(path, [0, 2], labels)
    assert tree_shape(tree) == (
        {"a", "b", "c"},
        {frozenset("ab"), frozenset("bc")},
    )
    assert tree_shape(indexed_pruned_tree(path, [1], labels)) == ({"b"}, set())
    with pytest.raises(GraphError):  # not connected
        indexed_pruned_tree({0: [1], 1: [0], 3: []}, [0], labels)
    with pytest.raises(GraphError):  # terminal outside the cover
        indexed_pruned_tree(path, [0, 3], labels)


def test_parent_path_edges_and_edge_adjacency():
    parents = [0, 0, 1, 1]  # BFS from 0 over 0-1, 1-2, 1-3
    assert list(parent_path_edges(parents, 0, 3)) == [(1, 3), (0, 1)]
    assert list(parent_path_edges(parents, 0, 0)) == []
    assert edge_adjacency([(1, 3), (0, 1), (3, 1)]) == {0: [1], 1: [0, 3], 3: [1]}


# ----------------------------------------------------------------------
# labels only at the boundary
# ----------------------------------------------------------------------
def test_warm_solves_run_no_label_space_graph_code(monkeypatch):
    schema = random_alpha_schema_graph(20, rng=5)
    context = SchemaContext(schema)
    registry = default_registry()
    rng = random.Random(2)
    small = random_terminals(schema, 4, rng=rng)
    large = random_terminals(schema, 9, rng=rng)
    calls = [
        ("chordal-elimination", small, {}),
        ("algorithm1-indexed", small, {"side": 2}),
        ("dreyfus-wagner", small, {}),
        ("kmb", large, {}),
    ]
    expected = [shape(registry.get(name)(context, ts, **kw)) for name, ts, kw in calls]

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm solve ran label-space graph code")

    monkeypatch.setattr(Graph, "subgraph", forbidden)
    monkeypatch.setattr(BipartiteGraph, "subgraph", forbidden)
    for module in (
        "repro.engine.registry",
        "repro.steiner.exact",
        "repro.steiner.heuristics",
    ):
        monkeypatch.setattr(f"{module}.spanning_tree", forbidden)
        monkeypatch.setattr(f"{module}.prune_non_terminal_leaves", forbidden)
    monkeypatch.setattr("repro.steiner.heuristics.shortest_path", forbidden)
    monkeypatch.setattr("repro.steiner.heuristics.bfs_distances", forbidden)
    for (name, ts, kw), tree in zip(calls, expected):
        assert shape(registry.get(name)(context, ts, **kw)) == tree


# ----------------------------------------------------------------------
# seed-local elimination
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
@SETTINGS
@given(data=st.data())
def test_seed_local_cover_equals_the_restricted_elimination(family, data):
    graph, terminal_sets, context = draw_instance(data, family)
    indexed = context.indexed
    for terminals in terminal_sets:
        if not terminals:
            continue
        ids = sorted(context.index.encode(terminals))
        parents = context.distance_oracle.parents(ids[0])
        seed = set(ids)
        for terminal in ids:
            while terminal != ids[0]:
                terminal = parents[terminal]
                seed.add(terminal)
        rows = _eliminate_within(indexed, seed, ids)
        assert set(rows) == indexed_elimination_cover(indexed, ids, restrict=seed)
        assert rows == {v: [u for u in indexed.row(v) if u in rows] for v in rows}
