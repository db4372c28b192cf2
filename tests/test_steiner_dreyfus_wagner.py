"""The id-space Dreyfus-Wagner solver against its label-space reference.

``steiner_tree_dreyfus_wagner`` runs the dynamic program on integer ids
from the terminals' BFS rows, with a bucket-BFS extension per subset.
Its tie-break rules are chosen so that it returns the *same tree* as the
classical formulation kept in ``steiner_reference.py``.  This suite pins
that, and the engine wiring around it:

* hypothesis differentials on three label-graph families, comparing
  tree vertices, tree edges and the DP cost, and the exception type on
  invalid or split terminal sets, plus a seeded sweep of int-labelled
  dense random graphs where the extension tie-break shows;
* deterministic cases on a 60-relation alpha-acyclic schema (the size the
  engine serves), against the reference and, where the optimum uses at
  most two Steiner vertices, against exhaustive search;
* the registry path: it reads the distance oracle's rows, never a
  label-space BFS, and a second query sharing terminals hits the oracle.
"""

import random
import sys

import pytest
from hypothesis import given, strategies as st
from steiner_reference import reference_dreyfus_wagner
from strategies import (
    bipartite_graphs,
    chordal_bipartite_graphs,
    common_settings,
    connected_graphs,
)

from repro.datasets.generators import random_alpha_schema_graph, random_terminals
from repro.engine.cache import SchemaContext
from repro.engine.registry import default_registry
from repro.exceptions import DisconnectedTerminalsError, ValidationError
from repro.graphs import BipartiteGraph, random_graph
from repro.graphs.traversal import bfs_distances
from repro.steiner import steiner_tree_bruteforce, steiner_tree_dreyfus_wagner

FAMILIES = {
    "bipartite": bipartite_graphs(),
    "chordal-bipartite": chordal_bipartite_graphs(),
    "connected": connected_graphs(),
}


def outcome(solver, graph, terminals):
    """What a solver returns, reduced to the compared fields (or its error type)."""
    try:
        solution = solver(graph, terminals)
    except (ValidationError, DisconnectedTerminalsError) as error:
        return type(error)
    return (
        solution.tree.vertices(),
        solution.tree.edge_set(),
        solution.metadata.get("dp_cost_edges"),
    )


def assert_matches_reference(graph, terminals):
    expected = outcome(reference_dreyfus_wagner, graph, terminals)
    assert outcome(steiner_tree_dreyfus_wagner, graph, terminals) == expected
    return expected


# ----------------------------------------------------------------------
# hypothesis differentials
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
@common_settings(max_examples=40)
@given(data=st.data())
def test_same_tree_as_reference(family, data):
    graph = data.draw(FAMILIES[family])
    vertices = graph.sorted_vertices()
    size = data.draw(st.integers(min_value=0, max_value=min(6, len(vertices))))
    terminals = data.draw(
        st.lists(st.sampled_from(vertices), min_size=size, max_size=size, unique=True)
    )
    if data.draw(st.integers(min_value=0, max_value=9)) == 0:
        terminals.append("missing")  # not a vertex: ValidationError on both sides
    assert_matches_reference(graph, terminals)


def test_same_tree_as_reference_on_dense_random_graphs():
    """Dense graphs of 10-14 vertices, where the extension tie-break shows.

    The choice of where an extension starts only changes the tree when
    several shortest paths tie in a specific way.  The small hypothesis
    families almost never produce that; this sweep does, for both halves
    of the rule (an ancestor below ``v``, else the smallest merge-cost
    ancestor).
    """
    for seed in range(600):
        rng = random.Random(seed)
        n = rng.randint(10, 14)
        graph = random_graph(n, rng.uniform(0.25, 0.5), rng=rng)
        terminals = rng.sample(range(n), rng.randint(3, 6))
        assert_matches_reference(graph, terminals)


def test_split_terminals_raise_on_both_paths():
    graph = BipartiteGraph(left=["a", "c"], right=["b", "d"], edges=[("a", "b"), ("c", "d")])
    for solver in (reference_dreyfus_wagner, steiner_tree_dreyfus_wagner):
        with pytest.raises(DisconnectedTerminalsError):
            solver(graph, ["a", "d"])
    context = SchemaContext(graph)
    with pytest.raises(DisconnectedTerminalsError):
        default_registry().get("dreyfus-wagner")(context, ["a", "d"])
    with pytest.raises(ValidationError):
        default_registry().get("dreyfus-wagner")(context, ["a", "zz"])


# ----------------------------------------------------------------------
# engine-sized schemas
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def alpha_schema():
    return random_alpha_schema_graph(60, rng=3)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_same_tree_as_reference_on_alpha_schema(alpha_schema, k):
    context = SchemaContext(alpha_schema)
    solve = default_registry().get("dreyfus-wagner")
    rng = random.Random(k)
    for _ in range(2):
        terminals = random_terminals(alpha_schema, k, rng=rng)
        expected = assert_matches_reference(alpha_schema, terminals)
        assert outcome(solve, context, terminals) == expected


def _ball(graph, center, radius):
    distances = bfs_distances(graph, center)
    return sorted((v for v, d in distances.items() if d <= radius), key=repr)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_cost_matches_exhaustive_search_on_alpha_schema(alpha_schema, k):
    """Exhaustive search certifies the optimum independently of the DP.

    It is only tractable on a 175-vertex schema when the optimum needs few
    Steiner vertices, so terminals are drawn from radius-2 balls and the
    search is capped at two Steiner vertices; a draw whose optimum needs
    more is skipped, and every ``k`` must certify at least two draws.
    """
    rng = random.Random(100 + k)
    vertices = alpha_schema.sorted_vertices()
    certified = 0
    for _ in range(40):
        ball = _ball(alpha_schema, rng.choice(vertices), 2)
        if len(ball) < k:
            continue
        terminals = rng.sample(ball, k)
        try:
            exhaustive = steiner_tree_bruteforce(alpha_schema, terminals, max_extra=2)
        except DisconnectedTerminalsError:
            continue  # the optimum needs more than two Steiner vertices
        solution = steiner_tree_dreyfus_wagner(alpha_schema, terminals)
        solution.validate()
        assert solution.vertex_count() == exhaustive.vertex_count()
        assert solution.metadata["dp_cost_edges"] == exhaustive.vertex_count() - 1
        certified += 1
        if certified == 2:
            break
    assert certified == 2


# ----------------------------------------------------------------------
# the registry path: oracle rows, no label-space BFS
# ----------------------------------------------------------------------
def test_registry_path_reads_oracle_rows_not_label_bfs(monkeypatch):
    schema = random_alpha_schema_graph(20, rng=5)
    context = SchemaContext(schema)
    solve = default_registry().get("dreyfus-wagner")
    rng = random.Random(1)
    first = random_terminals(schema, 4, rng=rng)
    extra = next(v for v in schema.sorted_vertices() if v not in first)
    second = first + [extra]
    expected = [outcome(reference_dreyfus_wagner, schema, q) for q in (first, second)]

    def label_bfs(*args, **kwargs):
        raise AssertionError("the registry path ran a label-space BFS")

    # every module-level binding of the label-space BFS (repro.steiner.exact
    # would be among them, should it ever import the name again)
    for module in list(sys.modules.values()):
        if getattr(module, "bfs_distances", None) is bfs_distances:
            monkeypatch.setattr(module, "bfs_distances", label_bfs)

    assert outcome(solve, context, first) == expected[0]
    stats = context.distance_oracle.stats
    hits, misses = stats.hits, stats.misses
    assert misses >= len(first) - 1  # one row per non-root terminal
    assert outcome(solve, context, second) == expected[1]
    assert stats.hits > hits
