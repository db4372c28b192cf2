"""Blockwise incremental classification == monolithic Theorem 1 recognition.

The dynamic subsystem's load-bearing claim is that every field of
``ChordalityReport`` decomposes over biconnected blocks; this suite pins
it property-based on arbitrary bipartite graphs, pins the context-level
equivalence of ``SchemaContext.apply_delta`` against fresh rebuilds along
random edit histories, and covers the block mechanics: an edit
classifies exactly the blocks it created.
"""

import itertools
import random

from hypothesis import given, strategies as st

from strategies import COMMON_SETTINGS, bipartite_graphs, chordal_bipartite_graphs

from repro.core.classification import FOREST_REPORT, classify_bipartite_graph
from repro.dynamic import (
    BlockClassifier,
    SchemaDelta,
    SchemaEditor,
    biconnected_edge_blocks,
    block_subgraph,
    combine_reports,
)
from repro.engine.cache import SchemaContext
from repro.graphs import BipartiteGraph


# ----------------------------------------------------------------------
# the decomposition theorem, property-based
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(graph=bipartite_graphs(max_left=5, max_right=5))
def test_blockwise_report_equals_monolithic(graph):
    assert BlockClassifier().classify(graph) == classify_bipartite_graph(graph)


@COMMON_SETTINGS
@given(graph=chordal_bipartite_graphs(max_blocks=5))
def test_blockwise_report_equals_monolithic_on_chordal_schemas(graph):
    assert BlockClassifier().classify(graph) == classify_bipartite_graph(graph)


@COMMON_SETTINGS
@given(graph=bipartite_graphs(max_left=4, max_right=4))
def test_blocks_partition_the_edge_set(graph):
    blocks = biconnected_edge_blocks(graph)
    seen = set()
    for edges in blocks:
        for u, v in edges:
            key = frozenset((u, v))
            assert key not in seen, "an edge appeared in two blocks"
            seen.add(key)
    assert seen == graph.edge_set()


def test_blocks_of_known_shapes():
    # a path is all bridges; a cycle is one block
    path = BipartiteGraph(left=["a"], right=["b"], edges=[("a", "b")])
    path.add_edge("c", "b")
    assert sorted(len(b) for b in biconnected_edge_blocks(path)) == [1, 1]
    cycle = BipartiteGraph(
        left=["l1", "l2"], right=["r1", "r2"],
        edges=[("l1", "r1"), ("r1", "l2"), ("l2", "r2"), ("r2", "l1")],
    )
    assert [len(b) for b in biconnected_edge_blocks(cycle)] == [4]


def test_block_subgraph_preserves_sides():
    graph = BipartiteGraph(
        left=["A", "B"], right=[1, 2],
        edges=[("A", 1), ("B", 1), ("A", 2), ("B", 2)],
    )
    (edges,) = biconnected_edge_blocks(graph)
    block = block_subgraph(graph, edges)
    assert isinstance(block, BipartiteGraph)
    assert block.left() == {"A", "B"} and block.right() == {1, 2}


def test_combine_reports_of_nothing_is_all_true():
    assert combine_reports([]) == FOREST_REPORT
    # and an edgeless graph really classifies all-true monolithically
    edgeless = BipartiteGraph(left=["A"], right=[1])
    assert classify_bipartite_graph(edgeless) == FOREST_REPORT


def test_block_memo_skips_surviving_blocks():
    graph = chordal_fixture()
    context = SchemaContext(graph)
    context.report
    classifier = context._blocks
    cold = classifier.stats()["blocks_classified"]
    assert cold == len(biconnected_edge_blocks(graph))
    # a pendant edit adds one new (bridge) block; the block records keep
    # every other block's report
    with SchemaEditor(graph) as tx:
        tx.add_vertex(("churn", 1), side=1)
        tx.add_edge(("churn", 1), sorted(graph.right(), key=repr)[0])
    patched = context.apply_delta(SchemaDelta.between(context.graph, graph))
    assert classifier.stats()["blocks_classified"] == cold + 1
    assert patched.report == classify_bipartite_graph(graph)


def test_ambiguous_blocks_are_classified_but_never_memoised():
    class Constant:
        def __repr__(self):
            return "<x>"

    a, b = Constant(), Constant()
    graph = BipartiteGraph()
    graph.add_left(a)
    graph.add_right(b)
    graph.add_edge(a, b)
    classifier = BlockClassifier()
    first = classifier.classify(graph)
    second = classifier.classify(graph)
    assert first == second == classify_bipartite_graph(graph)


# ----------------------------------------------------------------------
# context-level equivalence along edit histories
# ----------------------------------------------------------------------
def chordal_fixture(blocks=8, rng=5):
    from repro.datasets.generators import random_62_chordal_graph

    return random_62_chordal_graph(blocks, rng=rng)


def random_edit(graph, rng, fresh):
    """Apply one random single-edit transaction (the churn edit mix)."""
    kind = rng.choice(["pendant", "drop-edge", "prune", "isolated"])
    if kind == "pendant":
        anchor = rng.choice(graph.sorted_vertices())
        with SchemaEditor(graph) as tx:
            vertex = ("e", next(fresh))
            tx.add_vertex(vertex, side=3 - graph.side_of(anchor))
            tx.add_edge(vertex, anchor)
    elif kind == "drop-edge":
        edges = sorted(
            (tuple(sorted(e, key=repr)) for e in graph.edges()), key=repr
        )
        if not edges:
            return random_edit(graph, rng, fresh)
        u, v = rng.choice(edges)
        with SchemaEditor(graph) as tx:
            tx.remove_edge(u, v)
    elif kind == "prune":
        leaves = [v for v in graph.sorted_vertices() if graph.degree(v) == 1]
        if not leaves:
            return random_edit(graph, rng, fresh)
        with SchemaEditor(graph) as tx:
            tx.remove_vertex(rng.choice(leaves))
    else:
        with SchemaEditor(graph) as tx:
            tx.add_vertex(("e", next(fresh)), side=rng.choice([1, 2]))


@COMMON_SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_apply_delta_chain_matches_fresh_context(seed):
    rng = random.Random(seed)
    graph = chordal_fixture(blocks=rng.randint(2, 6), rng=seed)
    context = SchemaContext(graph)
    context.report
    fresh = itertools.count(1)
    for _ in range(4):
        random_edit(graph, rng, fresh)
        delta = SchemaDelta.between(context.graph, graph)
        context = context.apply_delta(delta)
        rebuilt = SchemaContext(graph)
        assert context.graph == rebuilt.graph
        assert context.indexed == rebuilt.indexed
        assert list(context.index.labels) == list(rebuilt.index.labels)
        assert context.report == rebuilt.report


def test_apply_delta_reuses_index_for_edge_only_deltas():
    graph = chordal_fixture()
    context = SchemaContext(graph)
    context.report
    u = sorted(graph.left(), key=repr)[0]
    v = sorted(graph.right(), key=repr)[-1]
    with SchemaEditor(graph) as tx:
        (tx.remove_edge if graph.has_edge(u, v) else tx.add_edge)(u, v)
    patched = context.apply_delta(SchemaDelta.between(context.graph, graph))
    assert patched.index is context.index  # labels untouched: no re-indexing
    assert patched.indexed == SchemaContext(graph).indexed


def test_apply_delta_classifies_only_created_blocks_down_the_chain():
    graph = chordal_fixture()
    context = SchemaContext(graph)
    context.report
    classifier = context._blocks
    # the cold report classified every block once
    assert classifier.stats()["blocks_classified"] == len(biconnected_edge_blocks(graph))
    fresh = itertools.count(1)
    rng = random.Random(1)

    def block_set(g):
        return {frozenset(map(frozenset, edges)) for edges in biconnected_edge_blocks(g)}

    created_records = 0
    for _ in range(3):
        blocks_before = block_set(graph)
        random_edit(graph, rng, fresh)
        before = classifier.stats()["blocks_classified"]
        context = context.apply_delta(SchemaDelta.between(context.graph, graph))
        after = classifier.stats()["blocks_classified"]
        # the classifier travels down the chain, and each edit classifies
        # one block per block record it created, none it left alone
        assert context._blocks is classifier
        records = block_set(graph) - blocks_before
        assert after - before == len(records)
        created_records += len(records)
    assert created_records > 0


def test_apply_delta_does_not_disturb_the_source_context():
    graph = chordal_fixture()
    context = SchemaContext(graph)
    before_graph = context.graph.copy()
    before_report = context.report
    with SchemaEditor(graph) as tx:
        tx.add_vertex(("e", 1), side=1)
        tx.add_edge(("e", 1), sorted(graph.right(), key=repr)[0])
    context.apply_delta(SchemaDelta.between(context.graph, graph))
    assert context.graph == before_graph
    assert context.report == before_report
