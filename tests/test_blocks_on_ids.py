"""Blocks on ids: one Hopcroft--Tarjan pass, one block-cut forest per context.

``repro.dynamic.blocks`` keeps a schema's biconnected blocks on CSR ids:
``edge_blocks`` is the one Hopcroft--Tarjan pass, ``biconnected_edge_blocks``
decodes it for a label graph, ``BlockClassifier`` classifies each block
from CSR slices, and a context's ``BlockRecords`` feed the one
``BlockCutTree`` that every side plan of the context reads.  This suite
pins:

* the block partition against its definition -- two edges lie in one
  block iff no vertex separates them -- on general, (6,2)-chordal and
  alpha bipartite graphs, plain graphs, graphs with isolated vertices and
  graphs whose vertices tie on ``repr``;
* the block list that perfbench's schema-churn picks its edited edge
  from: SHA-256 goldens of ``repr(biconnected_edge_blocks(g))`` recorded
  on the label-space pass that the id pass replaced;
* each block's report against ``classify_bipartite_graph`` of the block's
  label subgraph;
* one block-cut forest per context version, read by the plans of both
  sides, with no block decomposition of their own, also when the report
  came from disk.

``tests/test_rebind_local.py`` checks the records and the forest after
every edit, vertex churn included.
"""

import doctest
import hashlib
import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from strategies import (
    COMMON_SETTINGS,
    alpha_schema_graphs,
    bipartite_graphs,
    chordal_bipartite_graphs,
    small_graphs,
)
from test_rebind_local import Twin

import repro.dynamic.blocks
from repro.core.classification import FOREST_REPORT, classify_bipartite_graph
from repro.datasets.generators import random_alpha_schema_graph
from repro.dynamic import biconnected_edge_blocks
from repro.engine.cache import SchemaContext
from repro.graphs import Graph
from repro.graphs.traversal import connected_components

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def reference_blocks(graph):
    """The blocks by definition: edge classes that no vertex separates.

    Two edges lie in one block iff, for every vertex ``w``, their
    endpoints other than ``w`` stay in one component of ``G - w``.
    """
    component_of = {}
    for w in graph.vertices():
        rest = graph.copy()
        rest.remove_vertex(w)
        component_of[w] = {
            vertex: number
            for number, component in enumerate(connected_components(rest))
            for vertex in component
        }

    def together(e, f):
        return all(
            len({labels[v] for v in (*e, *f) if v != w}) <= 1
            for w, labels in component_of.items()
        )

    edges = [tuple(edge) for edge in graph.edges()]
    return {frozenset(frozenset(f) for f in edges if together(e, f)) for e in edges}


def block_set(blocks):
    return {frozenset(map(frozenset, edges)) for edges in blocks}


def assert_blocks_are_the_definition(graph):
    blocks = biconnected_edge_blocks(graph)
    assert block_set(blocks) == reference_blocks(graph)
    assert sum(map(len, blocks)) == graph.number_of_edges()
    for block in blocks:
        assert all(graph.has_edge(u, v) for u, v in block)


def at_most_nine(graphs):
    return graphs.filter(lambda graph: graph.number_of_vertices() <= 9)


@COMMON_SETTINGS
@given(
    at_most_nine(
        st.one_of(
            bipartite_graphs(max_left=4, max_right=5),
            chordal_bipartite_graphs(max_blocks=3, max_left=2, max_right=2),
            alpha_schema_graphs(max_relations=3),
        )
    )
)
def test_blocks_of_bipartite_graphs_are_the_definition(graph):
    assert_blocks_are_the_definition(graph)


@COMMON_SETTINGS
@given(small_graphs(max_vertices=9))
def test_blocks_of_plain_graphs_are_the_definition(graph):
    assert_blocks_are_the_definition(graph)


@COMMON_SETTINGS
@given(small_graphs(max_vertices=6), st.integers(1, 3))
def test_isolated_vertices_lie_in_no_block(graph, isolated):
    for number in range(isolated):
        graph.add_vertex(("isolated", number))
    assert_blocks_are_the_definition(graph)
    assert not any(
        isinstance(vertex, tuple) for block in biconnected_edge_blocks(graph)
        for edge in block for vertex in edge
    )


@st.composite
def repr_tie_graphs(draw, max_vertices=9):
    """Plain graphs on tuples and ``Twin``s of them: pairs that tie on ``repr``."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    vertices = [("t", i // 2) if i % 2 == 0 else Twin(("t", i // 2)) for i in range(n)]
    graph = Graph(vertices=vertices)
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                graph.add_edge(vertices[i], vertices[j])
    return graph


@COMMON_SETTINGS
@given(repr_tie_graphs())
def test_blocks_of_graphs_whose_reprs_tie_are_the_definition(graph):
    assert_blocks_are_the_definition(graph)


# ----------------------------------------------------------------------
# the block list perfbench's schema-churn picks its edited edge from
# ----------------------------------------------------------------------
#: SHA-256 of ``repr(biconnected_edge_blocks(build(random.Random(seed))))``,
#: recorded with the label-space Hopcroft--Tarjan pass that the id pass
#: replaced: the list, its order and each edge's orientation must not move.
BLOCK_LIST_GOLDEN = {
    ("standing_chordal_schema", 0): "0a15c6da628183a33ce91674af5c6012bfabff4b558f9076c11d5ac7ece40c95",
    ("standing_chordal_schema", 1): "5d885bcb3625b96e19cfaa879c946ddf0efbaad3feebe977a6768c9a0ea1b34a",
    ("standing_chordal_schema", 2): "a8ba40f8a6261be3c14d439070c9cca7a94cd375b42c2e2f2baea9b6550212c8",
    ("cold_chordal_schema", 0): "28263406db3b49b61416d4aff651e0057de2f4e9c59dfc967510a339d8913019",
    ("cold_chordal_schema", 1): "411f06efce7aaa5c160c78ae856a1c94ce85b785e75de8f05ded6e31be9c1418",
    ("cold_chordal_schema", 2): "8be705b376b6aac032f6778799917685666ce8449166c80d2c358092bd217f6e",
    ("alpha_schema", 0): "61b55aa92e4bb6e147d710b23ef25c7ab364964bb6862e686665702f0bd5130c",
    ("alpha_schema", 1): "221c6c9107b6d7ab51e1838c50638de94e0d04fab5b45c5c33e915b79622b54d",
    ("alpha_schema", 2): "ba9eeed16bdd759916cdd30d34ae18408e61e0a27a34b0d8a14a649379e2d952",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("builder, seed", sorted(BLOCK_LIST_GOLDEN))
def test_perfbench_block_lists_do_not_move(workloads, builder, seed):
    graph = getattr(workloads, builder)(random.Random(seed))
    digest = hashlib.sha256(repr(biconnected_edge_blocks(graph)).encode()).hexdigest()
    assert digest == BLOCK_LIST_GOLDEN[builder, seed]


# ----------------------------------------------------------------------
# per-block reports and the context's one block-cut forest
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(
    st.one_of(
        bipartite_graphs(max_left=5, max_right=5),
        chordal_bipartite_graphs(max_blocks=5),
        alpha_schema_graphs(max_relations=8),
    )
)
def test_block_reports_equal_the_label_subgraph_reports(graph):
    context = SchemaContext(graph)
    records = context._block_records()
    assert len(records.members) == len(biconnected_edge_blocks(graph))
    for block, members in records.members.items():
        report = records.report_of[block]
        assert list(members) == sorted(set(members))
        block = graph.subgraph(context.index.decode(members))
        assert report == classify_bipartite_graph(block)
        if len(members) == 2:
            assert report == FOREST_REPORT
    assert context.report == classify_bipartite_graph(graph)


def count_decompositions(monkeypatch):
    calls = []
    original = repro.dynamic.blocks.edge_blocks

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(repro.dynamic.blocks, "edge_blocks", counting)
    return calls


def test_side_plans_share_one_block_cut_forest(monkeypatch):
    graph = random_alpha_schema_graph(30, rng=7)
    graph.add_to_side(("island", 1), 1)
    graph.add_to_side(("island", 2), 2)
    graph.add_edge(("island", 1), ("island", 2))
    context = SchemaContext(graph)
    context.report
    calls = count_decompositions(monkeypatch)
    forests = {
        id(context.side_plan(side, vertex).blocks)
        for side in (1, 2)
        for vertex in range(context.indexed.n)
    }
    assert len(forests) == 1  # both sides, both components
    assert calls == []  # the cold classification's records serve every plan


def test_a_context_whose_report_came_from_disk_builds_its_blocks_on_first_use(monkeypatch):
    graph = random_alpha_schema_graph(12, rng=3)
    context = SchemaContext(graph, report=classify_bipartite_graph(graph))
    calls = count_decompositions(monkeypatch)
    plan = context.side_plan(2, 0)
    assert calls == [context.indexed.n]
    assert context.side_plan(1, 0).blocks is plan.blocks
    assert calls == [context.indexed.n]
    assert context._block_records().report() == context.report


def test_blocks_doctests():
    assert doctest.testmod(repro.dynamic.blocks).failed == 0
