"""Alpha-acyclicity on ids: one restricted MCS for Theorem 1(v)/(vi).

``running_intersection_order`` (``repro.hypergraphs.reduction``) decides
alpha-acyclicity for classification step 4 and builds every Algorithm 1
plan.  This suite pins it against the label-space reference algorithms,
which stay public but leave the serving path:

* on random id hypergraphs -- duplicate, empty and disjoint edges
  included -- its verdict equals the GYO reduction's and the label MCS's,
  its order has the running intersection property, and it equals
  ``mcs_edge_ordering`` when edge labels sort like their indices;
* on alpha schemas, unrestricted bipartite graphs and int-labelled graphs
  (whose reprs are prefixes of one another), every side plan's ordering
  decodes to ``lemma1_ordering`` of its component, is ``None`` exactly
  when GYO says cyclic, and the plan's blocks are the component's
  biconnected blocks;
* ``classify_bipartite_graph`` equals the field-by-field reference;
* the repr tie-break of the reference MCS: ``1`` before ``10`` before
  ``100``, in the reference and in the served plan alike.
"""

from hypothesis import given, strategies as st

from classification_reference import field_by_field_report
from strategies import (
    COMMON_SETTINGS,
    alpha_schema_graphs,
    beta_schema_graphs,
    bipartite_graphs,
)

from repro.api import ConnectionService
from repro.chordality.side_chordal import is_side_chordal_and_conformal
from repro.core.classification import classify_bipartite_graph
from repro.dynamic import biconnected_edge_blocks
from repro.engine.cache import SchemaContext
from repro.graphs import BipartiteGraph
from repro.hypergraphs import Hypergraph
from repro.hypergraphs.acyclicity import is_alpha_acyclic_gyo
from repro.hypergraphs.reduction import running_intersection_order
from repro.hypergraphs.tarjan_yannakakis import (
    is_alpha_acyclic_mcs,
    mcs_edge_ordering,
    satisfies_running_intersection,
)
from repro.steiner import pseudo_steiner_algorithm1
from repro.steiner.algorithm1 import lemma1_ordering


# ----------------------------------------------------------------------
# the id MCS against the label-space references
# ----------------------------------------------------------------------
@st.composite
def id_hypergraphs(draw, max_nodes=7, max_edges=8):
    """``(node_count, edges)``: any subsets, then some edges repeated."""
    nodes = draw(st.integers(min_value=0, max_value=max_nodes))
    member = st.integers(min_value=0, max_value=max(nodes - 1, 0))
    edges = draw(
        st.lists(st.frozensets(member, max_size=nodes) if nodes else st.just(frozenset()),
                 max_size=max_edges)
    )
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return nodes, edges


def labelled(nodes, edges):
    """The label hypergraph of ``edges``; labels sort like indices, empty edges dropped."""
    hypergraph = Hypergraph(nodes=range(nodes))
    for index, edge in enumerate(edges):
        if edge:
            hypergraph.add_edge(edge, label=f"e{index:02d}")
    return hypergraph


@COMMON_SETTINGS
@given(id_hypergraphs())
def test_verdict_and_order_match_the_references(case):
    nodes, edges = case
    order = running_intersection_order(nodes, edges)
    hypergraph = labelled(nodes, edges)
    acyclic = hypergraph.number_of_edges() == 0 or is_alpha_acyclic_gyo(hypergraph)
    assert (order is not None) == acyclic == is_alpha_acyclic_mcs(hypergraph)
    if order is None:
        return
    assert sorted(order) == list(range(len(edges)))
    # empty edges share no node with anything: they come last, after edge 0
    tail = [index for index in order[1:] if not edges[index]]
    assert order[len(order) - len(tail):] == tail
    nonempty = [f"e{index:02d}" for index in order if edges[index]]
    assert satisfies_running_intersection(hypergraph, nonempty)
    if edges and edges[0]:
        assert nonempty == mcs_edge_ordering(hypergraph)


def test_cyclic_shapes_and_edge_cases():
    assert running_intersection_order(0, []) == []
    assert running_intersection_order(2, [set(), set()]) == [0, 1]
    assert running_intersection_order(3, [{0, 1}, {1, 2}, {0, 2}]) is None
    # the triangle inside a covering edge is acyclic; a 4-cycle is not
    assert running_intersection_order(3, [{0, 1}, {1, 2}, {0, 2}, {0, 1, 2}]) == [0, 3, 1, 2]
    assert running_intersection_order(4, [{0, 1}, {1, 2}, {2, 3}, {3, 0}]) is None
    # disjoint components are each started afresh, larger edges first
    assert running_intersection_order(5, [{0}, {1, 2}, {2, 3, 4}]) == [0, 2, 1]


# ----------------------------------------------------------------------
# side plans and classification on ids
# ----------------------------------------------------------------------
@st.composite
def int_labelled_graphs(draw):
    """Bipartite graphs on int labels whose reprs are prefixes of one another."""
    left = draw(st.lists(st.sampled_from([3, 30, 300, 31, 4, 40]), min_size=1, unique=True))
    right = draw(st.lists(st.sampled_from([1, 10, 100, 11, 101, 2, 20]), min_size=1, unique=True))
    graph = BipartiteGraph(left=left, right=right)
    for u in left:
        for v in right:
            if draw(st.booleans()):
                graph.add_edge(u, v)
    return graph


FAMILIES = st.one_of(
    alpha_schema_graphs(),
    beta_schema_graphs(max_relations=6),
    bipartite_graphs(max_left=5, max_right=5),
    int_labelled_graphs(),
)


@COMMON_SETTINGS
@given(FAMILIES)
def test_side_plans_equal_the_label_space_lemma1_ordering(graph):
    context = SchemaContext(graph)
    index = context.index
    for component in {context.component_ids(vertex) for vertex in range(len(index))}:
        labels = index.decode(sorted(component))
        subgraph = graph.subgraph(labels)
        blocks = {
            frozenset(index.encode({v for edge in block for v in edge}))
            for block in biconnected_edge_blocks(subgraph)
        }
        for side in (1, 2):
            plan = context.side_plan(side, min(component))
            reference = lemma1_ordering(subgraph, side)
            acyclic = is_side_chordal_and_conformal(subgraph, side, method="alpha")
            assert (plan.ordering is None) == (not acyclic) == (reference is None)
            if reference is not None:
                assert index.decode(plan.ordering) == reference
            # the context's one block-cut forest: this component's blocks
            # are the nodes whose members lie in it
            assert {frozenset(m) for m in plan.blocks.members if m and m[0] in component} == blocks


@COMMON_SETTINGS
@given(FAMILIES)
def test_classification_equals_the_field_by_field_reference(graph):
    assert classify_bipartite_graph(graph) == field_by_field_report(graph)


def test_prefix_reprs_tie_in_repr_order():
    # three relations 1, 10 and 100 tie after relation 1 marks "a": each
    # has one marked attribute and two attributes; the smaller repr wins
    graph = BipartiteGraph(
        left=["a", "x1", "x10", "x100"],
        right=[1, 10, 100],
        edges=[("a", 1), ("a", 10), ("a", 100), ("x1", 1), ("x10", 10), ("x100", 100)],
    )
    reference = lemma1_ordering(graph, 2)
    assert reference == [100, 10, 1]  # the reversed MCS order 1, 10, 100
    context = SchemaContext(graph)
    plan = context.side_plan(2, 0)
    assert context.index.decode(plan.ordering) == reference
    served = ConnectionService(schema=graph).connect(
        ["x1", "x10", "x100"], objective="side", side=2
    )
    generic = pseudo_steiner_algorithm1(graph, ["x1", "x10", "x100"], side=2)
    assert served.solution.metadata["ordering"] == generic.metadata["ordering"] == reference
    assert served.solution.metadata["cover"] == generic.metadata["cover"]
