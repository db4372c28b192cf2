"""Algorithm 1's Step 2 confined to the terminals' blocks.

``solve_algorithm1_indexed`` scans only ``SidePlan.region``: the vertices
of the blocks on the block-cut-tree paths between the terminals, then adds
back every neighbour of each surviving ``V_side`` vertex.  This suite pins
that:

* ``region`` equals its definition -- the vertices on some simple path
  between two terminals, found by brute force -- and is the whole
  component for a single terminal;
* the served tree, ``metadata["cover"]`` and ``metadata["ordering"]``
  equal those of the whole-component scan and of the label-space
  ``pseudo_steiner_algorithm1``, on small alpha schemas and on generated
  ones of up to 120 relations, with 2-8 terminals;
* after a ``SchemaEditor`` transaction, side answers equal a cold
  context's.
"""

import itertools
import random

from hypothesis import given, strategies as st
from strategies import (
    alpha_schema_graphs,
    bipartite_graphs,
    chordal_bipartite_graphs,
    common_settings,
    draw_terminals,
)

from repro.api import ConnectionService
from repro.datasets.generators import random_alpha_schema_graph, random_terminals
from repro.dynamic import SchemaEditor
from repro.dynamic.blocks import BlockCutTree
from repro.engine.cache import SchemaContext
from repro.graphs import BipartiteGraph
from repro.graphs.indexed import indexed_elimination_cover
from repro.graphs.spanning import spanning_tree
from repro.graphs.traversal import vertices_in_same_component
from repro.steiner import pseudo_steiner_algorithm1
from repro.steiner.problem import prune_non_terminal_leaves

SETTINGS = common_settings(max_examples=40)
LARGE_SETTINGS = common_settings(max_examples=10)


def on_simple_paths(graph, terminals):
    """Every vertex on some simple path between two terminals (brute force)."""
    found = set()

    def extend(path, target):
        if path[-1] == target:
            found.update(path)
            return
        for neighbor in graph.neighbors(path[-1]):
            if neighbor not in path:
                extend(path + [neighbor], target)

    for source, target in itertools.combinations(terminals, 2):
        extend([source], target)
    return found


def region_labels(graph, terminals):
    context = SchemaContext(graph)
    ids = sorted(context.index.encode(terminals))
    plan = context.side_plan(2, ids[0])
    return context.index.decode_set(plan.region(ids)), context.index.decode_set(plan.component)


# ----------------------------------------------------------------------
# the region against its definition
# ----------------------------------------------------------------------
@SETTINGS
@given(st.data(), st.one_of(bipartite_graphs(), chordal_bipartite_graphs()))
def test_region_is_the_vertices_on_simple_terminal_paths(data, graph):
    terminals = draw_terminals(data.draw, graph, max_terminals=4)
    if not terminals:
        return
    region, component = region_labels(graph, terminals)
    if len(terminals) < 2:
        assert region == component
    else:
        assert region == on_simple_paths(graph, terminals)


def test_region_of_a_chain_of_cycles():
    """Two 4-cycles joined by a bridge, with a pendant edge on each end."""
    graph = BipartiteGraph(
        left=["a", "b", "c", "d", "p"],
        right=[1, 2, 3, 4, 5],
        edges=[
            ("a", 1), ("a", 2), ("b", 1), ("b", 2),  # first cycle
            ("b", 3),  # the bridge
            ("c", 3), ("c", 4), ("d", 3), ("d", 4),  # second cycle
            ("a", 5), ("p", 4),  # pendants
        ],
    )
    first_cycle = {"a", "b", 1, 2}
    assert region_labels(graph, [1, 2])[0] == first_cycle
    assert region_labels(graph, ["a", "b"])[0] == first_cycle
    assert region_labels(graph, [1, "c"])[0] == first_cycle | {3, "c", "d", 4}
    assert region_labels(graph, [5, "p"])[0] == graph.vertices()
    assert region_labels(graph, ["b", 3])[0] == {"b", 3}
    assert region_labels(graph, [5])[0] == graph.vertices()


def test_block_cut_tree_nodes_and_root():
    # blocks {0,1,2} and {2,3}, and a bridge {3,4}: cut vertices 2 and 3
    tree = BlockCutTree([[0, 1, 2, 0, 2], [2, 3], [3, 4]])
    assert tree.members[:3] == ((0, 1, 2), (2, 3), (3, 4))
    assert tree.node_of[0] == tree.node_of[1] == 0
    assert tree.members[tree.node_of[2]] == tree.members[tree.node_of[3]] == ()
    assert tree.parent[0] == 0 and tree.depth[0] == 0
    assert tree.depth[tree.node_of[4]] == 4
    assert tree.span([0, 1]) == {0, 1, 2}
    assert tree.span([0, 4]) == {0, 1, 2, 3, 4}
    assert tree.span([2, 4]) == {2, 3, 4}


# ----------------------------------------------------------------------
# the served answer against the whole-component scan and Algorithm 1
# ----------------------------------------------------------------------
def assert_served_equals_references(graph, terminals, applicable=None):
    served = ConnectionService(schema=graph).connect(
        terminals, objective="side", side=2
    )
    assert served.provenance.solver == "algorithm1-indexed"
    solution = served.solution

    context = SchemaContext(graph)
    ids = sorted(context.index.encode(terminals))
    plan = context.side_plan(2, ids[0])
    whole = context.index.decode_set(
        indexed_elimination_cover(
            context.indexed,
            ids,
            ordering=plan.ordering,
            removal_batches=True,
            restrict=plan.component,
        )
    )
    whole_tree = prune_non_terminal_leaves(spanning_tree(graph.subgraph(whole)), terminals)
    generic = pseudo_steiner_algorithm1(graph, terminals, side=2, applicable=applicable)

    assert solution.metadata["cover"] == whole == generic.metadata["cover"]
    assert solution.metadata["ordering"] == generic.metadata["ordering"]
    assert solution.metadata["ordering"] == context.index.decode(plan.ordering)
    shape = (solution.tree.vertices(), solution.tree.edge_set())
    assert shape == (whole_tree.vertices(), whole_tree.edge_set())
    assert shape == (generic.tree.vertices(), generic.tree.edge_set())


@SETTINGS
@given(st.data(), alpha_schema_graphs())
def test_region_scan_equals_whole_scan_on_small_alpha_schemas(data, graph):
    terminals = draw_terminals(data.draw, graph, min_terminals=2, max_terminals=8)
    if len(terminals) < 2:
        return
    assert_served_equals_references(graph, terminals)


@LARGE_SETTINGS
@given(
    st.integers(min_value=2, max_value=120),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=2, max_value=8),
)
def test_region_scan_equals_whole_scan_on_generated_alpha_schemas(relations, seed, k):
    graph = random_alpha_schema_graph(relations, rng=seed)
    terminals = random_terminals(graph, k, rng=random.Random(seed))
    # the generator guarantees the class, so the reference skips the
    # (cubic) recognition pass
    assert_served_equals_references(graph, terminals, applicable=True)


# ----------------------------------------------------------------------
# edits
# ----------------------------------------------------------------------
@LARGE_SETTINGS
@given(st.integers(min_value=0, max_value=2**16))
def test_side_answers_after_an_edit_equal_a_cold_context(seed):
    rng = random.Random(seed)
    graph = random_alpha_schema_graph(rng.randint(5, 40), rng=seed)
    service = ConnectionService(schema=graph)
    queries = [random_terminals(graph, rng.randint(1, 8), rng=rng) for _ in range(6)]
    for terminals in queries:  # warm the side plans
        service.connect(terminals, objective="side", side=2)

    attributes = sorted(graph.left(), key=repr)
    relations = sorted(graph.right(), key=repr)
    with SchemaEditor(graph) as tx:
        # a new relation over some attributes, and one membership dropped
        tx.add_vertex("R-new", side=2)
        for attribute in rng.sample(attributes, min(len(attributes), rng.randint(1, 3))):
            tx.add_edge("R-new", attribute)
        relation = rng.choice(relations)
        tx.remove_edge(relation, rng.choice(sorted(graph.neighbors(relation), key=repr)))

    cold = ConnectionService(schema=graph.copy())
    for terminals in queries + [["R-new", rng.choice(relations)]]:
        if not vertices_in_same_component(graph, terminals):
            continue
        after = service.connect(terminals, objective="side", side=2)
        expected = cold.connect(terminals, objective="side", side=2)
        assert after.provenance.solver == expected.provenance.solver
        assert after.solution.metadata.get("cover") == expected.solution.metadata.get("cover")
        assert after.tree.vertices() == expected.tree.vertices()
        assert after.tree.edge_set() == expected.tree.edge_set()
