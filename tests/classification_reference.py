"""The field-by-field Theorem 1 classification, kept as a reference only.

This is how ``classify_bipartite_graph`` worked before the hierarchy
walk: every report field tested on its own, (6,1) by the nest-point
elimination loop that rescans every node after each removal, and (6,2)
by the cubic gamma-pattern scan ``find_gamma_triple`` followed by that
same loop; each side's alpha field by MCS chordality of the distance-two
graph plus Gilmore conformality (the two halves of Theorem 1(v)/(vi)).
No production path runs it.  ``tests/test_classification_walk.py``
pins the walk against it, and experiment CL1
(``benchmarks/bench_classification.py``) times the walk against it, so
both compare with one and the same reference.
"""

from repro.chordality import is_side_chordal, is_side_conformal
from repro.core.classification import ChordalityReport
from repro.graphs import is_forest
from repro.hypergraphs import find_gamma_triple, hypergraph_of_side, is_nest_point


def rescanning_nest_order(hypergraph):
    """Nest-point elimination that rescans every node after each removal."""
    working = hypergraph.copy()
    order = []
    while True:
        nodes = sorted(working.nodes(), key=repr)
        if not nodes:
            return order
        for node in nodes:
            if working.node_degree(node) == 0 or is_nest_point(working, node):
                order.append(node)
                working.remove_node(node)
                break
        else:
            return None


def _is_61_chordal(graph):
    """(6,1): the side-2 hypergraph is beta-acyclic."""
    return rescanning_nest_order(hypergraph_of_side(graph, 2)) is not None


def _is_62_chordal(graph):
    """(6,2): no gamma triple, then beta-acyclic (each test on its own)."""
    hypergraph = hypergraph_of_side(graph, 2)
    if find_gamma_triple(hypergraph) is not None:
        return False
    return rescanning_nest_order(hypergraph) is not None


def field_by_field_report(graph):
    """Every report field tested on its own, with the reference recognisers."""
    return ChordalityReport(
        chordal_41=is_forest(graph),
        chordal_61=_is_61_chordal(graph),
        chordal_62=_is_62_chordal(graph),
        v1_alpha=is_side_chordal(graph, 1) and is_side_conformal(graph, 1),
        v2_alpha=is_side_chordal(graph, 2) and is_side_conformal(graph, 2),
    )
