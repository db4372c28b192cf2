"""The Theorem 1 hierarchy walk and its near-linear recognisers, differentially.

``classify_bipartite_graph`` walks down the Theorem 1 hierarchy on
integer ids (forest -> Fagin's gamma reduction -> worklist nest-point
elimination -> one restricted MCS per side) and ``BlockClassifier`` runs
it per biconnected block.  This suite pins each piece against an independent reference (the
rescanning loop and the field-by-field report live in
``classification_reference.py``, which experiment CL1 times as well):

* Fagin's reduction against the definitional ``find_gamma_cycle`` and the
  ``"pattern"`` test (the cubic ``find_gamma_triple`` scan);
* the worklist elimination against ``find_beta_cycle``, replaying every
  order it returns as a nest-point order and comparing it with the loop
  that rescans every node after each removal;
* the walk against a field-by-field reference report, on unrestricted,
  (6,2)-chordal, interval, gamma and alpha schema graphs -- which also
  pins the implications the walk relies on: Berge < gamma < beta < alpha,
  and ``H_1`` beta-acyclic iff its dual ``H_2`` is;
* ``BlockClassifier`` against both;
* no production path reaching the cubic or label-space recognisers:
  not on beta-acyclic schemas, and not on a V2-alpha schema with
  beta-cyclic blocks, classified and answered on the side objective.
"""

import doctest
import sys

import pytest
from hypothesis import given, strategies as st

from classification_reference import field_by_field_report, rescanning_nest_order
from strategies import (
    COMMON_SETTINGS,
    alpha_schema_graphs,
    beta_schema_graphs,
    bipartite_graphs,
    chordal_bipartite_graphs,
    gamma_schema_graphs,
    hypergraphs,
)

from repro.api import ConnectionService
from repro.core.classification import classify_bipartite_graph
from repro.chordality.side_chordal import distance_two_graph
from repro.datasets.generators import (
    random_62_chordal_graph,
    random_alpha_schema_graph,
    random_beta_schema_graph,
    random_terminals,
)
from repro.dynamic import BlockClassifier
from repro.engine.cache import SchemaContext
from repro.graphs.indexed import to_indexed
from repro.hypergraphs import (
    find_beta_cycle,
    find_gamma_cycle,
    find_gamma_triple,
    hypergraph_of_side,
    is_conformal_gilmore,
    is_gamma_acyclic,
    is_nest_point,
    nest_point_elimination_order,
)
from repro.hypergraphs import reduction
from repro.hypergraphs.acyclicity import is_alpha_acyclic_gyo
from repro.hypergraphs.tarjan_yannakakis import mcs_edge_ordering


# ----------------------------------------------------------------------
# the id-level recognisers
# ----------------------------------------------------------------------
def test_reduction_doctests():
    assert doctest.testmod(reduction).failed == 0


def test_fagin_rules_one_at_a_time():
    # duplicates (rule 3) and twins (rule 4) are what reduce a K_{2,2}
    assert reduction.gamma_reduces(2, [{0, 1}, {0, 1}])
    # a beta cycle survives every rule
    assert not reduction.gamma_reduces(3, [{0, 1}, {1, 2}, {0, 2}])
    # nested edges are gamma-acyclic; two crossing pairs inside one are not
    assert reduction.gamma_reduces(3, [{0, 1, 2}, {0, 1}, {0}])
    assert not reduction.gamma_reduces(4, [{0, 1, 2, 3}, {0, 1}, {1, 2}])
    # no edges, no nodes: trivially empty
    assert reduction.gamma_reduces(0, [])
    assert reduction.gamma_reduces(2, [])


@COMMON_SETTINGS
@given(hypergraph=hypergraphs(max_nodes=6, max_edges=6))
def test_fagin_reduction_matches_gamma_cycle_search(hypergraph):
    expected = find_gamma_cycle(hypergraph) is None
    assert is_gamma_acyclic(hypergraph) == expected
    assert is_gamma_acyclic(hypergraph, method="pattern") == expected


@COMMON_SETTINGS
@given(hypergraph=hypergraphs(max_nodes=6, max_edges=6))
def test_worklist_elimination_matches_beta_cycle_search(hypergraph):
    order = nest_point_elimination_order(hypergraph)
    assert (order is None) == (find_beta_cycle(hypergraph) is not None)
    # the deterministic tie-break reproduces the rescanning loop exactly
    assert order == rescanning_nest_order(hypergraph)
    if order is not None:
        assert sorted(order, key=repr) == sorted(hypergraph.nodes(), key=repr)
        working = hypergraph.copy()
        for node in order:
            assert working.node_degree(node) == 0 or is_nest_point(working, node)
            working.remove_node(node)


# ----------------------------------------------------------------------
# the walk and the block classifier
# ----------------------------------------------------------------------
FAMILIES = {
    "unrestricted": bipartite_graphs(max_left=5, max_right=5),
    "chordal-bipartite": chordal_bipartite_graphs(),
    "interval": beta_schema_graphs(),
    "gamma": gamma_schema_graphs(),
    "alpha": alpha_schema_graphs(),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@COMMON_SETTINGS
@given(data=st.data())
def test_walk_matches_the_field_by_field_reference(family, data):
    graph = data.draw(FAMILIES[family])
    reference = field_by_field_report(graph)
    # the implications the walk skips tests on
    if reference.chordal_41:
        assert reference.chordal_62
    if reference.chordal_62:
        assert reference.chordal_61
    if reference.chordal_61:
        assert reference.v1_alpha and reference.v2_alpha
    other_side = rescanning_nest_order(hypergraph_of_side(graph, 1)) is not None
    assert other_side == reference.chordal_61
    assert classify_bipartite_graph(graph) == reference
    assert BlockClassifier().classify(to_indexed(graph)[0]).report() == reference


def _forbid(monkeypatch, *functions):
    """Make every ``repro`` module binding of ``functions`` raise when called."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a cubic reference recogniser ran on a production path")

    for function in functions:
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, forbidden)


def test_beta_acyclic_schemas_never_reach_the_cubic_recognisers(monkeypatch):
    _forbid(
        monkeypatch,
        find_gamma_triple,
        is_conformal_gilmore,
        is_alpha_acyclic_gyo,
        mcs_edge_ordering,
        distance_two_graph,
    )
    schemas = {
        "(6,2)-chordal": random_62_chordal_graph(20, rng=3),
        "(6,1)-chordal": random_beta_schema_graph(40, attributes=20, rng=3),
        # two beta-cyclic blocks: step 4 of the walk decides both sides
        "V2-alpha": random_alpha_schema_graph(40, rng=1),
    }
    for expected, graph in schemas.items():
        assert SchemaContext(graph).report.strongest_class == expected
        service = ConnectionService(schema=graph)
        assert service.classification().strongest_class == expected
        assert classify_bipartite_graph(graph).strongest_class == expected
        for seed in range(4):
            terminals = random_terminals(graph, 4, rng=seed)
            answer = service.connect(terminals, objective="side", side=2)
            assert answer.provenance.solver == "algorithm1-indexed"
