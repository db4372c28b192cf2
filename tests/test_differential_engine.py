"""Differential testing: the engine's id lanes vs. the label-space originals.

The id lanes must never change answers.  Every test here cross-checks at
least two of the following on the *same* random instance:

* the hashable-vertex :class:`~repro.graphs.graph.Graph` algorithms (the
  readable references),
* the :class:`~repro.graphs.indexed.IndexedGraph` CSR store and the id
  lane :func:`~repro.graphs.indexed.indexed_elimination_cover`,
* :class:`~repro.api.service.ConnectionService` -- per-query ``connect``,
  the one batch path ``batch``, and the
  :class:`~repro.semantic.query.QueryInterpreter` wrapper over it,
* the exhaustive oracles (brute force, Dreyfus-Wagner, nonredundancy
  predicates).

Instances are drawn from the shared :mod:`strategies` module: random
chordal graphs (PEO construction), (6,2)-chordal bipartite block trees,
alpha-acyclic schema graphs and unrestricted bipartite graphs.  Zero
disagreements is the acceptance bar -- any mismatch is a real bug in one
of the lanes.
"""

from hypothesis import given, strategies as st

from strategies import (
    alpha_schema_graphs,
    bipartite_graphs,
    chordal_bipartite_graphs,
    common_settings,
    connected_graphs,
    draw_terminals,
    er_schemas,
    large_chordal_bipartite_graphs,
    relational_schemas,
    small_graphs,
)

from repro.api import ConnectionService, Guarantee
from repro.core import is_nonredundant_cover
from repro.exceptions import NotApplicableError
from repro.core.covers import greedy_elimination_cover
from repro.graphs import from_indexed, indexed_elimination_cover, to_indexed
from repro.graphs.traversal import vertices_in_same_component
from repro.semantic import QueryInterpreter
from repro.steiner import (
    kou_markowsky_berman,
    pseudo_steiner_algorithm1,
    pseudo_steiner_bruteforce,
    shortest_path_heuristic,
    steiner_tree_bruteforce,
    steiner_tree_dreyfus_wagner,
)

SETTINGS = common_settings(max_examples=25)

#: Registry names whose answers are exact for their objective; a result may
#: carry ``guarantee=OPTIMAL`` only when it was produced by one of these
#: (or by the rank-1 entry of the exhaustive enumeration stream).
EXACT_SOLVERS = {
    "chordal-elimination",
    "algorithm1-indexed",
    "dreyfus-wagner",
    "bruteforce",
    "pseudo-bruteforce",
}


# ----------------------------------------------------------------------
# the mapping layer is lossless and row-faithful
# ----------------------------------------------------------------------
@SETTINGS
@given(st.one_of(small_graphs(), bipartite_graphs()))
def test_roundtrip_is_lossless(graph):
    indexed, index = to_indexed(graph)
    assert from_indexed(indexed, index) == graph
    assert indexed.n == graph.number_of_vertices()
    assert len(list(indexed.edges())) == graph.number_of_edges()


@SETTINGS
@given(small_graphs())
def test_indexed_protocol_matches_graph(graph):
    """Each CSR row is ascending and decodes to the label neighbourhood."""
    indexed, index = to_indexed(graph)
    for vertex in graph.vertices():
        row = indexed.row(index.ids[vertex])
        assert row == sorted(set(row))
        assert index.decode_set(row) == graph.neighbors(vertex)


# ----------------------------------------------------------------------
# elimination covers: the id lane returns the label reference's set
# ----------------------------------------------------------------------
@SETTINGS
@given(st.data(), st.one_of(bipartite_graphs(), chordal_bipartite_graphs()))
def test_elimination_cover_identical_across_backends(data, graph):
    terminals = draw_terminals(data.draw, graph, max_terminals=3)
    if not terminals or not vertices_in_same_component(graph, terminals):
        return
    indexed, index = to_indexed(graph)
    for batches in (False, True):
        reference = greedy_elimination_cover(graph, terminals, removal_batches=batches)
        fast = indexed_elimination_cover(
            indexed, index.encode(terminals), removal_batches=batches
        )
        assert index.decode_set(fast) == reference


# ----------------------------------------------------------------------
# the heuristics never beat the exact optimum
# ----------------------------------------------------------------------
@SETTINGS
@given(st.data(), connected_graphs(min_vertices=2, max_vertices=8))
def test_solvers_match_across_backends(data, graph):
    terminals = draw_terminals(data.draw, graph, min_terminals=2, max_terminals=3)
    optimum = steiner_tree_dreyfus_wagner(graph, terminals).vertex_count()
    for heuristic in (kou_markowsky_berman, shortest_path_heuristic):
        solution = heuristic(graph, terminals)
        solution.validate()
        assert solution.vertex_count() >= optimum


# ----------------------------------------------------------------------
# batch path vs. per-query connect vs. oracles
# ----------------------------------------------------------------------
def assert_same_tree(left, right):
    """Two answers are byte-identical trees (vertex and edge sets)."""
    assert left.tree.vertices() == right.tree.vertices()
    assert left.tree.edge_set() == right.tree.edge_set()


@SETTINGS
@given(st.data(), st.one_of(bipartite_graphs(), chordal_bipartite_graphs()))
def test_engine_matches_finder_and_oracle_steiner(data, graph):
    """The batch path equals per-query ``connect``; OPTIMAL is the true minimum."""
    terminals = draw_terminals(data.draw, graph, max_terminals=3)
    if not terminals or not vertices_in_same_component(graph, terminals):
        return
    per_query = ConnectionService(schema=graph).connect(terminals)
    batched = ConnectionService(schema=graph).batch([terminals])[0]
    batched.validate()
    assert_same_tree(batched, per_query)
    solution = batched.solution
    assert is_nonredundant_cover(
        graph, solution.metadata.get("cover", solution.tree.vertices()), terminals
    ) or batched.provenance.solver in ("kmb",)
    oracle = steiner_tree_bruteforce(graph, terminals)
    if batched.guarantee is Guarantee.OPTIMAL:
        assert batched.provenance.solver in EXACT_SOLVERS
        assert batched.cost == oracle.vertex_count()
    else:
        assert batched.cost >= oracle.vertex_count()


@SETTINGS
@given(st.data(), st.one_of(bipartite_graphs(), alpha_schema_graphs()))
def test_engine_matches_finder_and_oracle_side(data, graph):
    terminals = draw_terminals(data.draw, graph, max_terminals=3)
    if not terminals or not vertices_in_same_component(graph, terminals):
        return
    per_query = ConnectionService(schema=graph).connect(
        terminals, objective="side", side=2
    )
    batched = ConnectionService(schema=graph).batch(
        [terminals], objective="side", side=2
    )[0]
    batched.validate()
    assert_same_tree(batched, per_query)
    if batched.guarantee is Guarantee.OPTIMAL:
        assert batched.provenance.solver in EXACT_SOLVERS
        oracle = pseudo_steiner_bruteforce(graph, terminals, 2)
        assert batched.side_cost == oracle.side_count(2)
    else:
        assert batched.provenance.solver == "kmb"


@SETTINGS
@given(st.data(), alpha_schema_graphs())
def test_engine_algorithm1_cover_identical_to_generic(data, graph):
    """On applicable schemas the service replays Algorithm 1 exactly."""
    terminals = draw_terminals(data.draw, graph, max_terminals=6)
    if not terminals or not vertices_in_same_component(graph, terminals):
        return
    try:
        generic = pseudo_steiner_algorithm1(graph, terminals, side=2, check=True)
    except NotApplicableError:
        return
    solution = ConnectionService(schema=graph).connect(
        terminals, objective="side", side=2
    ).solution
    if solution.metadata.get("solver") == "algorithm1-indexed":
        assert solution.metadata["cover"] == generic.metadata["cover"]


# ----------------------------------------------------------------------
# wrapper vs. service vs. oracle: one dispatch path, honest guarantees
# ----------------------------------------------------------------------
@SETTINGS
@given(st.data(), st.one_of(bipartite_graphs(), chordal_bipartite_graphs()))
def test_wrapper_and_service_identical_steiner(data, graph):
    """`QueryInterpreter` is a pure wrapper: byte-identical trees.

    Both paths run the same planner/registry/cache, so not just the costs
    but the actual vertex and edge sets must coincide; the exhaustive
    oracle then pins any OPTIMAL claim to the true minimum.
    """
    terminals = draw_terminals(data.draw, graph, max_terminals=3)
    if not terminals or not vertices_in_same_component(graph, terminals):
        return
    wrapped = QueryInterpreter(graph).minimal_interpretation(terminals)
    direct = ConnectionService(schema=graph).connect(terminals)
    assert_same_tree(wrapped.result, direct)
    # provenance is complete and the guarantee discipline holds
    assert direct.provenance.solver
    assert direct.provenance.instance_class in {"chordal", "side-chordal", "general"}
    if direct.guarantee is Guarantee.OPTIMAL:
        assert direct.provenance.solver in EXACT_SOLVERS
        oracle = steiner_tree_bruteforce(graph, terminals)
        assert direct.cost == oracle.vertex_count()


@SETTINGS
@given(st.data(), st.one_of(bipartite_graphs(), alpha_schema_graphs()))
def test_wrapper_and_service_identical_side(data, graph):
    terminals = draw_terminals(data.draw, graph, max_terminals=3)
    if not terminals or not vertices_in_same_component(graph, terminals):
        return
    wrapped = QueryInterpreter(graph).fewest_relations_interpretation(terminals)
    direct = ConnectionService(schema=graph).connect(
        terminals, objective="side", side=2
    )
    assert_same_tree(wrapped.result, direct)
    if direct.guarantee is Guarantee.OPTIMAL:
        assert direct.provenance.solver in EXACT_SOLVERS
        oracle = pseudo_steiner_bruteforce(graph, terminals, 2)
        assert direct.side_cost == oracle.side_count(2)
    else:
        assert direct.provenance.solver == "kmb"


@SETTINGS
@given(st.data(), st.one_of(bipartite_graphs(), chordal_bipartite_graphs()))
def test_enumeration_stream_sizes_never_decrease(data, graph):
    """The stream yields distinct connections in non-decreasing size.

    The rank-1 entry must be a true minimum (exhaustive-oracle check) and
    the only one allowed to claim ``OPTIMAL``.
    """
    terminals = draw_terminals(data.draw, graph, min_terminals=2, max_terminals=3)
    if not terminals or not vertices_in_same_component(graph, terminals):
        return
    service = ConnectionService(schema=graph)
    results = list(service.enumerate(terminals, budget=6))
    assert results, "a feasible instance always has at least one connection"
    costs = [result.cost for result in results]
    assert costs == sorted(costs)
    vertex_sets = {frozenset(result.tree.vertices()) for result in results}
    assert len(vertex_sets) == len(results)
    oracle = steiner_tree_bruteforce(graph, terminals)
    assert costs[0] == oracle.vertex_count()
    for result in results:
        result.validate()
        assert (result.guarantee is Guarantee.OPTIMAL) == (result.rank == 1)


# ----------------------------------------------------------------------
# batching is faithful: service.batch trees equal per-query connect trees
# ----------------------------------------------------------------------
@SETTINGS
@given(st.data(), large_chordal_bipartite_graphs(min_blocks=3, max_blocks=8))
def test_batch_results_equal_per_query_results(data, graph):
    queries = [
        draw_terminals(data.draw, graph, min_terminals=2, max_terminals=3)
        for _ in range(4)
    ]
    batch = ConnectionService(schema=graph).batch(queries)
    per_query = ConnectionService(schema=graph)
    for query, result in zip(queries, batch):
        result.validate()
        assert result.guarantee is Guarantee.OPTIMAL
        assert_same_tree(result, per_query.connect(query))
    side_batch = ConnectionService(schema=graph).batch(
        queries, objective="side", side=2
    )
    for query, result in zip(queries, side_batch):
        assert_same_tree(
            result, per_query.connect(query, objective="side", side=2)
        )


@SETTINGS
@given(st.data(), relational_schemas(max_relations=5))
def test_batch_interpret_on_relational_schemas(data, schema):
    """A Relational schema handle batches like its per-query interpretations."""
    graph = schema.schema_graph()
    interpreter = QueryInterpreter(schema)
    queries = [
        draw_terminals(data.draw, graph, min_terminals=2, max_terminals=3)
        for _ in range(3)
    ]
    batch = ConnectionService().batch(queries, schema=schema)
    for query, result in zip(queries, batch):
        result.validate()
        assert_same_tree(result, interpreter.minimal_interpretation(query).result)


@SETTINGS
@given(st.data(), er_schemas())
def test_batch_interpret_on_er_schemas(data, schema):
    """An ER schema handle batches like per-query connects on its graph."""
    graph = schema.bipartite_graph()
    queries = [
        draw_terminals(data.draw, graph, min_terminals=2, max_terminals=3)
        for _ in range(3)
    ]
    per_query = ConnectionService(schema=graph)
    batch = ConnectionService(schema=schema).batch(queries)
    for query, result in zip(queries, batch):
        result.validate()
        assert_same_tree(result, per_query.connect(query))
