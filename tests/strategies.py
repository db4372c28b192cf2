"""Shared hypothesis strategies for the property-based and differential suites.

One module owns every random-instance generator the tests need, so the
property-based suite, the differential engine harness and any future
fuzzing all draw from the same distributions:

* plain graphs: :func:`small_graphs`, :func:`connected_graphs`;
* chordal graphs built *by PEO construction* (:func:`chordal_graphs`) --
  each new vertex attaches to a clique, so the reverse construction order
  is a perfect elimination ordering by definition;
* bipartite graphs: :func:`bipartite_graphs` (unrestricted) and
  :func:`chordal_bipartite_graphs` ((6,2)-chordal trees of complete
  bipartite blocks, the Algorithm 2 guarantee class);
* hypergraphs: :func:`hypergraphs`;
* schema-level instances: :func:`gamma_schema_graphs` ((6,2)-chordal),
  :func:`beta_schema_graphs` ((6,1)-chordal interval schemas),
  :func:`alpha_schema_graphs` (Algorithm 1's class),
  :func:`relational_schemas` and :func:`er_schemas`;
* terminal sets: :func:`draw_terminals`, a helper usable inside
  ``@st.composite`` strategies and with ``st.data()``.

The schema strategies delegate to the seeded generators in
:mod:`repro.datasets.generators` (drawing only the seed); that trades
shrinking quality for guaranteed class membership, which is the property
the differential tests actually rely on.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings, strategies as st

from repro.datasets.generators import (
    random_62_chordal_graph,
    random_alpha_acyclic_schema,
    random_alpha_schema_graph,
    random_beta_schema_graph,
    random_gamma_schema_graph,
)
from repro.graphs import BipartiteGraph, Graph
from repro.graphs.traversal import connected_components
from repro.hypergraphs import Hypergraph
from repro.semantic.er_model import ERSchema


def common_settings(max_examples: int = 30) -> settings:
    """The suite-wide hypothesis settings profile."""
    return settings(
        max_examples=max_examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )


COMMON_SETTINGS = common_settings()


# ----------------------------------------------------------------------
# plain graphs
# ----------------------------------------------------------------------
@st.composite
def small_graphs(draw, max_vertices: int = 7) -> Graph:
    """Arbitrary simple graphs on up to ``max_vertices`` integer vertices."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    graph = Graph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                graph.add_edge(i, j)
    return graph


@st.composite
def connected_graphs(draw, min_vertices: int = 1, max_vertices: int = 9) -> Graph:
    """Connected graphs: a random attachment tree plus random extra edges."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    graph = Graph(vertices=range(n))
    for vertex in range(1, n):
        graph.add_edge(vertex, draw(st.integers(min_value=0, max_value=vertex - 1)))
    if n >= 3:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for u, v in draw(
            st.sets(st.sampled_from(pairs), max_size=min(len(pairs), 2 * n))
        ):
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
    return graph


@st.composite
def chordal_graphs(
    draw, min_vertices: int = 1, max_vertices: int = 9, connected: bool = True
) -> Graph:
    """Chordal graphs grown by PEO construction.

    Vertex ``v`` attaches to a non-empty subset of an existing clique, so
    ``v``'s earlier neighbours always form a clique and the *reverse*
    construction order ``n-1, ..., 0`` is a perfect elimination ordering --
    the graph is chordal by construction, and connected when every subset
    is non-empty.
    """
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    graph = Graph(vertices=range(n))
    cliques = [(0,)]
    minimum = 1 if connected else 0
    for vertex in range(1, n):
        base = draw(st.sampled_from(cliques))
        attach = draw(
            st.sets(
                st.sampled_from(base),
                min_size=min(minimum, len(base)),
                max_size=len(base),
            )
        )
        for u in attach:
            graph.add_edge(vertex, u)
        cliques.append(tuple(sorted(attach)) + (vertex,))
    return graph


# ----------------------------------------------------------------------
# bipartite graphs
# ----------------------------------------------------------------------
@st.composite
def bipartite_graphs(draw, max_left: int = 4, max_right: int = 4) -> BipartiteGraph:
    """Unrestricted bipartite graphs with named sides ``l*`` / ``r*``."""
    n_left = draw(st.integers(min_value=1, max_value=max_left))
    n_right = draw(st.integers(min_value=1, max_value=max_right))
    left = [f"l{i}" for i in range(n_left)]
    right = [f"r{j}" for j in range(n_right)]
    graph = BipartiteGraph(left=left, right=right)
    for u in left:
        for v in right:
            if draw(st.booleans()):
                graph.add_edge(u, v)
    return graph


@st.composite
def chordal_bipartite_graphs(
    draw, max_blocks: int = 4, max_left: int = 3, max_right: int = 3
) -> BipartiteGraph:
    """(6,2)-chordal bipartite graphs: trees of complete bipartite blocks.

    Complete bipartite blocks are (6,2)-chordal and gluing them at single
    cut vertices creates no new cycles, so the class membership holds by
    construction (same scheme as
    :func:`repro.datasets.generators.random_62_chordal_graph`, but fully
    driven by hypothesis draws so failures shrink).
    """
    blocks = draw(st.integers(min_value=1, max_value=max_blocks))
    graph = BipartiteGraph()
    counter = [0]

    def fresh(side: int):
        counter[0] += 1
        vertex = ("l" if side == 1 else "r", counter[0])
        graph.add_to_side(vertex, side)
        return vertex

    attach_points = []
    for block in range(blocks):
        left_size = draw(st.integers(min_value=1, max_value=max_left))
        right_size = draw(st.integers(min_value=1, max_value=max_right))
        if block == 0 or not attach_points:
            left = [fresh(1) for _ in range(left_size)]
            right = [fresh(2) for _ in range(right_size)]
        else:
            anchor, anchor_side = draw(st.sampled_from(attach_points))
            if anchor_side == 1:
                left = [anchor] + [fresh(1) for _ in range(left_size - 1)]
                right = [fresh(2) for _ in range(right_size)]
            else:
                left = [fresh(1) for _ in range(left_size)]
                right = [anchor] + [fresh(2) for _ in range(right_size - 1)]
        for u in left:
            for v in right:
                graph.add_edge(u, v)
        attach_points.extend((v, 1) for v in left)
        attach_points.extend((v, 2) for v in right)
    return graph


# ----------------------------------------------------------------------
# hypergraphs
# ----------------------------------------------------------------------
@st.composite
def hypergraphs(draw, max_nodes: int = 5, max_edges: int = 5) -> Hypergraph:
    """Arbitrary labelled hypergraphs on up to ``max_nodes`` nodes."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    nodes = [f"n{i}" for i in range(n)]
    hypergraph = Hypergraph(nodes=nodes)
    for index in range(m):
        members = draw(
            st.sets(st.sampled_from(nodes), min_size=1, max_size=min(4, n))
        )
        hypergraph.add_edge(members, label=f"e{index}")
    return hypergraph


# ----------------------------------------------------------------------
# schema-level instances (seeded generators; guaranteed class membership)
# ----------------------------------------------------------------------
@st.composite
def gamma_schema_graphs(draw, max_blocks: int = 5):
    """Schema graphs of random gamma-acyclic schemas ((6,2)-chordal)."""
    blocks = draw(st.integers(min_value=1, max_value=max_blocks))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_gamma_schema_graph(blocks, rng=seed)


@st.composite
def beta_schema_graphs(draw, max_relations: int = 10):
    """Schema graphs of random interval schemas ((6,1)-chordal)."""
    relations = draw(st.integers(min_value=2, max_value=max_relations))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_beta_schema_graph(relations, rng=seed)


@st.composite
def alpha_schema_graphs(draw, max_relations: int = 6):
    """Schema graphs of random alpha-acyclic schemas (Algorithm 1's class)."""
    relations = draw(st.integers(min_value=2, max_value=max_relations))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_alpha_schema_graph(relations, rng=seed)


@st.composite
def relational_schemas(draw, max_relations: int = 6):
    """Random alpha-acyclic relational schemas."""
    relations = draw(st.integers(min_value=2, max_value=max_relations))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_alpha_acyclic_schema(relations, rng=seed)


@st.composite
def large_chordal_bipartite_graphs(draw, min_blocks: int = 5, max_blocks: int = 20):
    """Bigger seeded (6,2)-chordal schemas (for batch-path coverage)."""
    blocks = draw(st.integers(min_value=min_blocks, max_value=max_blocks))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_62_chordal_graph(blocks, rng=seed)


@st.composite
def er_schemas(draw, max_entities: int = 4, max_relationships: int = 3) -> ERSchema:
    """Small entity-relationship schemas with private attributes.

    Attributes are never shared between owners, which keeps the concept
    graph bipartite (cycles alternate between entities and relationships),
    so ``bipartite_graph()`` is always defined.
    """
    n_entities = draw(st.integers(min_value=2, max_value=max_entities))
    entity_names = [f"E{i}" for i in range(n_entities)]
    counter = [0]

    def fresh_attributes(k: int):
        names = [f"a{counter[0] + i}" for i in range(k)]
        counter[0] += k
        return names

    entities = {
        name: fresh_attributes(draw(st.integers(min_value=1, max_value=3)))
        for name in entity_names
    }
    n_rel = draw(st.integers(min_value=1, max_value=max_relationships))
    relationships = {}
    relationship_attributes = {}
    for index in range(n_rel):
        members = draw(
            st.sets(st.sampled_from(entity_names), min_size=2, max_size=2)
        )
        relationships[f"R{index}"] = sorted(members)
        if draw(st.booleans()):
            relationship_attributes[f"R{index}"] = fresh_attributes(1)
    return ERSchema(
        entities=entities,
        relationships=relationships,
        relationship_attributes=relationship_attributes,
    )


# ----------------------------------------------------------------------
# terminal sets
# ----------------------------------------------------------------------
def draw_terminals(draw, graph, min_terminals: int = 1, max_terminals: int = 4):
    """Draw a feasible terminal set from the largest component of ``graph``.

    Intended for use inside ``@st.composite`` strategies or with
    ``st.data()``: ``terminals = draw_terminals(data.draw, graph)``.
    """
    components = connected_components(graph)
    if not components:
        return set()
    pool = sorted(max(components, key=len), key=repr)
    upper = min(max_terminals, len(pool))
    lower = min(min_terminals, upper)
    size = draw(st.integers(min_value=lower, max_value=upper))
    if size == 0:
        return set()
    return draw(st.sets(st.sampled_from(pool), min_size=size, max_size=size))


@st.composite
def graphs_with_terminals(draw, graphs=None, max_terminals: int = 4):
    """Pairs ``(graph, terminals)`` with terminals inside one component."""
    strategy = graphs if graphs is not None else bipartite_graphs()
    graph = draw(strategy)
    terminals = draw_terminals(draw, graph, max_terminals=max_terminals)
    return graph, terminals
