"""Random generators for the graph / schema classes used in the experiments.

Every benchmark harness needs workloads drawn from a specific class
(Berge-, gamma-, beta-, alpha-acyclic schemas; (6,2)-chordal graphs; X3C
reduction instances).  The generators below construct members of each class
*by construction* (not by rejection sampling), so arbitrarily large
instances can be produced; the test-suite nevertheless verifies class
membership on samples, which doubles as an extra cross-check of the
recognition algorithms.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.semantic.relational import RelationalSchema
from repro.utils.rng import RandomLike, ensure_rng


# ----------------------------------------------------------------------
# hypergraph / schema generators, one per acyclicity degree
# ----------------------------------------------------------------------
def random_berge_acyclic_schema(
    relations: int, max_arity: int = 4, rng: RandomLike = None
) -> RelationalSchema:
    """Random Berge-acyclic schema: relations overlap in at most one attribute.

    The relations are attached in a tree pattern, each sharing exactly one
    attribute with a previously generated relation and otherwise using
    fresh attributes; the incidence graph is then a tree (Berge-acyclic).
    """
    generator = ensure_rng(rng)
    schemes = {}
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"a{counter}"

    first_arity = generator.randint(2, max_arity)
    schemes["R0"] = [fresh() for _ in range(first_arity)]
    for index in range(1, relations):
        parent = f"R{generator.randrange(index)}"
        shared = generator.choice(sorted(schemes[parent]))
        arity = generator.randint(2, max_arity)
        schemes[f"R{index}"] = [shared] + [fresh() for _ in range(arity - 1)]
    return RelationalSchema(schemes)


def random_beta_acyclic_schema(
    relations: int, attributes: int = 12, max_arity: int = 5, rng: RandomLike = None
) -> RelationalSchema:
    """Random beta-acyclic schema built from attribute intervals.

    Attributes are linearly ordered and every relation scheme is an interval
    of that order; interval hypergraphs are beta-acyclic (every right-most
    attribute of the order is a nest point) but generally not gamma-acyclic,
    which makes them good separators between the two classes.
    """
    generator = ensure_rng(rng)
    names = [f"a{i}" for i in range(attributes)]
    schemes = {}
    for index in range(relations):
        width = generator.randint(2, min(max_arity, attributes))
        start = generator.randrange(attributes - width + 1)
        schemes[f"R{index}"] = names[start: start + width]
    return RelationalSchema(schemes)


def random_gamma_acyclic_schema(
    blocks: int, max_block_relations: int = 3, max_arity: int = 4, rng: RandomLike = None
) -> RelationalSchema:
    """Random gamma-acyclic schema: blocks of nested relations glued in a tree.

    Each block consists of one "base" relation plus copies of it restricted
    to prefixes (nested chains create no gamma pattern); blocks are glued to
    the existing schema through a single shared attribute.  The resulting
    hypergraph is gamma-acyclic, and typically not Berge-acyclic because
    nested relations share several attributes.
    """
    generator = ensure_rng(rng)
    schemes = {}
    counter = 0
    relation_counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"a{counter}"

    anchor: Optional[str] = None
    for _block in range(blocks):
        arity = generator.randint(2, max_arity)
        base = [fresh() for _ in range(arity)]
        if anchor is not None:
            base[0] = anchor
        name = f"R{relation_counter}"
        relation_counter += 1
        schemes[name] = list(base)
        for _extra in range(generator.randint(0, max_block_relations - 1)):
            prefix_length = generator.randint(2, arity) if arity >= 2 else arity
            schemes[f"R{relation_counter}"] = base[:prefix_length]
            relation_counter += 1
        anchor = generator.choice(sorted(base))
    return RelationalSchema(schemes)


def random_alpha_acyclic_schema(
    relations: int, max_arity: int = 5, max_shared: int = 3, rng: RandomLike = None
) -> RelationalSchema:
    """Random alpha-acyclic schema built along a random join tree.

    Each new relation picks a parent, inherits a random subset of the
    parent's attributes (possibly several of them -- which is what pushes
    the schema out of the beta/gamma classes) and adds fresh attributes.
    The construction satisfies the running intersection property, hence is
    alpha-acyclic.
    """
    generator = ensure_rng(rng)
    schemes = {}
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"a{counter}"

    first_arity = generator.randint(2, max_arity)
    schemes["R0"] = [fresh() for _ in range(first_arity)]
    for index in range(1, relations):
        parent_name = f"R{generator.randrange(index)}"
        parent = sorted(schemes[parent_name])
        shared_count = generator.randint(1, min(max_shared, len(parent)))
        shared = generator.sample(parent, shared_count)
        arity = max(shared_count + 1, generator.randint(2, max_arity))
        fresh_count = arity - shared_count
        schemes[f"R{index}"] = shared + [fresh() for _ in range(fresh_count)]
    return RelationalSchema(schemes)


# ----------------------------------------------------------------------
# bipartite graph generators per chordality class
# ----------------------------------------------------------------------
def random_62_chordal_graph(
    blocks: int,
    max_left: int = 3,
    max_right: int = 3,
    rng: RandomLike = None,
) -> BipartiteGraph:
    """Random (6,2)-chordal bipartite graph: a tree of complete bipartite blocks.

    Complete bipartite graphs are (6,2)-chordal (every long cycle has all
    its chords), and gluing blocks at single cut vertices creates no new
    cycles, so the whole construction stays (6,2)-chordal while being far
    from complete globally.
    """
    generator = ensure_rng(rng)
    graph = BipartiteGraph()
    next_id = 0

    def fresh(side: int) -> Tuple[str, int]:
        nonlocal next_id
        next_id += 1
        vertex = ("l" if side == 1 else "r", next_id)
        graph.add_to_side(vertex, side)
        return vertex

    attach_points: List[Tuple[Tuple[str, int], int]] = []
    for block in range(blocks):
        left_size = generator.randint(1, max_left)
        right_size = generator.randint(1, max_right)
        if block == 0 or not attach_points:
            left = [fresh(1) for _ in range(left_size)]
            right = [fresh(2) for _ in range(right_size)]
        else:
            anchor, anchor_side = attach_points[generator.randrange(len(attach_points))]
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


def random_alpha_schema_graph(
    relations: int, max_arity: int = 5, max_shared: int = 3, rng: RandomLike = None
) -> BipartiteGraph:
    """Schema graph (attributes on ``V_1``, relations on ``V_2``) of a random alpha-acyclic schema.

    By Theorem 1 this graph is ``V_2``-chordal and ``V_2``-conformal: the
    workload for Algorithm 1.
    """
    schema = random_alpha_acyclic_schema(
        relations, max_arity=max_arity, max_shared=max_shared, rng=rng
    )
    return schema.schema_graph()


def random_beta_schema_graph(
    relations: int, attributes: int = 12, max_arity: int = 5, rng: RandomLike = None
) -> BipartiteGraph:
    """Schema graph of a random beta-acyclic (interval) schema: (6,1)-chordal."""
    schema = random_beta_acyclic_schema(
        relations, attributes=attributes, max_arity=max_arity, rng=rng
    )
    return schema.schema_graph()


def random_gamma_schema_graph(
    blocks: int, max_block_relations: int = 3, max_arity: int = 4, rng: RandomLike = None
) -> BipartiteGraph:
    """Schema graph of a random gamma-acyclic schema: (6,2)-chordal."""
    schema = random_gamma_acyclic_schema(
        blocks, max_block_relations=max_block_relations, max_arity=max_arity, rng=rng
    )
    return schema.schema_graph()


def random_terminals(
    graph: Graph, count: int, rng: RandomLike = None, within_component: bool = True
) -> List[Vertex]:
    """Sample a feasible terminal set of the requested size.

    When ``within_component`` is set (default) the terminals are sampled
    from the largest connected component so that the resulting Steiner
    instance is feasible.
    """
    from repro.graphs.traversal import connected_components

    generator = ensure_rng(rng)
    if within_component:
        components = connected_components(graph)
        pool = sorted(max(components, key=len), key=repr)
    else:
        pool = graph.sorted_vertices()
    count = min(count, len(pool))
    return generator.sample(pool, count)


def random_hypergraph(
    nodes: int, edges: int, max_arity: int = 4, rng: RandomLike = None
) -> Hypergraph:
    """Random unrestricted hypergraph (for property-based cross-validation)."""
    generator = ensure_rng(rng)
    node_names = [f"n{i}" for i in range(nodes)]
    hypergraph = Hypergraph(nodes=node_names)
    for index in range(edges):
        arity = generator.randint(1, min(max_arity, nodes))
        hypergraph.add_edge(generator.sample(node_names, arity), label=f"e{index}")
    return hypergraph
