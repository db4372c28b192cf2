"""Side-based chordality: ``V_i``-chordality and ``V_i``-conformality.

Definition 5 of the paper introduces a weaker, asymmetric chordality notion
on a bipartite graph ``G = (V1, V2, A)``.  Under the convention spelled out
in ``DESIGN.md`` (the one forced by the usages in Theorems 2-4):

* ``G`` is **``V_i``-chordal** when every cycle of length >= 8 contains two
  vertices (necessarily of ``V_{3-i}``) whose distance along the cycle is at
  least 4 and that have a common neighbour in ``V_i``;
* ``G`` is **``V_i``-conformal** when every set of ``V_{3-i}``-vertices with
  pairwise distance 2 has a common neighbour in ``V_i``.

Theorem 1(v)/(vi): ``G`` is ``V_i``-chordal and ``V_i``-conformal iff the
hypergraph ``H_i(G)`` (one hyperedge per ``V_i``-vertex) is alpha-acyclic,
i.e. iff its primal graph is chordal and it is conformal.

Each notion gets a definitional implementation working directly on the
bipartite graph and an efficient one routed through the hypergraph; the
test-suite cross-validates them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Set

from repro.chordality.chordal import is_chordal
from repro.exceptions import BipartitenessError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.cliques import maximal_cliques
from repro.graphs.cycles import cycle_distance, simple_cycles
from repro.graphs.graph import Graph, Vertex
from repro.hypergraphs.conformality import is_conformal
from repro.hypergraphs.conversions import hypergraph_of_side


def _check_side(side: int) -> None:
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side!r}")


def distance_two_graph(graph: BipartiteGraph, side: int) -> Graph:
    """Return the graph on ``V_{3-side}`` joining vertices at distance 2.

    Two vertices of ``V_{3-side}`` are adjacent in the result exactly when
    they share a neighbour in ``V_side`` -- this is the primal graph of
    ``H_side(G)`` computed directly from the bipartite graph.
    """
    _check_side(side)
    targets = graph.side(3 - side)
    result = Graph(vertices=targets)
    for hub in graph.side(side):
        neighbors = sorted(graph.neighbors(hub), key=repr)
        for i, u in enumerate(neighbors):
            for v in neighbors[i + 1:]:
                result.add_edge(u, v)
    return result


# ----------------------------------------------------------------------
# V_i-chordality
# ----------------------------------------------------------------------
def is_side_chordal(
    graph: BipartiteGraph, side: int, method: str = "primal"
) -> bool:
    """Return ``True`` when the bipartite graph is ``V_side``-chordal.

    ``method="primal"`` (default, polynomial) checks chordality of the
    primal graph of ``H_side(G)``; ``method="cycles"`` runs the
    definitional check by enumerating the cycles of length >= 8
    (exponential, meant for small instances and cross-validation).
    """
    _check_side(side)
    if not isinstance(graph, BipartiteGraph):
        raise BipartitenessError("V_i-chordality is defined on bipartite graphs")
    if method == "primal":
        return is_chordal(distance_two_graph(graph, side))
    if method != "cycles":
        raise ValueError(f"unknown method {method!r}")
    for cycle in simple_cycles(graph, min_length=8):
        if not _cycle_has_side_shortcut(graph, cycle, side):
            return False
    return True


def _cycle_has_side_shortcut(graph: BipartiteGraph, cycle, side: int) -> bool:
    """Does some ``V_side`` vertex shortcut two far-apart cycle vertices?"""
    others = [v for v in cycle if graph.side_of(v) != side]
    for u, w in combinations(others, 2):
        if cycle_distance(cycle, u, w) < 4:
            continue
        if graph.neighbors(u) & graph.neighbors(w) & graph.side(side):
            return True
    return False


# ----------------------------------------------------------------------
# V_i-conformality
# ----------------------------------------------------------------------
def is_side_conformal(
    graph: BipartiteGraph, side: int, method: str = "hypergraph"
) -> bool:
    """Return ``True`` when the bipartite graph is ``V_side``-conformal.

    ``method="hypergraph"`` (default) tests conformality of ``H_side(G)``
    with Gilmore's criterion; ``method="cliques"`` enumerates the maximal
    sets of pairwise-distance-2 vertices of ``V_{3-side}`` and checks each
    for a common ``V_side`` neighbour (the definitional reading of
    Definition 5).
    """
    _check_side(side)
    if not isinstance(graph, BipartiteGraph):
        raise BipartitenessError("V_i-conformality is defined on bipartite graphs")
    if method == "hypergraph":
        hypergraph = hypergraph_of_side(graph, side=side)
        if hypergraph.number_of_edges() == 0:
            return True
        return is_conformal(hypergraph, method="gilmore")
    if method != "cliques":
        raise ValueError(f"unknown method {method!r}")
    squared = distance_two_graph(graph, side)
    hubs = graph.side(side)
    for clique in maximal_cliques(squared):
        if len(clique) <= 1:
            continue
        common: Optional[Set[Vertex]] = None
        for vertex in clique:
            neighbors = graph.neighbors(vertex) & hubs
            common = neighbors if common is None else (common & neighbors)
            if not common:
                return False
    return True


def is_side_chordal_and_conformal(
    graph: BipartiteGraph, side: int, method: str = "efficient"
) -> bool:
    """Conjunction of ``V_side``-chordality and ``V_side``-conformality.

    By Theorem 1(v)/(vi) this is equivalent to alpha-acyclicity of
    ``H_side(G)``; with ``method="alpha"`` the test is routed through the
    GYO reduction on that hypergraph.  Every method here is a label-space
    reference: the serving path (classification and Algorithm 1 plans)
    decides the same fact on ids with one restricted maximum cardinality
    search, :func:`~repro.hypergraphs.reduction.running_intersection_order`.
    """
    _check_side(side)
    if method == "alpha":
        from repro.hypergraphs.acyclicity import is_alpha_acyclic

        hypergraph = hypergraph_of_side(graph, side=side)
        if hypergraph.number_of_edges() == 0:
            return True
        return is_alpha_acyclic(hypergraph, method="gyo")
    if method == "efficient":
        return is_side_chordal(graph, side, method="primal") and is_side_conformal(
            graph, side, method="hypergraph"
        )
    if method == "definitional":
        return is_side_chordal(graph, side, method="cycles") and is_side_conformal(
            graph, side, method="cliques"
        )
    raise ValueError(f"unknown method {method!r}")
