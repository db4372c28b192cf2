"""Maximal cliques (Bron-Kerbosch with pivoting).

Conformality of a hypergraph -- and through Theorem 1 the
``V_i``-conformality of a bipartite graph -- is defined in terms of the
cliques of the primal graph ``G(H)``: every clique must be contained in
some hyperedge.  Because a set is contained in a hyperedge iff every
*maximal* clique containing it is... is not quite true, the definitional
test actually only needs the maximal cliques: every clique is contained in
a maximal clique, and a hyperedge containing the maximal clique contains
the sub-clique as well; conversely if some clique is in no hyperedge then
in particular one of the maximal cliques containing it is in no hyperedge
only if ... -- the precise statement used is: *H is conformal iff every
maximal clique of G(H) is a hyperedge-subset* (Berge), and that is what
:mod:`repro.hypergraphs.conformality` checks with the enumeration below.
"""

from __future__ import annotations

from typing import Iterator, Set

from repro.graphs.graph import Graph, Vertex


def maximal_cliques(graph: Graph) -> Iterator[Set[Vertex]]:
    """Yield every maximal clique of ``graph`` (Bron-Kerbosch with pivoting).

    The enumeration is exponential in the worst case but fast on the sparse
    schema-like graphs used throughout the library.
    """
    vertices = graph.vertices()
    if not vertices:
        return

    def _expand(r: Set[Vertex], p: Set[Vertex], x: Set[Vertex]) -> Iterator[Set[Vertex]]:
        if not p and not x:
            yield set(r)
            return
        # choose a pivot maximising |P ∩ N(pivot)| to prune branches
        pivot_pool = p | x
        pivot = max(pivot_pool, key=lambda v: len(graph.neighbors(v) & p))
        candidates = p - graph.neighbors(pivot)
        for vertex in list(candidates):
            neighbors = graph.neighbors(vertex)
            yield from _expand(r | {vertex}, p & neighbors, x & neighbors)
            p.discard(vertex)
            x.add(vertex)

    yield from _expand(set(), set(vertices), set())


def maximum_clique_size(graph: Graph) -> int:
    """Return the size of a largest clique (0 for the empty graph)."""
    best = 0
    for clique in maximal_cliques(graph):
        best = max(best, len(clique))
    return best
