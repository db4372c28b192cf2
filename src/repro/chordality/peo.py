"""Perfect elimination orderings.

A vertex is *simplicial* when its neighbourhood is a clique; an ordering
``v_1, ..., v_n`` of the vertices is a *perfect elimination ordering* (PEO)
when every ``v_i`` is simplicial in the subgraph induced by
``{v_i, ..., v_n}``.  A graph is chordal ((4,1)-chordal in the paper's
terminology) iff it has a PEO -- this classical fact is what both the
maximum-cardinality-search and the lexicographic-BFS chordality tests rely
on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.graphs.graph import Graph, Vertex
from repro.utils.ordering import is_permutation_of


def is_simplicial(graph: Graph, vertex: Vertex) -> bool:
    """Return ``True`` when the neighbourhood of ``vertex`` is a clique."""
    return graph.is_clique(graph.neighbors(vertex))


def is_perfect_elimination_ordering(graph: Graph, ordering: Sequence[Vertex]) -> bool:
    """Check whether ``ordering`` is a perfect elimination ordering.

    The check runs in ``O(sum of deg^2)`` using the standard "later
    neighbours must be adjacent to the next later neighbour" criterion.
    """
    ordering = list(ordering)
    if not is_permutation_of(ordering, graph.vertices()):
        raise ValueError("ordering must list every vertex exactly once")
    position: Dict[Vertex, int] = {v: i for i, v in enumerate(ordering)}
    for vertex in ordering:
        later = [u for u in graph.neighbors(vertex) if position[u] > position[vertex]]
        if not later:
            continue
        pivot = min(later, key=lambda u: position[u])
        for other in later:
            if other == pivot:
                continue
            if not graph.has_edge(pivot, other):
                return False
    return True


def greedy_simplicial_elimination(graph: Graph) -> Optional[List[Vertex]]:
    """Return a PEO built by repeatedly deleting simplicial vertices.

    Chordal graphs always contain a simplicial vertex, and deleting one
    preserves chordality, so the greedy procedure succeeds exactly on
    chordal graphs.  ``None`` is returned when it gets stuck.  This is the
    slowest but most transparent of the three chordality tests and is used
    as the reference implementation in the tests.
    """
    working = graph.copy()
    order: List[Vertex] = []
    while working.number_of_vertices() > 0:
        candidate = None
        for vertex in working.sorted_vertices():
            if is_simplicial(working, vertex):
                candidate = vertex
                break
        if candidate is None:
            return None
        order.append(candidate)
        working.remove_vertex(candidate)
    return order


def elimination_fill_in(graph: Graph, ordering: Sequence[Vertex]) -> Set[frozenset]:
    """Return the fill-in edges produced by eliminating along ``ordering``.

    Eliminating a vertex connects all of its still-uneliminated neighbours
    into a clique; the returned set contains the edges that had to be added
    in the process.  The ordering is a PEO iff the fill-in is empty.
    """
    ordering = list(ordering)
    if not is_permutation_of(ordering, graph.vertices()):
        raise ValueError("ordering must list every vertex exactly once")
    working = graph.copy()
    fill: Set[frozenset] = set()
    for vertex in ordering:
        neighbors = sorted(working.neighbors(vertex), key=repr)
        for i, u in enumerate(neighbors):
            for v in neighbors[i + 1:]:
                if not working.has_edge(u, v):
                    working.add_edge(u, v)
                    fill.add(frozenset((u, v)))
        working.remove_vertex(vertex)
    return fill
