"""Maximum cardinality search (MCS) on graphs.

Tarjan and Yannakakis showed that visiting vertices in decreasing order of
"number of already-visited neighbours" produces, when the visit order is
reversed, a perfect elimination ordering whenever the graph is chordal.
MCS is the ordering engine behind :func:`repro.chordality.chordal.is_chordal`
and is the graph analogue of the hyperedge MCS used by Algorithm 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.graphs.graph import Graph, Vertex


def maximum_cardinality_search(
    graph: Graph, start: Optional[Vertex] = None
) -> List[Vertex]:
    """Return the MCS visit order of the vertices.

    Ties are broken deterministically by ``repr``.  Disconnected graphs are
    handled by restarting from an unvisited vertex with the usual rule
    (weight comparison), which simply picks an arbitrary vertex of a new
    component when all remaining weights are zero.
    """
    vertices = graph.sorted_vertices()
    if not vertices:
        return []
    if start is not None and start not in graph:
        raise ValueError(f"start vertex {start!r} is not in the graph")
    weights: Dict[Vertex, int] = {v: 0 for v in vertices}
    visited: Dict[Vertex, bool] = {v: False for v in vertices}
    order: List[Vertex] = []
    for step in range(len(vertices)):
        if step == 0 and start is not None:
            chosen = start
        else:
            chosen = max(
                (v for v in vertices if not visited[v]),
                key=lambda v: (weights[v], _repr_key(v)),
            )
        visited[chosen] = True
        order.append(chosen)
        for neighbor in graph.neighbors(chosen):
            if not visited[neighbor]:
                weights[neighbor] += 1
    return order


def mcs_elimination_ordering(graph: Graph, start: Optional[Vertex] = None) -> List[Vertex]:
    """Return the reversed MCS order, which is a PEO iff the graph is chordal."""
    return list(reversed(maximum_cardinality_search(graph, start=start)))


def _repr_key(vertex: Vertex):
    """Tie-break key: lexicographically smaller repr wins inside ``max``."""
    text = repr(vertex)
    return tuple(-ord(ch) for ch in text)
