"""Lexicographic breadth-first search (Lex-BFS).

Rose, Tarjan and Lueker's Lex-BFS is the second classical linear-time
ordering whose reverse is a perfect elimination ordering exactly on chordal
graphs.  Having both MCS and Lex-BFS gives the library two genuinely
independent chordality tests that the property-based tests compare against
each other and against the brute-force simplicial-elimination reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graphs.graph import Graph, Vertex


def lexicographic_bfs(graph: Graph, start: Optional[Vertex] = None) -> List[Vertex]:
    """Return the Lex-BFS visit order of the vertices.

    Every unvisited vertex keeps its label as a list of visit positions of
    its already-visited neighbours (larger is lexicographically greater);
    this is the straightforward ``O(n^2)``-ish version, which is ample for
    figure-sized instances.
    """
    vertices = graph.sorted_vertices()
    if not vertices:
        return []
    if start is not None and start not in graph:
        raise ValueError(f"start vertex {start!r} is not in the graph")
    labels: Dict[Vertex, List[int]] = {v: [] for v in vertices}
    visited: Dict[Vertex, bool] = {v: False for v in vertices}
    order: List[Vertex] = []
    for step in range(len(vertices)):
        if step == 0 and start is not None:
            chosen = start
        else:
            chosen = max(
                (v for v in vertices if not visited[v]),
                key=lambda v: (labels[v], _repr_key(v)),
            )
        visited[chosen] = True
        order.append(chosen)
        rank = len(vertices) - step  # later visits append smaller numbers
        for neighbor in graph.neighbors(chosen):
            if not visited[neighbor]:
                labels[neighbor].append(rank)
    return order


def lexbfs_elimination_ordering(
    graph: Graph, start: Optional[Vertex] = None
) -> List[Vertex]:
    """Return the reversed Lex-BFS order (a PEO iff the graph is chordal)."""
    return list(reversed(lexicographic_bfs(graph, start=start)))


def _repr_key(vertex: Vertex) -> Tuple[int, ...]:
    text = repr(vertex)
    return tuple(-ord(ch) for ch in text)
