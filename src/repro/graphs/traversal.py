"""Graph traversals, connectivity and distances.

These are the low-level primitives used throughout the library:

* breadth-first search (orders, distances, BFS trees),
* depth-first search,
* connected components and connectivity tests,
* the "is this vertex set covered by one component" test that Definition 10
  (covers) and Algorithms 1 and 2 run in their inner loops.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set

from repro.exceptions import GraphError
from repro.graphs.graph import Graph, Vertex


def bfs_order(graph: Graph, source: Vertex) -> List[Vertex]:
    """Return vertices reachable from ``source`` in BFS order."""
    if source not in graph:
        raise GraphError(f"source vertex {source!r} is not in the graph")
    visited = {source}
    order = [source]
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in sorted(graph.neighbors(current), key=repr):
            if neighbor not in visited:
                visited.add(neighbor)
                order.append(neighbor)
                queue.append(neighbor)
    return order


def bfs_distances(graph: Graph, source: Vertex) -> Dict[Vertex, int]:
    """Return the shortest-path distance (number of edges) from ``source``.

    Unreachable vertices are absent from the result.
    """
    if source not in graph:
        raise GraphError(f"source vertex {source!r} is not in the graph")
    distances = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in graph.neighbors(current):
            if neighbor not in distances:
                distances[neighbor] = distances[current] + 1
                queue.append(neighbor)
    return distances


def bfs_tree(graph: Graph, source: Vertex) -> Dict[Vertex, Optional[Vertex]]:
    """Return a BFS predecessor map ``vertex -> parent`` (source maps to None)."""
    if source not in graph:
        raise GraphError(f"source vertex {source!r} is not in the graph")
    parents: Dict[Vertex, Optional[Vertex]] = {source: None}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in sorted(graph.neighbors(current), key=repr):
            if neighbor not in parents:
                parents[neighbor] = current
                queue.append(neighbor)
    return parents


def dfs_order(graph: Graph, source: Vertex) -> List[Vertex]:
    """Return vertices reachable from ``source`` in (iterative) DFS preorder."""
    if source not in graph:
        raise GraphError(f"source vertex {source!r} is not in the graph")
    visited: Set[Vertex] = set()
    order: List[Vertex] = []
    stack = [source]
    while stack:
        current = stack.pop()
        if current in visited:
            continue
        visited.add(current)
        order.append(current)
        for neighbor in sorted(graph.neighbors(current), key=repr, reverse=True):
            if neighbor not in visited:
                stack.append(neighbor)
    return order


def connected_components(graph: Graph) -> List[Set[Vertex]]:
    """Return the connected components as a list of vertex sets.

    The list is ordered deterministically (by the smallest ``repr`` of a
    member vertex) so that test output is stable.
    """
    remaining = graph.vertices()
    components: List[Set[Vertex]] = []
    for start in graph.sorted_vertices():
        if start not in remaining:
            continue
        component = set(bfs_order(graph, start))
        components.append(component)
        remaining -= component
    return components


def component_containing(graph: Graph, vertex: Vertex) -> Set[Vertex]:
    """Return the vertex set of the component containing ``vertex``."""
    return set(bfs_order(graph, vertex))


def is_connected(graph: Graph) -> bool:
    """Return ``True`` when the graph has at most one connected component."""
    vertices = graph.vertices()
    if len(vertices) <= 1:
        return True
    start = next(iter(vertices))
    return len(bfs_order(graph, start)) == len(vertices)


def vertices_in_same_component(graph: Graph, vertices: Iterable[Vertex]) -> bool:
    """Return ``True`` when all ``vertices`` lie in one connected component.

    This is the notion the paper calls "``P`` is connected in ``C``": the
    terminal set need not induce a connected subgraph, it only needs to be
    connectable inside the host graph.  Vertices missing from the graph make
    the answer ``False``.
    """
    targets = list(vertices)
    if not targets:
        return True
    if any(v not in graph for v in targets):
        return False
    reachable = set(bfs_order(graph, targets[0]))
    return all(v in reachable for v in targets)


def covers(graph: Graph, kept_vertices: Iterable[Vertex], terminals: Iterable[Vertex]) -> bool:
    """Return ``True`` when the subgraph induced by ``kept_vertices`` is a cover of ``terminals``.

    Following Definition 10, the induced subgraph is a *cover* of the
    terminal set when it is connected and contains every terminal.  This
    helper is the inner-loop test of both Algorithm 1 and Algorithm 2
    ("is ``G_{i-1} - {v}`` still a cover of ``P``?").
    """
    kept = {v for v in kept_vertices if v in graph}
    terminal_list = list(terminals)
    if any(t not in kept for t in terminal_list):
        return False
    induced = graph.subgraph(kept)
    return is_connected(induced) and all(t in induced for t in terminal_list)


def distance(graph: Graph, source: Vertex, target: Vertex) -> Optional[int]:
    """Return the shortest-path distance between two vertices, or ``None``."""
    return bfs_distances(graph, source).get(target)


def eccentricity(graph: Graph, vertex: Vertex) -> int:
    """Return the maximum distance from ``vertex`` to any reachable vertex."""
    return max(bfs_distances(graph, vertex).values())


def diameter(graph: Graph) -> int:
    """Return the diameter of a connected graph (0 for a single vertex)."""
    if not is_connected(graph):
        raise GraphError("diameter is only defined for connected graphs")
    if graph.number_of_vertices() == 0:
        raise GraphError("diameter of the empty graph is undefined")
    return max(eccentricity(graph, v) for v in graph.vertices())
