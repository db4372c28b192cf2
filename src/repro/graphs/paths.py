"""Paths in graphs: shortest paths, simple-path enumeration, nonredundant paths.

Definition 4 of the paper defines a *path* as a sequence of distinct
vertices with consecutive vertices adjacent, and Definition 10 defines a
path between ``v1`` and ``v2`` to be *nonredundant* (resp. *minimum*) when
the subgraph induced by its vertices is a nonredundant (resp. minimum)
cover of ``{v1, v2}``.  Lemma 4 characterises (6,2)-chordal bipartite
graphs through these notions, so this module provides both enumeration of
simple paths and the redundancy/minimality predicates.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.exceptions import GraphError
from repro.graphs.graph import Graph, Vertex
from repro.graphs.traversal import bfs_distances


def shortest_path(graph: Graph, source: Vertex, target: Vertex) -> Optional[List[Vertex]]:
    """Return one shortest path from ``source`` to ``target`` or ``None``.

    Ties are broken deterministically (lexicographically by ``repr``).
    """
    if source not in graph or target not in graph:
        raise GraphError("both endpoints must belong to the graph")
    if source == target:
        return [source]
    parents: Dict[Vertex, Vertex] = {}
    visited = {source}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in sorted(graph.neighbors(current), key=repr):
            if neighbor in visited:
                continue
            visited.add(neighbor)
            parents[neighbor] = current
            if neighbor == target:
                return _reconstruct(parents, source, target)
            queue.append(neighbor)
    return None


def _reconstruct(parents: Dict[Vertex, Vertex], source: Vertex, target: Vertex) -> List[Vertex]:
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def is_path(graph: Graph, vertices: Sequence[Vertex]) -> bool:
    """Return ``True`` when ``vertices`` is a path in the sense of Definition 4.

    The sequence must consist of distinct vertices of the graph with every
    consecutive pair adjacent.  A single vertex is a (length-0) path.
    """
    if not vertices:
        return False
    if len(set(vertices)) != len(vertices):
        return False
    if any(v not in graph for v in vertices):
        return False
    return all(
        graph.has_edge(vertices[i], vertices[i + 1]) for i in range(len(vertices) - 1)
    )


def path_length(vertices: Sequence[Vertex]) -> int:
    """Return the length (number of edges) of a path given as a vertex sequence."""
    if not vertices:
        raise ValueError("a path must contain at least one vertex")
    return len(vertices) - 1


def simple_paths(
    graph: Graph,
    source: Vertex,
    target: Vertex,
    max_length: Optional[int] = None,
    limit: Optional[int] = None,
) -> Iterator[List[Vertex]]:
    """Yield every simple path from ``source`` to ``target``.

    Parameters
    ----------
    max_length:
        When given, paths longer than this many edges are not explored.
    limit:
        When given, stop after yielding this many paths.

    Notes
    -----
    Path enumeration is exponential in the worst case; the callers inside
    this library only use it on small graphs (figure instances, randomly
    generated test cases) or with explicit caps.
    """
    if source not in graph or target not in graph:
        raise GraphError("both endpoints must belong to the graph")
    yielded = 0
    stack: List[Vertex] = [source]
    on_stack: Set[Vertex] = {source}

    def _extend() -> Iterator[List[Vertex]]:
        nonlocal yielded
        current = stack[-1]
        if current == target and len(stack) > 1 or (current == target and source == target):
            yield list(stack)
            return
        if current == target:
            yield list(stack)
            return
        if max_length is not None and len(stack) - 1 >= max_length:
            return
        for neighbor in sorted(graph.neighbors(current), key=repr):
            if neighbor in on_stack:
                continue
            stack.append(neighbor)
            on_stack.add(neighbor)
            yield from _extend()
            on_stack.discard(neighbor)
            stack.pop()

    for path in _extend():
        yield path
        yielded += 1
        if limit is not None and yielded >= limit:
            return


def is_nonredundant_path(graph: Graph, vertices: Sequence[Vertex]) -> bool:
    """Return ``True`` when the path is nonredundant (Definition 10).

    A path between ``v1`` and ``v2`` is nonredundant when the subgraph
    induced by its vertices, with any single internal vertex removed, is no
    longer a connected subgraph containing both endpoints.
    """
    if not is_path(graph, vertices):
        return False
    if len(vertices) <= 2:
        return True
    endpoints = {vertices[0], vertices[-1]}
    induced = graph.subgraph(vertices)
    for vertex in vertices:
        if vertex in endpoints:
            continue
        reduced = induced.without_vertex(vertex)
        if _connects(reduced, vertices[0], vertices[-1]):
            return False
    return True


def is_minimum_path(graph: Graph, vertices: Sequence[Vertex]) -> bool:
    """Return ``True`` when no path between the same endpoints uses fewer vertices.

    Since every path between ``u`` and ``v`` with ``k`` vertices induces a
    connected subgraph containing both, the minimum number of vertices over
    all covers of ``{u, v}`` equals the shortest-path distance plus one.
    """
    if not is_path(graph, vertices):
        return False
    source, target = vertices[0], vertices[-1]
    distances = bfs_distances(graph, source)
    if target not in distances:
        return False
    return len(vertices) == distances[target] + 1


def nonredundant_paths(
    graph: Graph,
    source: Vertex,
    target: Vertex,
    max_length: Optional[int] = None,
    limit: Optional[int] = None,
) -> Iterator[List[Vertex]]:
    """Yield the nonredundant simple paths between two vertices.

    Equivalent to filtering :func:`simple_paths` by
    :func:`is_nonredundant_path`; used by the tests of Lemma 4.
    """
    for path in simple_paths(graph, source, target, max_length=max_length):
        if is_nonredundant_path(graph, path):
            yield path
            if limit is not None:
                limit -= 1
                if limit <= 0:
                    return


def induced_path_exists(graph: Graph, length: int) -> bool:
    """Return ``True`` when the graph contains an induced path with ``length`` edges."""
    vertices = list(graph.vertices())

    def _search(path: List[Vertex], members: Set[Vertex]) -> bool:
        if len(path) - 1 == length:
            return True
        current = path[-1]
        for neighbor in graph.neighbors(current):
            if neighbor in members:
                continue
            # induced: the new vertex may only be adjacent to the last one
            if any(graph.has_edge(neighbor, other) for other in path[:-1]):
                continue
            path.append(neighbor)
            members.add(neighbor)
            if _search(path, members):
                return True
            members.discard(neighbor)
            path.pop()
        return False

    for start in vertices:
        if _search([start], {start}):
            return True
    return False


def _connects(graph: Graph, source: Vertex, target: Vertex) -> bool:
    if source not in graph or target not in graph:
        return False
    return target in bfs_distances(graph, source)
