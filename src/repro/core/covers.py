"""Covers of a terminal set (Definition 10) and greedy elimination.

For a bipartite graph ``G = (V1, V2, A)``, an induced subgraph ``G'`` is a
*cover* of a terminal set ``P`` when it is connected and contains ``P``;
it is *nonredundant* when no single vertex can be dropped while remaining a
cover, *minimum* when no cover uses fewer vertices, and the ``V_i``
variants count only the vertices of one side.

The *greedy elimination* procedure -- scan the vertices in a given order
and drop each one whose removal leaves a cover -- always produces a
nonredundant cover; Definition 11 calls an ordering *good* when greedy
elimination along it produces a **minimum** cover for *every* terminal set.
Lemma 5 shows that on (6,2)-chordal graphs every nonredundant cover is
minimum (hence every ordering is good, Corollary 5), while Theorem 6
exhibits a (6,1)-chordal graph where no ordering is good.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Set

from repro.exceptions import DisconnectedTerminalsError, ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph, Vertex
from repro.graphs.traversal import (
    component_containing,
    is_connected,
    vertices_in_same_component,
)


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------
def is_cover(graph: Graph, vertices: Iterable[Vertex], terminals: Iterable[Vertex]) -> bool:
    """Return ``True`` when the subgraph induced by ``vertices`` covers ``terminals``.

    (Definition 10: connected and containing every terminal.)
    """
    kept = {v for v in vertices if v in graph}
    terminal_list = list(terminals)
    if any(t not in kept for t in terminal_list):
        return False
    induced = graph.subgraph(kept)
    return is_connected(induced)


def connects_terminals(
    graph: Graph, vertices: Iterable[Vertex], terminals: Iterable[Vertex]
) -> bool:
    """Return ``True`` when ``terminals`` lie in one component of the induced subgraph.

    This is the notion of "``v`` is redundant with respect to the
    connection of ``P``" used by the elimination procedures (Definition 11,
    Step 1 of Algorithm 2, Step 2 of Algorithm 1): a vertex may be dropped
    when the *terminals* remain connected, even if some other vertex --
    typically a pendant that will itself be dropped later -- becomes
    temporarily isolated.  The final cover reported by those procedures is
    the terminals' component, which is connected and therefore a cover in
    the sense of :func:`is_cover`.
    """
    kept = {v for v in vertices if v in graph}
    terminal_list = list(terminals)
    if any(t not in kept for t in terminal_list):
        return False
    induced = graph.subgraph(kept)
    return vertices_in_same_component(induced, terminal_list)


def terminal_component(
    graph: Graph, vertices: Iterable[Vertex], terminals: Iterable[Vertex]
) -> Set[Vertex]:
    """Return the vertex set of the terminals' component inside the induced subgraph."""
    kept = {v for v in vertices if v in graph}
    induced = graph.subgraph(kept)
    return component_containing(induced, next(iter(set(terminals))))


def is_nonredundant_cover(
    graph: Graph, vertices: Iterable[Vertex], terminals: Iterable[Vertex]
) -> bool:
    """Return ``True`` when the vertex set is a cover and no vertex can be dropped."""
    kept = set(vertices)
    terminal_set = set(terminals)
    if not is_cover(graph, kept, terminal_set):
        return False
    for vertex in kept:
        if vertex in terminal_set:
            continue
        if is_cover(graph, kept - {vertex}, terminal_set):
            return False
    return True


def minimum_cover_size(graph: Graph, terminals: Iterable[Vertex]) -> int:
    """Return the size of a minimum cover of ``terminals`` (exhaustive search).

    Exponential in the number of non-terminal vertices; intended for ground
    truth on small instances (every vertex count claimed by the fast
    algorithms is validated against this in the tests).
    """
    terminal_set = set(terminals)
    if not vertices_in_same_component(graph, terminal_set):
        raise DisconnectedTerminalsError("the terminals cannot be covered")
    optional = sorted(graph.vertices() - terminal_set, key=repr)
    for extra in range(len(optional) + 1):
        for subset in combinations(optional, extra):
            if is_cover(graph, terminal_set | set(subset), terminal_set):
                return len(terminal_set) + extra
    raise DisconnectedTerminalsError("the terminals cannot be covered")


def is_minimum_cover(
    graph: Graph, vertices: Iterable[Vertex], terminals: Iterable[Vertex]
) -> bool:
    """Return ``True`` when the vertex set is a cover of minimum cardinality."""
    kept = set(vertices)
    terminal_set = set(terminals)
    if not is_cover(graph, kept, terminal_set):
        return False
    return len(kept) == minimum_cover_size(graph, terminal_set)


def minimum_side_cover_size(
    graph: BipartiteGraph, terminals: Iterable[Vertex], side: int
) -> int:
    """Return the minimum number of ``V_side`` vertices over all covers.

    This is the ``V_i``-minimum cover objective of Definition 10 and the
    pseudo-Steiner optimum of Definition 9 (exhaustive; small instances).
    """
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {side!r}")
    terminal_set = set(terminals)
    if not vertices_in_same_component(graph, terminal_set):
        raise DisconnectedTerminalsError("the terminals cannot be covered")
    side_vertices = graph.side(side)
    other_vertices = graph.side(3 - side)
    mandatory = terminal_set & side_vertices
    optional = sorted(side_vertices - terminal_set, key=repr)
    for extra in range(len(optional) + 1):
        for subset in combinations(optional, extra):
            kept = set(subset) | mandatory | other_vertices | terminal_set
            induced = graph.subgraph(kept)
            if vertices_in_same_component(induced, terminal_set):
                return len(mandatory) + extra
    raise DisconnectedTerminalsError("the terminals cannot be covered")


def is_side_minimum_cover(
    graph: BipartiteGraph,
    vertices: Iterable[Vertex],
    terminals: Iterable[Vertex],
    side: int,
) -> bool:
    """Return ``True`` when the cover minimises the number of ``V_side`` vertices."""
    kept = set(vertices)
    terminal_set = set(terminals)
    if not is_cover(graph, kept, terminal_set):
        return False
    used = sum(1 for v in kept if graph.side_of(v) == side)
    return used == minimum_side_cover_size(graph, terminal_set, side)


# ----------------------------------------------------------------------
# greedy elimination
# ----------------------------------------------------------------------
def greedy_elimination_cover(
    graph: Graph,
    terminals: Iterable[Vertex],
    ordering: Optional[Sequence[Vertex]] = None,
    removal_batches: bool = False,
) -> Set[Vertex]:
    """Greedily eliminate redundant vertices along ``ordering``.

    Starting from the connected component containing the terminals, each
    vertex of the ordering is removed when the remainder is still a cover
    of the terminals.  The result is always a nonredundant cover.

    Parameters
    ----------
    ordering:
        The elimination order (vertices missing from it are never removed);
        defaults to the deterministic sorted order.
    removal_batches:
        When ``True``, a removed vertex drags along its private neighbours
        ``Adj*(v)`` as in Step 2 of Algorithm 1; when ``False`` (default)
        vertices are removed one at a time as in Algorithm 2 / Definition 11.

    Notes
    -----
    A vertex is considered redundant when the *terminals* remain connected
    without it (see :func:`connects_terminals`); the returned vertex set is
    the terminals' component of the final graph, which is always a
    nonredundant cover in the sense of Definition 10.  The surviving graph
    is the subgraph induced by an ``alive`` set: a step marks its
    removals dead and searches from one terminal inside that set, so no
    step copies a subgraph.

    This is the label-space reference of the engine's id lane,
    :func:`~repro.graphs.indexed.indexed_elimination_cover`: on ids
    numbered by :func:`~repro.graphs.indexed.to_indexed` (repr-sorted
    label order) its ascending-id default matches this function's
    repr-sorted default, and the two return the same cover.
    """
    terminal_set = set(terminals)
    if not terminal_set:
        raise ValidationError("the terminal set must be non-empty")
    if not vertices_in_same_component(graph, terminal_set):
        raise DisconnectedTerminalsError("the terminals cannot be covered")
    component = graph.subgraph(component_containing(graph, next(iter(terminal_set))))
    if ordering is None:
        ordering = component.sorted_vertices()
    adjacency = {vertex: component.neighbors(vertex) for vertex in component.vertices()}
    alive = set(adjacency)
    for vertex in ordering:
        if vertex not in alive or vertex in terminal_set:
            continue
        removal = {vertex}
        if removal_batches:
            # Adj*(v) in the surviving graph: alive neighbours whose only
            # alive neighbour is v
            removal.update(
                u
                for u in adjacency[vertex]
                if u in alive
                and all(w == vertex or w not in alive for w in adjacency[u])
            )
            if removal & terminal_set:
                continue
        alive -= removal
        if not _terminals_connected(adjacency, alive, terminal_set):
            alive |= removal
    return terminal_component(graph, alive, terminal_set)


def _terminals_connected(adjacency, alive: Set[Vertex], terminals: Set[Vertex]) -> bool:
    """True when the terminals lie in one component of the subgraph induced by ``alive``."""
    start = next(iter(terminals))
    seen = {start}
    stack = [start]
    missing = len(terminals) - 1
    while stack and missing:
        for u in adjacency[stack.pop()]:
            if u in alive and u not in seen:
                seen.add(u)
                stack.append(u)
                if u in terminals:
                    missing -= 1
    return not missing


def nonredundant_covers(
    graph: Graph, terminals: Iterable[Vertex], limit: Optional[int] = None
) -> List[Set[Vertex]]:
    """Enumerate the nonredundant covers of ``terminals`` (small instances only).

    Every subset of vertices containing the terminals is tested; the result
    is a list of vertex sets.  Used by the Lemma 5 experiments, which need
    "every nonredundant cover is minimum" checked literally.
    """
    terminal_set = set(terminals)
    optional = sorted(graph.vertices() - terminal_set, key=repr)
    found: List[Set[Vertex]] = []
    for size in range(len(optional) + 1):
        for subset in combinations(optional, size):
            candidate = terminal_set | set(subset)
            if is_nonredundant_cover(graph, candidate, terminal_set):
                found.append(candidate)
                if limit is not None and len(found) >= limit:
                    return found
    return found
