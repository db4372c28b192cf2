"""The shared read-only graph protocol of the two backends.

Every algorithm ported to the dual-backend regime is written against
:class:`GraphReadProtocol` -- the intersection of the read APIs of the
hashable-vertex :class:`~repro.graphs.graph.Graph` and the integer-indexed
:class:`~repro.graphs.indexed.IndexedGraph`:

========================  =====================================================
method                    meaning
========================  =====================================================
``vertices()``            fresh vertex set
``sorted_vertices()``     deterministic scan order (repr-sorted / ascending id)
``neighbors(v)``          fresh neighbour set (``Adj(v)``)
``has_edge(u, v)``        adjacency test
``degree(v)``             ``|Adj(v)|``
``number_of_vertices()``  ``|V|``
``number_of_edges()``     ``|A|``
``edges()``               each edge reported once
``subgraph(W)``           induced subgraph preserving vertex identity
``is_clique(W)``          pairwise adjacency test
``v in g`` / ``len(g)``   membership / vertex count
========================  =====================================================

Functions that only consume this protocol (BFS, spanning trees, the
Steiner heuristics, the elimination procedures ...) accept either backend
transparently; the hot paths additionally dispatch on
:func:`is_indexed` to integer-array fast lanes.  Mutation
(``add_edge`` / ``remove_vertex``) is deliberately excluded:
:class:`IndexedGraph` is immutable, and code that needs to mutate first
materialises a :class:`Graph` via ``subgraph`` or ``to_graph``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Protocol, Set, Tuple, runtime_checkable

from repro.graphs.indexed import GraphIndex, IndexedGraph, to_indexed


@runtime_checkable
class GraphReadProtocol(Protocol):
    """Structural type implemented by both graph backends (read-only)."""

    def vertices(self) -> Set: ...

    def sorted_vertices(self) -> List: ...

    def neighbors(self, vertex) -> Set: ...

    def has_edge(self, u, v) -> bool: ...

    def degree(self, vertex) -> int: ...

    def number_of_vertices(self) -> int: ...

    def number_of_edges(self) -> int: ...

    def edges(self) -> Iterator[Tuple]: ...

    def subgraph(self, vertices: Iterable): ...

    def is_clique(self, vertices: Iterable) -> bool: ...

    def __contains__(self, vertex) -> bool: ...

    def __len__(self) -> int: ...


def is_indexed(graph) -> bool:
    """Return ``True`` when ``graph`` is the integer-indexed fast backend."""
    return isinstance(graph, IndexedGraph)


def ensure_indexed(graph) -> Tuple[IndexedGraph, GraphIndex]:
    """Return an ``(IndexedGraph, GraphIndex)`` view of any backend.

    An :class:`IndexedGraph` is returned as-is with an identity index; a
    hashable-vertex graph is converted through :func:`to_indexed`.
    """
    if isinstance(graph, IndexedGraph):
        return graph, GraphIndex(range(graph.n))
    return to_indexed(graph)
