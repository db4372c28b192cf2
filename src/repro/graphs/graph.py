"""Simple undirected graphs.

The paper works exclusively with finite, simple, undirected graphs
(Definition 1): a graph is a hypergraph whose edges contain exactly two
nodes.  :class:`Graph` is the in-memory representation used everywhere in
this library.  Vertices may be any hashable Python objects; edges are
unordered pairs of distinct vertices.

The class is deliberately small and explicit: an adjacency dictionary plus
the handful of operations the algorithms in the paper need (induced
subgraphs, vertex/edge removal, neighbourhood queries).  Traversals, paths,
cycles and other derived algorithms live in sibling modules so that this
file stays a pure data structure.
"""

from __future__ import annotations

import copy as _copy
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Set, Tuple

from repro.exceptions import GraphError

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

#: Instance attributes owned by :class:`Graph` itself.  The generic
#: subclass-state copy hook (:meth:`Graph._copy_subclass_state_into`) skips
#: these: :meth:`Graph.copy` copies the adjacency rows itself and version
#: bookkeeping starts fresh on every clone.
_GRAPH_BASE_ATTRS = frozenset(
    {"_adjacency", "_mutation_version", "_version_hold", "_version_hold_touched"}
)


class Graph:
    """A finite, simple, undirected graph.

    Parameters
    ----------
    vertices:
        Optional iterable of initial vertices.  Vertices mentioned in
        ``edges`` are added automatically, so this is only needed for
        isolated vertices.
    edges:
        Optional iterable of ``(u, v)`` pairs.

    Examples
    --------
    >>> g = Graph(edges=[("a", "b"), ("b", "c")])
    >>> sorted(g.neighbors("b"))
    ['a', 'c']
    >>> g.number_of_edges()
    2
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self._adjacency: Dict[Vertex, Set[Vertex]] = {}
        self._mutation_version = 0
        # transaction support (repro.dynamic.SchemaEditor): while a hold
        # is active, structural changes do not bump the version, only
        # mark the hold as touched; releasing a touched hold bumps
        # exactly once -- even on rollback -- see _release_version
        self._version_hold = False
        self._version_hold_touched = False
        for vertex in vertices:
            self.add_vertex(vertex)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an iterable of edges only."""
        return cls(edges=edges)

    @classmethod
    def from_adjacency(cls, adjacency: Dict[Vertex, Iterable[Vertex]]) -> "Graph":
        """Build a graph from an adjacency mapping.

        The mapping does not need to be symmetric; both directions are
        added.  Keys with empty iterables become isolated vertices.
        """
        graph = cls()
        for vertex, neighbors in adjacency.items():
            graph.add_vertex(vertex)
            for neighbor in neighbors:
                graph.add_edge(vertex, neighbor)
        return graph

    def copy(self) -> "Graph":
        """Return an independent copy of this graph (subclasses included).

        The clone is built in three steps: fresh base state, then the
        :meth:`_copy_subclass_state_into` hook (which by default carries
        over *every* attribute :class:`Graph` itself does not own), then a
        copy of every adjacency row.  Subclasses therefore round-trip
        through the base ``copy`` without overriding it; a subclass whose
        extra state needs more than a per-attribute shallow copy overrides
        the hook, not ``copy`` itself.

        Costs one C-level set copy per row rather than a replay through
        :meth:`add_vertex`/:meth:`add_edge`, so the clone's
        :attr:`mutation_version` starts at 0.
        """
        clone = type(self).__new__(type(self))
        Graph.__init__(clone)
        self._copy_subclass_state_into(clone)
        clone._adjacency = {
            vertex: row.copy() for vertex, row in self._adjacency.items()
        }
        return clone

    def _copy_subclass_state_into(self, other: "Graph") -> None:
        """Copy non-structural subclass state into ``other`` (overridable hook).

        The default implementation shallow-copies (``copy.copy``) every
        instance attribute not owned by :class:`Graph` itself, so a
        subclass that adds e.g. a side mapping or display names is cloned
        correctly even when it never heard of ``copy()``.
        """
        for name, value in self.__dict__.items():
            if name not in _GRAPH_BASE_ATTRS:
                other.__dict__[name] = _copy.copy(value)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    @property
    def mutation_version(self) -> int:
        """Monotonic counter bumped by every structural change.

        Callers that memoise derived structures (e.g. the service façade's
        bound schema context) compare versions instead of re-fingerprinting
        the whole graph per call; no-op mutations do not bump it.  During
        an open :class:`~repro.dynamic.SchemaEditor` transaction the
        version is *held*: it moves at most once, when the transaction
        ends -- on commit, and also on rollback or a cancelled-out
        commit if any edit ran meanwhile (see :meth:`_release_version`),
        so no reader can stay bound to a mid-transaction snapshot.
        """
        return self._mutation_version

    def _bump_version(self) -> None:
        """Record one structural change (deferred while a hold is active).

        Under a hold the version itself stays put (one bump per
        transaction), but the change is remembered: a touched hold bumps
        at release no matter how it ends, because a version-gated cache
        may have snapshotted the intermediate structure in the meantime.
        """
        if self._version_hold:
            self._version_hold_touched = True
        else:
            self._mutation_version += 1

    def add_vertex(self, vertex: Vertex) -> None:
        """Add ``vertex`` if not already present (idempotent)."""
        if vertex not in self._adjacency:
            self._adjacency[vertex] = set()
            self._bump_version()

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}`` (idempotent).

        Both endpoints are created if missing.  Self-loops are rejected
        because the paper's graphs are simple.
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed (vertex {u!r})")
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adjacency[u]:
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)
            self._bump_version()

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and all edges incident to it."""
        if vertex not in self._adjacency:
            raise GraphError(f"vertex {vertex!r} is not in the graph")
        for neighbor in self._adjacency[vertex]:
            self._adjacency[neighbor].discard(vertex)
        del self._adjacency[vertex]
        self._bump_version()

    def _hold_version(self) -> None:
        """Begin deferring version bumps (one open hold at a time).

        Used by :class:`~repro.dynamic.SchemaEditor`: mutations made
        while the hold is active do not bump the version;
        :meth:`_release_version` turns the whole batch into at most one
        bump.  Raises :class:`GraphError` when a hold is already active,
        which is how nested transactions are rejected.
        """
        if self._version_hold:
            raise GraphError("a version hold (open transaction) is already active")
        self._version_hold = True
        self._version_hold_touched = False

    def _release_version(self, bump: bool) -> None:
        """End a hold; bump once when asked to *or* when the hold was touched.

        The touched case covers rollbacks and structurally cancelled-out
        commits: the graph ends where it started, but a version-gated
        reader that took its first snapshot *during* the transaction
        captured the intermediate structure -- without a bump it would
        keep serving that dirty snapshot forever.  A spurious bump is
        always safe (it merely forces the next reader to revalidate,
        which finds an empty structural delta and reuses everything); a
        missing bump is a permanent stale answer.
        """
        if not self._version_hold:
            raise GraphError("no version hold is active")
        self._version_hold = False
        if bump or self._version_hold_touched:
            self._mutation_version += 1
        self._version_hold_touched = False

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) is not in the graph")
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._bump_version()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def vertices(self) -> Set[Vertex]:
        """Return the vertex set (a fresh set, safe to mutate)."""
        return set(self._adjacency)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each reported once as a ``(u, v)`` tuple.

        ``u`` is the endpoint whose row comes first: an edge to a vertex
        whose row is finished was reported with that row.
        """
        finished: Set[Vertex] = set()
        for u, neighbors in self._adjacency.items():
            for v in neighbors:
                if v not in finished:
                    yield (u, v)
            finished.add(u)

    def edge_set(self) -> Set[FrozenSet[Vertex]]:
        """Return the edge set as frozensets (order-independent)."""
        return {frozenset((u, v)) for u, v in self.edges()}

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` when ``vertex`` belongs to the graph."""
        return vertex in self._adjacency

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` when ``{u, v}`` is an edge of the graph."""
        return u in self._adjacency and v in self._adjacency[u]

    def neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Return the set of vertices adjacent to ``vertex``.

        This is ``Adj(v)`` in the paper's notation.  A fresh set is
        returned so callers may mutate it freely.
        """
        if vertex not in self._adjacency:
            raise GraphError(f"vertex {vertex!r} is not in the graph")
        return set(self._adjacency[vertex])

    def adjacency(self, vertex: Vertex) -> Set[Vertex]:
        """Alias of :meth:`neighbors` matching the paper's ``Adj`` notation."""
        return self.neighbors(vertex)

    def neighborhood_of_set(self, vertices: Iterable[Vertex]) -> Set[Vertex]:
        """Return ``Adj(W)``: vertices adjacent to at least one vertex of ``W``.

        Note that, following the paper, the result may include vertices of
        ``W`` itself (when two members of ``W`` are adjacent).
        """
        result: Set[Vertex] = set()
        for vertex in vertices:
            result |= self.neighbors(vertex)
        return result

    def private_neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Return ``Adj*(v)``: the vertices adjacent *only* to ``vertex``.

        This is the set used in Step 2 of Algorithm 1 (Theorem 3): when a
        redundant vertex ``v`` is eliminated, the vertices whose unique
        neighbour was ``v`` become isolated and are eliminated with it.
        """
        result = set()
        for candidate in self.neighbors(vertex):
            if self._adjacency[candidate] == {vertex}:
                result.add(candidate)
        return result

    def degree(self, vertex: Vertex) -> int:
        """Return the number of neighbours of ``vertex``."""
        if vertex not in self._adjacency:
            raise GraphError(f"vertex {vertex!r} is not in the graph")
        return len(self._adjacency[vertex])

    def number_of_vertices(self) -> int:
        """Return ``|V|``."""
        return len(self._adjacency)

    def number_of_edges(self) -> int:
        """Return ``|A|``."""
        return sum(map(len, self._adjacency.values())) // 2

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by ``vertices``.

        Unknown vertices are ignored so that callers can pass candidate
        sets without first intersecting with the vertex set.
        """
        keep = {v for v in vertices if v in self._adjacency}
        induced = Graph()
        for vertex in keep:
            induced.add_vertex(vertex)
        for vertex in keep:
            for neighbor in self._adjacency[vertex]:
                if neighbor in keep:
                    induced.add_edge(vertex, neighbor)
        return induced

    def without_vertices(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by the complement of ``vertices``.

        This is the paper's ``G - V'`` notation.
        """
        removed = set(vertices)
        return self.subgraph(v for v in self._adjacency if v not in removed)

    def without_vertex(self, vertex: Vertex) -> "Graph":
        """Return the subgraph induced by ``V - {vertex}`` (paper: ``G - v``)."""
        return self.without_vertices([vertex])

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adjacency)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertices() == other.vertices()
            and self.edge_set() == other.edge_set()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(|V|={self.number_of_vertices()}, "
            f"|A|={self.number_of_edges()})"
        )

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def sorted_vertices(self) -> List[Vertex]:
        """Return vertices sorted by ``repr`` for deterministic iteration."""
        return sorted(self._adjacency, key=repr)

    def is_clique(self, vertices: Iterable[Vertex]) -> bool:
        """Return ``True`` when ``vertices`` are pairwise adjacent."""
        members = list(vertices)
        for index, u in enumerate(members):
            for v in members[index + 1:]:
                if not self.has_edge(u, v):
                    return False
        return True
