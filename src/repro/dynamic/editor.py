"""Transactional schema editing: batch edits, one version bump, rollback.

The paper's interactive scenario has designers evolving the conceptual
schema while users keep querying it.  Mutating a live
:class:`~repro.graphs.graph.Graph` directly works, but every single call
bumps the :attr:`~repro.graphs.graph.Graph.mutation_version`, so a
ten-edit evolution invalidates version-gated caches ten times and exposes
nine intermediate schemas that never logically existed.

:class:`SchemaEditor` makes an evolution atomic:

* edits are applied immediately (later edits in the same transaction see
  their effects), but the graph's version is *held*: while the
  transaction is open, version-gated caches -- the service's bound
  context, the parallel executor's transport memo -- are neither
  consulted nor populated, so a reader that queries mid-transaction
  sees the live uncommitted structure (re-derived per query), never a
  half-stale snapshot;
* ending the transaction releases the hold with **at most one** version
  bump -- commit produces the
  :class:`~repro.dynamic.delta.SchemaDelta` that
  :meth:`~repro.engine.cache.SchemaContext.apply_delta` consumes; a
  transaction that never mutated does not bump at all, while one whose
  edits cancelled out *does* bump once (a reader may have snapshotted
  the intermediate structure, and must be made to revalidate);
* an exception inside the ``with`` block rolls every edit back exactly
  (the journal records the implicit effects too: endpoints created by
  ``add_edge``, incident edges dropped by ``remove_vertex``), leaving
  the graph structurally untouched -- with the same one safety bump
  when edits had run, for the same reason.

Examples
--------
>>> from repro.graphs import BipartiteGraph
>>> g = BipartiteGraph(left=["A"], right=[1], edges=[("A", 1)])
>>> v0 = g.mutation_version
>>> with SchemaEditor(g) as tx:
...     tx.add_vertex("B", side=1)
...     tx.add_edge("B", 1)
>>> g.mutation_version - v0, sorted(tx.delta.added_vertices)
(1, [('B', 1)])
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.dynamic.delta import (
    EditOp,
    SchemaDelta,
    _add_vertex,
    restore_readded_incident_edges,
)
from repro.exceptions import BipartitenessError, GraphError, ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph, Vertex


class SchemaEditor:
    """Transactional batch editor over a :class:`Graph` / :class:`BipartiteGraph`.

    Use as a context manager (commit on success, rollback on error) or
    drive :meth:`begin` / :meth:`commit` / :meth:`rollback` explicitly.
    One transaction may be open per editor at a time, and one version
    hold per graph -- opening a second editor on a graph with an open
    transaction raises :class:`~repro.exceptions.GraphError`.

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> g = Graph(edges=[("a", "b")])
    >>> editor = SchemaEditor(g)
    >>> with editor as tx:
    ...     tx.add_edge("b", "c")
    >>> sorted(g.neighbors("b"))
    ['a', 'c']
    """

    def __init__(self, graph: Graph) -> None:
        if not isinstance(graph, Graph):
            raise ValidationError(
                f"SchemaEditor edits Graph instances, got {type(graph).__name__}"
            )
        self._graph = graph
        self._bipartite = isinstance(graph, BipartiteGraph)
        self._journal: List[EditOp] = []
        self._open = False
        self._delta: Optional[SchemaDelta] = None
        self._version_before: Optional[int] = None
        # net effect, maintained incrementally with cancellation
        self._net_vertex_added: dict = {}
        self._net_vertex_removed: dict = {}
        self._net_edge_added: dict = {}
        self._net_edge_removed: dict = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The graph this editor mutates."""
        return self._graph

    @property
    def active(self) -> bool:
        """``True`` while a transaction is open."""
        return self._open

    @property
    def delta(self) -> SchemaDelta:
        """The committed transaction's net delta (raises before commit)."""
        if self._delta is None:
            raise ValidationError(
                "no committed transaction: 'delta' is available after commit()"
            )
        return self._delta

    @property
    def journal(self) -> Tuple[EditOp, ...]:
        """The executed operations of the open (or last) transaction."""
        return tuple(self._journal)

    def begin(self) -> "SchemaEditor":
        """Open a transaction: hold the version, start a fresh journal."""
        if self._open:
            raise GraphError("this editor already has an open transaction")
        self._graph._hold_version()
        self._open = True
        self._delta = None
        self._journal = []
        self._version_before = self._graph.mutation_version
        self._net_vertex_added = {}
        self._net_vertex_removed = {}
        self._net_edge_added = {}
        self._net_edge_removed = {}
        return self

    def commit(self) -> SchemaDelta:
        """Close the transaction, bump the version at most once, return the delta.

        The version bumps when the net delta is non-empty -- and also
        when the edits cancelled out structurally (add an edge, then
        remove it): the graph ends unchanged, but a version-gated cache
        may have bound the intermediate structure mid-transaction, and
        only a bump makes it revalidate.  A transaction that never
        executed an effective edit leaves the version untouched.
        """
        self._require_open()
        added_vertices = tuple(sorted(self._net_vertex_added.values(), key=repr))
        removed_vertices = tuple(sorted(self._net_vertex_removed.values(), key=repr))
        # a vertex removed and re-added (side flip) must re-list its
        # surviving edges, or applying the delta would bring it back bare
        restore_readded_incident_edges(
            self._graph, added_vertices, removed_vertices, self._net_edge_added
        )
        changed = bool(
            added_vertices
            or removed_vertices
            or self._net_edge_added
            or self._net_edge_removed
        )
        self._graph._release_version(bump=changed)
        self._open = False
        self._delta = SchemaDelta(
            added_vertices=added_vertices,
            removed_vertices=removed_vertices,
            added_edges=tuple(self._net_edge_added.values()),
            removed_edges=tuple(self._net_edge_removed.values()),
            version_before=self._version_before,
            version_after=self._graph.mutation_version,
            journal=tuple(self._journal),
        )
        return self._delta

    def rollback(self) -> None:
        """Undo every edit of the open transaction and release the version hold.

        The journal is replayed backwards with each operation inverted --
        including the implicit parts (endpoints ``add_edge`` created,
        incident edges ``remove_vertex`` dropped) -- so the graph ends
        structurally identical to the transaction start.  If any edit had
        run, the version still bumps once on release: a reader that bound
        the mid-transaction structure must not keep serving it.
        """
        self._require_open()
        for op in reversed(self._journal):
            self._invert(op)
        self._graph._release_version(bump=False)
        self._open = False
        self._journal = []

    def __enter__(self) -> "SchemaEditor":
        """Open a transaction (``with SchemaEditor(g) as tx:``)."""
        return self.begin()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Commit on a clean exit, roll back when the block raised."""
        if exc_type is None:
            self.commit()
        else:
            self.rollback()

    # ------------------------------------------------------------------
    # edit operations
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex, side: Optional[int] = None) -> None:
        """Add an isolated vertex (``side`` required on bipartite graphs)."""
        self._require_open()
        if self._graph.has_vertex(vertex):
            if (
                self._bipartite
                and side is not None
                and self._graph.side_of(vertex) != side
            ):
                # mirror BipartiteGraph.add_to_side: a side conflict must
                # fail loudly, not silently leave the vertex where it was
                raise BipartitenessError(
                    f"vertex {vertex!r} is already assigned to side "
                    f"V{self._graph.side_of(vertex)}"
                )
            return  # idempotent re-add on the same side, like the graph API
        if self._bipartite:
            if side is None:
                raise ValidationError(
                    f"vertex {vertex!r} needs a side (1 or 2) on a bipartite graph"
                )
            self._graph.add_to_side(vertex, side)
        else:
            self._graph.add_vertex(vertex)
        self._journal.append(EditOp(kind="add_vertex", vertex=vertex, side=side))
        self._record_vertex_added(vertex, side)

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove a vertex with its incident edges (journalled for rollback).

        The delta and the journal name the object the graph stores, which
        may be an equal object of another type than ``vertex`` (``1.0``
        for ``1``), as :meth:`SchemaDelta.between` does.
        """
        self._require_open()
        if not self._graph.has_vertex(vertex):
            raise GraphError(f"vertex {vertex!r} is not in the graph")
        vertex = _stored(self._graph, vertex)
        side = self._side_of(vertex)
        incident = tuple((vertex, other) for other in sorted(
            self._graph.neighbors(vertex), key=repr
        ))
        self._graph.remove_vertex(vertex)
        self._journal.append(
            EditOp(
                kind="remove_vertex", vertex=vertex, side=side,
                implied_edges=incident,
            )
        )
        for edge in incident:
            self._record_edge_removed(edge)
        self._record_vertex_removed(vertex, side)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add an edge; endpoints created implicitly are journalled too.

        On bipartite graphs the usual side-inference applies: when exactly
        one endpoint is new it lands on the side opposite its partner (two
        new endpoints need :meth:`add_vertex` first, exactly as on the
        graph itself).
        """
        self._require_open()
        if self._graph.has_edge(u, v):
            return  # idempotent
        created = [w for w in (u, v) if not self._graph.has_vertex(w)]
        self._graph.add_edge(u, v)
        implied = tuple((w, self._side_of(w)) for w in created)
        self._journal.append(
            EditOp(kind="add_edge", edge=(u, v), implied_vertices=implied)
        )
        for vertex, side in implied:
            self._record_vertex_added(vertex, side)
        self._record_edge_added((u, v))

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove an edge (endpoints stay, possibly isolated).

        Like :meth:`remove_vertex`, it records the endpoints the graph stores.
        """
        self._require_open()
        if self._graph.has_edge(u, v):
            u, v = _stored(self._graph, u), _stored(self._graph, v)
        self._graph.remove_edge(u, v)  # raises GraphError when absent
        self._journal.append(EditOp(kind="remove_edge", edge=(u, v)))
        self._record_edge_removed((u, v))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if not self._open:
            raise GraphError(
                "no open transaction: use 'with SchemaEditor(g) as tx:' or begin()"
            )

    def _side_of(self, vertex: Vertex) -> Optional[int]:
        return self._graph.side_of(vertex) if self._bipartite else None

    def _invert(self, op: EditOp) -> None:
        """Apply the exact inverse of one journalled operation."""
        graph = self._graph
        if op.kind == "add_vertex":
            graph.remove_vertex(op.vertex)
        elif op.kind == "remove_vertex":
            _add_vertex(graph, op.vertex, op.side)
            for a, b in op.implied_edges:
                graph.add_edge(a, b)
        elif op.kind == "add_edge":
            graph.remove_edge(*op.edge)
            for vertex, _ in op.implied_vertices:
                graph.remove_vertex(vertex)
        elif op.kind == "remove_edge":
            graph.add_edge(*op.edge)
        else:  # pragma: no cover - journal entries are editor-made
            raise GraphError(f"unknown journal op {op.kind!r}")

    # net-effect bookkeeping with cancellation: an add that revokes a
    # pending remove (or vice versa) nets to nothing.  The vertex maps hold
    # {vertex: (object, side)}: an equal object of another type or repr
    # revokes nothing, as SchemaDelta.between lists it (its token differs)
    def _record_vertex_added(self, vertex: Vertex, side: Optional[int]) -> None:
        removed = self._net_vertex_removed.get(vertex)
        if removed == (vertex, side) and type(removed[0]) is type(vertex) and (
            repr(removed[0]) == repr(vertex)
        ):
            del self._net_vertex_removed[vertex]
        else:
            self._net_vertex_added[vertex] = (vertex, side)

    def _record_vertex_removed(self, vertex: Vertex, side: Optional[int]) -> None:
        if vertex in self._net_vertex_added:
            del self._net_vertex_added[vertex]
        else:
            self._net_vertex_removed[vertex] = (vertex, side)

    def _record_edge_added(self, edge) -> None:
        key = frozenset(edge)
        if key in self._net_edge_removed:
            del self._net_edge_removed[key]
        else:
            self._net_edge_added[key] = edge

    def _record_edge_removed(self, edge) -> None:
        key = frozenset(edge)
        if key in self._net_edge_added:
            del self._net_edge_added[key]
        else:
            self._net_edge_removed[key] = edge


def _stored(graph: Graph, vertex: Vertex) -> Vertex:
    """Return the object ``graph`` stores for ``vertex``, an equal one.

    That is the vertex-map key: what :meth:`Graph.vertices` lists and
    :meth:`SchemaDelta.between` names, and whose type and ``repr`` make
    the vertex's token.  Rows may hold another equal object, since
    ``add_edge`` stores the caller's endpoints there, so the key is found
    by one C-level scan of the vertex map.
    """
    keys = list(graph._adjacency)
    return keys[keys.index(vertex)]
