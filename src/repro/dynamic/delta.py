"""Structured schema deltas: the edit journal and the net structural diff.

The dynamic subsystem describes every schema evolution twice:

* as a **journal** -- the ordered :class:`EditOp` records a
  :class:`~repro.dynamic.editor.SchemaEditor` transaction actually
  executed (including the implicit vertex creations of ``add_edge`` and
  the implicit edge removals of ``remove_vertex``), which is what makes
  transactions invertible (rollback) and auditable;
* as a **net delta** -- the order-free difference between the structure
  before and after (:class:`SchemaDelta`), which is what
  :meth:`~repro.engine.cache.SchemaContext.apply_delta` consumes: an edit
  that is journalled but cancelled out (add an edge, then remove it)
  contributes nothing to the net delta and therefore costs nothing
  downstream.

:meth:`SchemaDelta.between` computes the net delta of two arbitrary
graphs, so the incremental machinery also works for callers that mutate a
graph directly (without an editor) and only hold the before/after
snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse
from operator import is_
from typing import Dict, Optional, Tuple

from repro.exceptions import ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph, Vertex

Edge = Tuple[Vertex, Vertex]


@dataclass(frozen=True)
class EditOp:
    """One executed operation of a :class:`~repro.dynamic.editor.SchemaEditor`.

    Attributes
    ----------
    kind:
        ``"add_vertex"``, ``"remove_vertex"``, ``"add_edge"`` or
        ``"remove_edge"``.
    vertex / side:
        The affected vertex and (for bipartite graphs) its side, recorded
        for the vertex operations so they can be inverted exactly.
    edge:
        The affected edge for the edge operations.
    implied_vertices:
        Vertices (with sides) that ``add_edge`` created implicitly because
        an endpoint was missing; rollback removes them again.
    implied_edges:
        Edges that ``remove_vertex`` removed implicitly (the vertex's
        incident edges); rollback restores them.
    """

    kind: str
    vertex: Optional[Vertex] = None
    side: Optional[int] = None
    edge: Optional[Edge] = None
    implied_vertices: Tuple[Tuple[Vertex, Optional[int]], ...] = ()
    implied_edges: Tuple[Edge, ...] = ()


def _edge_key(edge: Edge) -> frozenset:
    """Canonical (order-free) identity of an undirected edge."""
    return frozenset(edge)


@dataclass(frozen=True)
class SchemaDelta:
    """The net structural difference between two versions of a schema graph.

    ``added_vertices`` pairs every new vertex with its bipartition side
    (``None`` on plain graphs); edges are plain ``(u, v)`` tuples.  The
    optional ``version_before``/``version_after`` record the graph's
    :attr:`~repro.graphs.graph.Graph.mutation_version` around an editor
    transaction, and ``journal`` keeps the executed operations for
    auditability -- neither influences :meth:`apply_to`.
    """

    added_vertices: Tuple[Tuple[Vertex, Optional[int]], ...] = ()
    removed_vertices: Tuple[Tuple[Vertex, Optional[int]], ...] = ()
    added_edges: Tuple[Edge, ...] = ()
    removed_edges: Tuple[Edge, ...] = ()
    version_before: Optional[int] = None
    version_after: Optional[int] = None
    journal: Tuple[EditOp, ...] = field(default=(), repr=False)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """Return ``True`` when the delta changes nothing structurally."""
        return not (
            self.added_vertices
            or self.removed_vertices
            or self.added_edges
            or self.removed_edges
        )

    def touched_vertices(self) -> set:
        """Return every vertex involved in the net delta (edit locality)."""
        touched = {v for v, _ in self.added_vertices}
        touched |= {v for v, _ in self.removed_vertices}
        for u, v in self.added_edges:
            touched.add(u)
            touched.add(v)
        for u, v in self.removed_edges:
            touched.add(u)
            touched.add(v)
        return touched

    def size(self) -> int:
        """Return the number of net edits (vertices + edges, both signs)."""
        return (
            len(self.added_vertices)
            + len(self.removed_vertices)
            + len(self.added_edges)
            + len(self.removed_edges)
        )

    def summary(self) -> str:
        """Return a compact human-readable description of the net effect."""
        return (
            f"+{len(self.added_vertices)}v/-{len(self.removed_vertices)}v "
            f"+{len(self.added_edges)}e/-{len(self.removed_edges)}e"
        )

    def counts(self) -> Dict[str, int]:
        """Return the net edit count per kind (a wire ``mutate`` reply's ``delta``)."""
        return {
            "added_vertices": len(self.added_vertices),
            "removed_vertices": len(self.removed_vertices),
            "added_edges": len(self.added_edges),
            "removed_edges": len(self.removed_edges),
        }

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def between(cls, old: Graph, new: Graph) -> "SchemaDelta":
        """Return the net delta turning ``old`` into ``new`` (structural diff).

        Vertices present in both graphs but assigned to *different*
        bipartition sides are treated as removed-then-added, so applying
        the delta reproduces ``new`` exactly; so is a vertex that ``new``
        stores as an equal object of another type or ``repr`` (``1`` and
        ``1.0``), whose canonical token differs.  The two graphs must be
        of compatible kinds (both bipartite or both plain).

        Costs one C-level neighbour-set comparison and one C-level
        identity check per vertex, plus time in proportion to the rows
        that differ (edges are listed only for those), to the vertices
        after the run that both graphs store in the same order, and, when
        the side maps differ, to the vertices.
        """
        old_sides = _sides(old)
        new_sides = _sides(new)
        old_vertices = old.vertices()
        new_vertices = new.vertices()
        added = []
        removed = []
        for vertex in sorted(new_vertices - old_vertices, key=repr):
            added.append((vertex, new_sides.get(vertex)))
        gone = old_vertices - new_vertices
        for vertex in sorted(gone, key=repr):
            removed.append((vertex, old_sides.get(vertex)))
        old_rows, new_rows = old._adjacency, new._adjacency
        renewed = _renewed_vertices(old_rows, new_rows, gone)
        if old_sides != new_sides:
            for vertex, _ in old_sides.items() ^ new_sides.items():
                if (
                    vertex in old_rows
                    and vertex in new_rows
                    and old_sides.get(vertex) != new_sides.get(vertex)
                ):
                    renewed.setdefault(vertex, vertex)
        for vertex in sorted(renewed, key=repr):
            removed.append((vertex, old_sides.get(vertex)))
            added.append((renewed[vertex], new_sides.get(vertex)))
        # each list keeps its graph's row order, so an edge is oriented
        # as that graph's edges() orients it
        added_edge_map = _edges_missing_from(
            [v for v, row in new_rows.items() if old_rows.get(v) != row],
            new_rows,
            old_rows,
        )
        removed_edge_map = _edges_missing_from(
            [v for v, row in old_rows.items() if new_rows.get(v) != row],
            old_rows,
            new_rows,
        )
        restore_readded_incident_edges(new, added, removed, added_edge_map)
        return cls(
            added_vertices=tuple(added),
            removed_vertices=tuple(removed),
            added_edges=tuple(
                added_edge_map[key]
                for key in sorted(added_edge_map.keys(), key=repr)
            ),
            removed_edges=tuple(
                removed_edge_map[key]
                for key in sorted(removed_edge_map.keys(), key=repr)
            ),
            version_before=getattr(old, "mutation_version", None),
            version_after=getattr(new, "mutation_version", None),
        )

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply_to(self, graph: Graph) -> Graph:
        """Apply the net delta to ``graph`` in place (and return it).

        The order is fixed -- remove edges, remove vertices, add vertices,
        add edges -- so a vertex that changed sides (removed + added) is
        recreated before its surviving edges are restored.  Edges whose
        endpoints are themselves removed are dropped implicitly by
        ``remove_vertex``.
        """
        removed_vertex_set = {vertex for vertex, _ in self.removed_vertices}
        for u, v in self.removed_edges:
            if u in removed_vertex_set or v in removed_vertex_set:
                continue  # falls with its endpoint below
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
        for vertex in removed_vertex_set:
            if graph.has_vertex(vertex):
                graph.remove_vertex(vertex)
        for vertex, side in self.added_vertices:
            _add_vertex(graph, vertex, side)
        for u, v in self.added_edges:
            graph.add_edge(u, v)
        return graph


def restore_readded_incident_edges(
    graph_after: Graph, added_vertices, removed_vertices, added_edge_map: dict
) -> None:
    """Ensure re-added vertices get their surviving edges back (in place).

    :meth:`SchemaDelta.apply_to` drops a removed vertex's incident edges
    implicitly (``remove_vertex`` semantics).  A vertex that is *removed
    and re-added* in the same delta -- the side-change encoding, or an
    editor transaction that flips sides -- therefore comes back bare
    unless every edge it keeps in the final graph is (re)listed in
    ``added_edges``, even though those edges exist before and after and a
    naive set diff nets them out.  Both delta constructors
    (:meth:`SchemaDelta.between` and ``SchemaEditor.commit``) call this
    on their ``{edge key: edge}`` map of net added edges before freezing
    the delta.
    """
    gone = {vertex for vertex, _ in removed_vertices}
    # the added objects: a renewed vertex's edges must name its new object
    readded = [vertex for vertex, _ in added_vertices if vertex in gone]
    for vertex in readded:
        for neighbor in graph_after.neighbors(vertex):
            key = _edge_key((vertex, neighbor))
            added_edge_map.setdefault(key, (vertex, neighbor))


def _renewed_vertices(old_rows: dict, new_rows: dict, gone: set) -> dict:
    """Return ``{old object: new object}`` for each vertex stored as another object.

    Only a vertex that both graphs hold, as equal objects that differ in
    type or ``repr``, counts: its token changes, so the delta must list it
    as removed and re-added.  ``gone`` holds the vertices ``new`` lacks.
    Rows keep insertion order, so ``old``'s other vertices and ``new``'s
    usually start alike, object for object; that common run is skipped by
    one C-level identity pass, and only the vertices after it are looked
    up.  (A vertex in the run is the very same object in both graphs, so
    neither of its objects can stand after the run.)
    """
    kept = list(filterfalse(gone.__contains__, old_rows)) if gone else list(old_rows)
    if all(map(is_, kept, new_rows)):
        return {}  # the rest of new_rows is added vertices
    fresh = list(new_rows)
    start = list(map(is_, kept, fresh)).index(False)
    stored = dict(zip(kept[start:], kept[start:]))
    renewed = {}
    for vertex in fresh[start:]:
        held = stored.get(vertex, vertex)
        if held is not vertex and (
            type(held) is not type(vertex) or repr(held) != repr(vertex)
        ):
            renewed[held] = vertex
    return renewed


def _sides(graph: Graph) -> dict:
    """Return the live ``{vertex: side}`` map of a bipartite graph, ``{}`` otherwise."""
    if isinstance(graph, BipartiteGraph):
        return graph._side
    return {}


def _edges_missing_from(vertices, rows: dict, other_rows: dict) -> dict:
    """Return ``{edge key: edge}`` for the edges of ``rows`` that ``other_rows`` lacks.

    ``vertices`` lists, in ``rows``' order, every vertex whose row differs,
    so both ends of each such edge; an edge is oriented from the end
    listed first, as ``Graph.edges()`` orients it.
    """
    missing: dict = {}
    listed: set = set()
    empty: frozenset = frozenset()
    for vertex in vertices:
        for neighbor in rows[vertex] - other_rows.get(vertex, empty):
            if neighbor not in listed:
                edge = (vertex, neighbor)
                missing[_edge_key(edge)] = edge
        listed.add(vertex)
    return missing


def _add_vertex(graph: Graph, vertex: Vertex, side: Optional[int]) -> None:
    """Add ``vertex`` honouring the side label when the graph is bipartite."""
    if isinstance(graph, BipartiteGraph):
        if side is None:
            raise ValidationError(
                f"vertex {vertex!r} needs a side (1 or 2) to be added to a "
                "bipartite graph"
            )
        graph.add_to_side(vertex, side)
    else:
        graph.add_vertex(vertex)
