"""Bipartite graphs ``G = (V1, V2, A)``.

The paper represents relational schemas and conceptual structures as
bipartite graphs with an explicit, named bipartition (Definition 1): ``V1``
typically holds attributes / lower-level concepts and ``V2`` holds relation
schemes / higher-level concepts.  Because the chordality notions of
Definition 5 (``V_i``-chordality, ``V_i``-conformality) and the
pseudo-Steiner problems of Definition 9 refer to the *named* sides, the
bipartition is stored explicitly rather than recomputed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.exceptions import BipartitenessError, GraphError
from repro.graphs.graph import Graph, Vertex


class BipartiteGraph(Graph):
    """An undirected graph with an explicit bipartition ``(V1, V2)``.

    Vertices must be assigned to a side before (or while) edges touching
    them are added; edges inside one side are rejected.

    Examples
    --------
    >>> g = BipartiteGraph()
    >>> g.add_left("A"); g.add_right(1); g.add_edge("A", 1)
    >>> g.side_of("A"), g.side_of(1)
    (1, 2)
    """

    def __init__(
        self,
        left: Iterable[Vertex] = (),
        right: Iterable[Vertex] = (),
        edges: Iterable[Tuple[Vertex, Vertex]] = (),
    ) -> None:
        self._side: Dict[Vertex, int] = {}
        super().__init__()
        for vertex in left:
            self.add_left(vertex)
        for vertex in right:
            self.add_right(vertex)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        left: Iterable[Vertex],
        right: Iterable[Vertex],
        edges: Iterable[Tuple[Vertex, Vertex]],
    ) -> "BipartiteGraph":
        """Build a bipartite graph from the triple ``(V1, V2, A)``."""
        return cls(left=left, right=right, edges=edges)

    @classmethod
    def from_graph(
        cls, graph: Graph, left: Optional[Iterable[Vertex]] = None
    ) -> "BipartiteGraph":
        """Interpret an unlabelled :class:`Graph` as bipartite.

        When ``left`` is given it fixes ``V1`` and the remaining vertices
        form ``V2`` (edges must respect the split).  Otherwise a 2-colouring
        is computed; a :class:`BipartitenessError` is raised when the graph
        contains an odd cycle.  Isolated vertices default to ``V1``.
        """
        if left is not None:
            left_set = set(left)
            right_set = graph.vertices() - left_set
        else:
            left_set, right_set = two_coloring(graph)
        result = cls(left=left_set, right=right_set, edges=graph.edges())
        return result

    # ``copy()`` is inherited: the base :meth:`Graph.copy` carries the
    # ``_side`` mapping over through the ``_copy_subclass_state_into`` hook
    # and copies the adjacency rows, so bipartite clones round-trip their
    # bipartition without a bespoke override (tests pin this).

    # ------------------------------------------------------------------
    # side bookkeeping
    # ------------------------------------------------------------------
    def add_left(self, vertex: Vertex) -> None:
        """Add ``vertex`` to side ``V1``."""
        self._add_to_side(vertex, 1)

    def add_right(self, vertex: Vertex) -> None:
        """Add ``vertex`` to side ``V2``."""
        self._add_to_side(vertex, 2)

    def add_to_side(self, vertex: Vertex, side: int) -> None:
        """Add ``vertex`` to ``V1`` (``side=1``) or ``V2`` (``side=2``)."""
        self._add_to_side(vertex, side)

    def _add_to_side(self, vertex: Vertex, side: int) -> None:
        if side not in (1, 2):
            raise ValueError(f"side must be 1 or 2, got {side!r}")
        existing = self._side.get(vertex)
        if existing is not None and existing != side:
            raise BipartitenessError(
                f"vertex {vertex!r} is already assigned to side V{existing}"
            )
        self._side[vertex] = side
        super().add_vertex(vertex)

    def add_vertex(self, vertex: Vertex) -> None:
        """Add a vertex; it must already have a side or be added via a side."""
        if vertex not in self._side:
            raise BipartitenessError(
                f"vertex {vertex!r} has no side; use add_left/add_right "
                "or add_to_side"
            )
        super().add_vertex(vertex)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add an edge; endpoints must lie on opposite sides.

        If exactly one endpoint is new it is placed on the side opposite
        its partner, which makes incremental construction convenient.
        """
        side_u = self._side.get(u)
        side_v = self._side.get(v)
        if side_u is None and side_v is None:
            raise BipartitenessError(
                f"cannot infer sides for new edge ({u!r}, {v!r}); add at "
                "least one endpoint to a side first"
            )
        if side_u is None:
            self._add_to_side(u, 3 - side_v)
            side_u = 3 - side_v
        if side_v is None:
            self._add_to_side(v, 3 - side_u)
            side_v = 3 - side_u
        if side_u == side_v:
            raise BipartitenessError(
                f"edge ({u!r}, {v!r}) would connect two vertices of V{side_u}"
            )
        super().add_edge(u, v)

    def remove_vertex(self, vertex: Vertex) -> None:
        super().remove_vertex(vertex)
        del self._side[vertex]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def left(self) -> Set[Vertex]:
        """Return ``V1`` as a fresh set."""
        return {v for v, side in self._side.items() if side == 1 and v in self}

    def right(self) -> Set[Vertex]:
        """Return ``V2`` as a fresh set."""
        return {v for v, side in self._side.items() if side == 2 and v in self}

    def side(self, index: int) -> Set[Vertex]:
        """Return ``V1`` (``index=1``) or ``V2`` (``index=2``)."""
        if index == 1:
            return self.left()
        if index == 2:
            return self.right()
        raise ValueError(f"side index must be 1 or 2, got {index!r}")

    def side_of(self, vertex: Vertex) -> int:
        """Return ``1`` or ``2`` according to the side of ``vertex``."""
        if vertex not in self._side or vertex not in self:
            raise GraphError(f"vertex {vertex!r} is not in the graph")
        return self._side[vertex]

    def parts(self) -> Tuple[Set[Vertex], Set[Vertex]]:
        """Return the pair ``(V1, V2)``."""
        return self.left(), self.right()

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[Vertex]) -> "BipartiteGraph":
        """Return the induced subgraph, preserving the bipartition labels.

        Runs in time proportional to the kept vertices' degrees, not to
        the whole edge set -- the engine's solvers induce many small
        covers per batch, and a full edge scan per cover was the single
        hottest line of the warm query path.
        """
        adjacency = self._adjacency
        keep = {v for v in vertices if v in adjacency}
        induced = BipartiteGraph(
            left={v for v in keep if self._side[v] == 1},
            right={v for v in keep if self._side[v] == 2},
        )
        for u in keep:
            for v in adjacency[u]:
                if v in keep:
                    # add_edge is idempotent, so seeing {u, v} from both
                    # endpoints is harmless
                    induced.add_edge(u, v)
        return induced

    def swap_sides(self) -> "BipartiteGraph":
        """Return the same graph with the roles of ``V1`` and ``V2`` exchanged.

        Useful because every statement in the paper has a symmetric version
        obtained by exchanging ``V1`` and ``V2``.
        """
        return BipartiteGraph(
            left=self.right(), right=self.left(), edges=self.edges()
        )

    def as_graph(self) -> Graph:
        """Return a plain :class:`Graph` copy (forgetting the bipartition)."""
        return Graph(vertices=self.vertices(), edges=self.edges())


def two_coloring(graph: Graph) -> Tuple[Set[Vertex], Set[Vertex]]:
    """Return a 2-colouring ``(V1, V2)`` of ``graph``.

    Raises
    ------
    BipartitenessError
        If the graph contains an odd cycle.  Isolated vertices and the
        first vertex of each component are placed in ``V1``.
    """
    color: Dict[Vertex, int] = {}
    for start in graph.sorted_vertices():
        if start in color:
            continue
        color[start] = 1
        queue = [start]
        while queue:
            current = queue.pop()
            for neighbor in graph.neighbors(current):
                if neighbor not in color:
                    color[neighbor] = 3 - color[current]
                    queue.append(neighbor)
                elif color[neighbor] == color[current]:
                    raise BipartitenessError(
                        "graph is not bipartite: odd cycle through "
                        f"{current!r} and {neighbor!r}"
                    )
    left = {v for v, c in color.items() if c == 1}
    right = {v for v, c in color.items() if c == 2}
    return left, right


def is_bipartite(graph: Graph) -> bool:
    """Return ``True`` when ``graph`` admits a 2-colouring."""
    try:
        two_coloring(graph)
    except BipartitenessError:
        return False
    return True
