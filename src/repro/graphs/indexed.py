"""Integer-indexed CSR graphs: the store of the engine and the kernels.

:class:`IndexedGraph` is a read-optimised, immutable representation of a
finite simple undirected graph over the contiguous vertex ids
``0 .. n - 1``:

* **CSR adjacency**: a flat ``indices`` array plus an ``indptr`` offset
  array (the classical compressed-sparse-row layout), with a derived
  per-vertex row cache for cheap Python iteration (:meth:`IndexedGraph.row`);
* an optional ``sides`` array carrying the bipartition labels of a
  :class:`~repro.graphs.bipartite.BipartiteGraph`.

The CSR arrays are the *canonical* storage and the only thing a pickle
ships; the row cache is derived from them on first use, linear in the
CSR.  The class is not a :class:`~repro.graphs.graph.Graph`: the
label-space algorithms (chordality tests, covers, traversals, the
Steiner references) take a ``Graph`` or ``BipartiteGraph`` only, and
the id solvers of the engine read the CSR rows directly.  To run a label
algorithm on an indexed graph, decode it with :func:`from_indexed`.

The mapping layer is lossless: :func:`to_indexed` converts any
hashable-vertex :class:`Graph` (or :class:`BipartiteGraph`) into an
``(IndexedGraph, GraphIndex)`` pair, and :func:`from_indexed` reconstructs
an equal graph, including the bipartition when present.  Vertex ids are
assigned in ``repr``-sorted label order (:func:`id_order`), so "ascending
id order" on the indexed side coincides with the library's deterministic
``sorted_vertices()`` order on the hashable side, except among vertices
of different types that print alike.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import accumulate, chain, islice
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import GraphError

Edge = Tuple[int, int]


class GraphIndex:
    """Lossless bijection between hashable vertex labels and integer ids.

    ``labels[i]`` is the original vertex carried by id ``i`` and
    ``ids[label]`` inverts it.  Instances are produced by :func:`to_indexed`
    and consumed by :func:`from_indexed` and by the engine layer when it
    translates terminal sets and covers between labels and ids.
    """

    __slots__ = ("labels", "ids")

    def __init__(self, labels: Sequence) -> None:
        self.labels: Tuple = tuple(labels)
        self.ids: Dict = {label: index for index, label in enumerate(self.labels)}
        if len(self.ids) != len(self.labels):
            raise GraphError("vertex labels must be distinct")

    def __len__(self) -> int:
        return len(self.labels)

    def __getstate__(self) -> Tuple:
        # ids is a pure derivative of labels; pickling only the label
        # tuple halves the payload
        return self.labels

    def __setstate__(self, state: Tuple) -> None:
        self.labels = tuple(state)
        self.ids = {label: index for index, label in enumerate(self.labels)}

    def encode(self, vertices: Iterable) -> List[int]:
        """Map original vertex labels to integer ids (raises on unknowns)."""
        try:
            return [self.ids[v] for v in vertices]
        except KeyError as error:
            raise GraphError(f"vertex {error.args[0]!r} is not in the index") from None

    def decode(self, ids: Iterable[int]) -> List:
        """Map integer ids back to the original vertex labels."""
        return [self.labels[i] for i in ids]

    def decode_set(self, ids: Iterable[int]) -> Set:
        """Map integer ids back to a set of original labels."""
        return {self.labels[i] for i in ids}


class IndexedGraph:
    """An immutable simple undirected graph over vertex ids ``0 .. n - 1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` id pairs; duplicates are ignored, self-loops
        rejected.
    sides:
        Optional sequence assigning each id to bipartition side 1 or 2
        (``None`` for plain graphs).

    Examples
    --------
    >>> g = IndexedGraph(3, edges=[(0, 1), (1, 2)])
    >>> g.row(1)
    [0, 2]
    >>> list(g.edges())
    [(0, 1), (1, 2)]
    """

    __slots__ = ("n", "indptr", "indices", "sides", "_rows_cache")

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge] = (),
        sides: Optional[Sequence[int]] = None,
    ) -> None:
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self.n = n
        # adjacency-list build: O(|E|) time and memory
        rows: List[List[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loops are not allowed (vertex {u!r})")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) is out of range for n={n}")
            rows[u].append(v)
            rows[v].append(u)
        for i, row in enumerate(rows):
            if row:
                rows[i] = sorted(set(row))
        self._adopt_rows(rows)
        if sides is not None:
            sides = array("b", sides)
            if len(sides) != n:
                raise GraphError("sides must assign every vertex")
            if any(s not in (1, 2) for s in sides):
                raise GraphError("sides must be 1 or 2")
        self.sides = sides

    @classmethod
    def _from_rows(
        cls, rows: List[List[int]], sides: Optional[array]
    ) -> "IndexedGraph":
        """Assemble a graph from canonical rows, skipping ``__init__``'s checks.

        ``rows[v]`` must be ``v``'s neighbours, ascending and duplicate-free,
        with every edge in both endpoints' rows; ``sides`` is an
        ``array('b')`` already validated (or ``None``).  The list and its
        rows become the graph's row cache, so the caller must not mutate
        them afterwards -- rows shared with another graph are fine, since
        both are immutable.
        """
        graph = cls.__new__(cls)
        graph.n = len(rows)
        graph._adopt_rows(rows)
        graph.sides = sides
        return graph

    def _adopt_rows(self, rows: List[List[int]]) -> None:
        """Set the row cache and derive the CSR arrays from it."""
        self._rows_cache = rows
        self.indptr = array("l", accumulate(map(len, rows), initial=0))
        self.indices = array("l", chain.from_iterable(rows))

    # ------------------------------------------------------------------
    # id primitives
    # ------------------------------------------------------------------
    @property
    def _rows(self) -> List[List[int]]:
        """The per-vertex adjacency-list cache, materialised on first use.

        Derived from the canonical CSR arrays; the Python-loop hot paths
        (the BFS kernels, the elimination, the id solvers) iterate these
        lists.
        """
        rows = self._rows_cache
        if rows is None:
            indptr, indices = self.indptr, self.indices
            rows = [
                list(indices[indptr[u]: indptr[u + 1]]) for u in range(self.n)
            ]
            self._rows_cache = rows
        return rows

    def row(self, vertex: int) -> List[int]:
        """Return the CSR adjacency row of ``vertex`` (ascending ids, shared list)."""
        return self._rows[vertex]

    def bfs_levels(self, source: int, alive: Optional[Sequence[int]] = None) -> List[int]:
        """Return BFS distances from ``source`` as a dense list (-1 = unreachable).

        ``alive`` optionally restricts the traversal to vertices with a
        truthy entry (the induced-subgraph view used by the elimination
        procedures); the source must be alive.
        """
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        rows = self._rows
        if alive is None:
            while queue:
                current = queue.popleft()
                level = dist[current] + 1
                for neighbor in rows[current]:
                    if dist[neighbor] < 0:
                        dist[neighbor] = level
                        queue.append(neighbor)
        else:
            while queue:
                current = queue.popleft()
                level = dist[current] + 1
                for neighbor in rows[current]:
                    if alive[neighbor] and dist[neighbor] < 0:
                        dist[neighbor] = level
                        queue.append(neighbor)
        return dist

    def bfs_parents(self, source: int) -> List[int]:
        """Return a BFS parent array from ``source`` (-1 = unreached, source is its own parent)."""
        parents = [-1] * self.n
        parents[source] = source
        queue = deque([source])
        rows = self._rows
        while queue:
            current = queue.popleft()
            for neighbor in rows[current]:
                if parents[neighbor] < 0:
                    parents[neighbor] = current
                    queue.append(neighbor)
        return parents

    def component_of(self, vertex: int, alive: Optional[Sequence[int]] = None) -> List[int]:
        """Return the ids of the connected component containing ``vertex``."""
        dist = self.bfs_levels(vertex, alive=alive)
        return [i for i, d in enumerate(dist) if d >= 0]

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each reported once with ``u < v``.

        Reads the canonical CSR arrays directly (``_rows`` is the derived
        iteration cache used by the traversal hot loops).
        """
        indptr, indices = self.indptr, self.indices
        for u in range(self.n):
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if v > u:
                    yield (u, v)

    def nbytes(self) -> int:
        """Return the canonical (CSR + sides) storage footprint in bytes.

        Counts only the arrays -- the lazily derived row cache is
        excluded, matching what a pickle ships.  The memory budget of
        :class:`~repro.engine.cache.SchemaCache` reads this figure.
        """
        return sum(
            len(buf) * buf.itemsize
            for buf in (self.indptr, self.indices, self.sides)
            if buf is not None
        )

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # ship only the canonical CSR arrays (compact, array-typed); the
        # per-vertex row cache is a derived structure, and rebuilding it
        # from CSR is linear
        return {
            "n": self.n,
            "indptr": self.indptr,
            "indices": self.indices,
            "sides": self.sides,
        }

    def __setstate__(self, state: dict) -> None:
        self.n = state["n"]
        self.indptr = state["indptr"]
        self.indices = state["indices"]
        self.sides = state["sides"]
        # the row cache stays unmaterialised until a consumer asks
        self._rows_cache = None

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexedGraph):
            return NotImplemented
        # the CSR arrays are canonical (ascending rows), so comparing them
        # compares the graphs
        return (
            self.n == other.n
            and list(self.indptr) == list(other.indptr)
            and list(self.indices) == list(other.indices)
            and (self.sides is None) == (other.sides is None)
            and (self.sides is None or list(self.sides) == list(other.sides))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "bipartite " if self.sides is not None else ""
        return (
            f"IndexedGraph({kind}|V|={self.n}, |A|={len(self.indices) // 2})"
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check(self, vertex: int) -> None:
        if not (isinstance(vertex, int) and 0 <= vertex < self.n):
            raise GraphError(f"vertex {vertex!r} is not in the graph")


# ----------------------------------------------------------------------
# mapping layer
# ----------------------------------------------------------------------
def type_name(vertex) -> str:
    """Return the qualified name (``module.qualname``) of a vertex's type."""
    cls = type(vertex)
    return f"{cls.__module__}.{cls.__qualname__}"


def id_order(vertices: Iterable) -> Tuple[List, List[str]]:
    """Return ``(labels, reprs)``: ``vertices`` in id order and their reprs.

    The order is ``repr`` order, one ``repr`` per vertex; only where two
    reprs are equal does :func:`type_name` order the vertices.  So the order
    is a function of the vertex set unless two vertices share both.
    """
    vertices = list(vertices)
    texts = list(map(repr, vertices))
    order = sorted(range(len(texts)), key=texts.__getitem__)
    labels = list(map(vertices.__getitem__, order))
    reprs = list(map(texts.__getitem__, order))
    if any(map(str.__eq__, reprs, islice(reprs, 1, None))):
        start = 0
        for end in range(1, len(reprs) + 1):
            if end == len(reprs) or reprs[end] != reprs[start]:
                labels[start:end] = sorted(labels[start:end], key=type_name)
                start = end
    return labels, reprs


def to_indexed(graph) -> Tuple[IndexedGraph, GraphIndex]:
    """Convert a hashable-vertex :class:`Graph` into ``(IndexedGraph, GraphIndex)``.

    Ids follow :func:`id_order`, so the ascending-id scan on the indexed
    side visits the vertices in the order of the repr-sorted scans used
    throughout the library (``sorted_vertices()``).  The two differ only
    where vertices of different types print alike: ids order those by type
    name, ``sorted_vertices()`` by insertion.  The bipartition of a
    :class:`~repro.graphs.bipartite.BipartiteGraph` is preserved in
    :attr:`IndexedGraph.sides`.
    """
    return indexed_in_order(graph, id_order(graph)[0])


def indexed_in_order(graph, labels: Sequence) -> Tuple[IndexedGraph, GraphIndex]:
    """Return :func:`to_indexed` of ``graph`` with ids in the order of ``labels``.

    ``labels`` lists every vertex once; rows come from the adjacency sets.
    """
    from repro.graphs.bipartite import BipartiteGraph

    index = GraphIndex(labels)
    ids, adjacency = index.ids, graph._adjacency
    rows = [sorted(map(ids.__getitem__, adjacency[label])) for label in index.labels]
    sides = None
    if isinstance(graph, BipartiteGraph):
        sides = array("b", map(graph._side.__getitem__, index.labels))
    return IndexedGraph._from_rows(rows, sides), index


def from_indexed(indexed: IndexedGraph, index: GraphIndex):
    """Reconstruct a :class:`Graph` (or :class:`BipartiteGraph`) from an indexed pair.

    The round trip ``from_indexed(*to_indexed(g)) == g`` holds for every
    graph, including the bipartition labels.
    """
    from repro.graphs.bipartite import BipartiteGraph
    from repro.graphs.graph import Graph

    if len(index) != indexed.n:
        raise GraphError("index size does not match the indexed graph")
    labels = index.labels
    edges = [(labels[u], labels[v]) for u, v in indexed.edges()]
    if indexed.sides is not None:
        left = [labels[i] for i in range(indexed.n) if indexed.sides[i] == 1]
        right = [labels[i] for i in range(indexed.n) if indexed.sides[i] == 2]
        return BipartiteGraph(left=left, right=right, edges=edges)
    return Graph(vertices=labels, edges=edges)


# ----------------------------------------------------------------------
# indexed elimination (the shared inner loop of Algorithms 1 and 2)
# ----------------------------------------------------------------------
def indexed_elimination_cover(
    graph: IndexedGraph,
    terminals: Iterable[int],
    ordering: Optional[Sequence[int]] = None,
    removal_batches: bool = False,
    restrict: Optional[Iterable[int]] = None,
) -> Set[int]:
    """Greedy elimination of redundant vertices on ids.

    The engine's lane of Algorithms 1 and 2, semantically identical to its
    label-space reference :func:`repro.core.covers.greedy_elimination_cover`
    (and, with ``removal_batches=True``, to Step 2 of Algorithm 1):
    starting from the connected component containing the terminals, scan
    ``ordering`` and
    drop each vertex (plus its private neighbours in batch mode) whenever
    the terminals remain connected without it; return the terminals'
    component of the surviving graph.

    The hot loop runs on an ``alive`` byte array with CSR adjacency rows --
    no per-step subgraph objects -- and short-circuits the BFS for alive
    degree <= 1 vertices in single-removal mode (removing a leaf can never
    disconnect the remaining vertices).

    Parameters
    ----------
    ordering:
        Elimination order over ids; defaults to ascending id order, which
        matches the label-space repr-sorted default through the
        :func:`to_indexed` id assignment.
    restrict:
        Optional vertex subset to operate in (the caller's precomputed
        component); defaults to the whole graph.
    """
    from repro.exceptions import DisconnectedTerminalsError, ValidationError

    terminal_ids = sorted(set(terminals))
    if not terminal_ids:
        raise ValidationError("the terminal set must be non-empty")
    for t in terminal_ids:
        graph._check(t)

    base: Optional[List[int]] = None
    if restrict is not None:
        base = [0] * graph.n
        for v in restrict:
            base[v] = 1
        for t in terminal_ids:
            if not base[t]:
                raise DisconnectedTerminalsError("the terminals cannot be covered")
    root = terminal_ids[0]
    component = graph.component_of(root, alive=base)
    alive = [0] * graph.n
    for v in component:
        alive[v] = 1
    if any(not alive[t] for t in terminal_ids):
        raise DisconnectedTerminalsError("the terminals cannot be covered")

    rows = graph._rows
    alive_degree = [0] * graph.n
    for v in component:
        alive_degree[v] = sum(alive[u] for u in rows[v])

    terminal_set = set(terminal_ids)
    needed = len(terminal_ids)
    if ordering is None:
        ordering = component  # ascending ids: component_of returns sorted ids

    for vertex in ordering:
        if not alive[vertex] or vertex in terminal_set:
            continue
        if removal_batches:
            removal = [vertex]
            for u in rows[vertex]:
                if alive[u] and all(
                    not alive[w] or w == vertex for w in rows[u]
                ):
                    removal.append(u)
            if any(u in terminal_set for u in removal):
                continue
            # the remainder is never empty here: terminals are alive and
            # terminal-touching batches were skipped above
            for u in removal:
                alive[u] = 0
            if _terminals_reachable(rows, alive, root, terminal_set, needed):
                for u in removal:
                    for w in rows[u]:
                        alive_degree[w] -= 1
            else:
                for u in removal:
                    alive[u] = 1
        else:
            alive[vertex] = 0
            if alive_degree[vertex] <= 1 or _terminals_reachable(
                rows, alive, root, terminal_set, needed
            ):
                for w in rows[vertex]:
                    alive_degree[w] -= 1
            else:
                alive[vertex] = 1

    # final cover: the terminals' component of the surviving graph
    cover: Set[int] = set()
    queue = deque([root])
    cover.add(root)
    while queue:
        current = queue.popleft()
        for neighbor in rows[current]:
            if alive[neighbor] and neighbor not in cover:
                cover.add(neighbor)
                queue.append(neighbor)
    return cover


def _terminals_reachable(
    rows: List[List[int]],
    alive: List[int],
    root: int,
    terminal_set: Set[int],
    needed: int,
) -> bool:
    """BFS from ``root`` over alive vertices; are all terminals reached?"""
    seen = [0] * len(rows)
    seen[root] = 1
    found = 1  # root is a terminal
    queue = deque([root])
    while queue:
        current = queue.popleft()
        for neighbor in rows[current]:
            if alive[neighbor] and not seen[neighbor]:
                seen[neighbor] = 1
                if neighbor in terminal_set:
                    found += 1
                    if found == needed:
                        return True
                queue.append(neighbor)
    return found == needed


# ----------------------------------------------------------------------
# the answer tree (the shared tail of every engine solver)
# ----------------------------------------------------------------------
def parent_path_edges(parents: Sequence[int], u: int, v: int) -> Iterator[Edge]:
    """Yield the edges of the path from ``v`` back to ``u`` along a parent row.

    ``parents`` is ``u``'s BFS parent row
    (:func:`repro.kernels.bfs.bfs_parents_row`); each edge comes as
    ``(parent, child)``.  ``u == v`` yields nothing.
    """
    current = v
    while current != u:
        previous = parents[current]
        yield previous, current
        current = previous


def edge_adjacency(edges: Iterable[Edge]) -> Dict[int, List[int]]:
    """Return the adjacency of an id edge list with ascending rows.

    Repeated edges, in either orientation, collapse.
    """
    adjacency: Dict[int, Set[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    return {vertex: sorted(neighbors) for vertex, neighbors in adjacency.items()}


def indexed_pruned_tree(
    adjacency: Mapping[int, Sequence[int]],
    terminals: Iterable[int],
    labels: Sequence,
):
    """Return the label tree of a solver's id-space cover, pruned to the terminals.

    ``adjacency`` maps every id of the cover to its neighbours inside the
    cover, in ascending order; the cover must be connected and hold every
    terminal.  The result is the label
    :class:`~repro.graphs.graph.Graph` (``labels[i]`` for id ``i``) of the
    BFS spanning tree rooted at the cover's smallest id, neighbours
    visited in ascending order, with non-terminal leaves pruned.

    On ids numbered by :func:`to_indexed` that is exactly
    ``prune_non_terminal_leaves(spanning_tree(cover), terminals)`` on the
    label graph: ascending ids are the ``repr`` order ``spanning_tree``
    picks its root and visits neighbours in, and a tree holds one subtree
    whose leaves are all terminals, so any pruning order reaches it.  Here
    it is the union of the terminals' root paths minus the non-terminal
    chain above the point where they meet.

    Raises
    ------
    GraphError
        If the cover is not connected, as ``spanning_tree`` does, or
        misses a terminal.
    """
    from repro.graphs.graph import Graph

    root = min(adjacency)
    parent = {root: root}
    order = [root]
    for current in order:  # the list grows behind the cursor: a FIFO queue
        for neighbor in adjacency[current]:
            if neighbor not in parent:
                parent[neighbor] = current
                order.append(neighbor)
    if len(order) != len(adjacency):
        raise GraphError("spanning_tree requires a connected graph")
    terminal_set = set(terminals)
    if not terminal_set <= parent.keys():
        raise GraphError("every terminal must lie in the cover")

    # every vertex on a terminal's path to the root, with its kept children
    keep = set()
    children: Dict[int, List[int]] = {}
    for terminal in terminal_set:
        vertex = terminal
        while vertex not in keep:
            keep.add(vertex)
            if vertex == root:
                break
            children.setdefault(parent[vertex], []).append(vertex)
            vertex = parent[vertex]
    # the non-terminal chain above the meeting point is what pruning removes
    top = root
    while top not in terminal_set and len(children[top]) == 1:
        keep.discard(top)
        top = children[top][0]

    tree = Graph(vertices=[labels[top]])
    for vertex in order:
        if vertex in keep and vertex != top:
            tree.add_edge(labels[parent[vertex]], labels[vertex])
    return tree


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order.

    The lowest-set-bit loop behind the seed-local masks of the
    chordal-elimination solver (:mod:`repro.engine.registry`).
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
