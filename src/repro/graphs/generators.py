"""Graph generators.

Deterministic families (paths, cycles, stars, complete bipartite graphs)
plus the randomised families used by the test-suite and the benchmark
harnesses.  Generators for the *paper-specific* graph classes (random
alpha/beta/gamma-acyclic schema graphs, X3C reduction instances, ...) live
in :mod:`repro.datasets.generators` because they depend on the hypergraph
layer; this module only contains structure-free building blocks.

Two size regimes coexist here.  The classic generators build mutable
hashable-vertex :class:`~repro.graphs.graph.Graph` /
:class:`~repro.graphs.bipartite.BipartiteGraph` objects -- dict-of-sets
storage, comfortable up to ~10^4 vertices.  The ``large_*`` family
targets the 10^5 - 10^6-vertex schemas of the kernel benchmarks: it
emits :class:`~repro.graphs.indexed.IndexedGraph` objects over integer
ids directly, so nothing on the path ever touches per-vertex Python
objects.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph
from repro.graphs.indexed import IndexedGraph
from repro.utils.rng import RandomLike, ensure_rng


def path_graph(length: int) -> Graph:
    """Return a path with ``length`` edges on vertices ``0 .. length``."""
    if length < 0:
        raise ValueError("length must be non-negative")
    graph = Graph(vertices=range(length + 1))
    for i in range(length):
        graph.add_edge(i, i + 1)
    return graph


def cycle_graph(n: int) -> Graph:
    """Return a cycle on ``n >= 3`` vertices ``0 .. n-1``."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    graph = Graph(vertices=range(n))
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    return graph


def even_cycle_bipartite(n: int) -> BipartiteGraph:
    """Return an even cycle on ``n`` vertices as a :class:`BipartiteGraph`.

    Even-indexed vertices form ``V1`` and odd-indexed vertices form ``V2``.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("an even bipartite cycle needs an even n >= 4")
    graph = BipartiteGraph(
        left=[i for i in range(n) if i % 2 == 0],
        right=[i for i in range(n) if i % 2 == 1],
    )
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    return graph


def star_graph(leaves: int) -> Graph:
    """Return a star with centre ``"c"`` and leaves ``0 .. leaves-1``."""
    graph = Graph(vertices=["c"])
    for i in range(leaves):
        graph.add_edge("c", i)
    return graph


def complete_graph(n: int) -> Graph:
    """Return the complete graph on vertices ``0 .. n-1``."""
    graph = Graph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(i, j)
    return graph


def complete_bipartite(n_left: int, n_right: int) -> BipartiteGraph:
    """Return ``K_{n_left, n_right}`` with vertices ``("l", i)`` / ``("r", j)``."""
    left = [("l", i) for i in range(n_left)]
    right = [("r", j) for j in range(n_right)]
    graph = BipartiteGraph(left=left, right=right)
    for u in left:
        for v in right:
            graph.add_edge(u, v)
    return graph


def random_graph(n: int, probability: float, rng: RandomLike = None) -> Graph:
    """Return an Erdos-Renyi ``G(n, p)`` graph on vertices ``0 .. n-1``."""
    generator = ensure_rng(rng)
    graph = Graph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if generator.random() < probability:
                graph.add_edge(i, j)
    return graph


def random_tree(n: int, rng: RandomLike = None) -> Graph:
    """Return a uniformly random recursive tree on ``0 .. n-1``.

    Each vertex ``i > 0`` attaches to a uniformly chosen earlier vertex.
    """
    if n <= 0:
        raise ValueError("a tree needs at least one vertex")
    generator = ensure_rng(rng)
    graph = Graph(vertices=range(n))
    for i in range(1, n):
        graph.add_edge(i, generator.randrange(i))
    return graph


def random_bipartite(
    n_left: int,
    n_right: int,
    probability: float,
    rng: RandomLike = None,
    ensure_no_isolated: bool = False,
) -> BipartiteGraph:
    """Return a random bipartite graph with edge probability ``probability``.

    Parameters
    ----------
    ensure_no_isolated:
        When ``True`` every vertex receives at least one incident edge
        (added uniformly at random), which matches the schema setting where
        every attribute appears in at least one relation.
    """
    generator = ensure_rng(rng)
    left = [("l", i) for i in range(n_left)]
    right = [("r", j) for j in range(n_right)]
    graph = BipartiteGraph(left=left, right=right)
    for u in left:
        for v in right:
            if generator.random() < probability:
                graph.add_edge(u, v)
    if ensure_no_isolated and left and right:
        for u in left:
            if graph.degree(u) == 0:
                graph.add_edge(u, right[generator.randrange(len(right))])
        for v in right:
            if graph.degree(v) == 0:
                graph.add_edge(left[generator.randrange(len(left))], v)
    return graph


def random_bipartite_tree(
    n_left: int, n_right: int, rng: RandomLike = None
) -> BipartiteGraph:
    """Return a random tree that alternates strictly between the two sides.

    The tree is grown vertex by vertex; each new vertex attaches to a random
    existing vertex of the opposite side.  The result is connected, acyclic
    and therefore (4,1)-chordal; it is the base case of several generators.
    """
    if n_left < 1 or n_right < 1:
        raise ValueError("both sides need at least one vertex")
    generator = ensure_rng(rng)
    left = [("l", i) for i in range(n_left)]
    right = [("r", j) for j in range(n_right)]
    graph = BipartiteGraph(left=left, right=right)
    placed_left = [left[0]]
    placed_right: List[Tuple[str, int]] = []
    pending_left = left[1:]
    pending_right = list(right)
    # first right vertex must attach to the only placed left vertex
    first_right = pending_right.pop(0)
    graph.add_edge(left[0], first_right)
    placed_right.append(first_right)
    while pending_left or pending_right:
        choices = []
        if pending_left and placed_right:
            choices.append("left")
        if pending_right and placed_left:
            choices.append("right")
        side = generator.choice(choices)
        if side == "left":
            vertex = pending_left.pop(0)
            partner = generator.choice(placed_right)
            graph.add_edge(vertex, partner)
            placed_left.append(vertex)
        else:
            vertex = pending_right.pop(0)
            partner = generator.choice(placed_left)
            graph.add_edge(vertex, partner)
            placed_right.append(vertex)
    return graph


# ----------------------------------------------------------------------
# at-scale families (CSR-direct, integer ids)
# ----------------------------------------------------------------------
def large_bipartite_tree(n: int, rng: RandomLike = None) -> IndexedGraph:
    """Random alternating tree on ``n`` integer ids as an :class:`IndexedGraph`.

    Vertex ``i`` sits on side ``1 + (i & 1)`` and each vertex ``i >= 1``
    attaches to a uniformly chosen earlier vertex of the opposite side
    (one always exists: ``i - 1``).  The result is a connected bipartite
    tree -- (4,1)-chordal, so the chordal solver paths apply -- built in
    O(n) with no hashable-vertex objects; comfortable at 10^5 - 10^6
    vertices.
    """
    if n < 2:
        raise ValueError("an alternating tree needs at least 2 vertices")
    generator = ensure_rng(rng)
    edges: List[Tuple[int, int]] = []
    for i in range(1, n):
        # earlier ids of the opposite parity are i-1, i-3, ...: there are
        # (i + 1) // 2 of them, at positions (i - 1) - 2k
        parent = (i - 1) - 2 * generator.randrange((i + 1) // 2)
        edges.append((parent, i))
    sides = array("b", bytes(n))
    for i in range(n):
        sides[i] = 1 + (i & 1)
    return IndexedGraph(n, edges=edges, sides=sides)


def large_block_chain(
    blocks: int, left_size: int = 2, right_size: int = 2
) -> IndexedGraph:
    """Chain of complete bipartite blocks glued at cut vertices, CSR-direct.

    The at-scale sibling of :func:`repro.datasets.generators.random_62_chordal_graph`:
    each block is a ``K_{left_size, right_size}`` sharing exactly one
    (right-side) cut vertex with its predecessor.  Complete bipartite
    blocks are (6,2)-chordal and single-vertex gluing creates no new
    cycles, so the whole chain is (6,2)-chordal -- a *chordal*-class
    schema with ``blocks * (left_size + right_size) - blocks + 1``
    vertices, built in O(|A|).  Deterministic (no rng): the structure,
    not the randomness, is the point at this scale.
    """
    if blocks < 1 or left_size < 1 or right_size < 1:
        raise ValueError("blocks and block sides must be positive")
    edges: List[Tuple[int, int]] = []
    side_values: List[int] = []
    anchor = -1  # the shared right-side cut vertex of the previous block
    next_id = 0
    for block in range(blocks):
        left = list(range(next_id, next_id + left_size))
        next_id += left_size
        side_values.extend([1] * left_size)
        if block == 0:
            right = list(range(next_id, next_id + right_size))
            next_id += right_size
            side_values.extend([2] * right_size)
        else:
            right = [anchor] + list(range(next_id, next_id + right_size - 1))
            next_id += right_size - 1
            side_values.extend([2] * (right_size - 1))
        for u in left:
            for v in right:
                edges.append((u, v))
        anchor = right[-1]
    return IndexedGraph(next_id, edges=edges, sides=array("b", side_values))


def large_random_bipartite(
    n_left: int, n_right: int, edge_count: int, rng: RandomLike = None
) -> IndexedGraph:
    """Sparse random bipartite graph over integer ids, CSR-direct.

    Ids ``0 .. n_left - 1`` form side 1 and the rest side 2;
    ``edge_count`` pairs are sampled uniformly with replacement
    (duplicates collapse, so the realised edge count can be slightly
    lower).  O(n + edge_count) -- the at-scale *general*-class workload;
    unlike :func:`random_bipartite` there is no per-pair coin flip, so
    10^6-vertex graphs with ~10^6 edges cost millions of operations, not
    ``n_left * n_right``.
    """
    if n_left < 1 or n_right < 1:
        raise ValueError("both sides need at least one vertex")
    if edge_count < 0:
        raise ValueError("edge_count must be non-negative")
    generator = ensure_rng(rng)
    n = n_left + n_right
    edges = [
        (generator.randrange(n_left), n_left + generator.randrange(n_right))
        for _ in range(edge_count)
    ]
    sides = array("b", [1] * n_left + [2] * n_right)
    return IndexedGraph(n, edges=edges, sides=sides)


def large_terminal_ids(
    graph: IndexedGraph, count: int, rng: RandomLike = None
) -> List[int]:
    """Sample a feasible terminal id set from an at-scale :class:`IndexedGraph`.

    Terminals are drawn from the connected component of vertex 0 (one
    O(|V| + |A|) BFS), so the resulting Steiner instance is feasible on
    the connected ``large_*`` families and on the giant component of
    sparse random ones.
    """
    generator = ensure_rng(rng)
    pool = graph.component_of(0)
    return generator.sample(pool, min(count, len(pool)))


def grid_graph(rows: int, columns: int) -> Graph:
    """Return the ``rows x columns`` grid graph on vertices ``(r, c)``."""
    graph = Graph(vertices=[(r, c) for r in range(rows) for c in range(columns)])
    for r in range(rows):
        for c in range(columns):
            if r + 1 < rows:
                graph.add_edge((r, c), (r + 1, c))
            if c + 1 < columns:
                graph.add_edge((r, c), (r, c + 1))
    return graph
