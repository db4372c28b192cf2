"""Classical Steiner-tree heuristics used as baselines.

The paper's polynomial algorithms are exact on restricted graph classes; to
put their behaviour in context the benchmark harnesses compare them against
the two standard polynomial *approximation* heuristics for general graphs
(with unit edge weights, so minimising edges = minimising vertices):

* the **shortest-path heuristic** of Takahashi and Matsuyama: grow the tree
  from one terminal, repeatedly attaching the closest unconnected terminal
  along a shortest path;
* the **distance-network heuristic** of Kou, Markowsky and Berman (KMB):
  build the metric closure over the terminals, take its minimum spanning
  tree, expand the edges back into shortest paths, and prune.

Both are 2-approximations for the edge count; neither is exact in general,
which is exactly the gap the paper's Algorithm 2 closes on (6,2)-chordal
graphs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.exceptions import DisconnectedTerminalsError
from repro.graphs.graph import Graph, Vertex
from repro.graphs.indexed import (
    GraphIndex,
    IndexedGraph,
    edge_adjacency,
    indexed_pruned_tree,
    parent_path_edges,
    to_indexed,
)
from repro.graphs.paths import shortest_path
from repro.graphs.spanning import spanning_tree
from repro.graphs.traversal import bfs_distances, component_containing
from repro.kernels.oracle import DistanceOracle
from repro.steiner.problem import (
    SteinerInstance,
    SteinerSolution,
    prune_non_terminal_leaves,
)


def shortest_path_heuristic(graph: Graph, terminals: Iterable[Vertex]) -> SteinerSolution:
    """Takahashi-Matsuyama shortest-path heuristic (unit weights).

    The terminal distance rows are computed once up front instead of once
    per attachment round -- the rows only depend on the host graph, so the
    produced tree is unchanged.
    """
    instance = SteinerInstance(graph, terminals)
    instance.require_feasible()
    terminal_list = instance.terminal_list()
    tree_vertices = {terminal_list[0]}
    tree = Graph(vertices=[terminal_list[0]])
    remaining = [t for t in terminal_list[1:]]
    rows = {t: bfs_distances(graph, t) for t in remaining}
    while remaining:
        # distances from the current tree to every vertex: one cached BFS
        # row per remaining terminal, pick the terminal closest to the tree.
        best_terminal = None
        best_path: Optional[List[Vertex]] = None
        for terminal in remaining:
            if terminal in tree_vertices:
                path: Optional[List[Vertex]] = [terminal]
            else:
                distances = rows[terminal]
                reachable = [v for v in tree_vertices if v in distances]
                target = min(reachable, key=lambda v: (distances[v], repr(v)))
                path = shortest_path(graph, terminal, target)
            if best_path is None or len(path) < len(best_path):
                best_path = path
                best_terminal = terminal
        remaining.remove(best_terminal)
        for u, v in zip(best_path, best_path[1:]):
            tree.add_edge(u, v)
        tree_vertices |= set(best_path)
        tree.add_vertex(best_terminal)
    # the union of the added paths may contain cycles; keep a spanning tree
    component = component_containing(tree, terminal_list[0])
    cleaned = spanning_tree(tree.subgraph(component))
    cleaned = prune_non_terminal_leaves(cleaned, terminal_list)
    return SteinerSolution(
        tree=cleaned, instance=instance, method="shortest-path-heuristic", optimal=False
    )


def kou_markowsky_berman(
    graph: Graph,
    terminals: Iterable[Vertex],
    *,
    indexed: Optional[IndexedGraph] = None,
    index: Optional[GraphIndex] = None,
    oracle: Optional[DistanceOracle] = None,
) -> SteinerSolution:
    """Kou-Markowsky-Berman distance-network heuristic (unit weights).

    Runs on integer ids: the terminals' metric closure, its minimum spanning tree (Prim), the expansion of
    every closure edge ``(u, v)`` into the shortest path the parent row of
    ``u`` holds, and a spanning tree of that expansion pruned to the
    terminals.  Ties break by ascending id -- ``repr`` order on a label
    graph, whose ids :func:`~repro.graphs.indexed.to_indexed` assigns in
    that order -- so the tree is the one the label-space formulation
    builds: Prim picks the least ``(distance, u, v)``, and a parent row
    holds the discovery order of
    :func:`~repro.graphs.paths.shortest_path`.  The tree stays on ids; its
    labels decode on first read.

    Parameters
    ----------
    indexed, index:
        An indexed view of ``graph``, as
        :func:`~repro.graphs.indexed.to_indexed` returns it.  Pass both or
        neither; built on the fly when omitted.
    oracle:
        A :class:`~repro.kernels.oracle.DistanceOracle` over ``indexed``
        supplying the terminals' level rows and the closure edges' parent
        rows (cached across calls).  Without one, a private oracle
        computes them.
    """
    instance = SteinerInstance(graph, terminals)
    terminal_list = instance.terminal_list()
    if len(terminal_list) == 1:
        return SteinerSolution(
            tree=Graph(vertices=terminal_list),
            instance=instance,
            method="kmb",
            optimal=False,
        )
    if indexed is None:
        indexed, index = to_indexed(graph)
    elif index is None:
        raise TypeError("indexed= needs its index=: pass both or neither")
    if oracle is None:
        oracle = DistanceOracle(indexed)
    ids = sorted(index.encode(terminal_list))
    rows = [oracle.levels(ids[0])]
    if any(rows[0][t] < 0 for t in ids):
        raise DisconnectedTerminalsError(
            "the terminals do not lie in a single connected component"
        )
    # 1. metric closure over the terminals
    rows += [oracle.levels(u) for u in ids[1:]]
    closure = [[row[v] for v in ids] for row in rows]
    # 2. minimum spanning tree of the closure (Prim): the least crossing
    #    (d, u, v) joins first, kept per outside terminal as (d, u)
    best = {j: (closure[0][j], 0) for j in range(1, len(ids))}
    closure_edges: List[Tuple[int, int]] = []
    while best:
        j = min(best, key=lambda t: (best[t], t))
        i = best.pop(j)[1]
        closure_edges.append((ids[i], ids[j]))
        row = closure[j]
        for other, entry in best.items():
            if (row[other], j) < entry:
                best[other] = (row[other], j)
    # 3. expand closure edges into shortest paths along u's parent row
    path_edges: List[Tuple[int, int]] = []
    for u, v in closure_edges:
        path_edges.extend(parent_path_edges(oracle.parents(u), u, v))
    # 4. spanning tree of the expansion, pruned to the terminals (on ids;
    #    its labels decode on first read)
    return SteinerSolution(
        ids=indexed_pruned_tree(edge_adjacency(path_edges), ids),
        index=index,
        instance=instance,
        method="kmb",
        optimal=False,
    )
