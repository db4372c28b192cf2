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

from typing import Dict, Iterable, List, Optional, Tuple

from repro.graphs.backend import is_indexed
from repro.graphs.graph import Graph, Vertex
from repro.graphs.paths import shortest_path
from repro.graphs.spanning import spanning_tree
from repro.graphs.traversal import bfs_distances, component_containing
from repro.steiner.problem import (
    SteinerInstance,
    SteinerSolution,
    prune_non_terminal_leaves,
)


def _terminal_distance_rows(graph: Graph, terminal_list) -> Dict[Vertex, Dict[Vertex, int]]:
    """Return ``{terminal: {vertex: distance}}``, batched on the fast backend.

    On an :class:`~repro.graphs.indexed.IndexedGraph` the rows come from
    one grouped kernel call sharing a scratch buffer
    (:func:`repro.kernels.bfs.grouped_bfs_levels`); the mappings are
    value-identical to per-terminal :func:`bfs_distances` calls either
    way.
    """
    if is_indexed(graph):
        from repro.kernels.bfs import grouped_bfs_levels, levels_to_dict

        rows = grouped_bfs_levels(graph, terminal_list)
        vertex_ids = range(graph.n)
        return {
            terminal: levels_to_dict(row, vertex_ids)
            for terminal, row in zip(terminal_list, rows)
        }
    return {t: bfs_distances(graph, t) for t in terminal_list}


def shortest_path_heuristic(graph: Graph, terminals: Iterable[Vertex]) -> SteinerSolution:
    """Takahashi-Matsuyama shortest-path heuristic (unit weights).

    Accepts either graph backend: the terminal distance rows are computed
    once up front (through the grouped BFS kernel when ``graph`` is an
    :class:`~repro.graphs.indexed.IndexedGraph`; terminals are then ids)
    instead of once per attachment round -- the rows only depend on the
    host graph, so the produced tree is unchanged.
    """
    instance = SteinerInstance(graph, terminals)
    instance.require_feasible()
    terminal_list = instance.terminal_list()
    tree_vertices = {terminal_list[0]}
    tree = Graph(vertices=[terminal_list[0]])
    remaining = [t for t in terminal_list[1:]]
    rows = _terminal_distance_rows(graph, remaining) if remaining else {}
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
    distances: Optional[Dict[Vertex, Dict[Vertex, int]]] = None,
) -> SteinerSolution:
    """Kou-Markowsky-Berman distance-network heuristic (unit weights).

    Accepts either graph backend.  ``distances`` optionally supplies
    precomputed BFS distances ``terminal -> {vertex: distance}`` for every
    terminal.  The metric closure reads only distances between terminals,
    so rows restricted to the terminals suffice; the engine passes such
    rows, read off its distance oracle, so the closure is not rebuilt for
    every query.
    """
    instance = SteinerInstance(graph, terminals)
    instance.require_feasible()
    terminal_list = instance.terminal_list()
    if len(terminal_list) == 1:
        return SteinerSolution(
            tree=Graph(vertices=terminal_list),
            instance=instance,
            method="kmb",
            optimal=False,
        )
    # 1. metric closure over the terminals (grouped kernel on the
    #    indexed backend; the engine passes its oracle-backed rows here)
    if distances is None:
        distances = _terminal_distance_rows(graph, terminal_list)
    # 2. minimum spanning tree of the closure (Prim)
    in_tree = {terminal_list[0]}
    closure_edges: List[Tuple[Vertex, Vertex]] = []
    while len(in_tree) < len(terminal_list):
        best: Optional[Tuple[int, Vertex, Vertex]] = None
        for u in in_tree:
            for v in terminal_list:
                if v in in_tree:
                    continue
                d = distances[u].get(v)
                if d is None:
                    continue
                candidate = (d, repr(u), repr(v))
                if best is None or candidate < (best[0], repr(best[1]), repr(best[2])):
                    best = (d, u, v)
        closure_edges.append((best[1], best[2]))
        in_tree.add(best[2])
    # 3. expand closure edges into shortest paths in the original graph
    expanded = Graph(vertices=terminal_list)
    for u, v in closure_edges:
        path = shortest_path(graph, u, v)
        for a, b in zip(path, path[1:]):
            expanded.add_edge(a, b)
    # 4. spanning tree of the expansion, then prune non-terminal leaves
    component = component_containing(expanded, terminal_list[0])
    tree = spanning_tree(expanded.subgraph(component))
    tree = prune_non_terminal_leaves(tree, terminal_list)
    return SteinerSolution(tree=tree, instance=instance, method="kmb", optimal=False)
