"""Label-space Steiner solvers as they were before the id-space rewrites.

Two references, kept only as test oracles; no production path runs them:

* ``reference_dreyfus_wagner`` -- the ``O(2^k n^2)`` body of
  ``steiner_tree_dreyfus_wagner``: all-pairs BFS over label dicts rebuilt
  on every call, sub-mask merges per vertex, and the extension by an
  in-place ascending scan over every vertex pair;
* ``reference_kou_markowsky_berman`` -- the label-space body of
  ``kou_markowsky_berman``: one label BFS per terminal for the metric
  closure, Prim with ``repr`` tie-breaks, and one ``shortest_path`` BFS
  per closure edge.

``tests/test_steiner_dreyfus_wagner.py`` and ``tests/test_id_trees.py``
pin the id-space solvers against them tree-for-tree, and experiments EX1
and EX2 (``benchmarks/bench_steiner_exact.py``) time the solvers against
them, so both compare with one and the same reference.
"""

from typing import Dict, Iterable, List, Optional, Tuple

from repro.graphs.graph import Graph, Vertex
from repro.graphs.paths import shortest_path
from repro.graphs.spanning import spanning_tree
from repro.graphs.traversal import bfs_distances, component_containing
from repro.steiner.problem import (
    SteinerInstance,
    SteinerSolution,
    prune_non_terminal_leaves,
)


def reference_dreyfus_wagner(
    graph: Graph, terminals: Iterable[Vertex]
) -> SteinerSolution:
    """Exact Steiner tree via the Dreyfus-Wagner dynamic program.

    The DP computes ``cost[S][v]`` = minimum number of edges of a tree
    spanning the terminal subset ``S`` plus the vertex ``v``; trees are
    recovered through parent pointers.  Unit edge weights make the number
    of edges equal to the number of vertices minus one, so the result also
    minimises Definition 8's vertex count.
    """
    instance = SteinerInstance(graph, terminals)
    instance.require_feasible()
    terminal_list: List[Vertex] = instance.terminal_list()
    vertices = graph.sorted_vertices()

    if len(terminal_list) == 1:
        tree = Graph(vertices=[terminal_list[0]])
        return SteinerSolution(tree=tree, instance=instance, method="dreyfus-wagner", optimal=True)

    # all-pairs shortest-path distances and intermediate vertices (BFS per vertex)
    distances: Dict[Vertex, Dict[Vertex, int]] = {
        v: bfs_distances(graph, v) for v in vertices
    }
    paths: Dict[Tuple[Vertex, Vertex], List[Vertex]] = {}

    infinity = float("inf")
    first_terminals = terminal_list[:-1]
    root = terminal_list[-1]
    full_mask = (1 << len(first_terminals)) - 1

    # cost[mask][v]: minimum edges of a tree spanning {terminals in mask} ∪ {v}
    cost: List[Dict[Vertex, float]] = [dict() for _ in range(full_mask + 1)]
    choice: List[Dict[Vertex, Tuple]] = [dict() for _ in range(full_mask + 1)]

    for i, terminal in enumerate(first_terminals):
        mask = 1 << i
        for v in vertices:
            d = distances[terminal].get(v, infinity)
            cost[mask][v] = d
            choice[mask][v] = ("path", terminal, v)

    for mask in range(1, full_mask + 1):
        if mask & (mask - 1) == 0:
            continue  # singletons initialised above
        # combine sub-masks
        for v in vertices:
            best = infinity
            best_choice = None
            submask = (mask - 1) & mask
            while submask:
                other = mask ^ submask
                if 0 < submask < mask:
                    a = cost[submask].get(v, infinity)
                    b = cost[other].get(v, infinity)
                    if a + b < best:
                        best = a + b
                        best_choice = ("merge", submask, other, v)
                submask = (submask - 1) & mask
            cost[mask][v] = best
            choice[mask][v] = best_choice
        # propagate through shortest paths (unit weights: simple relaxation
        # via repeated BFS-like rounds would be costly; instead combine with
        # the precomputed distances)
        for v in vertices:
            best = cost[mask][v]
            best_choice = choice[mask][v]
            for u in vertices:
                through = cost[mask].get(u, infinity) + distances[u].get(v, infinity)
                if through < best:
                    best = through
                    best_choice = ("extend", u, v, mask)
            cost[mask][v] = best
            choice[mask][v] = best_choice

    # recover the tree edges
    edges: set = set()

    def _shortest_path_edges(u: Vertex, v: Vertex) -> None:
        if u == v:
            return
        key = (u, v)
        if key not in paths:
            paths[key] = shortest_path(graph, u, v)
        walk = paths[key]
        for a, b in zip(walk, walk[1:]):
            edges.add(frozenset((a, b)))

    def _rebuild(mask: int, v: Vertex) -> None:
        if mask == 0:
            return
        record = choice[mask].get(v)
        if record is None:
            return
        kind = record[0]
        if kind == "path":
            _terminal, vertex = record[1], record[2]
            _shortest_path_edges(_terminal, vertex)
        elif kind == "extend":
            u, vertex, inner_mask = record[1], record[2], record[3]
            _shortest_path_edges(u, vertex)
            _rebuild(inner_mask, u)
        elif kind == "merge":
            submask, other, vertex = record[1], record[2], record[3]
            _rebuild(submask, vertex)
            _rebuild(other, vertex)

    _rebuild(full_mask, root)
    cover = Graph(vertices=[root] + terminal_list)
    for edge in edges:
        u, v = tuple(edge)
        cover.add_edge(u, v)
    for terminal in terminal_list:
        cover.add_vertex(terminal)
    # The union of the recovered paths is connected and spans the terminals;
    # a spanning tree of it achieves the DP cost (with unit weights any
    # cycle would contradict minimality, but pruning keeps us safe).
    component = component_containing(cover, root)
    tree = spanning_tree(cover.subgraph(component))
    tree = prune_non_terminal_leaves(tree, terminal_list)
    solution = SteinerSolution(
        tree=tree, instance=instance, method="dreyfus-wagner", optimal=True
    )
    solution.metadata["dp_cost_edges"] = cost[full_mask][root]
    return solution


def reference_kou_markowsky_berman(
    graph: Graph, terminals: Iterable[Vertex]
) -> SteinerSolution:
    """Kou-Markowsky-Berman distance-network heuristic (unit weights).

    Metric closure over the terminals from one BFS each, its minimum
    spanning tree by Prim with ``(distance, repr(u), repr(v))`` ties, each
    closure edge expanded into ``shortest_path``, then a spanning tree of
    the expansion pruned to the terminals.
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
    # 1. metric closure over the terminals
    distances = {t: bfs_distances(graph, t) for t in terminal_list}
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
