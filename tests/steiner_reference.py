"""The Dreyfus-Wagner dynamic program as it was before the id-space rewrite.

This is the label-space ``O(2^k n^2)`` body of
``steiner_tree_dreyfus_wagner`` kept as a reference only: all-pairs BFS
over label dicts rebuilt on every call, sub-mask merges per vertex, and
the extension by an in-place ascending scan over every vertex pair.  No
production path runs it.  ``tests/test_steiner_dreyfus_wagner.py`` pins
the id-space solver against it tree-for-tree, and experiment EX1
(``benchmarks/bench_steiner_exact.py``) times the solver against it, so
both compare with one and the same reference.
"""

from typing import Dict, Iterable, List, Tuple

from repro.graphs.graph import Graph, Vertex
from repro.graphs.spanning import spanning_tree
from repro.graphs.traversal import bfs_distances
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

    from repro.graphs.paths import shortest_path

    infinity = float("inf")
    first_terminals = terminal_list[:-1]
    root = terminal_list[-1]
    index_of = {t: 1 << i for i, t in enumerate(first_terminals)}
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
    from repro.graphs.traversal import component_containing

    component = component_containing(cover, root)
    tree = spanning_tree(cover.subgraph(component))
    tree = prune_non_terminal_leaves(tree, terminal_list)
    solution = SteinerSolution(
        tree=tree, instance=instance, method="dreyfus-wagner", optimal=True
    )
    solution.metadata["dp_cost_edges"] = cost[full_mask][root]
    return solution
