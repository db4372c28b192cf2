"""Exact Steiner-tree solvers (exponential baselines).

Two independent exact methods are provided:

* :func:`steiner_tree_bruteforce` enumerates candidate Steiner-vertex
  subsets by increasing size -- transparently correct, usable up to roughly
  20 optional vertices, and the ground truth for everything else;
* :func:`steiner_tree_dreyfus_wagner` is the classical
  Dreyfus-Wagner dynamic program over terminal subsets, run on integer
  ids from the ``k - 1`` BFS distance rows of the non-root terminals in
  ``O(3^k n + 2^k (n + m))`` time -- it scales to larger graphs as long
  as the terminal set stays small.

Both minimise the number of tree vertices, which for trees is equivalent to
minimising the number of edges with unit edge weights.
"""

from __future__ import annotations

from itertools import combinations
from operator import add
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
from repro.graphs.spanning import spanning_tree
from repro.graphs.traversal import component_containing, vertices_in_same_component
from repro.kernels.oracle import DistanceOracle
from repro.steiner.problem import (
    SteinerInstance,
    SteinerSolution,
    prune_non_terminal_leaves,
)


def steiner_tree_bruteforce(
    graph: Graph, terminals: Iterable[Vertex], max_extra: Optional[int] = None
) -> SteinerSolution:
    """Exact Steiner tree by enumerating Steiner-vertex subsets.

    Candidate subsets of non-terminal vertices are tried in order of
    increasing size; the first size at which the terminals become connected
    yields an optimal tree (any spanning tree of the connected cover).

    Parameters
    ----------
    max_extra:
        Optional upper bound on the number of Steiner vertices to consider
        (used to bound worst-case time in property tests); when the bound is
        hit without finding a solution a
        :class:`DisconnectedTerminalsError` is raised.
    """
    instance = SteinerInstance(graph, terminals)
    instance.require_feasible()
    terminal_set = set(instance.terminals)
    optional = sorted(graph.vertices() - terminal_set, key=repr)
    bound = len(optional) if max_extra is None else min(max_extra, len(optional))
    for extra in range(bound + 1):
        for subset in combinations(optional, extra):
            kept = terminal_set | set(subset)
            induced = graph.subgraph(kept)
            if not vertices_in_same_component(induced, terminal_set):
                continue
            component = _component_of_terminals(induced, terminal_set)
            tree = spanning_tree(induced.subgraph(component))
            tree = prune_non_terminal_leaves(tree, terminal_set)
            return SteinerSolution(
                tree=tree,
                instance=instance,
                method="bruteforce",
                optimal=True,
            )
    raise DisconnectedTerminalsError(
        "no connecting subset found within the allowed number of Steiner vertices"
    )


def _component_of_terminals(graph: Graph, terminals) -> set:
    first = next(iter(terminals))
    return component_containing(graph, first)


def steiner_tree_dreyfus_wagner(
    graph: Graph,
    terminals: Iterable[Vertex],
    *,
    indexed: Optional[IndexedGraph] = None,
    index: Optional[GraphIndex] = None,
    oracle: Optional[DistanceOracle] = None,
) -> SteinerSolution:
    """Exact Steiner tree via the Dreyfus-Wagner dynamic program.

    The DP (Dreyfus & Wagner, 1971) computes ``cost[S][v]`` = minimum
    number of edges of a tree spanning the terminal subset ``S`` plus the
    vertex ``v``, for every subset ``S`` of the ``k - 1`` non-root
    terminals, on integer ids.  The singleton rows are BFS distance rows;
    every larger subset first merges two complementary sub-subsets at
    each vertex (``O(3^k n)`` in all), then extends the merge costs along
    shortest paths.  With unit weights that extension is one multi-source
    bucket BFS seeded with the merge costs, ``O(n + m)`` per subset (the
    shortest-path extension of Erickson, Monma & Veinott, 1987), so no
    all-pairs distances are ever built.  Unit edge weights make the number
    of edges equal to the number of vertices minus one, so the result also
    minimises Definition 8's vertex count.

    The tree is recovered from the cost tables with fixed tie-breaks, ids
    following ``graph.sorted_vertices()``: a merge takes the first
    sub-mask of the descending enumeration ``(mask - 1) & mask, ...`` that
    reaches the minimum, and an extension into ``v`` starts at the
    smallest strict ancestor of ``v`` in the DAG of tight edges ``x -> y``
    (``cost[y] == cost[x] + 1``) when that ancestor's id is below ``v``'s,
    else at the smallest such ancestor whose cost is its merge cost.
    These are the choices of an in-place ascending scan over all vertex
    pairs, so the trees equal those of the classical ``O(2^k n^2)``
    formulation.

    Parameters
    ----------
    indexed, index:
        An indexed view of ``graph``, as
        :func:`~repro.graphs.indexed.to_indexed` returns it.  Pass both or
        neither; built on the fly when omitted.
    oracle:
        A :class:`~repro.kernels.oracle.DistanceOracle` over ``indexed``
        supplying the terminals' distance rows and the parent rows the
        tree's paths follow (both cached across calls).  Without one, a
        private oracle computes them.
    """
    instance = SteinerInstance(graph, terminals)
    terminal_list: List[Vertex] = instance.terminal_list()
    if indexed is None:
        indexed, index = to_indexed(graph)
    elif index is None:
        raise TypeError("indexed= needs its index=: pass both or neither")
    if oracle is None:
        oracle = DistanceOracle(indexed)
    ids = index.encode(terminal_list)
    root = ids[-1]
    unreachable = 2 * indexed.n + 2  # above every finite merge cost
    # one plain list per non-root terminal, converted once: the DP sums
    # and indexes these rows over and over, and lists are fastest at that
    rows = [
        [d if d >= 0 else unreachable for d in oracle.levels(terminal).tolist()]
        for terminal in ids[:-1]
    ]
    if any(row[root] == unreachable for row in rows):
        raise DisconnectedTerminalsError(
            "the terminals do not lie in a single connected component"
        )

    if len(terminal_list) == 1:
        tree = Graph(vertices=[terminal_list[0]])
        return SteinerSolution(tree=tree, instance=instance, method="dreyfus-wagner", optimal=True)

    adjacency = indexed._rows
    full_mask = (1 << len(rows)) - 1
    # cost[mask][v] after the extension, merged[mask][v] before it
    cost: List[Optional[List[int]]] = [None] * (full_mask + 1)
    merged: List[Optional[List[int]]] = [None] * (full_mask + 1)
    for bit, row in enumerate(rows):
        cost[1 << bit] = row
    for mask in range(3, full_mask + 1):
        if mask & (mask - 1) == 0:
            continue  # singletons are the distance rows
        # each unordered split {sub, mask ^ sub} once: the side holding
        # the lowest bit; the element-wise minimum runs in C
        low = mask & -mask
        splits = []
        submask = (mask - 1) & mask
        while submask:
            if submask & low:
                splits.append(map(add, cost[submask], cost[mask ^ submask]))
            submask = (submask - 1) & mask
        best = list(splits[0]) if len(splits) == 1 else list(map(min, *splits))
        merged[mask] = best
        cost[mask] = _extend(best, adjacency, unreachable)

    # recover the tree edges (id pairs along BFS parent rows); the oracle
    # keeps each source's row across calls, with the same tie-break
    edges: List[Tuple[int, int]] = []

    def _shortest_path_edges(u: int, v: int) -> None:
        if u != v:
            edges.extend(parent_path_edges(oracle.parents(u), u, v))

    stack = [(full_mask, root)]
    while stack:
        mask, v = stack.pop()
        if mask & (mask - 1) == 0:
            _shortest_path_edges(ids[mask.bit_length() - 1], v)
            continue
        total, best = cost[mask], merged[mask]
        if total[v] < best[v]:
            u = _extension_source(total, best, adjacency, v)
            _shortest_path_edges(u, v)
            stack.append((mask, u))
            continue
        target = best[v]
        submask = (mask - 1) & mask
        while cost[submask][v] + cost[mask ^ submask][v] != target:
            submask = (submask - 1) & mask
        stack.append((submask, v))
        stack.append((mask ^ submask, v))

    # the union of the recovered paths is connected and spans the
    # terminals, and a spanning tree of it achieves the DP cost (with unit
    # weights any cycle would contradict minimality, but pruning keeps us
    # safe); built on ids, its labels decode on first read
    solution = SteinerSolution(
        ids=indexed_pruned_tree(edge_adjacency(edges), ids),
        index=index,
        instance=instance,
        method="dreyfus-wagner",
        optimal=True,
    )
    solution.metadata["dp_cost_edges"] = cost[full_mask][root]
    return solution


def _extend(merged: List[int], adjacency: List[List[int]], unreachable: int) -> List[int]:
    """Return ``min over u of merged[u] + dist(u, v)`` for every vertex ``v``.

    One unit-weight relaxation in nondecreasing cost order (Dial's
    buckets), seeded with every finite merge cost: ``O(n + m)``.
    """
    cost = merged[:]
    top = min(max(merged), unreachable)
    buckets: List[List[int]] = [[] for _ in range(top + 2)]
    for v, c in enumerate(merged):
        if c < unreachable:
            buckets[c].append(v)
    for c in range(top + 1):
        step = c + 1
        for v in buckets[c]:
            if cost[v] != c:
                continue  # settled earlier at a lower cost
            for w in adjacency[v]:
                if cost[w] > step:
                    cost[w] = step
                    buckets[step].append(w)
    return cost


def _extension_source(
    cost: List[int], merged: List[int], adjacency: List[List[int]], v: int
) -> int:
    """Return the vertex an extension into ``v`` starts from.

    Walks the strict ancestors of ``v`` in the DAG of tight edges
    ``x -> y`` (``cost[y] == cost[x] + 1``).  The smallest ancestor wins
    when its id is below ``v``'s; otherwise the smallest ancestor whose
    cost is its merge cost does.  That is the vertex an in-place ascending
    scan over every ``u`` (``cost[u] + dist(u, v)``, already extended for
    ``u < v``, merge costs for ``u > v``) records first at the minimum.
    """
    smallest = smallest_merged = len(cost)
    seen = {v}
    stack = [v]
    while stack:
        y = stack.pop()
        tight = cost[y] - 1
        for x in adjacency[y]:
            if cost[x] == tight and x not in seen:
                seen.add(x)
                stack.append(x)
                if x < smallest:
                    smallest = x
                if x < smallest_merged and merged[x] == tight:
                    smallest_merged = x
    return smallest if smallest < v else smallest_merged
